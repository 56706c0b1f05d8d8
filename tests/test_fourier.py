"""Function families, spectral profiles, and the exact noise formulas."""

import math

import numpy as np
import pytest

from xproc.fourier import (
    THRESH_SLACK,
    BooleanFunction,
    SpectralProfile,
    band_mass,
    dictator,
    exact_correlation,
    exact_covariance,
    exact_flip_probability,
    majority,
    make_function,
    mass_by_eigenvalue,
    parity_on_set,
    profile_csv_rows,
    profile_summary,
    spectral_profile,
    threshold_mask,
)
from xproc.graph import make_complete, make_cycle
from xproc.oracle import brute_force_correlation
from xproc.spectral import (
    complete_graph_basis, group_eigenvalues, mirror_basis,
)
from xproc.statespace import Configuration, enumerate_level

from conftest import solve_alone


def test_dictator_values():
    for n in range(2, 10):
        configs = [Configuration(n, word) for word in range(1 << n)]
        for v in range(n):
            assert dictator(n, v).values.tolist() == [x.get(v) for x in configs]


def test_parity_single_vertex_is_dictator():
    np.testing.assert_array_equal(parity_on_set(2, [0]).values, dictator(2, 0).values)


def test_parity_mean_brute_force():
    f = parity_on_set(6, [0, 2, 4])
    assert f.values.shape == (64,)
    # brute force over all 64 states
    total = 0
    for word in range(64):
        x = Configuration(6, word)
        total += (x.get(0) + x.get(2) + x.get(4)) % 2
    assert f.values.sum() == total
    assert f.mean() == pytest.approx(0.5)


def test_parity_indicator_form():
    f = parity_on_set(4, [1, 3])
    for word in range(16):
        x = Configuration(4, word)
        count = x.get(1) + x.get(3)
        assert f.values[word] == (1 - (-1) ** count) / 2
    rng = np.random.default_rng(2)
    for n in range(2, 10):
        configs = [Configuration(n, word) for word in range(1 << n)]
        for vertices in ([], range(n), [n - 1], rng.choice(n, n // 2, replace=False)):
            want = [sum(x.get(v) for v in vertices) % 2 for x in configs]
            assert parity_on_set(n, vertices).values.tolist() == want


def test_majority_convention():
    f = majority(4)
    for word in range(16):
        weight = Configuration(4, word).weight()
        assert f.values[word] == (1.0 if weight > 2 else 0.0)
    for n in range(2, 10):
        want = [sum(Configuration(n, word).get(v) for v in range(n)) > n / 2
                for word in range(1 << n)]
        assert majority(n).values.tolist() == want


def test_make_function_dispatch():
    assert np.array_equal(make_function(3, "dictator:1").values, dictator(3, 1).values)
    assert np.array_equal(make_function(4, "parity_on_set:0,2").values,
                          parity_on_set(4, [0, 2]).values)
    assert np.array_equal(make_function(3, "majority").values, majority(3).values)
    with pytest.raises(ValueError):
        make_function(3, "tribes:2")
    for spec in ("majority:3", "majority:"):
        with pytest.raises(ValueError, match="majority takes no argument"):
            make_function(3, spec)
    # no vertex list, an empty entry or a repeated vertex
    for spec in ("parity_on_set", "parity_on_set:", "parity_on_set:0,,2", "parity_on_set:0,",
                 "parity_on_set:1,1", "parity_on_set:2,0,02"):
        with pytest.raises(ValueError, match="parity_on_set takes a list of distinct vertices"):
            make_function(4, spec)
    # the empty set stays open to callers that mean it: the constant zero
    assert not parity_on_set(4, []).values.any()


def test_table_validation():
    with pytest.raises(ValueError):
        BooleanFunction(3, np.zeros(7))
    with pytest.raises(ValueError):
        BooleanFunction(2, np.array([0.0, 0.5, 1.0, 0.0]))
    # any sequence of 0s and 1s is read as a float table
    f = BooleanFunction(2, [0, 1, 1, 0])
    assert f.values.dtype == float and f.values.tolist() == [0.0, 1.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_of_constant():
    g = make_cycle(4, 1.0)
    f = BooleanFunction(4, np.ones(16))
    profile = spectral_profile(f, solve_alone(g))
    assert profile.total_mass == pytest.approx(1.0, abs=1e-12)
    assert profile.zero_mass() == pytest.approx(1.0, abs=1e-12)
    assert profile.conditional_mean_variance == pytest.approx(0.0, abs=1e-12)
    assert profile.variance() == pytest.approx(0.0, abs=1e-12)


def test_profile_dictator_k2_frozen():
    # brute force over the 4 states of {0,1}^2:
    #   <f,f> = 1/2, E[f] = 1/2,
    #   zero-eigenvalue mass = sum_l P(l) E[f|l]^2 = 1/4*0 + 1/2*(1/2)^2 + 1/4*1 = 3/8,
    #   leaving 1/8 at the swap eigenvalue lambda = 2.
    g = make_complete(2, 1.0)
    f = dictator(2, 0)
    profile = spectral_profile(f, solve_alone(g))
    assert profile.total_mass == pytest.approx(0.5, abs=1e-12)
    assert profile.mean == pytest.approx(0.5)
    assert profile.zero_mass() == pytest.approx(3 / 8, abs=1e-12)
    assert profile.conditional_mean_variance == pytest.approx(1 / 8, abs=1e-12)
    by_lam = dict(mass_by_eigenvalue(profile))
    assert by_lam[0.0] == pytest.approx(3 / 8, abs=1e-12)
    assert by_lam[2.0] == pytest.approx(1 / 8, abs=1e-12)


def test_zero_block_equals_conditional_means():
    rng = np.random.default_rng(31)
    n = 5
    g = make_cycle(n, 0.7)
    f = BooleanFunction(n, rng.integers(0, 2, size=32).astype(float))
    profile = spectral_profile(f, solve_alone(g))
    # independent conditional averaging
    expected = 0.0
    for level in range(n + 1):
        space = enumerate_level(n, level)
        p_level = space.size / 2.0**n
        expected += p_level * float(f.values[space.words].mean()) ** 2
    assert profile.zero_mass() == pytest.approx(expected, abs=1e-10)
    assert profile.conditional_mean_variance == pytest.approx(
        expected - f.mean() ** 2, abs=1e-10
    )


@pytest.mark.parametrize("seed", range(6))
def test_parseval(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    g = make_cycle(n, float(rng.uniform(0.2, 1.5)))
    f = BooleanFunction(n, rng.integers(0, 2, size=1 << n).astype(float))
    profile = spectral_profile(f, solve_alone(g))
    assert profile.total_mass == pytest.approx(float(np.mean(f.values**2)), abs=1e-10)


def test_profile_requires_all_levels():
    g = make_cycle(4, 1.0)
    bases = solve_alone(g)
    f = dictator(4, 0)
    with pytest.raises(ValueError):
        spectral_profile(f, bases[:-1])
    with pytest.raises(ValueError):
        spectral_profile(dictator(5, 0), bases)


def test_profile_invariant_under_basis_choice():
    # generic eigensolver vs closed-form construction on K_6: bucketed
    # masses agree even though degenerate eigenvectors differ
    n = 6
    g = make_complete(n, 0.5)
    f = parity_on_set(n, [0, 2])
    generic = spectral_profile(f, solve_alone(g))
    closed = []
    for level in range(n + 1):
        if level <= n // 2:
            closed.append(complete_graph_basis(n, level, 0.5))
        else:
            closed.append(mirror_basis(complete_graph_basis(n, n - level, 0.5)))
    special = spectral_profile(f, closed)
    a = dict(mass_by_eigenvalue(generic))
    b = dict(mass_by_eigenvalue(special))
    assert set(map(round_key, a)) == set(map(round_key, b))
    for lam, mass in a.items():
        match = min(b, key=lambda mu: abs(mu - lam))
        assert abs(match - lam) <= 1e-8 * max(1.0, lam)
        assert mass == pytest.approx(b[match], abs=1e-8)


def round_key(x):
    return round(x, 6)


def test_eigenvalue_bound_in_profiles():
    from xproc.graph import max_degree

    g = make_cycle(6, 0.5)
    f = parity_on_set(6, [0, 3])
    profile = spectral_profile(f, solve_alone(g))
    d = max_degree(g)
    for level, lam, _ in profile.entries():
        assert lam <= 2 * 0.5 * level * d + 1e-9


# ---------------------------------------------------------------------------
# exact formulas
# ---------------------------------------------------------------------------

def profile_for(g, f):
    return spectral_profile(f, solve_alone(g))


def test_correlation_at_zero_and_infinity():
    g = make_cycle(5, 1.0)
    f = parity_on_set(5, [0, 2])
    profile = profile_for(g, f)
    assert exact_correlation(profile, 0.0) == pytest.approx(profile.total_mass, abs=1e-12)
    lam_min = min(lam for _, lam, _ in profile.entries() if lam > 1e-8)
    assert exact_correlation(profile, 1e6 / lam_min) == pytest.approx(
        profile.zero_mass(), abs=1e-10
    )
    with pytest.raises(ValueError):
        exact_correlation(profile, -0.1)


def test_correlation_monotone_on_grid():
    g = make_complete(5, 0.5)
    f = majority(5)
    profile = profile_for(g, f)
    grid = np.linspace(0.0, 5.0, 40)
    values = [exact_correlation(profile, t) for t in grid]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_correlation_vs_matrix_exponential_oracle():
    g = make_complete(3, 1.0)
    f = dictator(3, 0)
    profile = profile_for(g, f)
    assert exact_correlation(profile, 1.0) == pytest.approx(
        brute_force_correlation(g, f, 1.0), abs=1e-8
    )


def test_covariance():
    g = make_complete(4, 0.25)
    f = dictator(4, 0)
    profile = profile_for(g, f)
    assert exact_covariance(profile, 0.0) == pytest.approx(f.variance(), abs=1e-12)
    const = profile_for(g, BooleanFunction(4, np.ones(16)))
    for t in (0.0, 0.5, 3.0):
        assert exact_covariance(const, t) == pytest.approx(0.0, abs=1e-12)


def test_flip_probability_basics():
    g = make_cycle(5, 0.5)
    f = parity_on_set(5, [0, 2, 4])
    profile = profile_for(g, f)
    assert exact_flip_probability(profile, 0.0) == 0.0
    values = [exact_flip_probability(profile, e) for e in np.linspace(0, 4, 25)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    const = profile_for(g, BooleanFunction(5, np.ones(32)))
    assert exact_flip_probability(const, 1.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        exact_flip_probability(profile, -1.0)


def test_flip_probability_identity():
    g = make_complete(4, 0.5)
    f = majority(4)
    profile = profile_for(g, f)
    for eps in (0.1, 0.7, 2.0):
        lhs = exact_flip_probability(profile, eps)
        rhs = 2 * (exact_correlation(profile, 0.0) - exact_correlation(profile, eps))
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# frequency masses
# ---------------------------------------------------------------------------

def synthetic_profile(eigenvalues, coefficients):
    k = len(eigenvalues)
    return SpectralProfile(
        n=3,
        levels=np.zeros(k, dtype=np.int64),
        eigenvalues=np.array(eigenvalues, dtype=float),
        coefficients=np.array(coefficients, dtype=float),
        mean=float(coefficients[0]),
    )


def test_mass_boundary_conventions():
    profile = synthetic_profile([0.0, 1.0, 2.0, 4.0], [0.5, 0.3, 0.2, 0.1])
    assert band_mass(profile, 1.0, "<=") == pytest.approx(0.09)
    assert band_mass(profile, 3.9, "<=") == pytest.approx(0.13)
    assert band_mass(profile, 2.0, ">=") == pytest.approx(0.05)   # includes lambda = 2
    assert band_mass(profile, 2.1, ">=") == pytest.approx(0.01)
    assert band_mass(profile, 5.0, ">=") == 0.0
    with pytest.raises(ValueError):
        band_mass(profile, 0.0, "<=")
    with pytest.raises(ValueError):
        band_mass(profile, -1.0, ">=")


def test_threshold_mask_slack_edges():
    k = 6.0
    hi = k * (1.0 + THRESH_SLACK) + 1e-12
    lo = k * (1.0 - THRESH_SLACK) - 1e-12
    lam = np.array([np.nextafter(lo, 0), lo, k, hi, np.nextafter(hi, 9)])
    assert threshold_mask(lam, k, "<=").tolist() == [True, True, True, True, False]
    assert threshold_mask(lam, k, ">").tolist() == [False, False, False, False, True]
    assert threshold_mask(lam, k, ">=").tolist() == [False, True, True, True, True]
    # plain floats too, as containment_hypothesis passes them
    assert [threshold_mask(x, k, side) for x in (k, 7.0) for side in ("<=", ">=", ">")] == [
        True, True, False, False, True, True]


@pytest.mark.parametrize("n", [4, 6])
def test_masses_take_whole_clusters_at_a_boundary_k(n):
    # K_n at rate 1 has the integer eigenvalues i * (n - i + 1); k = n is one
    # of them, and eigh rounds the members of that cluster to either side.
    profile = profile_for(make_complete(n, 1.0), dictator(n, 0))
    k = float(n)
    pooled = [(round(v), m) for v, m in mass_by_eigenvalue(profile)]
    assert any(v == k for v, _ in pooled)
    low = sum(m for v, m in pooled if 0 < v <= k)
    tail = sum(m for v, m in pooled if v >= k)
    assert band_mass(profile, k, "<=") == pytest.approx(low, rel=1e-12, abs=1e-15)
    assert band_mass(profile, k, ">=") == pytest.approx(tail, rel=1e-12, abs=1e-15)


def test_mass_extremes_on_real_profile():
    g = make_complete(4, 0.25)
    f = parity_on_set(4, [0, 2])
    profile = profile_for(g, f)
    lam_max = max(lam for _, lam, _ in profile.entries())
    lam_min = min(lam for _, lam, _ in profile.entries() if lam > 1e-8)
    nonzero = profile.total_mass - profile.zero_mass()
    assert band_mass(profile, lam_max + 1.0, "<=") == pytest.approx(nonzero, abs=1e-12)
    assert band_mass(profile, lam_min / 2, "<=") == 0.0
    assert band_mass(profile, lam_max + 1.0, ">=") == 0.0
    assert band_mass(profile, lam_min / 2, ">=") == pytest.approx(nonzero, abs=1e-12)


def test_mass_by_eigenvalue_pools_the_clusters_of_group_eigenvalues():
    # Each neighbour gap is within GROUP_RTOL, the first-to-last gap is not.
    lam = [0.0, 1.0, 1.0 + 0.6e-8, 1.0 + 1.2e-8]
    profile = synthetic_profile(lam, [0.5, 0.1, 0.2, 0.3])
    assert group_eigenvalues(np.array(lam)) == [[0], [1, 2, 3]]
    assert mass_by_eigenvalue(profile) == [(0.0, 0.25), (1.0, 0.1**2 + 0.2**2 + 0.3**2)]


@pytest.mark.parametrize("k", [1e-9, 1e-8, 0.5, 2.0, 3.0])
def test_zero_block_band_and_strict_tail_partition_the_spectrum(k):
    # 1e-8 + 5e-13 is nonzero, and at k = 1e-9 it lies beyond k.
    profile = synthetic_profile([0.0, 1e-8 + 5e-13, 2.0], [0.5, 0.5, 0.5])
    assert profile.total_mass == 0.75
    blocks = profile.zero_mass() + band_mass(profile, k, "<=") + band_mass(profile, k, ">")
    assert blocks == profile.total_mass
    assert band_mass(profile, 1e-9, ">") == 0.5


def test_low_mass_against_coefficient_table():
    # independent plain-python summation of the coefficient table
    g = make_complete(4, 0.25)
    f = parity_on_set(4, [0, 2])
    profile = profile_for(g, f)
    k = 1.0
    expected = 0.0
    for level in range(5):
        basis = solve_alone(g, [level])[0]
        space = basis.space
        for i in range(basis.size):
            lam = float(basis.eigenvalues[i])
            inner = sum(
                f.values[int(w)] * basis.vectors[j, i]
                for j, w in enumerate(space.words)
            ) / space.size
            coeff = math.sqrt(space.size / 2.0**4) * inner
            if 1e-8 < lam <= k:
                expected += coeff**2
    assert band_mass(profile, k, "<=") == pytest.approx(expected, abs=1e-10)


def test_decomposition_identity_random():
    rng = np.random.default_rng(77)
    n = 6
    g = make_cycle(n, 0.8)
    bases = solve_alone(g)
    spectrum = np.unique(np.concatenate([b.eigenvalues for b in bases]))
    for _ in range(10):
        f = BooleanFunction(n, rng.integers(0, 2, size=64).astype(float))
        profile = spectral_profile(f, bases)
        k = float(rng.uniform(0.05, spectrum[-1] * 1.2))
        # place k strictly between eigenvalues so both conventions agree
        if np.min(np.abs(spectrum - k)) < 1e-6:
            k += 1e-3
        total = band_mass(profile, k, "<=") + band_mass(profile, k, ">=") + profile.zero_mass()
        assert total == pytest.approx(profile.total_mass, abs=1e-10)


def test_export_shapes():
    g = make_complete(3, 1.0)
    f = dictator(3, 1)
    profile = profile_for(g, f)
    rows = profile_csv_rows(profile)
    assert len(rows) == 8
    assert all(len(r) == 3 for r in rows)
    summary = profile_summary(profile)
    assert set(summary) == {"mean", "variance", "conditional_mean_variance",
                            "mass_by_eigenvalue"}
    masses = sum(entry["mass"] for entry in summary["mass_by_eigenvalue"])
    assert masses == pytest.approx(profile.total_mass, abs=1e-10)
