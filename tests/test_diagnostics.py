"""Span containment, the two mass inequalities, and sensitivity reports."""

import numpy as np
import pytest

from xproc import diagnostics, spectral
from xproc.diagnostics import (
    check_record,
    containment_residual,
    monotonicity_inequality_check,
    projection_mass_inequality,
    sensitivity_profile,
    spectra_domination_gap,
)
from xproc.fourier import BooleanFunction, bases_profile, dictator, parity_on_set
from xproc.graph import make_complete, make_cycle, make_half_complete_cycle, max_degree, with_rate
from xproc.verify import random_boolean_function, random_connected_graph, random_connected_subgraph

from conftest import solve_alone, spectra


def containment(complete, other, k, kprime):
    return containment_residual(complete, other, k, kprime,
                                solve_alone(complete), solve_alone(other))


def projection_mass(complete, other, f, k):
    return projection_mass_inequality(complete, other, k,
                                      bases_profile(f, solve_alone(complete)),
                                      bases_profile(f, solve_alone(other)))


def monotonicity(g, sub, f, k, kprime):
    return monotonicity_inequality_check(g, sub, k, kprime, bases_profile(f, solve_alone(g)),
                                         bases_profile(f, solve_alone(sub)))


def test_containment_vacuous_below_gap():
    n = 6
    complete = make_complete(n, 1.0 / n)
    other = with_rate(make_cycle(n, 1.0), 0.5)
    # smallest nonzero complete-graph eigenvalue is alpha * n = 1, at every level
    assert containment(complete, other, 0.5, 1.0) == [0.0] * (n + 1)


def test_containment_self():
    n = 6
    complete = make_complete(n, 1.0 / n)
    residuals = containment(complete, complete, 1.0, 2.0)
    assert len(residuals) == n + 1
    assert all(res <= 1e-8 for res in residuals)


@pytest.mark.parametrize("n", [6, 8])
def test_containment_main_cases(n):
    complete = make_complete(n, 1.0 / n)
    others = [make_cycle(n, 1.0), make_half_complete_cycle(n // 2, 1.0)]
    for raw in others:
        d = max_degree(raw)
        other = with_rate(raw, 1.0 / d)
        for k in (0.5, 1.0, n / 4.0):
            for level, res in enumerate(containment(complete, other, k, 2.0 * k)):
                assert res <= 1e-8, (n, raw.edges[:3], k, level, res)


def test_containment_requires_complete_source():
    other = make_cycle(6, 1.0)
    with pytest.raises(ValueError, match="containment requires the first graph to be complete"):
        containment(other, other, 1.0, 2.0)


def test_containment_refuses_bad_hypothesis():
    n = 8
    complete = make_complete(n, 1.0 / n)
    other = with_rate(make_cycle(n, 1.0), 0.5)
    # alpha * k' * (n - k' + 1) = (1/8) * 0.5 * 8.5 = 0.53 < k = 3
    with pytest.raises(ValueError, match=r"hypothesis alpha\*k'\*\(n-k'\+1\) >= k fails"):
        containment(complete, other, 3.0, 0.5)


def test_containment_boundary_hypothesis_accepted():
    # equality case alpha*k'*(n-k'+1) = k survives float rounding
    n = 6
    complete = make_complete(n, 1.0 / n)
    other = with_rate(make_cycle(n, 1.0), 1.0 / 2)
    res = containment(complete, other, 2.0, 4.0)[3]
    assert res <= 1e-8


def test_projection_mass_constant():
    n = 6
    complete = make_complete(n, 1.0 / n)
    raw = make_cycle(n, 1.0)
    other = with_rate(raw, 1.0 / max_degree(raw))
    f = BooleanFunction(n, np.ones(1 << n))
    lhs, rhs = projection_mass(complete, other, f, 1.0)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_projection_mass_cycle8_parity():
    n = 8
    complete = make_complete(n, 1.0 / n)
    other = with_rate(make_cycle(n, 1.0), 0.5)
    f = parity_on_set(n, [0, 2, 4, 6])
    lhs, rhs = projection_mass(complete, other, f, 1.0)
    assert rhs <= lhs + 1e-10
    assert lhs >= 0.0 and rhs >= 0.0


def test_projection_mass_self():
    n = 6
    complete = make_complete(n, 1.0 / n)
    other = make_complete(n, 1.0 / (n - 1))   # rate 1/max_degree for K_n
    f = dictator(n, 0)
    lhs, rhs = projection_mass(complete, other, f, 1.0)
    assert rhs <= lhs + 1e-10


def test_projection_mass_validation():
    n = 8
    complete = make_complete(n, 1.0 / n)
    other = with_rate(make_cycle(n, 1.0), 0.5)
    f = dictator(n, 0)
    with pytest.raises(ValueError, match="threshold must satisfy k <= n/4 = 2, got 2.5"):
        projection_mass(complete, other, f, n / 4.0 + 0.5)
    with pytest.raises(ValueError, match="complete graph rate must be 1/n = 0.125, got 1"):
        projection_mass(with_rate(complete, 1.0), other, f, 1.0)
    with pytest.raises(ValueError, match="other graph rate must be 1/max_degree = 0.5, got 1"):
        projection_mass(complete, with_rate(other, 1.0), f, 1.0)


def test_monotonicity_degenerate_same_graph():
    g = make_cycle(6, 1.0)
    f = parity_on_set(6, [0, 2])
    k = 2.0
    lhs, rhs = monotonicity(g, g, f, k, k)
    assert lhs <= rhs + 1e-10


def test_monotonicity_k6_cycle6():
    g = make_complete(6, 1.0)
    sub = make_cycle(6, 1.0)
    f = dictator(6, 0)
    lhs, rhs = monotonicity(g, sub, f, 4.0, 8.0)
    assert lhs <= rhs + 1e-10


def test_monotonicity_random_sweep():
    rng = np.random.default_rng(101)
    for _ in range(30):
        n = int(rng.integers(5, 7))
        g = random_connected_graph(rng, n, float(rng.uniform(0.3, 1.2)))
        sub = random_connected_subgraph(rng, g)
        f = random_boolean_function(rng, n)
        lam_max = 2.0 * g.edges[0][2] * n * max_degree(g)
        k = float(rng.uniform(1e-3, 2 * lam_max))
        kprime = float(rng.uniform(1e-3, 2 * lam_max))
        lhs, rhs = monotonicity(g, sub, f, k, kprime)
        assert lhs <= rhs + 1e-10


def test_monotonicity_validation():
    g = make_cycle(6, 1.0)
    not_sub = make_cycle(6, 0.5)    # same edges, different rates
    f = dictator(6, 0)
    with pytest.raises(ValueError, match="second graph must be an equal-rate edge subgraph"):
        monotonicity(g, not_sub, f, 1.0, 1.0)
    with pytest.raises(ValueError, match="thresholds must be > 0"):
        monotonicity(g, g, f, 0.0, 1.0)


def test_spectra_grow_with_edges():
    for half in (2, 3):
        chain = [
            make_cycle(2 * half, 0.5),
            make_half_complete_cycle(half, 0.5),
            make_complete(2 * half, 0.5),
        ]
        for small, big in zip(chain, chain[1:]):
            gaps = spectra_domination_gap(small, big, spectra(solve_alone(small)),
                                          spectra(solve_alone(big)))
            assert len(gaps) == 2 * half + 1
            assert max(gaps) <= 1e-10


def test_comparison_checks_solve_nothing(monkeypatch):
    n = 6
    complete, sub = make_complete(n, 1.0 / n), make_cycle(n, 1.0 / n)
    other = with_rate(sub, 0.5)
    f = dictator(n, 0)
    bases = {g: solve_alone(g) for g in (complete, sub, other)}
    profiles = {g: bases_profile(f, bases[g]) for g in bases}

    def no_solve(gens):
        raise AssertionError("a comparison check solved a level")

    monkeypatch.setattr(spectral, "eigendecompose_stack", no_solve)
    assert not hasattr(diagnostics, "eigendecompose_stack")
    assert not hasattr(diagnostics, "build_stack")
    assert not hasattr(diagnostics, "solve_graph")
    assert not hasattr(diagnostics, "spectral_profile")
    assert len(containment_residual(complete, other, 1.0, 2.0, bases[complete],
                                    bases[other])) == n + 1
    projection_mass_inequality(complete, other, 1.0, profiles[complete], profiles[other])
    monotonicity_inequality_check(complete, sub, 1.0, 2.0, profiles[complete], profiles[sub])
    assert len(spectra_domination_gap(sub, complete, spectra(bases[sub]),
                                      spectra(bases[complete]))) == n + 1
    assert sensitivity_profile(lambda _: profiles[complete], [n], [1.0])["records"][0]["n"] == n


def test_level_checks_refuse_unequal_level_counts():
    complete, sub = make_complete(4, 0.25), make_cycle(4, 0.25)
    bases, bases_sub = solve_alone(complete), solve_alone(sub)
    with pytest.raises(ValueError, match=r"zip\(\) argument 2 is longer"):
        spectra_domination_gap(sub, complete, spectra(bases_sub[:-1]), spectra(bases))
    with pytest.raises(ValueError, match=r"zip\(\) argument 2 is shorter"):
        containment_residual(complete, with_rate(sub, 0.5), 1.0, 2.0, bases, bases_sub[:-1])


def test_check_record_counts_each_instance_over_tol():
    assert check_record("c", [0.5, -1.0, 2.0, 0.1], 0.2) == {
        "name": "c", "instances": 4, "violations": 2, "max_residual": 2.0}
    assert check_record("c", [], 0.2) == {
        "name": "c", "instances": 0, "violations": 0, "max_residual": 0.0}
    # one tolerance per instance; a residual equal to its tolerance passes
    assert check_record("c", [0.5, 0.5, 0.3], [1.0, 0.4, 0.3])["violations"] == 1
    # labels name the first instance with the largest residual
    assert check_record("c", [0.1, 2.0, 2.0], 1.0, ["a", "b", "c"]) == {
        "name": "c", "instances": 3, "violations": 2, "max_residual": 2.0,
        "worst_instance": "b"}
    assert check_record("c", [], [], []) == {
        "name": "c", "instances": 0, "violations": 0, "max_residual": 0.0,
        "worst_instance": ""}
    # a NaN residual fails closed and ranks below every number
    nan = float("nan")
    assert check_record("c", [nan, 0.1, nan], 0.2, ["a", "b", "c"]) == {
        "name": "c", "instances": 3, "violations": 2, "max_residual": 0.1,
        "worst_instance": "b"}
    assert check_record("c", [nan], 0.2, ["a"]) == {
        "name": "c", "instances": 1, "violations": 1, "max_residual": 0.0,
        "worst_instance": ""}


def solved(make):
    """The make_profile of sensitivity_profile for a make(n) -> (graph, function)."""
    def make_profile(n):
        g, f = make(n)
        return bases_profile(f, solve_alone(g))
    return make_profile


def test_sensitivity_profile_constant_family():
    def make(n):
        return make_cycle(n, 0.5), BooleanFunction(n, np.ones(1 << n))

    report = sensitivity_profile(solved(make), [4, 5, 6], [0.5, 1.0], family="constant")
    assert [r["n"] for r in report["records"]] == [4, 5, 6]
    for record in report["records"]:
        assert record["conditional_mean_variance"] == pytest.approx(0.0, abs=1e-12)
        assert all(v == pytest.approx(0.0, abs=1e-12)
                   for v in record["low_frequency_mass"].values())
        assert all(v == pytest.approx(0.0, abs=1e-12)
                   for v in record["tail_mass"].values())


def test_sensitivity_profile_dictator_family():
    # dictators on complete graphs at rate 1/n keep low-frequency mass
    # bounded away from zero: they are not sensitive in this scaling
    def make(n):
        return make_complete(n, 1.0 / n), dictator(n, 0)

    report = sensitivity_profile(solved(make), [3, 4, 5, 6, 7, 8], [4.0], family="dictator")
    for record in report["records"]:
        assert record["low_frequency_mass"]["4.0"] > 0.05


def test_sensitivity_profile_example_contrast():
    # the lower-cycle parity has less low-frequency mass on the bare cycle
    # (rate 1/2) than on the chorded graph (rate 1/(n-1)) at matched k
    k = 2.0

    def make_cycle_instance(n):
        return make_cycle(2 * n, 0.5), parity_on_set(2 * n, range(0, n, 2))

    def make_chord_instance(n):
        return (
            make_half_complete_cycle(n, 1.0 / (n - 1)),
            parity_on_set(2 * n, range(0, n, 2)),
        )

    grid = [3, 4, 5, 6]
    cyc = sensitivity_profile(solved(make_cycle_instance), grid, [k], family="cycle-parity")
    chord = sensitivity_profile(solved(make_chord_instance), grid, [k], family="chord-parity")
    key = repr(k)
    for rc, rh in zip(cyc["records"], chord["records"]):
        assert rc["low_frequency_mass"][key] < rh["low_frequency_mass"][key]
    # k = 2 is an eigenvalue of every C_2n at rate 1/2 (two level-1 modes
    # summing to 2). With that cluster counted whole, the cycle's mass rises
    # from n = 3 to n = 4 (0.1051 -> 0.1058) before it falls.
    assert cyc["trends"][f"low_frequency_mass@{key}"] == "mixed"
    assert chord["trends"][f"low_frequency_mass@{key}"] == "nondecreasing"


def test_sensitivity_profile_truncation(monkeypatch):
    monkeypatch.setenv("XPROC_STATE_CAP", "20")

    def make(n):
        return make_cycle(n, 0.5), dictator(n, 0)

    report = sensitivity_profile(solved(make), [4, 9], [1.0], family="capped")
    assert not report["records"][0].get("truncated")
    assert report["records"][1]["truncated"]
    assert "cap" in report["records"][1]["reason"]


def test_report_serializable():
    def make(n):
        return make_cycle(n, 0.5), dictator(n, 0)

    report = sensitivity_profile(solved(make), [4, 5], [1.0], family="dict-cycle")
    assert list(report) == ["family", "n_grid", "k_grid", "records", "trends", "checks"]
    identity = report["checks"][0]
    assert identity["name"] == "mass_decomposition_identity"
    assert identity["violations"] == 0
    import json

    json.dumps(report)  # every value JSON-serializable
