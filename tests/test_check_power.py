"""Planted defects: each verify record, comparison report and sweep can fail.

Each test plants one defect by monkeypatch, at the name its caller looks up
(generator, spectral and verify each look up build_level_generators in their
own namespace; every solve reaches spectral.eigendecompose_stack as a global;
diagnostics imports band_mass and threshold_mask by name), and asserts that
the record meant to catch it counts a violation. Plants on the stacked kernels
see every member of a stack. A plant that no record catches is an xfail: the
check lacks the power to see it.
"""

import json
from functools import cached_property, lru_cache

import numpy as np
import pytest

from xproc import diagnostics, dynamics, fourier, generator, spectral, statespace, verify
from xproc.cli import main
from xproc.graph import Graph


def violations() -> dict[str, int]:
    report = verify.run_suite(nmax=6, seed=3, mc_samples=4000)
    return {c["name"]: c["violations"] for c in report["checks"]}


def wrap(monkeypatch, module, name, make):
    """Replace module.name with make(original)."""
    monkeypatch.setattr(module, name, make(getattr(module, name)))


def plant_identity_swap_row(monkeypatch):
    """Every slice's swap table reads the vertex pair (0, 1) as fixing every state.

    The generator and the Dirichlet form read the one table, so both lose that
    edge alike. Slices built before the plant keep their real tables, so the
    plant runs on a fresh slice cache.
    """
    real = statespace.LevelStateSpace.swaps.func

    def planted(space):
        table = real(space).copy()
        table[statespace.pair_row(space.n, 0, 1)] = np.arange(space.size)
        table.flags.writeable = False
        return table
    swaps = cached_property(planted)
    swaps.__set_name__(statespace.LevelStateSpace, "swaps")
    monkeypatch.setattr(statespace.LevelStateSpace, "swaps", swaps)
    monkeypatch.setattr(statespace, "_level_slice",
                        lru_cache(maxsize=None)(statespace._level_slice.__wrapped__))


def plant_asymmetric_entry(monkeypatch):
    # Only in verify, where the generator invariants build: planted in every
    # build, every solve would refuse the matrix.
    def make(real):
        def planted(graphs, level):
            gens = real(graphs, level)
            for gen in gens:
                if gen.space.size > 1:
                    gen.matrix[0, 1] += 1e-6
            return gens
        return planted
    wrap(monkeypatch, verify, "build_level_generators", make)


def faster_first_edge(g: Graph) -> Graph:
    (u, v, rate), *rest = g.edges
    return Graph(g.n, ((u, v, rate * 1.01), *rest))


def plant_wrong_edge_rate(monkeypatch):
    """Every generator is built with its graph's first edge at 1.01 times its rate."""
    def make(real):
        def planted(graphs, level):
            gens = real([faster_first_edge(g) for g in graphs], level)
            for gen, g in zip(gens, graphs):
                gen.graph = g
            return gens
        return planted
    for module in (generator, spectral, verify):
        wrap(monkeypatch, module, "build_level_generators", make)


def plant_bases(monkeypatch, change):
    """Each basis an eigensolve returns becomes change(basis)."""
    def make(real):
        def planted(gens):
            bases = real(gens)
            for basis in bases:
                change(basis)
            return bases
        return planted
    wrap(monkeypatch, spectral, "eigendecompose_stack", make)


def plant_eigenvalues(monkeypatch, change):
    def change_basis(basis):
        basis.eigenvalues = change(basis.eigenvalues.copy())
    plant_bases(monkeypatch, change_basis)


def plant_top_eigenvalue(monkeypatch):
    def change(lam):
        lam[-1] *= 1 + 1e-6
        return lam
    plant_eigenvalues(monkeypatch, change)


def plant_lifts(monkeypatch):
    for name in ("lift_down", "lift_up"):
        wrap(monkeypatch, spectral, name,
             lambda real: lambda space, psi: real(space, psi) * (1 + 1e-6))


def plant_rotated_pair(monkeypatch):
    def rotate(basis):
        if basis.size > 2:
            c, s = np.cos(0.1), np.sin(0.1)
            v = basis.vectors.copy()
            v[:, 1], v[:, -1] = c * v[:, 1] - s * v[:, -1], s * v[:, 1] + c * v[:, -1]
            basis.vectors = v
    plant_bases(monkeypatch, rotate)


def plant_other_span_at_a_quarter(monkeypatch):
    # containment projects onto the other graph's eigenvalues <= bound
    wrap(monkeypatch, diagnostics, "threshold_mask",
         lambda real: lambda lam, k, side: real(lam, k / 4 if side == "<=" else k, side))


def plant_dropped_coefficient(monkeypatch):
    def make(real):
        def planted(f, bases):
            p = real(f, bases)
            coefficients = p.coefficients.copy()
            coefficients[-1] = 0.0
            return fourier.SpectralProfile(p.n, p.levels, p.eigenvalues, coefficients,
                                           p.mean)
        return planted
    wrap(monkeypatch, fourier, "spectral_profile", make)


def plant_dropped_level(monkeypatch):
    """Each profile loses its middle level: the level's coefficients read as zero."""
    def make(real):
        def planted(f, bases):
            p = real(f, bases)
            coefficients = np.where(p.levels == p.n // 2, 0.0, p.coefficients)
            return fourier.SpectralProfile(p.n, p.levels, p.eigenvalues, coefficients,
                                           p.mean)
        return planted
    wrap(monkeypatch, fourier, "spectral_profile", make)


def plant_late_correlation(monkeypatch):
    wrap(monkeypatch, fourier, "exact_correlation",
         lambda real: lambda profile, t: real(profile, t * 1.001))


def plant_band_mass(monkeypatch, planted):
    """diagnostics.band_mass(profile, k, side) becomes planted(real, profile, k, side)."""
    wrap(monkeypatch, diagnostics, "band_mass",
         lambda real: lambda profile, k, side: planted(real, profile, k, side))


def plant_projection_constant(monkeypatch, constant):
    """projection_mass_inequality reads the other graph's mass in (0, constant * k], not
    (0, 4k]."""
    def make(real):
        def planted(g_complete, g_other, k, profile_complete, profile_other):
            _, rhs = real(g_complete, g_other, k, profile_complete, profile_other)
            return diagnostics.band_mass(profile_other, constant * k, "<="), rhs
        return planted
    wrap(monkeypatch, diagnostics, "projection_mass_inequality", make)


def plant_horizon(monkeypatch, factor):
    wrap(monkeypatch, dynamics, "_evolve",
         lambda real: lambda words, table, t, rng: real(words, table, t * factor, rng))


PLANTS = {
    "asymmetric generator entry": (plant_asymmetric_entry, ["generator_invariants"]),
    "swap row of pair (0, 1) is the identity": (
        plant_identity_swap_row,
        ["generator_invariants", "complete_graph_multiplicities", "monte_carlo_agreement"]),
    "top eigenvalue x (1 + 1e-6)": (plant_top_eigenvalue,
                                    ["eigensolver_residuals", "complete_graph_multiplicities"]),
    "lifts x (1 + 1e-6)": (plant_lifts, ["lift_length_formulas"]),
    "eigenvector pair rotated 0.1 rad": (plant_rotated_pair, ["lift_orthogonality"]),
    "other span at a quarter of its bound": (plant_other_span_at_a_quarter,
                                             ["containment_residual"]),
    "eigenvalues x 1.5": (lambda mp: plant_eigenvalues(mp, lambda lam: lam * 1.5),
                          ["eigenvalue_upper_bound"]),
    "last profile coefficient dropped": (plant_dropped_coefficient, ["parseval"]),
    "middle level dropped from profiles": (plant_dropped_level,
                                           ["parseval", "oracle_equivalence"]),
    "first edge at 1.01 x its rate": (plant_wrong_edge_rate,
                                      ["generator_invariants", "complete_graph_multiplicities",
                                       "lift_length_formulas"]),
    "exact correlation at t x 1.001": (plant_late_correlation, ["oracle_equivalence"]),
    "(0, k] read as [k, inf)": (
        lambda mp: plant_band_mass(
            mp, lambda real, p, k, side: real(p, k, ">=" if side == "<=" else side)),
        ["projection_mass_inequality", "monotonicity_inequality"]),
    "sampler horizon x 1.2": (lambda mp: plant_horizon(mp, 1.2), ["monte_carlo_agreement"]),
}


@pytest.mark.parametrize("plant", PLANTS)
def test_planted_defect_is_counted(monkeypatch, plant):
    apply, records = PLANTS[plant]
    apply(monkeypatch)
    counts = violations()
    assert all(counts[name] >= 1 for name in records), counts


def test_every_verify_record_has_a_plant():
    names = {name for _, records in PLANTS.values() for name in records}
    assert names == set(violations())


@pytest.mark.xfail(strict=True, reason="3 standard errors of 4000 samples miss a 5% "
                   "longer horizon")
def test_sampler_horizon_x_1_05_is_counted(monkeypatch):
    plant_horizon(monkeypatch, 1.05)
    assert violations()["monte_carlo_agreement"] >= 1


@pytest.mark.xfail(strict=True, reason="the plant is the projection inequality itself at "
                   "threshold k/4, so no instance can violate it")
def test_band_mass_at_a_quarter_of_k_is_counted(monkeypatch):
    plant_band_mass(monkeypatch, lambda real, p, k, side: real(p, 0.25 * k, side))
    assert violations()["projection_mass_inequality"] >= 1


@pytest.mark.xfail(strict=True, reason="verify's random-graph draws hold the projection "
                   "inequality with (0, 2k] for (0, 4k]; (0, k] is caught")
def test_halved_projection_constant_is_counted(monkeypatch):
    plant_projection_constant(monkeypatch, 2.0)
    assert violations()["projection_mass_inequality"] >= 1


def test_nan_residuals_fail_closed(monkeypatch, tmp_path):
    wrap(monkeypatch, spectral, "lift_down",
         lambda real: lambda space, psi: np.full_like(real(space, psi), np.nan))
    counts = violations()
    assert counts["lift_length_formulas"] >= 1 and counts["lift_orthogonality"] >= 1
    assert main(["verify", "--nmax", "4", "--out", str(tmp_path / "v.json")]) == 1


def test_verify_exits_1_on_a_violation(monkeypatch, tmp_path):
    plant_lifts(monkeypatch)
    assert main(["verify", "--nmax", "4", "--out", str(tmp_path / "v.json")]) == 1


def test_compare_exits_1_on_a_violation(monkeypatch, tmp_path):
    wrap(monkeypatch, diagnostics, "spectra_domination_gap",
         lambda real: lambda *args: [gap + 0.1 for gap in real(*args)])
    assert main(["compare", "--graph", "complete:5", "--rate", "1", "--graph-b", "cycle:5",
                 "--rate-b", "1", "--out", str(tmp_path / "c.json")]) == 1


# K_6 against its subgraph C_6 at equal rates. The dictator's nonconstant mass
# sits at K_6's eigenvalue 6 < k, and the containment hypothesis 2 * (6 - 2 + 1)
# >= 8 holds, so all three checks run.
COMPARE = ["compare", "--graph", "complete:6", "--rate", "1", "--graph-b", "cycle:6",
           "--rate-b", "1", "--function", "dictator:0", "--k", "8", "--kprime", "2"]


@pytest.mark.parametrize("plant, record", [
    ("other span at a quarter of its bound", "containment_residual"),
    ("(0, k] read as [k, inf)", "monotonicity_inequality"),
])
def test_compare_counts_a_planted_defect(monkeypatch, tmp_path, plant, record):
    out = tmp_path / "c.json"
    assert main([*COMPARE, "--out", str(out)]) == 0
    PLANTS[plant][0](monkeypatch)
    assert main([*COMPARE, "--out", str(out)]) == 1
    counts = {c["name"]: c["violations"] for c in json.loads(out.read_text())["checks"]}
    assert counts[record] >= 1 and sum(counts.values()) == counts[record], counts


def test_sweep_exits_1_on_a_violation(monkeypatch, tmp_path):
    plant_band_mass(monkeypatch, lambda real, p, k, side: real(p, k, side)
                    + (1e-6 if side == ">" else 0.0))
    out = tmp_path / "sweep.json"
    assert main(["profile", "--graph", "cycle", "--rate", "1", "--function", "majority",
                 "--n-grid", "4:6", "--k", "1", "--out", str(out)]) == 1
    assert '"violations": 3' in out.read_text()
