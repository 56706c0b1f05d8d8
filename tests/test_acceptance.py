"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Statistical criteria are seed-pinned and deterministic.
"""

import math
import time

import numpy as np

from xproc import cli, diagnostics, dynamics, fourier, oracle, spectral, verify
from xproc.generator import build_level_generator
from xproc.graph import (
    make_complete,
    make_cycle,
    make_half_complete_cycle,
    max_degree,
    with_rate,
)

from conftest import solve_alone

MC_SEED = 20260810


def report(cid: int, ok: bool, detail: str):
    print(f"[criterion {cid:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_1_complete_graph_spectrum():
    start = time.time()
    worst = 0.0
    for n in range(2, 11):
        for alpha in (1.0, 1.0 / n):
            g = make_complete(n, alpha)
            for level in range(n // 2 + 1):
                basis = solve_alone(g, [level])[0]
                expected = []
                for lam, mult in spectral.complete_graph_eigenvalue_table(n, level, alpha):
                    expected.extend([lam] * mult)
                expected = np.array(expected)
                err = float(np.max(np.abs(np.sort(basis.eigenvalues) - expected)
                                   / np.maximum(1.0, expected)))
                worst = max(worst, err)
    elapsed = time.time() - start
    report(1, worst <= 1e-8 and elapsed <= 60.0,
           f"complete-graph spectra n=2..10: max rel err {worst:.3g}, {elapsed:.1f}s")


def test_criterion_2_lift_formulas_and_dichotomy():
    worst = 0.0
    for n in range(2, 11):
        for alpha in (1.0, 1.0 / n):
            g = make_complete(n, alpha)
            for level in range(n // 2 + 1):
                basis = solve_alone(g, [level])[0]
                down = spectral.lift_down(basis.space, basis.vectors) if level >= 1 else None
                up = spectral.lift_up(basis.space, basis.vectors)
                worst = max(worst, verify.lift_length_error(n, level, alpha,
                                                            basis.eigenvalues, down, up))
    dichotomy_ok = True
    worst_res = 0.0
    for n in range(3, 11):
        g = make_cycle(n, 0.5)
        gens = [build_level_generator(g, level) for level in range(n + 1)]
        for level in range(n + 1):
            basis = solve_alone(g, [level])[0]
            for i in range(basis.size):
                lam = float(basis.eigenvalues[i])
                lifts = []
                if level >= 1:
                    lifts.append((gens[level - 1], spectral.lift_down(basis.space, basis.vectors[:, i])))
                if level <= n - 1:
                    lifts.append((gens[level + 1], spectral.lift_up(basis.space, basis.vectors[:, i])))
                for gen, vec in lifts:
                    size = gen.space.size
                    norm = math.sqrt(float(vec @ vec) / size)
                    if norm <= 1e-8:
                        continue
                    unit = vec / norm
                    res = gen.matrix @ unit - lam * unit
                    res_norm = math.sqrt(float(res @ res) / size)
                    worst_res = max(worst_res, res_norm)
                    if res_norm > 1e-8:
                        dichotomy_ok = False
    report(2, worst <= 1e-8 and dichotomy_ok,
           f"lift lengths max rel err {worst:.3g}; cycle dichotomy max residual {worst_res:.3g}")


def test_criterion_3_eigenvalue_bound():
    rng = np.random.default_rng(33)
    violations = 0
    worst_gap = -np.inf
    for _ in range(100):
        n = int(rng.integers(3, 9))
        rate = float(rng.uniform(0.1, 1.5))
        g = verify.random_connected_graph(rng, n, rate)
        d = max_degree(g)
        for level in range(n + 1):
            basis = solve_alone(g, [level])[0]
            gap = float(basis.eigenvalues[-1]) - 2.0 * rate * level * d
            worst_gap = max(worst_gap, gap)
            if gap > 1e-9 * max(1.0, 2.0 * rate * level * d):
                violations += 1
    report(3, violations == 0,
           f"eigenvalue bound on 100 random graphs: {violations} violations, "
           f"worst gap {worst_gap:.3g}")


def test_criterion_4_spectral_vs_oracle_correlation():
    start = time.time()
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        g = verify.random_connected_graph(rng, n, float(rng.uniform(0.2, 1.5)))
        f = verify.random_boolean_function(rng, n)
        t = float(rng.uniform(0.0, 2.5))
        profile = fourier.bases_profile(f, solve_alone(g))
        err = abs(fourier.exact_correlation(profile, t)
                  - oracle.brute_force_correlation(g, f, t))
        worst = max(worst, err)
    elapsed = time.time() - start
    report(4, worst <= 1e-8 and elapsed <= 120.0,
           f"50 random instances: max |spectral - oracle| = {worst:.3g}, {elapsed:.1f}s")


def test_criterion_5_monte_carlo_consistency():
    start = time.time()
    instances = [
        (make_complete(4, 0.25), fourier.dictator(4, 0), "cov", 0.2),
        (make_complete(4, 0.25), fourier.dictator(4, 0), "cov", 1.0),
        (make_complete(4, 0.25), fourier.parity_on_set(4, [0, 1]), "flip", 0.2),
        (make_complete(4, 0.25), fourier.parity_on_set(4, [0, 2]), "flip", 1.0),
        (make_cycle(8, 0.5), fourier.parity_on_set(8, [0, 2, 4, 6]), "cov", 1.0),
        (make_cycle(8, 0.5), fourier.parity_on_set(8, [0, 2, 4, 6]), "flip", 0.2),
        (make_cycle(8, 0.5), fourier.dictator(8, 3), "cov", 0.2),
        (make_half_complete_cycle(3, 0.25), fourier.dictator(6, 0), "cov", 1.0),
        (make_half_complete_cycle(3, 0.25), fourier.parity_on_set(6, [0, 2, 4]), "flip", 1.0),
        (make_half_complete_cycle(3, 0.25), fourier.parity_on_set(6, [0, 2]), "cov", 0.2),
    ]
    passes = 0
    for idx, (g, f, kind, t) in enumerate(instances):
        profile = fourier.bases_profile(f, solve_alone(g))
        spec = dynamics.SimulationSpec(seed=MC_SEED + idx, samples=100_000)
        if kind == "cov":
            est = dynamics.estimate_covariance(g, f, t, spec)
            exact = fourier.exact_covariance(profile, t)
        else:
            est = dynamics.estimate_flip_probability(g, f, t, spec)
            exact = fourier.exact_flip_probability(profile, t)
        if abs(est.point - exact) <= 3.0 * est.std_error:
            passes += 1
    elapsed = time.time() - start
    report(5, passes >= 9 and elapsed <= 300.0,
           f"{passes}/10 instances within 3 std errors at 1e5 samples, {elapsed:.0f}s")


def test_criterion_6_containment():
    rng = np.random.default_rng(66)
    violations = 0
    worst = 0.0
    instances = 0
    for n in (6, 8, 10, 12):
        complete = make_complete(n, 1.0 / n)
        bases_c = solve_alone(complete)
        others = [
            make_cycle(n, 1.0),
            make_half_complete_cycle(n // 2, 1.0),
            verify.random_connected_graph(rng, n, 1.0),
        ]
        for raw in others:
            other = with_rate(raw, 1.0 / max_degree(raw))
            bases_o = solve_alone(other)
            for k in (0.5, 1.0, 2.0, n / 4.0):
                for res in diagnostics.containment_residual(complete, other, k, 2.0 * k,
                                                            bases_c, bases_o):
                    instances += 1
                    worst = max(worst, res)
                    if res > 1e-8:
                        violations += 1
    report(6, violations == 0,
           f"containment on {instances} (n, graph, k, level) instances: "
           f"{violations} violations, max residual {worst:.3g}")


def test_criterion_7_projection_mass_inequality():
    rng = np.random.default_rng(77)
    violations = 0
    worst = -np.inf
    for _ in range(100):
        n = int(rng.integers(4, 9))
        complete = make_complete(n, 1.0 / n)
        raw = verify.random_connected_graph(rng, n, 1.0)
        other = with_rate(raw, 1.0 / max_degree(raw))
        f = verify.random_boolean_function(rng, n)
        k = float(rng.uniform(0.05, n / 4.0))
        lhs, rhs = diagnostics.projection_mass_inequality(
            complete, other, k, fourier.bases_profile(f, solve_alone(complete)),
            fourier.bases_profile(f, solve_alone(other)))
        gap = rhs - lhs
        worst = max(worst, gap)
        if gap > 1e-10:
            violations += 1
    report(7, violations == 0,
           f"projection-mass inequality on 100 instances: {violations} violations, "
           f"worst rhs-lhs = {worst:.3g}")


def test_criterion_8_monotonicity():
    rng = np.random.default_rng(88)
    violations = 0
    worst = -np.inf
    for _ in range(100):
        n = int(rng.integers(5, 7))
        g = verify.random_connected_graph(rng, n, float(rng.uniform(0.3, 1.2)))
        sub = verify.random_connected_subgraph(rng, g)
        f = verify.random_boolean_function(rng, n)
        lam_max = 2.0 * g.edges[0][2] * n * max_degree(g)
        k = float(rng.uniform(1e-3, 2.0 * lam_max))
        kprime = float(rng.uniform(1e-3, 2.0 * lam_max))
        lhs, rhs = diagnostics.monotonicity_inequality_check(
            g, sub, k, kprime, fourier.bases_profile(f, solve_alone(g)),
            fourier.bases_profile(f, solve_alone(sub)))
        gap = lhs - rhs
        worst = max(worst, gap)
        if gap > 1e-10:
            violations += 1
    chain_ok = True
    for half in (2, 3, 4):
        chain = [
            make_cycle(2 * half, 0.5),
            make_half_complete_cycle(half, 0.5),
            make_complete(2 * half, 0.5),
        ]
        for small, big in zip(chain, chain[1:]):
            gaps = diagnostics.spectra_domination_gap(
                small, big, solve_alone(small), solve_alone(big))
            if max(gaps) > 1e-10:
                chain_ok = False
    report(8, violations == 0 and chain_ok,
           f"monotonicity inequality on 100 instances: {violations} violations "
           f"(worst lhs-rhs = {worst:.3g}); example chain spectra monotone: {chain_ok}")


def test_criterion_9_kernel_independence():
    worst = 0.0
    for n in range(3, 11):
        bases_complete = solve_alone(make_complete(n, 1.0))
        bases_cycle = solve_alone(make_cycle(n, 0.5))
        for bc, bcyc in zip(bases_complete, bases_cycle):
            pc = bc.projector(bc.zero_indices())
            pcyc = bcyc.projector(bcyc.zero_indices())
            worst = max(worst, float(np.max(np.abs(pc - pcyc))))
    report(9, worst <= 1e-12,
           f"kernel projectors of cycle vs complete, n=3..10: max diff {worst:.3g}")


def test_criterion_10_verify_deterministic(tmp_path):
    args = ["verify", "--suite", "all", "--nmax", "8", "--seed", "7"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1 = cli.main(args + ["--out", str(out1)])
    code2 = cli.main(args + ["--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    report(10, code1 == 0 and code2 == 0 and identical,
           f"verify exits {code1}/{code2}, byte-identical reports: {identical}")
