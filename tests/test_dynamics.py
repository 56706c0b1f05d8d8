"""Simulator law checks and estimator consistency."""

import math

import numpy as np
import pytest

from xproc.dynamics import (
    SimulationSpec,
    _EdgeTable,
    _evolve,
    estimate_covariance,
    estimate_flip_probability,
    sample_rng,
    simulate_path,
)
from xproc.fourier import (
    dictator,
    exact_covariance,
    exact_flip_probability,
    from_table,
    parity_on_set,
    spectral_profile,
)
from xproc.generator import build_level_generator
from xproc.graph import Graph, make_complete, make_cycle
from xproc.oracle import matrix_exponential
from xproc.spectral import all_level_bases
from xproc.statespace import Configuration, enumerate_level

CHI2_P001 = {2: 13.816, 5: 20.515, 9: 27.877, 14: 36.123, 19: 43.820}


def test_time_zero_returns_start():
    g = make_cycle(5, 1.0)
    x0 = Configuration(5, 0b10110)
    assert simulate_path(g, x0, 0.0, seed=4) == x0


def test_negative_time_rejected():
    g = make_cycle(5, 1.0)
    with pytest.raises(ValueError):
        simulate_path(g, Configuration(5, 1), -1.0, seed=0)


def test_paths_conserve_marbles():
    g = Graph(6, ((0, 1, 0.5), (1, 2, 1.2), (2, 3, 0.5), (3, 4, 0.8), (4, 5, 0.5),
                  (0, 5, 0.9), (1, 4, 0.3)))
    for seed in range(50):
        x0 = Configuration(6, seed % 64)
        xt = simulate_path(g, x0, 1.5, seed=seed)
        assert xt.weight() == x0.weight()


def test_simulate_path_deterministic():
    g = make_complete(5, 0.4)
    x0 = Configuration(5, 0b10101)
    a = simulate_path(g, x0, 2.0, seed=99)
    b = simulate_path(g, x0, 2.0, seed=99)
    assert a == b


def test_empirical_law_matches_oracle_row():
    # X_0 = "100" on K_3: compare the law of X_t against the matrix
    # exponential's transition row with a chi-squared threshold at p=0.001
    g = make_complete(3, 1.0)
    t = 0.7
    gen = build_level_generator(g, 1)
    probs = matrix_exponential(gen, t).probs
    space = gen.space
    x0 = Configuration.from_string("100")
    row = probs[space.position(x0)]
    samples = 20000
    table = _EdgeTable(g)
    counts = np.zeros(space.size)
    for i in range(samples):
        w = _evolve(x0.word, table, t, sample_rng(123, i))
        counts[space.rank(w)] += 1
    expected = row * samples
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_P001[2]


def test_stationarity_on_level():
    # started uniform on a level, the time-t law stays uniform
    g = make_cycle(5, 0.8)
    space = enumerate_level(5, 2)
    samples = 20000
    spec = SimulationSpec(level=2, seed=5, samples=samples)
    table = _EdgeTable(g)
    counts = np.zeros(space.size)
    for i in range(samples):
        rng = sample_rng(spec.seed, i)
        w0 = int(space.words[int(rng.integers(space.size))])
        wt = _evolve(w0, table, 0.6, rng)
        counts[space.rank(wt)] += 1
    expected = samples / space.size
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_P001[space.size - 1]


def test_exchangeable_pair():
    # reversibility: E[f(X_0) g(X_t)] = E[g(X_0) f(X_t)] within pooled errors
    rng = np.random.default_rng(8)
    n = 5
    g = make_cycle(n, 0.6)
    f = rng.integers(0, 2, size=32).astype(float)
    h = rng.integers(0, 2, size=32).astype(float)
    table = _EdgeTable(g)
    samples = 20000
    fg = np.empty(samples)
    gf = np.empty(samples)
    for i in range(samples):
        sub = sample_rng(21, i)
        w0 = int(sub.integers(32))
        wt = _evolve(w0, table, 0.8, sub)
        fg[i] = f[w0] * h[wt]
        gf[i] = h[w0] * f[wt]
    pooled = math.sqrt(fg.var(ddof=1) / samples + gf.var(ddof=1) / samples)
    assert abs(fg.mean() - gf.mean()) <= 3 * pooled


def test_covariance_constant_function():
    g = make_cycle(4, 1.0)
    f = from_table(4, np.ones(16))
    est = estimate_covariance(g, f, 0.5, SimulationSpec(seed=1, samples=500))
    assert est.point == 0.0
    assert est.std_error == 0.0


def test_covariance_at_lag_zero_matches_variance():
    g = make_complete(4, 0.25)
    f = dictator(4, 0)
    est = estimate_covariance(g, f, 0.0, SimulationSpec(seed=2, samples=20000))
    assert abs(est.point - f.variance()) <= 3 * est.std_error


def test_covariance_matches_exact():
    g = make_complete(4, 0.25)
    f = dictator(4, 0)
    profile = spectral_profile(f, all_level_bases(g))
    est = estimate_covariance(g, f, 1.0, SimulationSpec(seed=3, samples=20000))
    assert est.std_error > 0
    assert abs(est.point - exact_covariance(profile, 1.0)) <= 3 * est.std_error


def test_covariance_level_start():
    g = make_complete(4, 0.25)
    f = dictator(4, 0)
    est = estimate_covariance(g, f, 0.4, SimulationSpec(level=2, seed=9, samples=8000))
    # conditional start: covariance of a dictator on the level-2 slice
    gen = build_level_generator(g, 2)
    probs = matrix_exponential(gen, 0.4).probs
    f_level = f.values[gen.space.words]
    exact = float(f_level @ probs @ f_level) / gen.space.size - f_level.mean() ** 2
    assert abs(est.point - exact) <= 3 * est.std_error


def test_flip_zero_time_and_constant():
    g = make_cycle(8, 0.5)
    f = parity_on_set(8, [0, 2, 4, 6])
    est = estimate_flip_probability(g, f, 0.0, SimulationSpec(seed=4, samples=2000))
    assert est.point == 0.0
    const = from_table(8, np.ones(256))
    est = estimate_flip_probability(g, const, 0.7, SimulationSpec(seed=4, samples=2000))
    assert est.point == 0.0


def test_flip_matches_exact():
    g = make_cycle(8, 0.5)
    f = parity_on_set(8, [0, 2, 4, 6])
    profile = spectral_profile(f, all_level_bases(g))
    est = estimate_flip_probability(g, f, 0.3, SimulationSpec(seed=6, samples=20000))
    assert abs(est.point - exact_flip_probability(profile, 0.3)) <= 3 * est.std_error


def test_flip_requires_boolean():
    g = make_cycle(4, 1.0)
    f = from_table(4, np.linspace(0, 1, 16), boolean=False)
    with pytest.raises(ValueError):
        estimate_flip_probability(g, f, 0.5, SimulationSpec(seed=0, samples=10))


def test_estimators_bit_reproducible():
    g = make_cycle(6, 0.5)
    f = parity_on_set(6, [0, 3])
    spec = SimulationSpec(seed=42, samples=3000)
    a = estimate_covariance(g, f, 0.8, spec)
    b = estimate_covariance(g, f, 0.8, spec)
    assert a == b
    c = estimate_flip_probability(g, f, 0.8, spec)
    d = estimate_flip_probability(g, f, 0.8, spec)
    assert c == d


def test_spec_validation():
    with pytest.raises(ValueError):
        SimulationSpec(t=-1.0)
    with pytest.raises(ValueError):
        SimulationSpec(samples=0)
