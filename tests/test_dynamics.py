"""Simulator law checks and estimator consistency."""

import json
import math
import re

import numpy as np
import pytest

from xproc import dynamics
from xproc.cli import main
from xproc.dynamics import (
    BLOCK,
    CHUNK,
    POISSON_LAM_MAX,
    SEED_MAX,
    SEED_MIN,
    SWAP_TABLE_ENTRIES,
    _chunk_rng,
    _EdgeTable,
    _edge_table,
    _evolve,
    _start_end,
    estimate_covariance,
    estimate_flip_probability,
    simulate_path,
)
from xproc.fourier import (
    BooleanFunction,
    bases_profile,
    dictator,
    exact_covariance,
    exact_flip_probability,
    parity_on_set,
)
from xproc.generator import build_level_generator
from xproc.graph import Graph, make_complete, make_cycle
from xproc.oracle import matrix_exponential
from xproc.statespace import Configuration, enumerate_level, swap_words

from conftest import solve_alone

CHI2_P001 = {2: 13.816, 5: 20.515, 9: 27.877, 14: 36.123, 19: 43.820}


def covered(g, t, samples):
    """A fresh edge table of g, covered for samples paths to time t."""
    table = _EdgeTable(g)
    table.cover(samples * table.total_rate * t)
    return table


def _pairs(g, level, t, seed, samples):
    pairs = list(_start_end(g, level, t, seed, samples))
    return (np.concatenate([a for a, _ in pairs]), np.concatenate([b for _, b in pairs]))


MIXED = Graph(6, ((0, 1, 0.5), (1, 2, 1.2), (2, 3, 0.5), (3, 4, 0.8), (4, 5, 0.5),
                  (0, 5, 0.9), (1, 4, 0.3)))


def _reference_evolve(words, table, t, rng):
    # The sampler as first written: an int64 stable argsort and a bit-mask
    # swap per jump. Every stream must end on the same words.
    jumps = rng.poisson(table.total_rate * t, size=words.size)
    order = np.argsort(-jumps, kind="stable")
    ascending = -jumps[order]
    w = words[order]
    for k in range(int(jumps.max(initial=0))):
        m = int(np.searchsorted(ascending, -k))
        e = table.pick(rng, m)
        w[:m] = swap_words(w[:m], table.bu[e], table.bv[e])
    out = np.empty_like(w)
    out[order] = w
    return out


def test_time_zero_returns_start():
    g = make_cycle(5, 1.0)
    x0 = Configuration(5, 0b10110)
    assert simulate_path(g, x0, 0.0, seed=4) == x0


def test_negative_time_rejected():
    g = make_cycle(5, 1.0)
    with pytest.raises(ValueError):
        simulate_path(g, Configuration(5, 1), -1.0, seed=0)


@pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
def test_bad_horizon_rejected(t):
    g = make_cycle(5, 1.0)
    f = parity_on_set(5, [0, 2])
    with pytest.raises(ValueError, match="finite and >= 0"):
        simulate_path(g, Configuration(5, 1), t, seed=0)
    with pytest.raises(ValueError, match="finite and >= 0"):
        estimate_covariance(g, f, t, samples=10)
    with pytest.raises(ValueError, match="finite and >= 0"):
        estimate_flip_probability(g, f, t, samples=10)


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
    row = probs[space.rank(x0.word)]
    samples = 20000
    ends = _evolve(np.full(samples, x0.word), covered(g, t, samples), t, _chunk_rng(123, 0))
    counts = np.bincount(space.rank(ends), minlength=space.size)
    expected = row * samples
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_P001[2]


def test_empirical_law_with_unequal_rates():
    # unequal rates draw edges through the cumulative rate table; the law of
    # X_t from "110000" must still match the matrix exponential's row
    g = MIXED
    t = 1.0
    gen = build_level_generator(g, 2)
    probs = matrix_exponential(gen, t).probs
    space = gen.space
    x0 = Configuration.from_string("110000")
    row = probs[space.rank(x0.word)]
    samples = 20000
    table = covered(g, t, samples)
    assert table.cumulative is not None
    ends = _evolve(np.full(samples, x0.word), table, t, _chunk_rng(17, 0))
    counts = np.bincount(space.rank(ends), minlength=space.size)
    expected = row * samples
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_P001[space.size - 1]


def test_empirical_laws_on_the_bit_path(monkeypatch):
    # the same two laws with every jump swapped by bit masks, as above the cap
    _edge_table.cache_clear()
    monkeypatch.setattr(dynamics, "SWAP_TABLE_ENTRIES", 0)
    assert covered(MIXED, 1.0, 20000).swapped is None
    test_empirical_law_matches_oracle_row()
    test_empirical_law_with_unequal_rates()


def test_stationarity_on_level():
    # started uniform on a level, the time-t law stays uniform
    g = make_cycle(5, 0.8)
    space = enumerate_level(5, 2)
    samples = 20000
    counts = np.zeros(space.size)
    for _, wt in _start_end(g, 2, 0.6, 5, samples):
        counts += np.bincount(space.rank(wt), minlength=space.size)
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
    samples = 20000
    w0, wt = _pairs(g, None, 0.8, 21, samples)
    fg = f[w0] * h[wt]
    gf = h[w0] * f[wt]
    pooled = math.sqrt(fg.var(ddof=1) / samples + gf.var(ddof=1) / samples)
    assert abs(fg.mean() - gf.mean()) <= 3 * pooled


def test_full_chunks_do_not_depend_on_sample_count():
    g = make_cycle(6, 0.5)
    w0, wt = _pairs(g, None, 0.9, 31, 2 * CHUNK + 1)
    v0, vt = _pairs(g, None, 0.9, 31, CHUNK)
    assert w0.shape == wt.shape == (2 * CHUNK + 1,)
    assert np.array_equal(w0[:CHUNK], v0)
    assert np.array_equal(wt[:CHUNK], vt)
    # the second chunk runs on a stream of its own
    assert not np.array_equal(w0[CHUNK:2 * CHUNK], v0)


@pytest.mark.parametrize("samples", [1, 100, CHUNK - 1])
def test_runs_shorter_than_a_chunk(samples):
    g = make_cycle(6, 0.5)
    w0, wt = _pairs(g, 3, 0.9, 12, samples)
    assert w0.shape == wt.shape == (samples,)
    space = enumerate_level(6, 3)
    space.rank(w0)      # raises unless every word is on the start level
    space.rank(wt)
    f = parity_on_set(6, [0, 3])
    cov = estimate_covariance(g, f, 0.9, samples=samples, seed=12, level=3)
    a, b = f.values[w0], f.values[wt]
    assert cov.samples == samples
    assert cov.point == float((a * b).mean() - a.mean() ** 2)
    flip = estimate_flip_probability(g, f, 0.9, samples=samples, seed=12, level=3)
    assert flip.samples == samples
    assert flip.point == np.count_nonzero(a != b) / samples
    if samples == 1:
        assert cov.std_error == 0.0 and flip.std_error == 0.0


def test_covariance_constant_function():
    g = make_cycle(4, 1.0)
    f = BooleanFunction(4, np.ones(16))
    est = estimate_covariance(g, f, 0.5, samples=500, seed=1)
    assert est.point == 0.0
    assert est.std_error == 0.0


def test_covariance_at_lag_zero_matches_variance():
    g = make_complete(4, 0.25)
    f = dictator(4, 0)
    est = estimate_covariance(g, f, 0.0, samples=20000, seed=2)
    assert abs(est.point - f.variance()) <= 3 * est.std_error


def test_covariance_matches_exact():
    g = make_complete(4, 0.25)
    f = dictator(4, 0)
    profile = bases_profile(f, solve_alone(g))
    est = estimate_covariance(g, f, 1.0, samples=20000, seed=3)
    assert est.std_error > 0
    assert abs(est.point - exact_covariance(profile, 1.0)) <= 3 * est.std_error


def test_covariance_level_start():
    g = make_complete(4, 0.25)
    f = dictator(4, 0)
    est = estimate_covariance(g, f, 0.4, samples=8000, seed=9, level=2)
    # conditional start: covariance of a dictator on the level-2 slice
    gen = build_level_generator(g, 2)
    probs = matrix_exponential(gen, 0.4).probs
    f_level = f.values[gen.space.words]
    exact = float(f_level @ probs @ f_level) / gen.space.size - f_level.mean() ** 2
    assert abs(est.point - exact) <= 3 * est.std_error


def test_flip_zero_time_and_constant():
    g = make_cycle(8, 0.5)
    f = parity_on_set(8, [0, 2, 4, 6])
    est = estimate_flip_probability(g, f, 0.0, samples=2000, seed=4)
    assert est.point == 0.0
    const = BooleanFunction(8, np.ones(256))
    est = estimate_flip_probability(g, const, 0.7, samples=2000, seed=4)
    assert est.point == 0.0


def test_flip_matches_exact():
    g = make_cycle(8, 0.5)
    f = parity_on_set(8, [0, 2, 4, 6])
    profile = bases_profile(f, solve_alone(g))
    est = estimate_flip_probability(g, f, 0.3, samples=20000, seed=6)
    assert abs(est.point - exact_flip_probability(profile, 0.3)) <= 3 * est.std_error


def test_estimators_bit_reproducible():
    g = make_cycle(6, 0.5)
    f = parity_on_set(6, [0, 3])
    a = estimate_covariance(g, f, 0.8, samples=3000, seed=42)
    b = estimate_covariance(g, f, 0.8, samples=3000, seed=42)
    assert a == b
    c = estimate_flip_probability(g, f, 0.8, samples=3000, seed=42)
    d = estimate_flip_probability(g, f, 0.8, samples=3000, seed=42)
    assert c == d


def test_spec_validation():
    for estimate in (estimate_covariance, estimate_flip_probability):
        with pytest.raises(ValueError, match="need at least 1 sample, got 0"):
            estimate(make_cycle(5, 1.0), dictator(5, 0), 1.0, samples=0)


@pytest.mark.parametrize("seed", [SEED_MIN - 1, SEED_MAX + 1, 2**64 - 1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # the stream key masks the seed to 64 bits: outside the signed range two
    # seeds would share a stream (-1 and 2^64 - 1, 0 and 2^64)
    for estimate in (estimate_covariance, estimate_flip_probability):
        with pytest.raises(ValueError, match="seed must be in"):
            estimate(make_cycle(5, 1.0), dictator(5, 0), 1.0, samples=10, seed=seed)
    with pytest.raises(ValueError, match="seed must be in"):
        simulate_path(make_cycle(5, 1.0), Configuration(5, 1), 1.0, seed=seed)


def test_seeds_at_the_bounds_have_streams_of_their_own():
    g = make_cycle(6, 0.5)
    ends = [_pairs(g, None, 0.9, seed, 500)[1] for seed in (SEED_MIN, -1, 0, SEED_MAX)]
    for i, a in enumerate(ends):
        for b in ends[i + 1:]:
            assert not np.array_equal(a, b)


@pytest.mark.parametrize("g", [make_cycle(16, 1.0), make_cycle(17, 1.0),
                               make_complete(13, 1.0), make_complete(14, 1.0)],
                         ids=["cycle16", "cycle17", "complete13", "complete14"])
def test_swap_table_is_built_exactly_up_to_the_cap(g):
    table = covered(g, 1.0, 1 << 20)      # expects more jumps than any table has entries
    entries = len(g.edges) << g.n
    if entries > SWAP_TABLE_ENTRIES:
        assert table.swapped is None
    else:
        assert table.swapped.size == entries
    # the cap admits cycles up to 16 vertices and complete graphs up to 13
    assert (table.swapped is None) == (g.n in (17, 14))


def test_swap_table_is_built_only_when_the_jumps_cover_it():
    # building an entry costs about one bit-mask swap: the table must expect
    # at least as many jumps (samples * total rate * t) as it has entries
    g = make_cycle(5, 1.0)                               # 5 * 2^5 = 160 entries
    assert covered(g, 1.0, 32).swapped.size == 160       # 160 expected jumps
    assert covered(g, 1.0, 31).swapped is None           # 155
    assert covered(g, 0.0, 10**9).swapped is None        # no jumps at t = 0
    assert covered(g, 1.0, 1).swapped is None            # simulate_path's one path
    assert covered(Graph(4), 1.0, 10**9).swapped is None     # no edges, no table
    # the rule is one estimate's: 80 expected jumps twice build nothing, and
    # a built table stays for an estimate that would not build it
    table = covered(g, 0.5, 32)
    table.cover(32 * 5 * 0.5)
    assert table.swapped is None
    table.cover(160)
    swapped = table.swapped
    assert swapped.size == 160
    table.cover(0)
    assert table.swapped is swapped


@pytest.mark.parametrize("g,level,t", [
    (make_cycle(7, 0.5), None, 1.3),      # equal rates, uniform start
    (make_complete(6, 0.4), 3, 2.0),      # equal rates, level start
    (MIXED, None, 0.7),                   # unequal rates, uniform start
    (MIXED, 2, 40.0),                     # unequal rates, over 127 jumps: int16 keys
    (make_cycle(6, 1.0), None, 0.0),      # no path jumps
])
def test_table_and_bit_paths_end_on_the_same_words(monkeypatch, g, level, t):
    samples = 2 * CHUNK + 300
    assert (covered(g, t, samples).swapped is None) == (t == 0)
    runs = [_pairs(g, level, t, 19, samples)]
    assert (_edge_table(g).swapped is None) == (t == 0)
    # the cached table is built: drop it, so that the cap of 0 is read
    _edge_table.cache_clear()
    monkeypatch.setattr(dynamics, "SWAP_TABLE_ENTRIES", 0)
    runs.append(_pairs(g, level, t, 19, samples))
    # and both end where the int64-sorted bit-mask sampler, one draw per
    # jump, ends
    monkeypatch.setattr(dynamics, "_evolve", _reference_evolve)
    runs.append(_pairs(g, level, t, 19, samples))
    for w0, wt in runs[1:]:
        assert np.array_equal(w0, runs[0][0])
        assert np.array_equal(wt, runs[0][1])


@pytest.mark.parametrize("g,level,t,block", [
    (MIXED, None, 2.0, 1),                  # one draw per jump
    (make_complete(6, 0.4), 3, 2.0, 4001),  # blocks end mid-run, odd sizes
    (MIXED, None, 40.0, BLOCK),             # each chunk draws many blocks
], ids=["one-draw-per-jump", "odd-blocks", "many-blocks"])
def test_table_and_bit_paths_end_on_the_same_words_in_blocks(monkeypatch, g, level, t, block):
    # the same three samplers, with a chunk's edges drawn BLOCK at a time
    monkeypatch.setattr(dynamics, "BLOCK", block)
    test_table_and_bit_paths_end_on_the_same_words(monkeypatch, g, level, t)


def test_a_chunk_draws_its_edges_a_block_at_a_time(monkeypatch):
    sizes = []
    real_pick = _EdgeTable.pick

    def pick(self, rng, size):
        sizes.append(size)
        return real_pick(self, rng, size)

    monkeypatch.setattr(_EdgeTable, "pick", pick)
    g, t = make_complete(8, 0.25), 10.0          # about 70 jumps per path
    rng = _chunk_rng(3, 0)
    jumps = _chunk_rng(3, 0).poisson(7.0 * t, size=CHUNK)   # the counts _evolve draws
    _evolve(np.zeros(CHUNK, dtype=np.int64), covered(g, t, CHUNK), t, rng)
    assert sum(sizes) == jumps.sum()
    assert max(sizes) <= BLOCK
    # a block ends only where the next jump's edges would not fit
    assert all(size > BLOCK - CHUNK for size in sizes[:-1])
    assert len(sizes) == 9


SPLITS = [(1, 1), (3, 5), (7, 1, 9), (1, 2, 3, 4, 5), (1001, 33, 4097)]


def _twin_streams():
    # two copies of one chunk's stream after the draws _evolve's edges follow
    streams = _chunk_rng(5, 0), _chunk_rng(5, 0)
    for rng in streams:
        rng.integers(1 << 7, size=5)    # start words
        rng.poisson(3.0, size=5)        # jump counts
    return streams


@pytest.mark.parametrize("bound", [1, 2, 28, 1000, 2**33])
@pytest.mark.parametrize("split", SPLITS, ids=str)
def test_consecutive_integer_draws_continue_one_stream(bound, split):
    # The blocked sampler draws a block of jumps' edges in one call where the
    # one-draw-per-jump sampler made one call per jump. Both read the same
    # words only while numpy keeps this property of its bounded integers.
    whole, parts = _twin_streams()
    joined = np.concatenate([parts.integers(bound, size=k) for k in split])
    assert np.array_equal(joined, whole.integers(bound, size=sum(split)))


@pytest.mark.parametrize("split", SPLITS, ids=str)
def test_consecutive_uniform_draws_continue_one_stream(split):
    # the same for the uniforms that pick edges by rate
    whole, parts = _twin_streams()
    joined = np.concatenate([parts.random(k) for k in split])
    assert np.array_equal(joined, whole.random(sum(split)))


def _count_builds(monkeypatch):
    """Per cover() call from here on, whether it built the swapped-word table."""
    built = []
    real_cover = _EdgeTable.cover

    def cover(self, jumps):
        before = self.swapped
        real_cover(self, jumps)
        built.append(before is None and self.swapped is not None)

    monkeypatch.setattr(_EdgeTable, "cover", cover)
    _edge_table.cache_clear()
    return built


def _simulate(capsys, samples):
    assert main(["simulate", "--graph", "cycle:5", "--rate", "1", "--function", "majority",
                 "--t", "0.5", "--eps", "0.5", "--samples", str(samples)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"covariance", "flip_probability"}
    return doc


def test_a_two_horizon_run_builds_one_table(monkeypatch, capsys):
    built = _count_builds(monkeypatch)
    # 160 expected jumps per horizon: the first estimate builds the table of
    # 160 entries and the second reads the same one
    _simulate(capsys, 64)
    assert built == [True, False]
    table = _edge_table(make_cycle(5, 1.0))
    assert table.swapped.size == 160
    # a later run on an equal graph builds none
    _simulate(capsys, 64)
    assert built == [True, False, False, False]
    assert _edge_table(make_cycle(5, 1.0)) is table
    # another graph takes the cache's one place
    assert _edge_table(make_complete(5, 1.0)) is not table
    assert _edge_table(make_cycle(5, 1.0)) is not table


def test_a_run_whose_horizons_cover_the_table_only_together_swaps_by_masks(monkeypatch,
                                                                          capsys):
    built = _count_builds(monkeypatch)
    # 80 expected jumps per horizon: neither estimate alone covers 160 entries
    on_masks = _simulate(capsys, 32)
    assert built == [False, False]
    assert _edge_table(make_cycle(5, 1.0)).swapped is None
    # and the table path, forced by a cached built table, gives the same report
    _edge_table(make_cycle(5, 1.0)).cover(math.inf)
    assert _simulate(capsys, 32) == on_masks


def test_the_poisson_limit_is_numpys():
    rng = np.random.default_rng(0)
    assert rng.poisson(POISSON_LAM_MAX) > 0
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(POISSON_LAM_MAX, math.inf))


@pytest.mark.parametrize("g,t", [(make_cycle(5, 1.0), 1e300),
                                 (make_cycle(5, 1.0), POISSON_LAM_MAX / 4),
                                 (make_cycle(5, 1e300), 1.0)])
def test_a_horizon_over_the_poisson_limit_is_refused(g, t):
    f = dictator(5, 0)
    expects = re.escape(f"expects {g.edges[0][2] * 5 * t:g} jumps")
    for run in (lambda: estimate_covariance(g, f, t, samples=10),
                lambda: estimate_flip_probability(g, f, t, samples=10),
                lambda: simulate_path(g, Configuration(5, 1), t, seed=0)):
        with pytest.raises(ValueError, match=expects):
            run()
