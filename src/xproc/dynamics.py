"""Continuous-time Monte Carlo simulation of the exclusion process.

Paths use uniformization. With R the sum of all edge rates, the number of
jumps by time t is Poisson(R t); the jumps pick edges i.i.d. with
probability rate/R, independently of their number, and each swaps its
edge's endpoints (a no-op when they match). This is the law of the
total-rate jump chain, and so of independent per-edge Poisson clocks.
The endpoint depends only on the jump count and the edge sequence, so all
samples advance in lockstep: jump k moves the samples with more than k
jumps.

Samples are split into chunks of CHUNK. Chunk c of a run with seed s
draws from its own counter-based Philox stream keyed by (s, c): first the
start words, then the jump counts, then one edge per moving sample and
jump index, jump by jump. The jump counts fix every jump's moving count
before the first edge, so a block of consecutive jumps draws its edges in
one call, at most BLOCK edges or one jump's. This is the same stream as one
call per jump: numpy draws bounded integers and uniform doubles one after
another from the bit generator, which keeps its spare half-word across
calls, so integers(c, size=a) then integers(c, size=b) returns
integers(c, size=a + b). Results are bit-reproducible, and a full chunk's
samples do not depend on how many samples the run has. Seeds are 64-bit
signed integers, from SEED_MIN to SEED_MAX; each keys its own streams.

A jump looks its swapped word up in a per-graph table: entry (e << n) + w
is word w after a jump on edge e, built by swap_words itself. Building an
entry costs about as much as one bit-mask swap, so the table is built the
first time one estimate's expected jumps, samples * R * t, reach its
edges * 2^n entries, and never above SWAP_TABLE_ENTRIES entries (8 MiB);
until then jumps swap by bit masks. The last graph's table is kept for its
next estimate. Both ways give the same words, so results do not depend on
which one runs. R * t above numpy's Poisson limit is refused.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fourier import BooleanFunction
from .graph import Graph
from .statespace import Configuration, enumerate_level, swap_words, vertex_masks

CHUNK = 4096
BLOCK = 1 << 15                # most edges a block of jumps draws (256 KiB of int64)
SWAP_TABLE_ENTRIES = 1 << 20   # largest edges * 2^n swap table cover() builds
SEED_MIN, SEED_MAX = -(1 << 63), (1 << 63) - 1
# The largest mean numpy's Poisson sampler takes, as numpy computes it.
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass(frozen=True)
class SimulationSpec:
    """Sampling policy of the estimators: start distribution, seed, sample count.

    level None draws the start uniformly over all 2^n configurations;
    an integer draws uniformly over that level slice.
    """

    level: int | None = None
    seed: int = 0
    samples: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"need at least 1 sample, got {self.samples}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class EstimateResult:
    point: float
    std_error: float
    samples: int


def _check_horizon(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and >= 0, got {t}")


def _check_seed(seed: int) -> None:
    if not SEED_MIN <= seed <= SEED_MAX:
        raise ValueError(f"seed must be in {SEED_MIN}..{SEED_MAX}, got {seed}")


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    """Counter-based stream of one chunk of one run."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _EdgeTable:
    """Per-edge endpoint bit masks, the table that picks edges by rate and,
    once cover() asks for it, the swapped-word table of one graph."""

    def __init__(self, g: Graph):
        self.n = g.n
        self.bu, self.bv = vertex_masks(g.n)[g.ends].T
        self.total_rate = float(g.rates.sum())
        # None when all rates are equal: edges are then drawn by index.
        self.cumulative = np.cumsum(g.rates) if np.any(g.rates != g.rates[:1]) else None
        # Flat: entry (e << n) + w is word w after a jump on edge e. None
        # until cover() builds it; jumps then swap by bit masks.
        self.swapped = None

    def cover(self, jumps: float) -> None:
        """Build the swapped-word table if jumps expected jumps cover its entries
        and it is within SWAP_TABLE_ENTRIES; a built table stays."""
        entries = self.bu.size << self.n
        if self.swapped is None and 0 < entries <= min(SWAP_TABLE_ENTRIES, jumps):
            words = np.arange(1 << self.n, dtype=np.int64)
            swapped = np.empty((self.bu.size, words.size), dtype=np.int64)
            for row, bu, bv in zip(swapped, self.bu, self.bv):
                row[:] = swap_words(words, bu, bv)   # one row at a time
            self.swapped = swapped.reshape(-1)

    def pick(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size i.i.d. edge indices, edge k with probability rate_k / total_rate."""
        count = self.bu.size
        if self.cumulative is None:
            return rng.integers(count, size=size)
        u = rng.random(size) * self.total_rate
        return np.minimum(np.searchsorted(self.cumulative, u), count - 1)


def _evolve(words: np.ndarray, table: _EdgeTable, t: float,
            rng: np.random.Generator) -> np.ndarray:
    """End words at time t of independent paths started at words (int64)."""
    jumps = rng.poisson(table.total_rate * t, size=words.size)
    # Most jumps first, so that jump k moves a prefix of the paths.
    # Narrow keys sort by radix; a stable sort is unique, so the order is too.
    top = int(jumps.max(initial=0))
    key = (-jumps).astype(np.min_scalar_type(min(-top, -1)))
    order = np.argsort(key, kind="stable")
    w = words[order]
    # moving[k] paths have more than k jumps; drawn[k] edges move jumps 0..k-1.
    moving = np.searchsorted(key[order], np.arange(0, -top, -1, dtype=key.dtype))
    drawn = [0, *np.cumsum(moving).tolist()]
    moving = moving.tolist()
    k = 0
    while k < top:
        # Jumps k..j-1 draw their edges in one call: at most BLOCK of them,
        # or a single jump's when it moves more paths than that.
        j = max(bisect_right(drawn, drawn[k] + BLOCK, k) - 1, k + 1)
        e = table.pick(rng, drawn[j] - drawn[k])
        lo = 0
        if table.swapped is None:
            bu, bv = table.bu[e], table.bv[e]
            for m in moving[k:j]:
                w[:m] = swap_words(w[:m], bu[lo:lo + m], bv[lo:lo + m])
                lo += m
        else:
            e <<= table.n
            for m in moving[k:j]:
                idx = e[lo:lo + m]
                idx += w[:m]
                # Every index is in range; "raise" would buffer the output.
                np.take(table.swapped, idx, out=w[:m], mode="clip")
                lo += m
        k = j
    out = np.empty_like(w)
    out[order] = w
    return out


_edge_table = lru_cache(maxsize=1)(_EdgeTable)   # the last graph's, for its next estimate


def _covered_table(g: Graph, t: float, paths: int) -> _EdgeTable:
    """g's edge table, covered for paths paths to time t; a ValueError when one
    path's expected jumps R * t are not finite or are over POISSON_LAM_MAX."""
    table = _edge_table(g)
    jumps = table.total_rate * t
    if not jumps <= POISSON_LAM_MAX:
        raise ValueError(f"a path to time {t:g} expects {jumps:g} jumps (total rate times "
                         f"time); the Poisson sampler takes at most {POISSON_LAM_MAX:.4g}")
    table.cover(paths * table.total_rate * t)
    return table


def _start_end(g: Graph, level: int | None, t: float, seed: int,
               samples: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(start words, end words) of a run's samples, one chunk at a time."""
    table = _covered_table(g, t, samples)
    starts = None if level is None else enumerate_level(g.n, level).words
    for chunk, lo in enumerate(range(0, samples, CHUNK)):
        rng = _chunk_rng(seed, chunk)
        size = min(CHUNK, samples - lo)
        if starts is None:
            w0 = rng.integers(1 << g.n, size=size)
        else:
            w0 = starts[rng.integers(starts.size, size=size)]
        yield w0, _evolve(w0, table, t, rng)


def simulate_path(g: Graph, x0: Configuration, t: float, seed: int) -> Configuration:
    """Sample the configuration at time t started from x0.

    The marble count is conserved on every path.
    """
    _check_horizon(t)
    _check_seed(seed)
    if x0.n != g.n:
        raise ValueError(f"configuration is on {x0.n} vertices, graph has {g.n}")
    table = _covered_table(g, t, 1)
    word = _evolve(np.array([x0.word], dtype=np.int64), table, t, _chunk_rng(seed, 0))
    return Configuration(g.n, int(word[0]))


def estimate_covariance(g: Graph, f: BooleanFunction, t: float,
                        spec: SimulationSpec) -> EstimateResult:
    """Monte Carlo Cov(f(X_0), f(X_t)) with a jackknife standard error."""
    if f.n != g.n:
        raise ValueError(f"function is on {f.n} vertices, graph has {g.n}")
    _check_horizon(t)
    m = spec.samples
    a = np.empty(m)   # f at the start
    p = np.empty(m)   # product across the pair
    lo = 0
    for w0, wt in _start_end(g, spec.level, t, spec.seed, m):
        hi = lo + w0.size
        a[lo:hi] = f.values[w0]
        p[lo:hi] = a[lo:hi] * f.values[wt]
        lo = hi
    point = float(p.mean() - a.mean() ** 2)
    if m == 1:
        return EstimateResult(point, 0.0, m)
    # Leave-one-out jackknife of the plug-in covariance.
    sp, sa = p.sum(), a.sum()
    loo = (sp - p) / (m - 1) - ((sa - a) / (m - 1)) ** 2
    se = math.sqrt((m - 1) / m * float(((loo - loo.mean()) ** 2).sum()))
    return EstimateResult(point, se, m)


def estimate_flip_probability(g: Graph, f: BooleanFunction, eps: float,
                              spec: SimulationSpec) -> EstimateResult:
    """Monte Carlo P(f(X_0) != f(X_eps)) with a binomial standard error."""
    if f.n != g.n:
        raise ValueError(f"function is on {f.n} vertices, graph has {g.n}")
    _check_horizon(eps)
    m = spec.samples
    flips = 0
    for w0, wt in _start_end(g, spec.level, eps, spec.seed, m):
        flips += int(np.count_nonzero(f.values[w0] != f.values[wt]))
    p_hat = flips / m
    se = math.sqrt(p_hat * (1.0 - p_hat) / m)
    return EstimateResult(p_hat, se, m)
