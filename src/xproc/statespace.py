"""Marble configurations and enumerated level slices.

A configuration of black/white marbles on n vertices is packed into an
n-bit word. Vertex 0 is the *leftmost* character of the fixed-width binary
string, i.e. vertex v occupies bit position n-1-v of the word. The level
slice with exactly l black marbles is enumerated in ascending word order,
once, and every matrix and vector downstream indexes against that order.
Complementing every word maps level l onto level n - l and reverses that
order, so a removal is the complement of an addition, and the additions
tables serve lifts in both directions.

vertex_masks(n) holds the single-bit mask of each vertex. Outside this
module the layout is read only through it, and every table here is built
from it.

Slices are cached per (n, level) for the life of the process, and each
slice builds its gather tables (swaps, additions) on first read
and keeps them as long as it lives; all are read-only. The swap table
holds C(n, 2) * C(n, level) int32 ranks. For 2 <= level <= n - 2 that is
at most half the bytes of the level's dense generator; at levels 0, 1,
n - 1 and n it is below 2 n^3 bytes. The swap tables of all levels of one
n take 2 n (n - 1) 2^n bytes, 2.6 MB at n = 13.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

DEFAULT_STATE_CAP = 20000


class StateCapExceeded(RuntimeError):
    """A level slice is larger than the configured state cap."""

    def __init__(self, n: int, level: int, size: int, cap: int):
        super().__init__(
            f"level slice C({n},{level}) has {size} states, exceeding the cap {cap} "
            f"(set XPROC_STATE_CAP to raise it)"
        )
        self.n = n
        self.level = level
        self.size = size
        self.cap = cap


def state_cap() -> int:
    """Current state cap; XPROC_STATE_CAP overrides the default of 20000."""
    raw = os.environ.get("XPROC_STATE_CAP")
    if not raw:
        return DEFAULT_STATE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"XPROC_STATE_CAP must be a positive integer, got {raw!r}")
    return cap


def bit_position(n: int, v: int) -> int:
    return n - 1 - v


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def vertex_masks(n: int) -> np.ndarray:
    """Read-only int64 array whose entry v is the single-bit mask of vertex v."""
    return _frozen(np.int64(1) << bit_position(n, np.arange(n, dtype=np.int64)))


@dataclass(frozen=True)
class Configuration:
    """An n-bit marble placement; bit value 1 marks a black marble."""

    n: int
    word: int

    def __post_init__(self):
        if not (2 <= self.n <= 63):
            raise ValueError(f"supported vertex counts are 2..63, got {self.n}")
        if not (0 <= self.word < (1 << self.n)):
            raise ValueError(f"word {self.word} out of range for n={self.n}")

    def get(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return (self.word >> bit_position(self.n, v)) & 1

    def weight(self) -> int:
        """Number of black marbles."""
        return self.word.bit_count()

    def to_string(self) -> str:
        return format(self.word, f"0{self.n}b")

    @classmethod
    def from_string(cls, bits: str) -> "Configuration":
        if set(bits) - {"0", "1"}:
            raise ValueError(f"configuration string must be binary, got {bits!r}")
        return cls(len(bits), int(bits, 2))


def swap_words(words: np.ndarray, bu, bv) -> np.ndarray:
    """Words with bits bu and bv interchanged wherever the two differ.

    bu and bv are single-bit masks (scalars or arrays) that broadcast
    against the int64 array words; the result is a new array.
    """
    differ = ((words & bu) != 0) != ((words & bv) != 0)
    return np.where(differ, words ^ (bu | bv), words)


@dataclass(frozen=True, eq=False)
class LevelStateSpace:
    """All C(n, level) configurations with a fixed number of black marbles."""

    n: int
    level: int
    words: np.ndarray          # sorted ascending, dtype int64, read-only

    @property
    def size(self) -> int:
        return len(self.words)

    def rank(self, words):
        """Positions of words (a scalar or any array) in this slice.

        Raises ValueError naming the first word that is not in the slice.
        """
        words = np.asarray(words, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.words, words), self.size - 1)
        missing = self.words[pos] != words
        if np.any(missing):
            raise ValueError(
                f"word {words[missing][0]} is not in level slice C({self.n},{self.level})"
            )
        return pos

    @cached_property
    def swaps(self) -> np.ndarray:
        """int32 (C(n, 2), size) table of the ranks after a swap.

        Row pair_row(n, u, v) holds, per state, the rank of the state with
        the marbles at u and v interchanged; rows run over the pairs u < v
        in np.triu_indices(n, 1) order.
        """
        masks = vertex_masks(self.n)
        u, v = np.triu_indices(self.n, 1)
        table = self.rank(swap_words(self.words, masks[u, None], masks[v, None]))
        return _frozen(table.astype(np.int32))

    @cached_property
    def additions(self) -> np.ndarray:
        """(size, n - level) table of the level+1 ranks of single-marble additions.

        Row i lists them by ascending vertex: the summation order of both lifts.
        """
        masks = vertex_masks(self.n)
        black = (self.words[:, None] & masks) != 0
        free = np.nonzero(~black)[1].reshape(self.size, self.n - self.level)
        return _frozen(enumerate_level(self.n, self.level + 1)
                       .rank(self.words[:, None] | masks[free]))


def _level_words(n: int, level: int) -> list[int]:
    # Gosper's hack walks the words of a fixed popcount in ascending order.
    if level == 0:
        return [0]
    out = []
    w = (1 << level) - 1
    top = 1 << n
    while w < top:
        out.append(w)
        c = w & -w
        r = w + c
        w = (((r ^ w) >> 2) // c) | r
    return out


@lru_cache(maxsize=None)
def _level_slice(n: int, level: int) -> LevelStateSpace:
    return LevelStateSpace(n, level, _frozen(np.array(_level_words(n, level), dtype=np.int64)))


def enumerate_level(n: int, level: int) -> LevelStateSpace:
    """The level slice, ascending by word value.

    Slices are cached per (n, level) and their words are read-only.
    Raises StateCapExceeded on every call, cached or not, when C(n, level)
    is over the configured cap.
    """
    if not (2 <= n <= 63):
        raise ValueError(f"supported vertex counts are 2..63, got {n}")
    if not (0 <= level <= n):
        raise ValueError(f"level must be in 0..{n}, got {level}")
    size = math.comb(n, level)
    cap = state_cap()
    if size > cap:
        raise StateCapExceeded(n, level, size, cap)
    return _level_slice(n, level)


def check_levels(n: int, levels=None) -> None:
    """Raise StateCapExceeded, enumerating nothing, where solving the levels in order would.

    levels defaults to 0..n.
    """
    cap = state_cap()
    for level in range(n + 1) if levels is None else levels:
        size = math.comb(n, level)
        if size > cap:
            raise StateCapExceeded(n, level, size, cap)


def pair_row(n: int, u: int, v: int) -> int:
    """Row of the vertex pair u < v in LevelStateSpace.swaps: np.triu_indices(n, 1) order."""
    return u * (2 * n - u - 1) // 2 + v - u - 1

