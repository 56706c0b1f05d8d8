"""Configurations, level enumeration, and swaps on a level slice."""

import math
from fractions import Fraction

import pytest

from xproc.statespace import (
    Configuration,
    StateCapExceeded,
    bit_position,
    enumerate_level,
    swap_words,
)


def conf(bits: str) -> Configuration:
    return Configuration.from_string(bits)


def test_enumerate_small():
    space = enumerate_level(3, 1)
    assert list(space.words) == [1, 2, 4]
    assert [Configuration(3, int(w)).to_string() for w in space.words] == ["001", "010", "100"]


@pytest.mark.parametrize("n", range(2, 11))
def test_complementing_a_slice_reverses_its_order(n):
    # x -> ~x maps level l onto level n - l and reverses ascending order:
    # the theorem behind lift_up's and mirror_basis's reads of one table
    full = (1 << n) - 1
    for level in range(n + 1):
        mirrored = full ^ enumerate_level(n, level).words[::-1]
        assert mirrored.tolist() == enumerate_level(n, n - level).words.tolist()


def test_enumerate_counts():
    assert enumerate_level(4, 2).size == 6
    assert enumerate_level(14, 7).size == math.comb(14, 7)


def test_enumerate_sorted_unique_with_inverse():
    space = enumerate_level(7, 3)
    words = list(space.words)
    assert words == sorted(set(words))
    assert all(space.rank(w) == i for i, w in enumerate(words))
    assert all(int(w).bit_count() == 3 for w in words)


def test_uniform_weights_sum_to_one_exactly():
    for n, level in [(5, 2), (9, 4), (12, 6)]:
        space = enumerate_level(n, level)
        assert Fraction(1, space.size) * space.size == 1
        assert (1.0 / space.size) * space.size == 1.0


def test_cap_enforced(monkeypatch):
    monkeypatch.setenv("XPROC_STATE_CAP", "100")
    with pytest.raises(StateCapExceeded) as exc:
        enumerate_level(12, 6)
    assert exc.value.size == math.comb(12, 6)
    monkeypatch.setenv("XPROC_STATE_CAP", "1000")
    assert enumerate_level(12, 6).size == math.comb(12, 6)


def test_bad_level():
    with pytest.raises(ValueError):
        enumerate_level(5, 6)
    with pytest.raises(ValueError):
        enumerate_level(5, -1)


def test_adjacency_symmetric_on_level():
    space = enumerate_level(5, 2)
    adj = set()
    for u in range(5):
        for v in range(u + 1, 5):
            bu, bv = 1 << bit_position(5, u), 1 << bit_position(5, v)
            swapped = swap_words(space.words, bu, bv)
            adj |= {(int(x), int(y)) for x, y in zip(space.words, swapped) if x != y}
    assert adj and all((b, a) in adj for a, b in adj)


def test_string_roundtrip():
    for word in range(16):
        x = Configuration(4, word)
        assert Configuration.from_string(x.to_string()) == x
    assert conf("0110").get(0) == 0
    assert conf("0110").get(1) == 1
