"""Configurations, level enumeration, and the combinatorial operators."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xproc.statespace import (
    Configuration,
    StateCapExceeded,
    enumerate_level,
    flip_vertex,
    is_below,
    swap_edge,
)


def conf(bits: str) -> Configuration:
    return Configuration.from_string(bits)


def test_enumerate_small():
    space = enumerate_level(3, 1)
    assert list(space.words) == [1, 2, 4]
    assert [s.to_string() for s in space.states] == ["001", "010", "100"]


def test_enumerate_counts():
    assert enumerate_level(4, 2).size == 6
    assert enumerate_level(14, 7).size == math.comb(14, 7)


def test_enumerate_sorted_unique_with_inverse():
    space = enumerate_level(7, 3)
    words = list(space.words)
    assert words == sorted(set(words))
    assert all(space.rank(w) == i for i, w in enumerate(words))
    assert all(space.position(s) == i for i, s in enumerate(space.states))
    assert all(s.weight() == 3 for s in space.states)


def test_uniform_weights_sum_to_one_exactly():
    for n, level in [(5, 2), (9, 4), (12, 6)]:
        space = enumerate_level(n, level)
        assert Fraction(1, space.size) * space.size == 1
        assert space.weight() * space.size == 1.0


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


def test_flip_examples():
    assert flip_vertex(conf("0110"), 0) == conf("1110")
    assert flip_vertex(conf("0110"), 1) == conf("0010")
    with pytest.raises(ValueError):
        flip_vertex(conf("0110"), 4)


def test_flip_changes_weight_by_one_exhaustive():
    for word in range(32):
        x = Configuration(5, word)
        for v in range(5):
            y = flip_vertex(x, v)
            assert abs(y.weight() - x.weight()) == 1
            assert flip_vertex(y, v) == x


def test_swap_examples():
    assert swap_edge(conf("10"), (0, 1)) == conf("01")
    assert swap_edge(conf("11"), (0, 1)) == conf("11")
    with pytest.raises(ValueError):
        swap_edge(conf("10"), (0, 2))


def test_swap_involution_exhaustive():
    for word in range(32):
        x = Configuration(5, word)
        for u in range(5):
            for v in range(u + 1, 5):
                y = swap_edge(x, (u, v))
                assert y.weight() == x.weight()
                assert swap_edge(y, (u, v)) == x
                assert (y == x) == (x.get(u) == x.get(v))


@given(word=st.integers(0, 255), u=st.integers(0, 7), v=st.integers(0, 7))
@settings(max_examples=200, deadline=None)
def test_swap_preserves_level_hypothesis(word, u, v):
    if u == v:
        return
    x = Configuration(8, word)
    e = (min(u, v), max(u, v))
    y = swap_edge(x, e)
    assert y.weight() == x.weight()
    assert swap_edge(y, e) == x


def test_is_below():
    assert is_below(conf("0010"), conf("0110"))
    assert not is_below(conf("1000"), conf("0110"))
    with pytest.raises(ValueError):
        is_below(conf("00"), conf("000"))


def test_is_below_subset_count():
    x = conf("11110000")
    below = [
        Configuration(8, w)
        for w in range(256)
        if Configuration(8, w).weight() == 2 and is_below(Configuration(8, w), x)
    ]
    assert len(below) == math.comb(4, 2)


def test_adjacency_symmetric_on_level():
    space = enumerate_level(5, 2)
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    adj = set()
    for x in space.states:
        for e in edges:
            y = swap_edge(x, e)
            if y != x:
                adj.add((x.word, y.word))
    assert all((b, a) in adj for a, b in adj)


def test_string_roundtrip():
    for word in range(16):
        x = Configuration(4, word)
        assert Configuration.from_string(x.to_string()) == x
    assert conf("0110").get(0) == 0
    assert conf("0110").get(1) == 1
