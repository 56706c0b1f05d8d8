"""Level generator assembly and Dirichlet forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xproc.generator import build_level_generator, dirichlet_form
from xproc.graph import Graph, make_complete, make_cycle
from xproc.statespace import Configuration

from conftest import solve_alone


def test_k2_level1_matrix():
    gen = build_level_generator(make_complete(2, 1.0), 1)
    np.testing.assert_array_equal(gen.matrix, [[1.0, -1.0], [-1.0, 1.0]])


def test_level_zero_is_absorbing():
    for g in (make_complete(5, 0.5), make_cycle(6, 1.0)):
        gen = build_level_generator(g, 0)
        np.testing.assert_array_equal(gen.matrix, [[0.0]])


def test_k4_level2_diagonal():
    gen = build_level_generator(make_complete(4, 1.0), 2)
    assert gen.matrix.shape == (6, 6)
    # brute force: count edges whose endpoints hold different colors
    g = make_complete(4, 1.0)
    for i, w in enumerate(gen.space.words):
        x = Configuration(4, int(w))
        active = sum(1 for u, v, _ in g.edges if x.get(u) != x.get(v))
        assert gen.matrix[i, i] == active == 4


@pytest.mark.parametrize("n,level,rate", [(4, 2, 1.0), (5, 2, 0.25), (6, 3, 0.5)])
def test_complete_diagonal_formula(n, level, rate):
    gen = build_level_generator(make_complete(n, rate), level)
    np.testing.assert_allclose(np.diag(gen.matrix), level * (n - level) * rate)


def test_structure_invariants():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        edges = [(u, v, float(rng.uniform(0.1, 2.0)))
                 for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.8 or v == u + 1]
        g = Graph(n, tuple(edges))
        for level in range(n + 1):
            gen = build_level_generator(g, level)
            m = gen.matrix
            np.testing.assert_array_equal(m, m.T)
            off = m - np.diag(np.diag(m))
            assert off.max(initial=0.0) <= 0.0
            assert np.diag(m).min(initial=0.0) >= 0.0
            scale = max(1.0, np.max(np.abs(m)))
            assert np.max(np.abs(m.sum(axis=1))) <= 1e-12 * scale
            assert np.max(np.abs(m @ np.ones(gen.space.size))) <= 1e-12 * scale


def test_offdiagonal_matches_swap_rates():
    g = Graph(4, ((0, 1, 0.3), (1, 2, 0.7), (2, 3, 1.1), (0, 3, 0.5)))
    gen = build_level_generator(g, 2)
    words = [int(w) for w in gen.space.words]
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            if i == j:
                continue
            expected = -sum(r for u, v, r in g.edges if y == _swapped(x, g.n, u, v))
            assert gen.matrix[i, j] == expected


def _swapped(word, n, u, v):
    """word with the marbles at u and v interchanged; vertex 0 is the top bit."""
    bu, bv = n - 1 - u, n - 1 - v
    if ((word >> bu) ^ (word >> bv)) & 1:
        return word ^ ((1 << bu) | (1 << bv))
    return word


def test_disconnected_rejected():
    g = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    with pytest.raises(ValueError):
        build_level_generator(g, 2)


def test_dirichlet_constant_is_zero():
    assert dirichlet_form(make_cycle(5, 0.5), 2, np.ones(10)) == 0.0


def test_dirichlet_k2():
    g = make_complete(2, 1.0)
    gen = build_level_generator(g, 1)
    f = np.array([1.0, -1.0])
    # oracle: direct 2x2 matrix-vector product under the uniform inner product
    assert dirichlet_form(g, 1, f) == pytest.approx(float(gen.matrix @ f @ f) / 2, rel=1e-15)
    assert dirichlet_form(g, 1, f) == pytest.approx(2.0)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_dirichlet_edge_sum_equals_matrix_form(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    g = make_cycle(n, float(rng.uniform(0.2, 1.5)))
    level = int(rng.integers(0, n + 1))
    gen = build_level_generator(g, level)
    f = rng.standard_normal(gen.space.size)
    via_matrix = float(gen.matrix @ f @ f) / gen.space.size
    assert dirichlet_form(g, level, f) == pytest.approx(via_matrix, rel=1e-12, abs=1e-13)


def test_dirichlet_dimension_mismatch():
    with pytest.raises(ValueError):
        dirichlet_form(make_cycle(4, 1.0), 1, np.ones(3))


def test_subgraph_dirichlet_monotone_every_level():
    big = make_complete(5, 0.5)
    small = make_cycle(5, 0.5)
    rng = np.random.default_rng(23)
    for level in range(6):
        for _ in range(20):
            f = rng.standard_normal(math.comb(5, level))
            assert dirichlet_form(small, level, f) <= dirichlet_form(big, level, f) + 1e-12


def test_eigenvalue_bound_uniform_rate():
    # top eigenvalue of each level is at most 2 * rate * level * max_degree
    from xproc.graph import max_degree

    for g in (make_cycle(7, 0.8), make_complete(6, 0.3)):
        d = max_degree(g)
        rate = g.edges[0][2]
        for level in range(g.n + 1):
            basis = solve_alone(g, [level])[0]
            assert basis.eigenvalues[-1] <= 2 * rate * level * d + 1e-10
