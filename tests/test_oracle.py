"""Transition-matrix oracle: series exponential and direct correlation."""

import numpy as np
import pytest

from xproc.fourier import BooleanFunction, dictator, spectral_profile
from xproc.fourier import exact_correlation
from xproc.generator import NumericalError, build_level_generator
from xproc.graph import Graph, make_complete, make_cycle
from xproc.oracle import brute_force_correlation, matrix_exponential

from conftest import solve_alone


def test_t_zero_is_identity():
    gen = build_level_generator(make_cycle(5, 0.5), 2)
    trans = matrix_exponential(gen, 0.0)
    np.testing.assert_array_equal(trans.probs, np.eye(10))


def test_negative_entry_is_numerical_error():
    gen = build_level_generator(make_cycle(3, 1.0), 1)
    gen.matrix *= -1.0  # negative rates: exp(tQ) gets negative off-diagonal entries
    with pytest.raises(NumericalError, match=r"^matrix_exponential on n=3, level=1 "
                                            r"\(3 states\): t=1 produced entry"):
        matrix_exponential(gen, 1.0)


def test_row_sum_defect_is_numerical_error():
    gen = build_level_generator(make_cycle(3, 1.0), 1)
    gen.matrix += np.eye(3)  # rows no longer sum to zero
    with pytest.raises(NumericalError, match=r"^matrix_exponential on n=3, level=1 "
                                            r"\(3 states\): t=1 row sums off by"):
        matrix_exponential(gen, 1.0)


def test_negative_time_rejected():
    gen = build_level_generator(make_cycle(5, 0.5), 2)
    with pytest.raises(ValueError):
        matrix_exponential(gen, -0.5)


def test_large_time_reaches_uniform():
    gen = build_level_generator(make_complete(4, 1.0), 2)
    trans = matrix_exponential(gen, 50.0)
    np.testing.assert_allclose(trans.probs, np.full((6, 6), 1 / 6), atol=1e-8)


def test_semigroup_property():
    gen = build_level_generator(make_complete(4, 1.0), 2)
    h_s = matrix_exponential(gen, 0.3).probs
    h_2s = matrix_exponential(gen, 0.6).probs
    np.testing.assert_allclose(h_s @ h_s, h_2s, atol=1e-8)


def test_doubly_stochastic():
    g = Graph(5, ((0, 1, 0.4), (1, 2, 1.3), (2, 3, 0.2), (3, 4, 0.9), (0, 4, 0.6)))
    for level in range(6):
        gen = build_level_generator(g, level)
        for t in (0.05, 0.9, 7.0):
            trans = matrix_exponential(gen, t)
            assert trans.probs.min() >= 0.0
            np.testing.assert_allclose(trans.probs.sum(axis=1), 1.0, atol=1e-10)
            np.testing.assert_allclose(trans.probs.sum(axis=0), 1.0, atol=1e-10)


def test_many_squarings_path():
    # large t * rates force the scaling branch
    gen = build_level_generator(make_complete(5, 2.0), 2)
    trans = matrix_exponential(gen, 3.7)
    np.testing.assert_allclose(trans.probs.sum(axis=1), 1.0, atol=1e-10)
    # at this horizon the level is essentially mixed
    np.testing.assert_allclose(trans.probs, 1 / 10, atol=1e-6)


def test_brute_force_t_zero():
    g = make_cycle(4, 1.0)
    f = dictator(4, 2)
    expected = float(np.mean(f.values**2))
    assert brute_force_correlation(g, f, 0.0) == pytest.approx(expected, abs=1e-12)


def test_brute_force_constant():
    g = make_complete(3, 0.5)
    c = 1.0
    f = BooleanFunction(3, np.full(8, c))
    for t in (0.0, 0.4, 2.0):
        assert brute_force_correlation(g, f, t) == pytest.approx(c * c, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_oracle_matches_spectral_formula(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if v == u + 1 or rng.random() < 0.5:
                edges.append((u, v, float(rng.uniform(0.2, 1.5))))
    g = Graph(n, tuple(edges))
    f = BooleanFunction(n, rng.integers(0, 2, size=1 << n).astype(float))
    t = float(rng.uniform(0.0, 2.5))
    profile = spectral_profile(f, solve_alone(g))
    assert exact_correlation(profile, t) == pytest.approx(
        brute_force_correlation(g, f, t), abs=1e-8
    )
