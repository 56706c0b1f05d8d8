"""Brute-force ground truth, independent of the eigensolver.

The transition matrix exp(tQ) is computed by scaling and squaring with a
truncated Taylor series — deliberately no eigendecomposition, so a bug in
the spectral path cannot hide behind an identical bug here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import BooleanFunction
from .generator import LevelGenerator, NumericalError, build_level_generator
from .graph import Graph
from .statespace import LevelStateSpace

SERIES_DEGREE = 16       # Taylor terms; residual below double precision at norm <= 0.5
SCALING_TARGET = 0.5     # squarings bring the 1-norm of tQ / 2^s down to this


@dataclass(eq=False)
class TransitionMatrix:
    """Doubly stochastic matrix of transition probabilities at one time."""

    space: LevelStateSpace
    t: float
    probs: np.ndarray


def matrix_exponential(gen: LevelGenerator, t: float) -> TransitionMatrix:
    """exp(tQ) on one level via scaling-and-squaring of the Taylor series.

    Raises NumericalError when the result has a negative entry or a row
    sum off 1.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    a = -t * gen.matrix          # tQ; the stored matrix is -Q
    size = gen.space.size
    norm1 = float(np.max(np.abs(a).sum(axis=0))) if size else 0.0
    squarings = 0 if norm1 <= SCALING_TARGET else math.ceil(
        math.log2(norm1 / SCALING_TARGET)
    )
    b = a / (2.0**squarings)
    result = np.eye(size)
    term = np.eye(size)
    for j in range(1, SERIES_DEGREE + 1):
        term = term @ b / j
        result = result + term
    for _ in range(squarings):
        result = result @ result
    low = float(result.min())
    if low < -1e-12:
        raise NumericalError("matrix_exponential", gen,
                             f"t={t:g} produced entry {low:g} < -1e-12")
    row_err = float(np.max(np.abs(result.sum(axis=1) - 1.0)))
    if row_err > 1e-10:
        raise NumericalError("matrix_exponential", gen,
                             f"t={t:g} row sums off by {row_err:g}")
    return TransitionMatrix(gen.space, t, np.clip(result, 0.0, None))


def brute_force_correlation(g: Graph, f: BooleanFunction, t: float) -> float:
    """E[f(X_0) f(X_t)] by direct transition-matrix summation over all levels."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if f.n != g.n:
        raise ValueError(f"function is on {f.n} vertices, graph has {g.n}")
    total = 0.0
    weight = 2.0 ** (-g.n)
    for level in range(g.n + 1):
        gen = build_level_generator(g, level)
        trans = matrix_exponential(gen, t)
        f_level = f.values[gen.space.words]
        total += weight * float(f_level @ trans.probs @ f_level)
    return total
