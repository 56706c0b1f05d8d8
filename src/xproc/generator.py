"""Level generators of the exclusion dynamics.

The stored matrix is the negated generator -Q restricted to a level slice:
a dense, symmetric, positive semidefinite matrix with zero row sums. Entry
(x, y) for x != y is minus the total rate of edges whose swap carries x to
y, and the diagonal holds the total active-swap rate out of each state.

Inner products are uniform-measure weighted throughout:
<f, g> = (1/|S|) sum_x f(x) g(x).

A generator's edge permutations are rows of statespace.swap_table, which
depends on (n, level) alone: it is built once per level slice and held for
the life of the process, so each later graph on that slice only gathers its
edges' rows (see statespace for the table's memory bound).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, is_connected
from .statespace import LevelStateSpace, bit_position, enumerate_level, pair_row, swap_table


@dataclass(eq=False)
class LevelGenerator:
    """-Q on one level slice, with the graph that produced it.

    Row e of edge_permutations holds, per state index, the index of the
    state after swap e.
    """

    graph: Graph
    space: LevelStateSpace
    matrix: np.ndarray
    edge_permutations: np.ndarray


class NumericalError(ArithmeticError):
    """A numerical stage failed on one level generator: not a bad input.

    The message names the stage and the level's size (n, level, states).
    """

    def __init__(self, stage: str, gen: LevelGenerator, detail: str):
        space = gen.space
        super().__init__(f"{stage} on n={space.n}, level={space.level} "
                         f"({space.size} states): {detail}")


def edge_masks(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Single-bit int64 masks of the two endpoints of each edge, in edge order."""
    ends = np.array([(u, v) for u, v, _ in g.edges], dtype=np.int64).reshape(-1, 2)
    bits = np.int64(1) << bit_position(g.n, ends)
    return bits[:, 0], bits[:, 1]


def build_level_generator(g: Graph, level: int) -> LevelGenerator:
    """Assemble -Q for the given level of the exclusion process on g."""
    if not is_connected(g):
        raise ValueError("generator requires a connected graph")
    space = enumerate_level(g.n, level)
    perms = swap_table(g.n, level)[[pair_row(g.n, u, v) for u, v, _ in g.edges]]
    m = np.zeros((space.size, space.size))
    # Distinct edges never join the same pair of states, so each
    # off-diagonal entry is written once; fixed states land on the diagonal.
    rates = np.array([rate for _, _, rate in g.edges])
    m[np.arange(space.size), perms] = -rates[:, None]
    # Exact zero row sums: the diagonal balances the off-diagonal mass.
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1))
    return LevelGenerator(graph=g, space=space, matrix=m, edge_permutations=perms)


def dirichlet_form(gen: LevelGenerator, f: np.ndarray) -> float:
    """<-Q f, f> computed as the rate-weighted edge sum of squared increments.

    Swaps that fix a state contribute zero automatically.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (gen.space.size,):
        raise ValueError(f"function has shape {f.shape}, expected ({gen.space.size},)")
    perms = gen.edge_permutations
    total = 0.0
    for k, (_, _, rate) in enumerate(gen.graph.edges):
        diff = f - f[perms[k]]
        total += rate * float(diff @ diff)
    return total / (2.0 * gen.space.size)


def rayleigh_quotient(gen: LevelGenerator, f: np.ndarray) -> float:
    """<-Qf, f> / <f, f> under the uniform-measure inner product."""
    f = np.asarray(f, dtype=float)
    if f.shape != (gen.space.size,):
        raise ValueError(f"function has shape {f.shape}, expected ({gen.space.size},)")
    norm_sq = float(f @ f) / gen.space.size
    if norm_sq == 0.0:
        raise ValueError("Rayleigh quotient of the zero function is undefined")
    return dirichlet_form(gen, f) / norm_sq
