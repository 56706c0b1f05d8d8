"""Level generators of the exclusion dynamics.

The stored matrix is the negated generator -Q restricted to a level slice:
a dense, symmetric, positive semidefinite matrix with zero row sums. Entry
(x, y) for x != y is minus the total rate of edges whose swap carries x to
y, and the diagonal holds the total active-swap rate out of each state.

Inner products are uniform-measure weighted throughout:
<f, g> = (1/|S|) sum_x f(x) g(x).

A generator's off-diagonal entries are scattered from rows of the slice's
swap table (LevelStateSpace.swaps), which depends on (n, level) alone: it is
built once per level slice and lives as long as the slice, so each later
graph on that slice only reads its edges' rows, whose indices the graph
keeps (Graph.swap_rows; see statespace for the table's memory bound). The
generator keeps no copy of those rows; dirichlet_form reads the same rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .graph import Graph
from .statespace import LevelStateSpace, enumerate_level


@dataclass(eq=False)
class LevelGenerator:
    """-Q on one level slice, with the graph that produced it."""

    graph: Graph
    space: LevelStateSpace
    matrix: np.ndarray


class NumericalError(ArithmeticError):
    """A numerical stage failed on one level generator: not a bad input.

    The message names the stage and the level's size (n, level, states).
    """

    def __init__(self, stage: str, gen: LevelGenerator, detail: str):
        space = gen.space
        super().__init__(f"{stage} on n={space.n}, level={space.level} "
                         f"({space.size} states): {detail}")


class GeneratorStack(tuple):
    """Generators whose matrices are, in order, the members of one array, matrices.
    A slice or a sum of stacks is a plain tuple."""

    matrices: np.ndarray


def build_level_generator(g: Graph, level: int) -> LevelGenerator:
    """Assemble -Q for the given level of the exclusion process on g."""
    return build_stack([(g, level)])[0]


def build_stack(pairs: Sequence[tuple[Graph, int]]) -> GeneratorStack:
    """Assemble -Q on (graph, level) pairs whose levels have one size, as one stack.

    Generator i's matrix is member i of one (len(pairs), size, size) array,
    and each entry equals the one the pair built alone gets. Pairs sorted
    by (n, level) read each slice's swap table once.
    """
    if not all(g.connected for g, _ in pairs):
        raise ValueError("generator requires a connected graph")
    spaces, targets = [], []
    for (n, level), run in groupby(pairs, key=lambda pair: (pair[0].n, pair[1])):
        run = [g for g, _ in run]
        space = enumerate_level(n, level)
        spaces += [space] * len(run)
        targets.append(space.swaps[np.concatenate([g.swap_rows for g in run])])
    size = spaces[0].size
    if any(space.size != size for space in spaces):
        raise ValueError(f"a stack needs levels of one size, got "
                         f"{sorted({space.size for space in spaces})}")
    graphs = [g for g, _ in pairs]
    stack = np.zeros((len(graphs), size, size))
    states = np.arange(size)
    # Distinct edges never join the same pair of states, so each
    # off-diagonal entry is written once; fixed states land on the diagonal.
    edge_member = np.repeat(np.arange(len(graphs)), [len(g.edges) for g in graphs])
    rates = np.concatenate([g.rates for g in graphs])
    stack[edge_member[:, None], states, np.concatenate(targets)] = -rates[:, None]
    # Exact zero row sums: the diagonal balances the off-diagonal mass.
    stack[:, states, states] = 0.0
    stack[:, states, states] = -stack.sum(axis=2)
    gens = GeneratorStack(map(LevelGenerator, graphs, spaces, stack))
    gens.matrices = stack
    return gens


def dirichlet_form(g: Graph, level: int, f: np.ndarray) -> float:
    """<-Q f, f> on one level of g, as the rate-weighted edge sum of squared increments.

    Swaps that fix a state contribute zero automatically.
    """
    space = enumerate_level(g.n, level)
    f = np.asarray(f, dtype=float)
    if f.shape != (space.size,):
        raise ValueError(f"function has shape {f.shape}, expected ({space.size},)")
    diffs = f - f[space.swaps[g.swap_rows]]
    # One dot per edge, each with the bits of diff @ diff, summed in edge order.
    squares = np.matmul(diffs[:, None, :], diffs[:, :, None]).reshape(-1)
    total = np.cumsum(g.rates * squares)
    return float(total[-1]) / (2.0 * space.size)
