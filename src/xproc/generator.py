"""Level generators of the exclusion dynamics.

The stored matrix is the negated generator -Q restricted to a level slice:
a dense, symmetric, positive semidefinite matrix with zero row sums. Entry
(x, y) for x != y is minus the total rate of edges whose swap carries x to
y, and the diagonal holds the total active-swap rate out of each state.

Inner products are uniform-measure weighted throughout:
<f, g> = (1/|S|) sum_x f(x) g(x).

A generator's edge permutations are rows of the slice's swap table
(LevelStateSpace.swaps), which depends on (n, level) alone: it is built
once per level slice and lives as long as the slice, so each later graph on
that slice only gathers its edges' rows (see statespace for the table's
memory bound).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .statespace import LevelStateSpace, enumerate_level, pair_row


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


def build_level_generator(g: Graph, level: int) -> LevelGenerator:
    """Assemble -Q for the given level of the exclusion process on g."""
    return build_level_generators([g], level)[0]


def build_level_generators(graphs: Sequence[Graph], level: int) -> list[LevelGenerator]:
    """Assemble -Q on one level for each of several graphs on the same n, as one stack.

    Generator i's matrix is member i of one (len(graphs), size, size)
    array, and each entry equals the one the graph built alone gets.
    """
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError(f"a stack needs graphs on one n, got {sorted({g.n for g in graphs})}")
    if not all(g.connected for g in graphs):
        raise ValueError("generator requires a connected graph")
    space = enumerate_level(n, level)
    size = space.size
    stack = np.zeros((len(graphs), size, size))
    states = np.arange(size)
    perms = [space.swaps[[pair_row(n, u, v) for u, v, _ in g.edges]] for g in graphs]
    # Distinct edges never join the same pair of states, so each
    # off-diagonal entry is written once; fixed states land on the diagonal.
    edge_member = np.repeat(np.arange(len(graphs)), [len(g.edges) for g in graphs])
    rates = np.array([rate for g in graphs for _, _, rate in g.edges])
    stack[edge_member[:, None], states, np.concatenate(perms)] = -rates[:, None]
    # Exact zero row sums: the diagonal balances the off-diagonal mass.
    stack[:, states, states] = 0.0
    stack[:, states, states] = -stack.sum(axis=2)
    return [LevelGenerator(graph=g, space=space, matrix=m, edge_permutations=p)
            for g, m, p in zip(graphs, stack, perms)]


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

