"""Fixtures and helpers shared by several test modules."""

from collections import Counter

import pytest

from xproc import spectral
from xproc.generator import build_stack


def solve_alone(g, levels=None):
    """Bases of the given levels of the process on g (default 0..n), in that order.

    Each level is solved as a stack of one, the reference every stacked
    solve equals bit for bit.
    """
    levels = range(g.n + 1) if levels is None else levels
    return [spectral.eigendecompose_stack(build_stack([(g, level)]))[0]
            for level in levels]


def spectra(bases):
    """The eigenvalue array of each basis, in order: what the domination gap reads."""
    return [basis.eigenvalues for basis in bases]


@pytest.fixture
def solves(monkeypatch):
    """Count solves per (graph, level): one per member of each eigendecompose_stack call.

    Every solve ends there: solve_stacks passes its stacks whole, and a
    level solved alone is a stack of one.
    """
    counts = Counter()
    inner = spectral.eigendecompose_stack

    def counting(gens):
        counts.update((gen.graph, gen.space.level) for gen in gens)
        return inner(gens)

    monkeypatch.setattr(spectral, "eigendecompose_stack", counting)
    return counts
