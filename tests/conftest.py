"""Fixtures shared by several test modules."""

from collections import Counter

import pytest

from xproc import spectral


@pytest.fixture
def solves(monkeypatch):
    """Count solves per (graph, level): one per member of each eigendecompose_stack call.

    Every solve ends there: eigendecompose passes a stack of one, and
    solve_stacks passes its stacks whole.
    """
    counts = Counter()
    inner = spectral.eigendecompose_stack

    def counting(gens):
        counts.update((gen.graph, gen.space.level) for gen in gens)
        return inner(gens)

    monkeypatch.setattr(spectral, "eigendecompose_stack", counting)
    return counts
