"""Fixtures shared by several test modules."""

from collections import Counter

import pytest

from xproc import spectral


@pytest.fixture
def solves(monkeypatch):
    """Count eigendecompose calls per (graph, level)."""
    counts = Counter()
    inner = spectral.eigendecompose

    def counting(gen):
        counts[(gen.graph, gen.space.level)] += 1
        return inner(gen)

    monkeypatch.setattr(spectral, "eigendecompose", counting)
    return counts
