"""Level bases are solved, read and freed one stack at a time."""

import weakref

import numpy as np
import pytest

from xproc import diagnostics, spectral
from xproc.cli import main
from xproc.fourier import dictator, from_table, spectral_profile
from xproc.graph import make_complete, make_cycle

from conftest import solve_alone


@pytest.fixture
def live_bases(monkeypatch):
    """Watch every generator and basis of each eigendecompose_stack call, by weak reference.

    When a stack starts, every generator and basis of an earlier stack of
    the same graph must already be freed; each one still alive is recorded
    in "stale" as (graph, its level, a level of the stack being solved).
    """
    seen = {"solves": 0, "stale": []}
    made = []  # (graph, level, weak reference to a generator or a basis)
    inner = spectral.eigendecompose_stack

    def watching(gens):
        seen["stale"] += [(g, old, gen.space.level) for gen in gens for g, old, ref in made
                          if g == gen.graph and ref() is not None]
        bases = inner(gens)
        seen["solves"] += len(gens)
        made.extend((gen.graph, gen.space.level, weakref.ref(member))
                    for gen, basis in zip(gens, bases) for member in (gen, basis))
        return bases

    monkeypatch.setattr(spectral, "eigendecompose_stack", watching)
    return seen


COMMANDS = {
    "exact": ["exact", "--graph", "cycle:6", "--rate", "1", "--function", "majority",
              "--t", "0.5", "--eps", "0.1"],
    "profile json": ["profile", "--graph", "cycle:6", "--rate", "1", "--function",
                     "dictator:0"],
    "profile csv": ["profile", "--graph", "complete:5", "--rate", "1", "--function",
                    "parity_on_set:0,2", "--format", "csv"],
    "spectrum csv": ["spectrum", "--graph", "cycle:6", "--rate", "1"],
    "spectrum json": ["spectrum", "--graph", "complete:5", "--rate", "1",
                      "--format", "json"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_free_each_level_before_the_next(live_bases, capsys, command):
    argv = COMMANDS[command]
    assert main(argv) == 0
    capsys.readouterr()
    n = int(argv[2].split(":")[1])
    assert live_bases["solves"] == n + 1
    assert live_bases["stale"] == []


def test_sensitivity_profile_frees_each_level(live_bases):
    def make_profile(n):
        return spectral_profile(dictator(n, 0), spectral.solve_graph(make_cycle(n, 1.0)))

    report = diagnostics.sensitivity_profile(make_profile, [4, 5, 6], [0.5, 2.0])
    assert len(report["records"]) == 3
    assert live_bases["solves"] == 5 + 6 + 7
    assert live_bases["stale"] == []


def test_domination_gap_frees_each_level(live_bases):
    # Two graphs on one n: solve_graph gives their levels in the same order.
    cycle, complete = make_cycle(6, 1.0), make_complete(6, 1.0)
    gaps = diagnostics.spectra_domination_gap(cycle, complete, spectral.solve_graph(cycle),
                                              spectral.solve_graph(complete))
    assert max(gaps) <= diagnostics.DOMINATION_TOL
    assert live_bases["solves"] == 2 * 7
    assert live_bases["stale"] == []


def test_solve_graph_solves_each_stack_when_asked(solves):
    g = make_cycle(5, 0.5)
    stream = spectral.solve_graph(g)
    assert not solves
    # Largest first: levels 2 and 3 (10 states) share a stack, then 1 and 4, then 0 and 5.
    for level, solved in [(2, 2), (3, 2), (1, 4), (4, 4), (0, 6), (5, 6)]:
        assert next(stream).space.level == level
        assert sum(solves.values()) == solved
    assert next(stream, None) is None


def test_profile_takes_the_levels_in_any_order():
    g = make_cycle(6, 0.5)
    f = from_table(6, np.random.default_rng(4).integers(0, 2, 1 << 6))
    bases = solve_alone(g)
    ordered = spectral_profile(f, bases)
    orders = [np.random.default_rng(seed).permutation(7) for seed in range(3)]
    for profile in [spectral_profile(f, spectral.solve_graph(g)),
                    *(spectral_profile(f, [bases[level] for level in order])
                      for order in orders)]:
        for name in ("levels", "eigenvalues", "coefficients"):
            assert np.array_equal(getattr(profile, name), getattr(ordered, name))
        assert profile.total_mass == ordered.total_mass
        assert profile.conditional_mean_variance == ordered.conditional_mean_variance


BAD_STREAMS = {  # levels of cycle:4 bases (5 is cycle:5's top level), and the error
    "too few": ([0, 1, 2, 3], r"need bases for all levels 0\.\.4, got 4"),
    "too many": ([0, 1, 2, 3, 4, 5], r"basis at position 5 is for \(n=5, level=5\)"),
    "missing": ([4, 2, 0, 3], r"need bases for all levels 0\.\.4, got 4"),
    "repeated": ([3, 1, 3, 0, 2, 4], r"basis at position 2 repeats level 3"),
    "another n": ([2, 5, 0, 1, 3, 4], r"basis at position 1 is for \(n=5, level=5\), not n=4"),
}


@pytest.mark.parametrize("case", BAD_STREAMS)
def test_profile_rejects_bad_level_streams(case):
    bases = solve_alone(make_cycle(4, 1.0)) + solve_alone(make_cycle(5, 1.0), [5])
    levels, message = BAD_STREAMS[case]
    with pytest.raises(ValueError, match=message):
        spectral_profile(dictator(4, 0), (bases[level] for level in levels))
