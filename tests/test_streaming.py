"""Level bases are solved, read and freed one level at a time."""

import weakref

import pytest

from xproc import diagnostics, spectral
from xproc.cli import main
from xproc.fourier import dictator, spectral_profile
from xproc.graph import make_complete, make_cycle


@pytest.fixture
def live_bases(monkeypatch):
    """Watch every basis eigendecompose returns, through a weak reference.

    When eigendecompose starts on a level, every basis it returned earlier
    for the same graph must already be freed; each one still alive is
    recorded in "stale" as (graph, its level, the level being solved).
    """
    seen = {"solves": 0, "stale": []}
    made = []  # (graph, level, weak reference to the basis)
    inner = spectral.eigendecompose

    def watching(gen):
        level = gen.space.level
        seen["stale"] += [(g, old, level) for g, old, ref in made
                          if g == gen.graph and ref() is not None]
        basis = inner(gen)
        seen["solves"] += 1
        made.append((gen.graph, level, weakref.ref(basis)))
        return basis

    monkeypatch.setattr(spectral, "eigendecompose", watching)
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
        return spectral_profile(dictator(n, 0), spectral.level_bases(make_cycle(n, 1.0)))

    report = diagnostics.sensitivity_profile(make_profile, [4, 5, 6], [0.5, 2.0])
    assert len(report["records"]) == 3
    assert live_bases["solves"] == 5 + 6 + 7
    assert live_bases["stale"] == []


def test_domination_gap_frees_each_level(live_bases):
    cycle, complete = make_cycle(6, 1.0), make_complete(6, 1.0)
    gaps = diagnostics.spectra_domination_gap(cycle, complete, spectral.level_bases(cycle),
                                              spectral.level_bases(complete))
    assert max(gaps) <= diagnostics.DOMINATION_TOL
    assert live_bases["solves"] == 2 * 7
    assert live_bases["stale"] == []


def test_level_bases_solves_each_level_when_asked(solves):
    g = make_cycle(5, 0.5)
    stream = spectral.level_bases(g)
    assert not solves
    for level in range(g.n + 1):
        assert next(stream).space.level == level
        assert sum(solves.values()) == level + 1
    assert next(stream, None) is None


BAD_STREAMS = {  # levels of cycle:4 bases (5 is cycle:5's top level), and the error
    "too few": ([0, 1, 2, 3], r"need bases for all levels 0\.\.4, got 4"),
    "too many": ([0, 1, 2, 3, 4, 5], r"basis at position 5 is for \(n=5, level=5\)"),
    "out of order": ([0, 2, 1, 3, 4], r"basis at position 1 is for \(n=4, level=2\)"),
}


@pytest.mark.parametrize("case", BAD_STREAMS)
def test_profile_rejects_bad_level_streams(case):
    bases = list(spectral.level_bases(make_cycle(4, 1.0))) + [
        list(spectral.level_bases(make_cycle(5, 1.0)))[5]]
    levels, message = BAD_STREAMS[case]
    with pytest.raises(ValueError, match=message):
        spectral_profile(dictator(4, 0), (bases[level] for level in levels))
