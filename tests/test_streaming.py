"""Level bases are solved, read and freed one stack at a time."""

import json
import math
import weakref

import numpy as np
import pytest

from xproc import diagnostics, spectral
from xproc.cli import main, solve_profile
from xproc.fourier import BooleanFunction, dictator, level_piece, spectral_profile
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
        return solve_profile(make_cycle(n, 1.0), dictator(n, 0))

    report = diagnostics.sensitivity_profile(make_profile, [4, 5, 6], [0.5, 2.0])
    assert len(report["records"]) == 3
    assert live_bases["solves"] == 5 + 6 + 7
    assert live_bases["stale"] == []


def test_domination_gap_frees_each_level(live_bases):
    # The gap reads only eigenvalues: a read that keeps only those keeps no basis.
    cycle, complete = make_cycle(6, 1.0), make_complete(6, 1.0)
    spectra = spectral.solve_stacks(
        [(g, level) for g in (cycle, complete) for level in range(7)],
        lambda _, basis: basis.eigenvalues)
    gaps = diagnostics.spectra_domination_gap(cycle, complete, spectra[:7], spectra[7:])
    assert max(gaps) <= diagnostics.DOMINATION_TOL
    assert live_bases["solves"] == 2 * 7
    assert live_bases["stale"] == []


def test_domination_only_compare_frees_each_level(live_bases, capsys):
    # No --k and no --function: only the domination check runs, and it reads
    # eigenvalues alone, so no basis outlives its stack.
    assert main(["compare", "--graph", "complete:6", "--rate", "1",
                 "--graph-b", "cycle:6", "--rate-b", "1"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == ["spectra_dominated_by_supergraph"]
    assert live_bases["solves"] == 2 * 7
    assert live_bases["stale"] == []


def test_a_basis_outlives_its_stack_only_when_read_returns_it(live_bases):
    pairs = [(make_cycle(5, 0.5), level) for level in range(6)]
    spectral.solve_stacks(pairs, lambda _, basis: basis.eigenvalues)
    assert live_bases["stale"] == []
    kept = spectral.solve_stacks(pairs, lambda _, basis: basis)
    # Stacks of 10, 5 and 1 states, two levels each: every basis of an earlier
    # stack is alive when the next starts, and no generator is.
    assert sorted(live_bases["stale"]) == sorted(
        (pairs[0][0], old, new) for olds, news in (((2, 3), (1, 4, 0, 5)), ((1, 4), (0, 5)))
        for old in olds for new in news)
    assert [basis.space.level for basis in kept] == list(range(6))


def test_profile_takes_the_levels_in_level_order():
    g = make_cycle(6, 0.5)
    f = BooleanFunction(6, np.random.default_rng(4).integers(0, 2, 1 << 6))
    pieces = [level_piece(f, basis) for basis in solve_alone(g)]
    profile = spectral_profile(f, pieces)
    assert profile.levels.tolist() == [level for level in range(7)
                                       for _ in range(math.comb(6, level))]
    assert solve_profile(g, f).coefficients.tobytes() == profile.coefficients.tobytes()
    # Reversed, the pieces have the same sizes, and they are still refused.
    with pytest.raises(ValueError, match=r"need the pieces of levels 0\.\.6 in level order"):
        spectral_profile(f, pieces[::-1])
    with pytest.raises(ValueError, match=r"basis is for n=5, function for n=6"):
        level_piece(f, solve_alone(make_cycle(5, 0.5), [2])[0])


BAD_STREAMS = {  # levels of cycle:4 pieces (5 is cycle:5's top level)
    "too few": [0, 1, 2, 3],
    "too many": [0, 1, 2, 3, 4, 5],
    "missing": [0, 1, 3, 4],
    "repeated": [0, 1, 1, 2, 3, 4],
    "another n": [0, 1, 2, 3, 5],
}


@pytest.mark.parametrize("case", BAD_STREAMS)
def test_profile_rejects_bad_level_streams(case):
    bases = solve_alone(make_cycle(4, 1.0)) + solve_alone(make_cycle(5, 1.0), [5])
    pieces = [level_piece(dictator(basis.space.n, 0), basis) for basis in bases]
    with pytest.raises(ValueError, match=r"need the pieces of levels 0\.\.4 in level order"):
        spectral_profile(dictator(4, 0), [pieces[level] for level in BAD_STREAMS[case]])
