"""The verify suite's run-scoped basis table, and one solve per graph in its checks."""

from collections import Counter

import numpy as np
import pytest

from xproc import spectral, verify
from xproc.graph import is_complete, make_complete, make_cycle, make_half_complete_cycle

from conftest import solve_alone


def complete_solves(counts):
    return {key: c for key, c in counts.items() if is_complete(key[0])}


def test_each_complete_basis_is_solved_once_per_run(solves):
    verify.run_suite(nmax=8, seed=7, mc_samples=400)
    complete = complete_solves(solves)
    # K_n at rates 1, 1/n and others, several levels each: the table is in use.
    assert len(complete) > 50
    assert max(complete.values()) == 1
    # Other graphs are still solved by every check that needs them.
    assert any(c > 1 for key, c in solves.items() if not is_complete(key[0]))


def test_each_run_starts_with_an_empty_table(solves):
    verify.run_suite(nmax=8, seed=7, mc_samples=400)
    first = complete_solves(solves)
    assert len(first) > 50
    solves.clear()
    verify.run_suite(nmax=8, seed=7, mc_samples=400)
    assert complete_solves(solves) == first


def test_held_bases_are_shared_and_read_only():
    table = verify.BasisTable()
    [basis] = table.bases([(make_complete(5, 0.2), 2)])
    [again] = table.bases([(make_complete(5, 1.0 / 5), 2)])
    [levels] = table.levels([make_complete(5, 0.2)])
    assert again is basis and levels[2] is basis
    with pytest.raises(ValueError):
        basis.vectors[0, 0] = 2.0
    with pytest.raises(ValueError):
        basis.eigenvalues[1] = 0.0


def test_other_graphs_are_not_held():
    table = verify.BasisTable()
    cycle = make_cycle(5, 1.0)
    [first] = table.bases([(cycle, 2)])
    [second] = table.bases([(cycle, 2)])
    assert first is not second
    assert np.array_equal(first.vectors, second.vectors)
    assert first.vectors.flags.writeable


def test_held_basis_equals_a_fresh_solve():
    g = make_complete(6, 1.0)
    table = verify.BasisTable()
    [held_levels] = table.levels([g])
    for held, fresh in zip(held_levels, solve_alone(g), strict=True):
        assert np.array_equal(held.vectors, fresh.vectors)
        assert np.array_equal(held.eigenvalues, fresh.eigenvalues)
        assert held.groups == fresh.groups


def test_two_runs_in_one_process_give_equal_reports():
    assert verify.run_suite(nmax=8, seed=7) == verify.run_suite(nmax=8, seed=7)


def test_monotonicity_chain_solves_each_graph_once(solves):
    verify.check_monotonicity(np.random.default_rng(7), verify.BasisTable())
    chain = [g for half in (2, 3) for g in (make_cycle(2 * half, 0.5),
                                            make_half_complete_cycle(half, 0.5),
                                            make_complete(2 * half, 0.5))]
    assert {key: c for key, c in solves.items() if key[0] in chain} == {
        (g, level): 1 for g in chain for level in range(g.n + 1)}


def test_each_complete_basis_is_lifted_once_per_direction(monkeypatch):
    calls = Counter()
    for name in ("lift_down", "lift_up"):
        def counting(space, psi, inner=getattr(spectral, name), name=name):
            calls[name] += 1
            return inner(space, psi)
        monkeypatch.setattr(spectral, name, counting)
    nmax = 6
    verify.run_suite(nmax=nmax, seed=3)
    # K_n at rates 1 and 1/n, levels 0..n/2: up from every level, down from level >= 1.
    cases = [(n, level) for n in range(2, nmax + 1) for _ in (1.0, 1.0 / n)
             for level in range(n // 2 + 1)]
    assert calls == {"lift_up": len(cases),
                     "lift_down": sum(level >= 1 for _, level in cases)}
