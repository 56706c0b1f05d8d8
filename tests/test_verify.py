"""The verify suite's solve plan: one batch of small stacks per run, each basis
solved once and held until its last read."""

import math
import weakref
from collections import Counter

import numpy as np
import pytest

from xproc import spectral, verify
from xproc.fourier import BooleanFunction, level_piece
from xproc.generator import build_level_generator
from xproc.graph import (
    is_complete, make_complete, make_cycle, make_half_complete_cycle, with_rate,
)

from conftest import solve_alone


def levels_of(g):
    return [(g, level) for level in range(g.n + 1)]


def complete_solves(counts):
    return {key: c for key, c in counts.items() if is_complete(key[0])}


def test_each_complete_basis_is_solved_once_per_run(solves):
    verify.run_suite(nmax=8, seed=7, mc_samples=400)
    complete = complete_solves(solves)
    # K_n at rates 1, 1/n and others, several levels each: the table is in use.
    assert len(complete) > 50
    assert max(complete.values()) == 1
    # Every other graph is solved once too.
    assert set(solves.values()) == {1}


@pytest.mark.parametrize("nmax", [9, 10])
def test_each_basis_is_solved_once_per_run(monkeypatch, solves, nmax):
    calls = []
    counting = spectral.eigendecompose_stack   # the solves fixture's counter

    def stacks(gens):
        calls.append(len(gens))
        return counting(gens)

    monkeypatch.setattr(spectral, "eigendecompose_stack", stacks)
    verify.run_suite(nmax=nmax, seed=5, mc_samples=400)
    assert set(solves.values()) == {1}
    assert sum(calls) == len(solves)
    if nmax == 10:
        assert len(calls) <= 70


def test_each_run_starts_with_an_empty_table(solves):
    verify.run_suite(nmax=8, seed=7, mc_samples=400)
    first = complete_solves(solves)
    assert len(first) > 50
    solves.clear()
    verify.run_suite(nmax=8, seed=7, mc_samples=400)
    assert complete_solves(solves) == first


def test_held_bases_are_shared_and_read_only():
    k5 = make_complete(5, 0.2)
    table = verify.BasisTable()
    # with_rate builds a second graph equal to k5: one key of the table.
    reads = table.plan([([(k5, 2)], "vectors"), ([(with_rate(k5, 0.2), 2)], "vectors"),
                        ([(k5, 2)], "spectrum")])
    [levels] = table.levels([(k5, "vectors")])
    [basis], [again], [lam] = reads
    assert again is basis and levels[2] is basis and lam is basis.eigenvalues
    with pytest.raises(ValueError):
        basis.vectors[0, 0] = 2.0
    with pytest.raises(ValueError):
        basis.eigenvalues[1] = 0.0


def test_a_plan_is_read_once_in_order():
    cycle = make_cycle(5, 1.0)
    table = verify.BasisTable()
    reads = table.plan([([(cycle, 2)], "vectors"), ([(cycle, 3), (cycle, 2)], "vectors")])
    assert table._held == {}   # nothing is solved before its first read
    [first] = next(reads)
    [other, second] = next(reads)
    assert second is first and other.space.level == 3
    assert next(reads, None) is None and not table._reads and not table._held
    table.finish()


def test_a_held_basis_is_gone_after_its_last_reader():
    cycle = make_cycle(6, 1.0)
    table = verify.BasisTable()
    reads = table.plan([([(cycle, 2)], "vectors"), ([(cycle, 2)], "vectors"),
                        ([(cycle, 3)], "vectors")])
    [basis] = next(reads)
    # the batch: both share a stack
    assert set(table._held) == {((cycle, 2), "vectors"), ((cycle, 3), "vectors")}
    ref = weakref.ref(basis)
    del basis
    assert ref() is not None   # one read of it left
    [basis], [other] = reads
    del basis, other
    assert ref() is None


def read_object(need, value):
    """The object a read of need returns that no other need shares: a basis, the
    eigenvalue array of a spectrum, a function piece's coefficient array."""
    return value[2] if isinstance(need, BooleanFunction) else value


def test_each_basis_is_gone_after_its_last_reader_in_a_run(monkeypatch):
    # Every value a check read is gone once that check has returned, unless a
    # later check reads it too. A spectrum is the eigenvalue array that every
    # need of its pair shares, so it lives until the pair's last read.
    reads, tables = [], []
    inner = verify.BasisTable._read

    def recording(table, pairs, need):
        tables.append(table)
        values = inner(table, pairs, need)
        reads.extend((pair, need, weakref.ref(read_object(need, value)))
                     for pair, value in zip(pairs, values))
        return values

    def left(pair, need):
        planned = tables[-1]._reads.get(pair, [])
        return bool(planned) if need == "spectrum" else need in planned

    monkeypatch.setattr(verify.BasisTable, "_read", recording)
    checked = []
    for name in ("check_eigensolver", "check_complete_graphs", "check_eigenvalue_bound",
                 "check_parseval",
                 "check_oracle_equivalence", "check_containment", "check_projection_mass",
                 "check_monotonicity", "check_monte_carlo"):
        def after(*args, check=getattr(verify, name), **kwargs):
            record = check(*args, **kwargs)
            alive = [(pair, need) for pair, need, ref in reads
                     if ref() is not None and not left(pair, need)]
            checked.append(len(reads))
            assert alive == []
            return record
        monkeypatch.setattr(verify, name, after)
    verify.run_suite(nmax=8, seed=7, mc_samples=400)
    assert len(checked) == 9 and checked[-1] > 500
    assert {need for _, need, _ in reads} > {"vectors", "spectrum"}
    assert not tables[-1]._reads and not tables[-1]._held


def test_held_basis_equals_a_fresh_solve():
    g = make_complete(6, 1.0)
    table = verify.BasisTable()
    first, held_levels = table.levels([(g, "vectors"), (with_rate(g, 1.0), "vectors")])
    for level, (held, fresh) in enumerate(zip(held_levels, solve_alone(g), strict=True)):
        assert held is first[level]
        assert np.array_equal(held.vectors, fresh.vectors)
        assert np.array_equal(held.eigenvalues, fresh.eigenvalues)
        assert held.groups == fresh.groups


def test_spectra_and_pieces_from_the_batch_equal_a_fresh_solve_bit_for_bit():
    g = make_cycle(6, 0.5)
    f = BooleanFunction(6, np.random.default_rng(4).integers(0, 2, 1 << 6))
    table = verify.BasisTable()
    # Every level of cycle:6 shares a stack: the first read solves the batch.
    spectra, pieces = table.levels([(g, "spectrum"), (g, f)])
    for level, fresh in enumerate(solve_alone(g)):
        assert spectra[level].tobytes() == fresh.eigenvalues.tobytes()
        piece, want = pieces[level], level_piece(f, fresh)
        assert piece[0] == want[0] == level and piece[1] is spectra[level]
        assert piece[2].tobytes() == want[2].tobytes()


def test_the_first_read_holds_the_small_levels_and_leaves_the_large_to_their_reads(solves):
    cycle, complete = make_cycle(10, 1.0), make_complete(10, 0.1)
    table = verify.BasisTable()
    pairs = [(complete, 2), (complete, 5)]
    first = table.plan([(pairs, "vectors")])
    reads = table.levels([(cycle, "spectrum")])
    [[b2, b5]] = first
    assert b2.space.level == 2 and b5.space.level == 5
    # The cycle's 1-, 10-, 45- and 120-state levels share stacks; its 210-
    # and 252-state levels (4, 5 and 6) are left to their own read.
    small = [level for level in range(11) if math.comb(10, level) <= 128]
    assert small == [0, 1, 2, 3, 7, 8, 9, 10]
    assert all(verify.shares_a_stack(cycle, level) == (level in small) for level in range(11))
    assert sorted(table._held) == [((cycle, level), "spectrum") for level in small]
    assert set(solves) == {*pairs, *(pair for pair, _ in table._held)}
    list(reads)
    assert set(solves.values()) == {1} and not table._held


def test_a_later_group_read_first_solves_the_batch(monkeypatch, solves):
    calls = []
    inner = spectral.solve_stacks

    def recording(pairs, read):
        calls.append(list(pairs))
        return inner(pairs, read)

    monkeypatch.setattr(spectral, "solve_stacks", recording)
    cycle, complete = make_cycle(6, 1.0), make_complete(5, 0.5)
    table = verify.BasisTable()
    earlier = table.levels([(cycle, "vectors")])
    later = table.plan([([(complete, 2)], "spectrum"),
                        ([(complete, level) for level in range(6)], "vectors")])
    [_, later_levels] = later   # the second group holds every level of K_5
    # The first read solved every planned level in one solve_stacks call (all
    # share a stack); the second read solves nothing.
    assert [len(pairs) for pairs in calls] == [13]
    assert set(calls[0]) == {*levels_of(cycle), *levels_of(complete)}
    [cycle_levels] = earlier
    assert [len(pairs) for pairs in calls] == [13] and set(solves.values()) == {1}
    assert [b.space.level for b in cycle_levels] == list(range(7))
    assert [b.space.level for b in later_levels] == list(range(6))
    assert not table._reads and not table._held


def test_the_batch_holds_vectors_only_for_vectors_reads(monkeypatch):
    # Right after the first read of a --nmax 10 --seed 3 run: a pair keeps its
    # basis only for a "vectors" read left; a spectrum or a function piece is
    # 1-D, so a pair read only through them holds no size x size array.
    after_first = []
    inner = verify.BasisTable._read

    def recording(table, pairs, need):
        values = inner(table, pairs, need)
        if not after_first:
            after_first.append((dict(table._held),
                                {(pair, planned) for pair, needs in table._reads.items()
                                 for planned in needs}))
        return values

    monkeypatch.setattr(verify.BasisTable, "_read", recording)
    verify.run_suite(nmax=10, seed=3, mc_samples=400)
    [(held, left)] = after_first
    vector_bytes = 0
    for (pair, need), value in held.items():
        assert (pair, need) in left
        if need == "vectors":
            vector_bytes += value.vectors.nbytes
        else:
            arrays = [value] if need == "spectrum" else list(value[1:])
            assert all(a.ndim == 1 and a.size == math.comb(pair[0].n, pair[1]) for a in arrays)
    batch = {pair for pair, need in left if need == "vectors" and verify.shares_a_stack(*pair)}
    assert {pair for pair, need in held if need == "vectors"} == batch
    assert len(batch) == 225
    # 2.24 MiB; the batch held 4.33 MiB of vectors when it kept every basis.
    assert vector_bytes == sum(8 * math.comb(g.n, level) ** 2 for g, level in batch)
    assert vector_bytes < 2.3 * 2**20


def test_a_check_that_skips_its_reads_makes_the_run_raise(monkeypatch):
    def skipping(cases, seed, samples, pieces):
        next(pieces)   # reads its first case and no other
        return verify._record("monte_carlo_agreement", [])

    monkeypatch.setattr(verify, "check_monte_carlo", skipping)
    with pytest.raises(RuntimeError, match=r"planned reads of \d+ \(graph, level\) pairs were not made"):
        verify.run_suite(nmax=6, seed=3, mc_samples=400)


def test_the_lift_and_containment_checks_drop_each_basis_before_the_next_solve(monkeypatch):
    # When a read inside check_complete_graphs or check_containment solves, the
    # check holds no basis the table has let go of, other than the one it is
    # still reading: none in check_complete_graphs, K_n's current level in
    # check_containment.
    running, read, tables, seen = [], [], [], []
    inner_read, inner_solve = verify.BasisTable._read, spectral.eigendecompose_stack

    def recording(table, *args):
        tables.append(table)
        values = inner_read(table, *args)
        read.extend(weakref.ref(v) for v in values if isinstance(v, spectral.SpectralBasis))
        return values

    def held(obj):
        return any(value is obj for store in vars(tables[-1]).values()
                   if isinstance(store, dict) for value in store.values())

    def watching(gens):
        if running:
            alive = [ref() for ref in read]
            seen.append((running[0], sum(b is not None and not held(b) for b in alive)))
            del alive
        return inner_solve(gens)

    for name in ("check_complete_graphs", "check_containment"):
        def check(*args, name=name, inner=getattr(verify, name)):
            running.append(name)
            read.clear()
            try:
                return inner(*args)
            finally:
                running.clear()
        monkeypatch.setattr(verify, name, check)
    monkeypatch.setattr(verify.BasisTable, "_read", recording)
    monkeypatch.setattr(spectral, "eigendecompose_stack", watching)
    verify.run_suite(nmax=10, seed=3, mc_samples=400)
    # K_10's 210- and 252-state levels at rates 1 and 1/10; then levels 4 and
    # 5 of the three other graphs (K_10's at rate 1/10 are held), K_10's level
    # 6 and the other graphs' level 6.
    containment = [("check_containment", 1)] * 3
    assert seen == ([("check_complete_graphs", 0)] * 4 + containment * 2
                    + [("check_containment", 0)] + containment)


def solve_each_alone(pairs, read):
    """spectral.solve_stacks with every pair solved as a stack of one, in order."""
    return [read(build_level_generator(g, level), solve_alone(g, [level])[0])
            for g, level in pairs]


@pytest.mark.parametrize("nmax", [6, 8])
def test_a_run_equals_one_that_solves_every_level_alone(monkeypatch, nmax):
    planned = verify.run_suite(nmax=nmax, seed=11, mc_samples=400)
    monkeypatch.setattr(spectral, "solve_stacks", solve_each_alone)
    assert verify.run_suite(nmax=nmax, seed=11, mc_samples=400) == planned


def test_a_run_solves_its_small_levels_in_one_batch(monkeypatch):
    calls = []
    inner = spectral.solve_stacks

    def recording(pairs, read):
        calls.append([math.comb(g.n, level) for g, level in pairs])
        return inner(pairs, read)

    monkeypatch.setattr(spectral, "solve_stacks", recording)
    verify.run_suite(nmax=10, seed=7, mc_samples=400)
    # The batch is the one call with levels of 128 states or fewer; every
    # later call solves levels of K_10 and the containment graphs too large
    # to share a stack.
    small = [any(size <= 128 for size in sizes) for sizes in calls]
    assert small == [True] + [False] * (len(calls) - 1)
    assert {size for sizes in calls[1:] for size in sizes} == {210, 252}


def test_two_runs_in_one_process_give_equal_reports():
    assert (verify.run_suite(nmax=8, seed=7, mc_samples=4000)
            == verify.run_suite(nmax=8, seed=7, mc_samples=4000))


def test_monotonicity_chain_solves_each_graph_once(solves):
    verify.draw_monotonicity(np.random.default_rng(7), verify.BasisTable())()
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
    verify.run_suite(nmax=nmax, seed=3, mc_samples=4000)
    # K_n at rates 1 and 1/n, levels 0..n/2: up from every level, down from level >= 1.
    cases = [(n, level) for n in range(2, nmax + 1) for _ in (1.0, 1.0 / n)
             for level in range(n // 2 + 1)]
    assert calls == {"lift_up": len(cases),
                     "lift_down": sum(level >= 1 for _, level in cases)}


def test_each_check_runs_once_in_report_order(monkeypatch):
    # A check run_suite reaches other than by its module-level name (a
    # closure, say) would be missed here, and by every tracer that wraps it.
    calls = []
    names = [name for name in vars(verify) if name.startswith("check_")]
    for name in names:
        def recording(*args, name=name, check=getattr(verify, name)):
            calls.append(name)
            return check(*args)
        monkeypatch.setattr(verify, name, recording)
    report = verify.run_suite(nmax=6, seed=3, mc_samples=400)
    assert calls == [
        "check_generator_invariants", "check_eigensolver", "check_complete_graphs",
        "check_eigenvalue_bound", "check_parseval", "check_oracle_equivalence",
        "check_containment", "check_projection_mass", "check_monotonicity",
        "check_monte_carlo"]
    assert sorted(calls) == sorted(names)
    assert [c["name"] for c in report["checks"]] == [
        "generator_invariants", "eigensolver_residuals", "complete_graph_multiplicities",
        "lift_length_formulas", "lift_orthogonality", "eigenvalue_upper_bound", "parseval",
        "oracle_equivalence", "containment_residual", "projection_mass_inequality",
        "monotonicity_inequality", "monte_carlo_agreement"]
