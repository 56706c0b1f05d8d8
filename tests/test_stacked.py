"""Stacked level solves: levels of one size are built and solved together, bit for bit
as one at a time."""

import math

import numpy as np
import pytest

from xproc import graph as graph_module, spectral, verify
from xproc.generator import GeneratorStack, NumericalError, build_level_generator, build_stack
from xproc.graph import Graph, make_complete, make_cycle, make_half_complete_cycle
from xproc.spectral import eigendecompose_stack
from xproc.verify import random_connected_graph

from conftest import solve_alone


def rated_graphs(seed: int, n: int, count: int) -> list[Graph]:
    """Random connected graphs on n vertices, each edge at its own rate."""
    rng = np.random.default_rng(seed)
    return [Graph(n, tuple((u, v, float(rng.uniform(0.1, 2.0)))
                           for u, v, _ in random_connected_graph(rng, n, 1.0).edges))
            for _ in range(count)]


def assert_same_basis(basis, alone):
    assert basis.space is alone.space
    assert np.array_equal(basis.eigenvalues, alone.eigenvalues)
    assert np.array_equal(basis.vectors, alone.vectors)


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_build_and_solve_equal_one_at_a_time(n):
    graphs = rated_graphs(n, n, 4)
    for level in range(n + 1):
        gens = build_stack([(g, level) for g in graphs])
        for gen, g in zip(gens, graphs):
            assert np.array_equal(gen.matrix, build_level_generator(g, level).matrix)
        for basis, g in zip(eigendecompose_stack(gens), graphs):
            assert_same_basis(basis, solve_alone(g, [level])[0])


def test_one_state_levels_stack():
    graphs = rated_graphs(1, 5, 3)
    for level in (0, 5):
        gens = build_stack([(g, level) for g in graphs])
        assert all(np.array_equal(gen.matrix, [[0.0]]) for gen in gens)
        for basis in eigendecompose_stack(gens):
            assert np.array_equal(basis.eigenvalues, [0.0])
            assert np.array_equal(basis.vectors, [[1.0]])


def test_a_stack_may_mix_levels_l_and_n_minus_l():
    graphs = rated_graphs(3, 7, 3)
    gens = build_stack([(g, level) for level in (2, 5) for g in graphs])
    for gen, basis in zip(gens, eigendecompose_stack(gens)):
        assert_same_basis(basis, solve_alone(gen.graph, [gen.space.level])[0])


def test_members_of_a_stack_hold_their_own_arrays():
    gens = build_stack([(make_cycle(6, 1.0), 2), (make_complete(6, 1.0), 2)])
    for basis in eigendecompose_stack(gens):
        assert basis.vectors.flags.owndata and basis.eigenvalues.flags.owndata


def test_a_solve_alone_passes_the_matrix_without_a_copy(monkeypatch):
    gens = build_stack([(make_cycle(6, 1.0), 3)])
    seen = []
    real = np.linalg.eigh

    def eigh(a):
        seen.append(a is gens.matrices)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    eigendecompose_stack(gens)
    assert seen == [True]


@pytest.mark.parametrize("stack_bytes", [0, 1 << 12, 1 << 30])
def test_basis_table_levels_equal_per_level_solves(monkeypatch, stack_bytes):
    monkeypatch.setattr(spectral, "STACK_BYTES", stack_bytes)
    # Sizes shared across n: C(4, 2) = C(6, 1) = 6 and C(5, 2) = C(10, 1) = 10.
    graphs = [make_cycle(4, 0.5), make_complete(6, 1.0), *rated_graphs(7, 5, 2),
              make_half_complete_cycle(3, 0.25), make_cycle(10, 1.0), make_cycle(4, 0.5)]
    # Planned, as verify plans a run: the first read solves the levels that
    # share a stack under the limit, and each later read solves the rest.
    table = verify.BasisTable()
    reads = table.levels(graphs)
    for g, bases in zip(graphs, reads, strict=True):
        assert len(bases) == g.n + 1
        for basis, alone in zip(bases, solve_alone(g)):
            assert_same_basis(basis, alone)


def test_stacks_keep_to_the_byte_limit(monkeypatch):
    monkeypatch.setattr(spectral, "STACK_BYTES", 8 * 10 * 10 * 3)
    stacks = []
    real = spectral.eigendecompose_stack

    def recording(gens):
        stacks.append((len(gens), gens[0].space.size))
        return real(gens)

    monkeypatch.setattr(spectral, "eigendecompose_stack", recording)
    pairs = [(g, level) for g in rated_graphs(2, 5, 4) for level in range(6)]
    seen = spectral.solve_stacks(
        pairs, lambda gen, basis: (gen.graph, gen.space.level, basis.space is gen.space))
    assert seen == [(g, level, True) for g, level in pairs]
    # Sizes 10, 5 and 1, largest first, 8 members each (levels l and 5 - l
    # of 4 graphs). A stack holds 3 matrices of 10 states and 12 of 5.
    assert stacks == [(3, 10)] * 2 + [(2, 10), (8, 5), (8, 1)]


def test_solve_stacks_reads_stack_by_stack_and_returns_in_pair_order(monkeypatch):
    monkeypatch.setattr(spectral, "STACK_BYTES", 8 * 10 * 10 * 3)
    graphs = [*rated_graphs(13, 5, 2), make_cycle(6, 0.5), make_complete(4, 1.0)]
    pairs = [(g, level) for g in graphs for level in range(g.n + 1)]
    pairs = [pairs[i] for i in np.random.default_rng(2).permutation(len(pairs))]
    stacks, reads = [], []
    real = spectral.eigendecompose_stack

    def recording(gens):
        stacks.append([(gen.graph, gen.space.level) for gen in gens])
        return real(gens)

    def read(gen, basis):
        reads.append((len(stacks), (gen.graph, gen.space.level)))
        return basis

    monkeypatch.setattr(spectral, "eigendecompose_stack", recording)
    out = spectral.solve_stacks(pairs, read)
    # Each stack is read, member by member, after it is solved and before the
    # next one starts; stacks come largest first.
    assert reads == [(s + 1, pair) for s, stack in enumerate(stacks) for pair in stack]
    sizes = [math.comb(g.n, level) for stack in stacks for g, level in stack[:1]]
    assert sizes == sorted(sizes, reverse=True) and sizes[0] == 20
    assert len(stacks) > len(set(sizes))   # some size takes more than one stack
    assert len(out) == len(pairs)
    for (g, level), basis in zip(pairs, out, strict=True):
        assert_same_basis(basis, solve_alone(g, [level])[0])


def mixed_stack():
    """Levels 2 and 3 of two graphs on 5 vertices: four members of 10 states."""
    graphs = [make_cycle(5, 1.0), make_complete(5, 0.5)]
    return build_stack([(g, level) for level in (2, 3) for g in graphs])


def test_an_asymmetric_member_is_named():
    gens = mixed_stack()
    gens[3].matrix[0, 1] += 1e-6
    with pytest.raises(NumericalError, match=r"^eigendecompose on n=5, level=3 \(10 states\): "
                                            "matrix is not symmetric"):
        eigendecompose_stack(gens)


def three_sizes_of_ten():
    """A 3-member stack of 10-state levels on three (n, level) slices:
    C(5, 2) = C(10, 1) = C(5, 3) = 10."""
    return build_stack([(make_cycle(5, 1.0), 2), (rated_graphs(4, 10, 1)[0], 1),
                        (make_complete(5, 0.5), 3)])


def asymmetry_of(gen, delta):
    """Add delta to the upper entry (0, 1) of gen's matrix; return its max |A - A^T|
    and the tolerance 1e-12 * max(1, max |A|) it is checked against."""
    gen.matrix[0, 1] += delta
    m = gen.matrix
    return np.max(np.abs(m - m.T)), 1e-12 * max(1.0, np.max(np.abs(m)))


def test_an_asymmetry_just_over_the_tolerance_names_its_member():
    gens = three_sizes_of_ten()
    scale = max(1.0, np.max(np.abs(gens[1].matrix)))
    asym, tol = asymmetry_of(gens[1], 1.01e-12 * scale)
    assert tol < asym < 1.05 * tol
    with pytest.raises(NumericalError, match=r"^eigendecompose on n=10, level=1 \(10 states\): "
                                            "matrix is not symmetric"):
        eigendecompose_stack(gens)


def test_an_asymmetry_under_the_tolerance_passes():
    gens = three_sizes_of_ten()
    alone = [solve_alone(gen.graph, [gen.space.level])[0] for gen in gens]
    scale = max(1.0, np.max(np.abs(gens[1].matrix)))
    asym, tol = asymmetry_of(gens[1], 0.5e-12 * scale)
    assert 0.0 < asym < tol
    assert (gens[1].matrix != gens[1].matrix.T).any()
    # eigh reads the lower triangle only, so the bases do not move.
    for basis, ref in zip(eigendecompose_stack(gens), alone):
        assert_same_basis(basis, ref)


def test_a_member_with_a_nonzero_kernel_is_named():
    gens = mixed_stack()
    gens[2].matrix[...] += np.eye(10)
    with pytest.raises(NumericalError, match=r"^eigendecompose on n=5, level=3 \(10 states\): "
                                            "smallest eigenvalue 1 is not numerically zero"):
        eigendecompose_stack(gens)


def test_a_member_that_is_not_finite_is_named():
    # Graph refuses rates whose sum overflows, so no generator built from a
    # graph holds inf; the check stays as a guard, and against an infinite
    # scale the smallest-eigenvalue test would pass on eigh's NaN
    gens = mixed_stack()
    gens[1].matrix[0, 0] = -np.inf
    with pytest.raises(NumericalError, match=r"^eigendecompose on n=5, level=2 \(10 states\): "
                                            r"matrix is not finite: max \|A\| = inf$"):
        eigendecompose_stack(gens)
    gens[1].matrix[0, 0] = np.nan
    with pytest.raises(NumericalError, match=r"matrix is not finite: max \|A\| = nan$"):
        eigendecompose_stack(gens)


def test_a_member_whose_eigenvalues_are_not_finite_is_named():
    gens = mixed_stack()
    # K_5 at rate 0.5, level 3: every entry is at most 3 * 5e307, finite, but
    # the top eigenvalue 4 * 5e307 (multiplicity 5) is past the float range
    gens[3].matrix[...] *= 5e307
    with pytest.raises(NumericalError, match=r"^eigendecompose on n=5, level=3 \(10 states\): "
                                            r"eigenvalues are not finite: eigenvalue 5 is inf$"):
        eigendecompose_stack(gens)


def test_the_member_that_does_not_converge_is_named(monkeypatch):
    gens = mixed_stack()
    bad = gens[2].matrix.copy()
    real = np.linalg.eigh

    def eigh(a):
        if a.ndim == 3 or np.array_equal(a, bad):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(NumericalError, match=r"^eigendecompose on n=5, level=3 \(10 states\): "
                                            "eigensolver failed to converge"):
        eigendecompose_stack(gens)


def one_build_of_three():
    """build_stack of three 10-state levels on three (n, level) slices, the middle
    one C_10 level 1: one array, solved in place."""
    return build_stack([(make_cycle(5, 1.0), 2), (make_cycle(10, 1.0), 1),
                        (make_complete(5, 0.5), 3)])


def plant_inf_entry(m):
    m[0, 0] = np.inf


def plant_asymmetry(m):
    m[0, 1] += 1e-6


def plant_kernel(m):
    m[...] += np.eye(len(m))


def plant_overflowing_eigenvalue(m):
    m[...] *= 8e307   # entries up to 1.6e308; the top eigenvalue 4 * 8e307 overflows


@pytest.mark.parametrize("plant,message,members", [
    (plant_inf_entry, r"matrix is not finite: max \|A\| = inf$", [1]),
    (plant_inf_entry, r"matrix is not finite: max \|A\| = inf$", [1, 2]),
    (plant_asymmetry, "matrix is not symmetric", [1]),
    (plant_asymmetry, "matrix is not symmetric", [1, 2]),
    (plant_kernel, "smallest eigenvalue 1 is not numerically zero", [1]),
    (plant_kernel, "smallest eigenvalue 1 is not numerically zero", [1, 2]),
    (plant_overflowing_eigenvalue, r"eigenvalues are not finite: eigenvalue \d+ is inf$", [1]),
])
def test_the_first_failing_member_of_a_built_stack_is_named(plant, message, members):
    gens = one_build_of_three()
    assert isinstance(gens, GeneratorStack)
    for i in members:
        plant(gens[i].matrix)
    with pytest.raises(NumericalError, match=r"^eigendecompose on n=10, level=1 \(10 states\): "
                                            + message):
        eigendecompose_stack(gens)


def test_a_solve_stack_of_mixed_slices_is_one_array_solved_in_place(monkeypatch):
    # Size 10 from (10, 1), (10, 9), (5, 2) and (5, 3), two graphs each, in one stack.
    pairs = [(g, level) for g in rated_graphs(5, 10, 2) for level in (1, 9)]
    pairs += [(g, level) for g in (make_cycle(5, 1.0), make_complete(5, 0.5)) for level in (2, 3)]
    stacks, solved = [], []
    real_eigh, real_stack = np.linalg.eigh, spectral.eigendecompose_stack

    def eigh(a):
        solved.append(a)
        return real_eigh(a)

    def recording(gens):
        stacks.append(gens)
        return real_stack(gens)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(spectral, "eigendecompose_stack", recording)
    out = spectral.solve_stacks(pairs, lambda gen, basis: (gen, basis))
    [gens] = stacks
    assert len(solved) == 1 and solved[0] is gens.matrices
    assert gens.matrices.shape == (8, 10, 10)
    assert len(out) == 8
    for (g, level), (gen, basis) in zip(pairs, out, strict=True):
        assert (gen.graph, gen.space.level) == (g, level)
        assert np.shares_memory(gen.matrix, gens.matrices)
        assert gen.matrix.tobytes() == build_level_generator(g, level).matrix.tobytes()
        assert_same_basis(basis, solve_alone(g, [level])[0])


def test_build_stack_takes_unsorted_runs():
    # Interleaved slices make one run per pair; every member still equals its own build.
    graphs = rated_graphs(11, 5, 3)
    pairs = [(g, level) for g in graphs for level in (2, 3)]
    gens = build_stack(pairs)
    assert len(gens) == 6 and gens.matrices.shape == (6, 10, 10)
    for (g, level), gen in zip(pairs, gens, strict=True):
        assert (gen.graph, gen.space.level) == (g, level)
        assert gen.matrix.tobytes() == build_level_generator(g, level).matrix.tobytes()
    with pytest.raises(ValueError, match=r"levels of one size, got \[5, 10\]"):
        build_stack([(graphs[0], 1), (graphs[0], 2)])


def test_a_disconnected_graph_is_refused():
    two_pairs = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    with pytest.raises(ValueError, match="generator requires a connected graph"):
        build_stack([(make_cycle(4, 1.0), 2), (two_pairs, 2)])
    with pytest.raises(ValueError, match="generator requires a connected graph"):
        list(verify.BasisTable().levels([make_cycle(4, 1.0), two_pairs]))
    # One disconnected member among three, refused at every level and on
    # every call once its verdict is cached.
    for level in (2, 0, 2, 4):
        with pytest.raises(ValueError, match="generator requires a connected graph"):
            build_stack([(g, level) for g in (make_cycle(4, 1.0), two_pairs,
                                              make_complete(4, 0.5))])


def test_connectivity_is_checked_once_per_graph(monkeypatch):
    calls = []
    real = graph_module.is_connected

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graph_module, "is_connected", counting)
    graphs = rated_graphs(5, 6, 3)
    list(verify.BasisTable().levels(graphs))
    for level in range(7):
        build_stack([(g, level) for g in graphs])
    assert calls == graphs
    # The verdict lives outside the fields: equality and hashing are unchanged.
    twin = Graph(graphs[0].n, graphs[0].edges)
    assert twin == graphs[0] and hash(twin) == hash(graphs[0]) and "connected" not in repr(twin)
