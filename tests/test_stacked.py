"""Stacked level solves: levels of one size are built and solved together, bit for bit
as one at a time."""

import numpy as np
import pytest

from xproc import graph as graph_module, spectral, verify
from xproc.generator import NumericalError, build_level_generator, build_level_generators
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
        gens = build_level_generators(graphs, level)
        alone = [build_level_generator(g, level) for g in graphs]
        for gen, ref in zip(gens, alone):
            assert np.array_equal(gen.matrix, ref.matrix)
        for basis, ref in zip(eigendecompose_stack(gens), alone):
            assert_same_basis(basis, eigendecompose_stack([ref])[0])


def test_one_state_levels_stack():
    graphs = rated_graphs(1, 5, 3)
    for level in (0, 5):
        gens = build_level_generators(graphs, level)
        assert all(np.array_equal(gen.matrix, [[0.0]]) for gen in gens)
        for basis in eigendecompose_stack(gens):
            assert np.array_equal(basis.eigenvalues, [0.0])
            assert np.array_equal(basis.vectors, [[1.0]])


def test_a_stack_may_mix_levels_l_and_n_minus_l():
    graphs = rated_graphs(3, 7, 3)
    gens = build_level_generators(graphs, 2) + build_level_generators(graphs, 5)
    for gen, basis in zip(gens, eigendecompose_stack(gens)):
        assert_same_basis(basis, solve_alone(gen.graph, [gen.space.level])[0])


def test_members_of_a_stack_hold_their_own_arrays():
    gens = build_level_generators([make_cycle(6, 1.0), make_complete(6, 1.0)], 2)
    for basis in eigendecompose_stack(gens):
        assert basis.vectors.flags.owndata and basis.eigenvalues.flags.owndata


def test_a_solve_alone_passes_the_matrix_without_a_copy(monkeypatch):
    gen = build_level_generator(make_cycle(6, 1.0), 3)
    seen = []
    real = np.linalg.eigh

    def eigh(a):
        seen.append(np.shares_memory(a, gen.matrix))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    eigendecompose_stack([gen])
    assert seen == [True]


@pytest.mark.parametrize("stack_bytes", [0, 1 << 12, 1 << 30])
def test_basis_table_levels_equal_per_level_solves(monkeypatch, stack_bytes):
    monkeypatch.setattr(spectral, "STACK_BYTES", stack_bytes)
    # Sizes shared across n: C(4, 2) = C(6, 1) = 6 and C(5, 2) = C(10, 1) = 10.
    graphs = [make_cycle(4, 0.5), make_complete(6, 1.0), *rated_graphs(7, 5, 2),
              make_half_complete_cycle(3, 0.25), make_cycle(10, 1.0), make_cycle(4, 0.5)]
    for g, bases in zip(graphs, verify.BasisTable().levels(graphs), strict=True):
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
    seen = []
    for i, gen, basis in spectral.solve_stacks(pairs):
        assert (gen.graph, gen.space.level) == pairs[i]
        assert basis.space is gen.space
        seen.append(i)
    assert sorted(seen) == list(range(len(pairs)))
    # Sizes 10, 5 and 1, largest first, 8 members each (levels l and 5 - l
    # of 4 graphs). A stack holds 3 matrices of 10 states and 12 of 5.
    assert stacks == [(3, 10)] * 2 + [(2, 10), (8, 5), (8, 1)]


def mixed_stack():
    """Levels 2 and 3 of two graphs on 5 vertices: four members of 10 states."""
    graphs = [make_cycle(5, 1.0), make_complete(5, 0.5)]
    return build_level_generators(graphs, 2) + build_level_generators(graphs, 3)


def test_an_asymmetric_member_is_named():
    gens = mixed_stack()
    gens[3].matrix[0, 1] += 1e-6
    with pytest.raises(NumericalError, match=r"^eigendecompose on n=5, level=3 \(10 states\): "
                                            "matrix is not symmetric"):
        eigendecompose_stack(gens)


def three_sizes_of_ten():
    """A 3-member stack of 10-state levels on three (n, level) slices:
    C(5, 2) = C(10, 1) = C(5, 3) = 10."""
    return [build_level_generator(make_cycle(5, 1.0), 2),
            build_level_generator(rated_graphs(4, 10, 1)[0], 1),
            build_level_generator(make_complete(5, 0.5), 3)]


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
    alone = [eigendecompose_stack([gen])[0] for gen in gens]
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


def test_a_disconnected_graph_is_refused():
    two_pairs = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    with pytest.raises(ValueError, match="generator requires a connected graph"):
        build_level_generators([make_cycle(4, 1.0), two_pairs], 2)
    with pytest.raises(ValueError, match="generator requires a connected graph"):
        verify.BasisTable().levels([make_cycle(4, 1.0), two_pairs])
    # One disconnected member among three, refused at every level and on
    # every call once its verdict is cached.
    for level in (2, 0, 2, 4):
        with pytest.raises(ValueError, match="generator requires a connected graph"):
            build_level_generators([make_cycle(4, 1.0), two_pairs, make_complete(4, 0.5)],
                                   level)


def test_connectivity_is_checked_once_per_graph(monkeypatch):
    calls = []
    real = graph_module.is_connected

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graph_module, "is_connected", counting)
    graphs = rated_graphs(5, 6, 3)
    verify.BasisTable().levels(graphs)
    for level in range(7):
        build_level_generators(graphs, level)
    assert calls == graphs
    # The verdict lives outside the fields: equality and hashing are unchanged.
    twin = Graph(graphs[0].n, graphs[0].edges)
    assert twin == graphs[0] and hash(twin) == hash(graphs[0]) and "connected" not in repr(twin)


def test_a_stack_takes_one_n_and_one_size():
    with pytest.raises(ValueError, match="graphs on one n"):
        build_level_generators([make_cycle(4, 1.0), make_cycle(5, 1.0)], 2)
    gens = [build_level_generator(make_cycle(5, 1.0), level) for level in (1, 2)]
    with pytest.raises(ValueError, match="levels of one size"):
        eigendecompose_stack(gens)
