"""Eigenbases, lifting operators, and the complete-graph eigenstructure."""

import math

import numpy as np
import pytest

from xproc.generator import NumericalError, build_level_generator, build_stack
from xproc.graph import make_complete, make_cycle
from xproc.spectral import (
    complete_graph_basis,
    complete_graph_eigenvalue_table,
    eigendecompose_stack,
    fix_sign,
    group_eigenvalues,
    lift_down,
    lift_up,
    mirror_basis,
)
from xproc.statespace import enumerate_level

from conftest import solve_alone


def basis_for(g, level):
    return solve_alone(g, [level])[0]


def check_basis_invariants(gen, basis):
    m = gen.matrix
    size = basis.size
    norm2 = float(basis.eigenvalues[-1])
    res = m @ basis.vectors - basis.vectors * basis.eigenvalues
    assert np.max(np.linalg.norm(res, axis=0)) <= 1e-10 * max(norm2, 1e-300) or norm2 == 0
    gram = basis.vectors.T @ basis.vectors / size
    assert np.max(np.abs(gram - np.eye(size))) <= 1e-10
    assert basis.eigenvalues[0] == 0.0
    assert np.all(basis.vectors[:, 0] == 1.0)
    assert np.all(np.diff(basis.eigenvalues) >= -1e-12)
    if size > 1:
        assert basis.eigenvalues[1] > 0


def test_k2_level1():
    basis = basis_for(make_complete(2, 1.0), 1)
    np.testing.assert_allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
    psi = basis.vectors[:, 1]
    assert psi[0] * psi[1] < 0 and abs(abs(psi[0]) - 1.0) < 1e-12


def test_cycle4_level1_walk_spectrum():
    for alpha in (1.0, 0.3):
        basis = basis_for(make_cycle(4, alpha), 1)
        np.testing.assert_allclose(
            basis.eigenvalues, alpha * np.array([0.0, 2.0, 2.0, 4.0]), atol=1e-10
        )


@pytest.mark.parametrize("n", range(3, 9))
def test_invariants_hold(n):
    for g in (make_complete(n, 1.0), make_cycle(n, 0.5)):
        for level in range(n + 1):
            gens = build_stack([(g, level)])
            check_basis_invariants(gens[0], eigendecompose_stack(gens)[0])


def test_symmetry_checked():
    gens = build_stack([(make_cycle(4, 1.0), 1)])
    gens[0].matrix[0, 1] += 1e-3
    with pytest.raises(NumericalError, match=r"^eigendecompose on n=4, level=1 \(4 states\): "
                                            "matrix is not symmetric"):
        eigendecompose_stack(gens)


def test_eigensolver_failure_is_numerical_error(monkeypatch):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    gens = build_stack([(make_cycle(5, 1.0), 2)])
    with pytest.raises(NumericalError, match=r"^eigendecompose on n=5, level=2 \(10 states\): "
                                            "eigensolver failed to converge"):
        eigendecompose_stack(gens)


def test_nonzero_kernel_is_numerical_error():
    gens = build_stack([(make_cycle(4, 1.0), 2)])
    gens[0].matrix[...] += np.eye(gens[0].space.size)  # symmetric, smallest eigenvalue 1
    with pytest.raises(NumericalError, match="smallest eigenvalue 1 is not numerically zero"):
        eigendecompose_stack(gens)
    assert not issubclass(NumericalError, ValueError)


def test_deterministic_decomposition():
    b1, b2 = (eigendecompose_stack(build_stack([(make_cycle(6, 0.5), 3)]))[0]
              for _ in range(2))
    assert np.array_equal(b1.eigenvalues, b2.eigenvalues)
    assert np.array_equal(b1.vectors, b2.vectors)


def test_grouping_tolerance():
    groups = group_eigenvalues(np.array([0.0, 1.0, 1.0 + 5e-9, 2.0]))
    assert groups == [[0], [1, 2], [3]]


@pytest.mark.parametrize("g", [make_cycle(5, 0.5), make_complete(7, 1.5)])
def test_trivial_levels_solve_to_the_constant(g):
    for level in (0, g.n):
        basis = solve_alone(g, [level])[0]
        assert basis.space is enumerate_level(g.n, level)
        assert basis.eigenvalues.tobytes() == np.array([0.0]).tobytes()
        assert basis.vectors.tobytes() == np.array([[1.0]]).tobytes()


def test_fix_sign():
    for vec, want in (([-1.0, 2.0], [1.0, -2.0]), ([0.0, -3.0], [0.0, 3.0]),
                      ([2.0, -3.0], [2.0, -3.0])):
        vec = np.array(vec)
        fix_sign(vec)
        assert np.array_equal(vec, want)


# ---------------------------------------------------------------------------
# lifting operators
# ---------------------------------------------------------------------------

def test_lift_down_of_constant():
    space = enumerate_level(6, 3)
    down = lift_down(space, np.ones(space.size))
    np.testing.assert_array_equal(down, np.full(math.comb(6, 2), 6 - 3 + 1))


def test_lift_up_of_constant():
    space = enumerate_level(6, 3)
    up = lift_up(space, np.ones(space.size))
    np.testing.assert_array_equal(up, np.full(math.comb(6, 4), 3 + 1))


def test_lift_level_bounds():
    with pytest.raises(ValueError):
        lift_down(enumerate_level(4, 0), np.ones(1))
    with pytest.raises(ValueError):
        lift_up(enumerate_level(4, 4), np.ones(1))


def test_lift_down_length_formula_k4():
    # top eigenvector of level 2 lifts to zero: the formula value vanishes
    alpha = 1.0
    basis = basis_for(make_complete(4, alpha), 2)
    target = enumerate_level(4, 1)
    for i in range(basis.size):
        lam = float(basis.eigenvalues[i])
        down = lift_down(basis.space, basis.vectors[:, i])
        got = float(down @ down) / target.size
        want = (4 - 2 + 1) / (alpha * 2) * (alpha * 2 * (4 - 2 + 1) - lam)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
        if lam == pytest.approx(6.0 * alpha):
            assert got == pytest.approx(0.0, abs=1e-20)


def test_lift_up_length_formula_k5_kernel():
    alpha = 0.5
    basis = basis_for(make_complete(5, alpha), 1)
    up = lift_up(basis.space, basis.vectors[:, 0])
    target = enumerate_level(5, 2)
    got = float(up @ up) / target.size
    want = (1 + 1) / (alpha * (5 - 1)) * (alpha * (1 + 1) * (5 - 1) - 0.0)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(4.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_lift_length_formulas_all_vectors(n):
    alpha = 1.0 / n
    g = make_complete(n, alpha)
    for level in range(n // 2 + 1):
        basis = basis_for(g, level)
        for i in range(basis.size):
            lam = float(basis.eigenvalues[i])
            psi = basis.vectors[:, i]
            if level >= 1:
                down = lift_down(basis.space, psi)
                got = float(down @ down) / math.comb(n, level - 1)
                want = (n - level + 1) / (alpha * level) * (
                    alpha * level * (n - level + 1) - lam
                )
                assert got == pytest.approx(want, rel=1e-8, abs=1e-8)
            if level <= n - 1:
                up = lift_up(basis.space, psi)
                got = float(up @ up) / math.comb(n, level + 1)
                want = (level + 1) / (alpha * (n - level)) * (
                    alpha * (level + 1) * (n - level) - lam
                )
                assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


def test_lift_orthogonality_preserved():
    basis = basis_for(make_complete(6, 0.5), 3)
    space = basis.space
    ups = [lift_up(space, basis.vectors[:, i]) for i in range(basis.size)]
    downs = [lift_down(space, basis.vectors[:, i]) for i in range(basis.size)]
    up_size = math.comb(6, 4)
    down_size = math.comb(6, 2)
    for i in range(basis.size):
        for j in range(i + 1, basis.size):
            assert float(ups[i] @ ups[j]) / up_size == pytest.approx(0.0, abs=1e-10)
            assert float(downs[i] @ downs[j]) / down_size == pytest.approx(0.0, abs=1e-10)


def eigen_or_zero(gen, vec, lam):
    size = gen.space.size
    norm = math.sqrt(float(vec @ vec) / size)
    if norm <= 1e-8:
        return True
    unit = vec / norm
    residual = gen.matrix @ unit - lam * unit
    return math.sqrt(float(residual @ residual) / size) <= 1e-8


@pytest.mark.parametrize("n", range(3, 9))
def test_lift_dichotomy_on_cycles(n):
    g = make_cycle(n, 0.5)
    gens = [build_level_generator(g, level) for level in range(n + 1)]
    for level in range(n + 1):
        basis = basis_for(g, level)
        for i in range(basis.size):
            lam = float(basis.eigenvalues[i])
            if level >= 1:
                down = lift_down(basis.space, basis.vectors[:, i])
                assert eigen_or_zero(gens[level - 1], down, lam)
            if level <= n - 1:
                up = lift_up(basis.space, basis.vectors[:, i])
                assert eigen_or_zero(gens[level + 1], up, lam)


# ---------------------------------------------------------------------------
# complete-graph closed-form basis
# ---------------------------------------------------------------------------

def test_table_level1():
    for n, alpha in [(5, 1.0), (8, 0.25)]:
        table = complete_graph_eigenvalue_table(n, 1, alpha)
        assert table == [(0.0, 1), (alpha * n, n - 1)]


def test_table_k4_level2():
    assert complete_graph_eigenvalue_table(4, 2, 1.0) == [(0.0, 1), (4.0, 3), (6.0, 2)]


@pytest.mark.parametrize("n", range(2, 11))
def test_multiplicity_counting_identity(n):
    for level in range(n // 2 + 1):
        table = complete_graph_eigenvalue_table(n, level, 1.0)
        assert sum(mult for _, mult in table) == math.comb(n, level)


def test_closed_form_matches_eigensolver():
    alpha = 0.5
    cb = complete_graph_basis(6, 3, alpha)
    gens = build_stack([(make_complete(6, alpha), 3)])
    gen, gb = gens[0], eigendecompose_stack(gens)[0]
    check_basis_invariants(gen, cb)
    assert cb.groups == gb.groups
    for grp_c, grp_g in zip(cb.groups, gb.groups):
        assert np.max(np.abs(cb.projector(grp_c) - gb.projector(grp_g))) <= 1e-8


def test_closed_form_rejects_upper_levels():
    with pytest.raises(ValueError):
        complete_graph_basis(6, 4, 1.0)


@pytest.mark.parametrize("n,level", [(4, 2), (5, 2), (7, 3), (8, 4)])
def test_closed_form_residuals(n, level):
    alpha = 1.0 / n
    cb = complete_graph_basis(n, level, alpha)
    gen = build_level_generator(make_complete(n, alpha), level)
    check_basis_invariants(gen, cb)
    expected = []
    for lam, mult in complete_graph_eigenvalue_table(n, level, alpha):
        expected.extend([lam] * mult)
    np.testing.assert_allclose(cb.eigenvalues, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# mirror symmetry
# ---------------------------------------------------------------------------

def test_mirror_constant_levels():
    basis = basis_for(make_cycle(5, 1.0), 0)
    mirrored = mirror_basis(basis)
    assert mirrored.space.level == 5
    np.testing.assert_array_equal(mirrored.vectors, [[1.0]])


def test_mirror_spectra_match_k5():
    b2 = basis_for(make_complete(5, 1.0), 2)
    b3 = basis_for(make_complete(5, 1.0), 3)
    np.testing.assert_allclose(np.sort(b2.eigenvalues), np.sort(b3.eigenvalues), atol=1e-10)


def test_mirror_is_involution_and_valid():
    g = make_cycle(6, 0.5)
    basis = basis_for(g, 2)
    mirrored = mirror_basis(basis)
    assert mirrored.space.level == 4
    gen4 = build_level_generator(g, 4)
    res = gen4.matrix @ mirrored.vectors - mirrored.vectors * mirrored.eigenvalues
    assert np.max(np.abs(res)) <= 1e-10 * max(1.0, float(mirrored.eigenvalues[-1]))
    double = mirror_basis(mirrored)
    assert np.array_equal(double.vectors, basis.vectors)
    assert np.array_equal(double.eigenvalues, basis.eigenvalues)


# ---------------------------------------------------------------------------
# kernel independence across graphs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 11))
def test_kernel_projector_independent_of_graph(n):
    complete_bases = solve_alone(make_complete(n, 1.0))
    cycle_bases = solve_alone(make_cycle(n, 0.5))
    for bc, bcyc in zip(complete_bases, cycle_bases):
        pc = bc.projector(bc.zero_indices())
        pcyc = bcyc.projector(bcyc.zero_indices())
        assert np.max(np.abs(pc - pcyc)) <= 1e-12
        assert len(bc.zero_indices()) == 1
