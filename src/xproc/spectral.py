"""Eigenstructure of level generators.

Bases are orthonormal for the uniform-measure inner product
<f, g> = (1/|S|) sum f g, so every basis vector has Euclidean norm
sqrt(|S|). This differs from the plain Euclidean convention; all
coefficients and projectors in this package follow it.

Between-level structure comes from two lifting operators: summing an
eigenfunction over single-marble additions (lift toward fewer marbles) or
removals (lift toward more marbles). Both send eigenvectors to eigenvectors
with the same eigenvalue, or to zero. Both read the additions tables:
complementing, all that mirror_basis does, turns removals into additions.
On complete graphs the lifts have closed-form lengths, which makes the
whole eigenbasis constructible level by level without a numerical solver.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .generator import GeneratorStack, NumericalError, build_stack
from .statespace import LevelStateSpace, check_levels, enumerate_level

GROUP_RTOL = 1e-8       # eigenvalues within 1e-8 * max(1, lam) form one cluster
ZERO_TOL = 1e-8         # below this an eigenvalue counts as zero in masks
SIGN_TOL = 1e-12        # entries below this (relative) are "zero" for sign fixing
STACK_BYTES = 1 << 18   # largest matrix stack solve_stacks builds, beyond a stack of one


def zero_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """The zero block, |lam| <= ZERO_TOL; its complement is every "nonzero" eigenvalue."""
    return np.abs(eigenvalues) <= ZERO_TOL


@dataclass(eq=False)
class SpectralBasis:
    """Ascending eigenvalues with uniform-orthonormal eigenvectors.

    vectors[:, i] is the i-th eigenvector. The first eigenpair is installed
    exactly as (0, constant one).
    """

    space: LevelStateSpace
    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def size(self) -> int:
        return self.space.size

    @property
    def groups(self) -> list[list[int]]:
        """Column indices in clusters of numerically equal eigenvalues (group_eigenvalues)."""
        return group_eigenvalues(self.eigenvalues)

    def zero_indices(self) -> list[int]:
        return np.flatnonzero(zero_mask(self.eigenvalues)).tolist()

    def projector(self, indices) -> np.ndarray:
        """Matrix of the orthogonal projection onto span of the given columns."""
        v = self.vectors[:, list(indices)]
        return (v @ v.T) / self.size

    def coefficients(self, f: np.ndarray) -> np.ndarray:
        """Uniform-measure inner products of f with every basis vector."""
        return (self.vectors.T @ np.asarray(f, dtype=float)) / self.size


def group_eigenvalues(eigenvalues: np.ndarray) -> list[list[int]]:
    """Cluster ascending eigenvalues that differ by at most GROUP_RTOL * max(1, lam).

    Eigenvalue i joins the group of i - 1 iff w[i] - w[i-1] <= GROUP_RTOL *
    max(1, |w[i]|); every other index starts a new group.
    """
    w = np.asarray(eigenvalues, dtype=float)
    if w.size == 0:
        return []
    joins = np.diff(w) <= GROUP_RTOL * np.maximum(1.0, np.abs(w[1:]))
    bounds = [0, *(np.flatnonzero(~joins) + 1).tolist(), w.size]
    return [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]


def fix_sign(vec: np.ndarray) -> None:
    """Flip, in place, each column whose first nonzero coordinate is negative.

    Takes one float vector, a (size, k) matrix of column vectors or a stack
    of such matrices (..., size, k); a coordinate counts as nonzero above
    SIGN_TOL times the column's largest magnitude. The leads are sought in
    the top 4, 8, 16, ... rows, until every column has one there.
    """
    cols = vec[:, None] if vec.ndim == 1 else vec
    scale = np.maximum(cols.max(axis=-2, initial=0.0), -cols.min(axis=-2, initial=0.0))
    tol = SIGN_TOL * scale[..., None, :]
    stop = 4
    while True:
        top = cols[..., :stop, :]
        negative = top < -tol
        nonzero = negative | (top > tol)
        if stop >= cols.shape[-2] or nonzero.any(axis=-2).all():
            break
        stop *= 2
    # The lead is the row where the count of nonzero rows reaches 1. A
    # product with -1.0 is an exact negation, and a column holding NaN has
    # a NaN tol, so it is never flipped.
    flip = ((np.cumsum(nonzero, axis=-2) == 1) & negative).any(axis=-2)
    cols *= np.where(flip, -1.0, 1.0)[..., None, :]


def column_dots(x: np.ndarray) -> np.ndarray:
    """c @ c per column c of x, in one matmul with the bits of c.copy() @ c.copy(): the
    transpose is copied because a strided dot rounds differently from a contiguous one."""
    rows = np.ascontiguousarray(x.T)
    return np.matmul(rows[:, None, :], rows[:, :, None]).reshape(-1)


def eigendecompose_stack(gens: GeneratorStack) -> list[SpectralBasis]:
    """Full eigendecompositions of -Q on the levels of one build_stack, in one LAPACK call.

    Passes gens.matrices, the stack's own array, to the dense symmetric
    LAPACK driver (deterministic for identical input on one build, stacked
    or not), then rescales each member to the uniform-measure convention,
    installs the exact (0, constant) eigenpair, and fixes signs so the first
    nonzero coordinate of each vector is positive. Raises NumericalError,
    naming the first member at fault, when a matrix has an entry that is not
    finite or is not symmetric, the solver does not converge, an eigenvalue
    is not finite or the smallest eigenvalue is not numerically zero.
    """
    matrices = gens.matrices

    def refuse_first(bad, detail):   # each test is one pass over the whole stack
        if bad.any():
            i = int(bad.argmax())
            raise NumericalError("eigendecompose", gens[i], detail(i))

    scale = np.maximum(1.0, np.maximum(matrices.max(axis=(1, 2)), -matrices.min(axis=(1, 2))))
    # An overflowed rate sum: every later test would pass.
    refuse_first(~np.isfinite(scale), lambda i: f"matrix is not finite: max |A| = {scale[i]:g}")
    if (matrices != matrices.transpose(0, 2, 1)).any():  # only then find max |A - A^T|
        asym = np.max(np.abs(matrices - matrices.transpose(0, 2, 1)), axis=(1, 2))
        refuse_first(asym > 1e-12 * scale,
                     lambda i: f"matrix is not symmetric: max |A - A^T| = {asym[i]:g}")
    try:
        w, v = np.linalg.eigh(matrices)
    except np.linalg.LinAlgError as exc:
        # A stacked call does not say which member failed: name the first
        # that fails alone.
        failed = next((gen for gen in gens if not _converges(gen.matrix)), gens[0])
        off = failed.matrix - np.diag(np.diag(failed.matrix))
        raise NumericalError(
            "eigendecompose", failed,
            f"eigensolver failed to converge ({exc}); "
            f"max off-diagonal entry {np.max(np.abs(off)):g}",
        ) from exc
    # Finite entries can still have an eigenvalue past the float range.
    finite = np.isfinite(w)
    refuse_first(~finite.all(axis=1), lambda i: "eigenvalues are not finite: eigenvalue "
                 f"{finite[i].argmin()} is {w[i, finite[i].argmin()]:g}")
    refuse_first(np.abs(w[:, 0]) > 1e-10 * scale,
                 lambda i: f"smallest eigenvalue {w[i, 0]:g} is not numerically zero")
    v *= math.sqrt(matrices.shape[1])
    w[:, 0] = 0.0
    v[:, :, 0] = 1.0
    fix_sign(v)   # the constant column leads with 1.0 and keeps its sign
    if len(gens) == 1:
        return [SpectralBasis(gens[0].space, w[0], v[0])]
    # A copy per member lets a held basis keep only its own arrays alive.
    return [SpectralBasis(gen.space, lam.copy(), vectors.copy())
            for gen, lam, vectors in zip(gens, w, v)]


def _converges(matrix: np.ndarray) -> bool:
    try:
        np.linalg.eigh(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def stack_members(size: int) -> int:
    """How many levels of size states solve_stacks puts in one stack: as many
    matrices as STACK_BYTES holds, and at least one."""
    return max(1, STACK_BYTES // (8 * size * size))


def solve_stacks(pairs: Sequence[tuple[Graph, int]], read: Callable) -> list:
    """Solve (graph, level) pairs in stacks; return [read(gen, basis), ...] in pair order.

    Pairs of one level size share a stack, of at most STACK_BYTES of
    matrices, across graphs and across levels l and n - l. Each stack is one
    build_stack and one eigendecompose_stack call, and every basis equals
    the one a stack of one gives for its pair, bit for bit. Stacks are
    solved largest first and read member by member; each stack's generators
    and bases are dropped before the next stack is built, so a basis
    outlives its stack only when read returns it.
    """
    out = [None] * len(pairs)
    by_size: dict[int, list[int]] = {}
    for i, (g, level) in enumerate(pairs):
        by_size.setdefault(math.comb(g.n, level), []).append(i)
    # Largest first: the biggest solve's workspace is gone before the
    # smaller levels' reads pile up.
    for size, members in sorted(by_size.items(), reverse=True):
        # Members on one (n, level) sit side by side: one run of the build.
        members.sort(key=lambda i: (pairs[i][0].n, pairs[i][1]))
        per_stack = stack_members(size)
        for start in range(0, len(members), per_stack):
            indices = members[start:start + per_stack]
            gens = build_stack([pairs[i] for i in indices])
            bases = eigendecompose_stack(gens)
            for i, gen, basis in zip(indices, gens, bases):
                out[i] = read(gen, basis)
            del gens, bases, gen, basis  # before the next stack is built
    return out


# ---------------------------------------------------------------------------
# lifting operators
# ---------------------------------------------------------------------------

def _gather_sum(space: LevelStateSpace, psi: np.ndarray, table: np.ndarray) -> np.ndarray:
    """out[i] = sum_j psi[table[i, j]], added one column at a time, left to right.

    The fixed order keeps every result bit-identical to a scalar loop; psi
    may be one function (size,) or a batch of columns (size, k).
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim not in (1, 2) or psi.shape[0] != space.size:
        raise ValueError(
            f"function has shape {psi.shape}, expected ({space.size},) or ({space.size}, k)"
        )
    out = np.zeros((table.shape[0],) + psi.shape[1:])
    for j in range(table.shape[1]):
        out += psi[table[:, j]]
    return out


def lift_down(space: LevelStateSpace, psi: np.ndarray) -> np.ndarray:
    """Sum psi over single-marble additions: a function on level-1 fewer marbles.

    For an eigenvector of the level generator the result is an eigenvector
    of the next-lower level generator with the same eigenvalue, or zero.
    """
    if space.level == 0:
        raise ValueError("cannot lift below level 0")
    return _gather_sum(space, psi, enumerate_level(space.n, space.level - 1).additions)


def lift_up(space: LevelStateSpace, psi: np.ndarray) -> np.ndarray:
    """Sum psi over single-marble removals: a function on level+1 marbles.

    Complemented, they are the additions to level n - level - 1, whose
    table read backwards, in rows and in ranks, is the removals table."""
    if space.level == space.n:
        raise ValueError("cannot lift above the full level")
    check_levels(space.n, [space.level + 1])   # a target over the cap is named as itself
    additions = enumerate_level(space.n, space.n - space.level - 1).additions
    return _gather_sum(space, psi, space.size - 1 - additions[::-1])


# ---------------------------------------------------------------------------
# complete-graph eigenbasis, built level by level
# ---------------------------------------------------------------------------

def complete_graph_eigenvalue_table(n: int, level: int, alpha: float) -> list[tuple[float, int]]:
    """(eigenvalue, multiplicity) pairs of -Q on a complete graph, ascending.

    The nonzero eigenvalues are alpha * j * (n - j + 1) for j = 1..min(level,
    n - level), each with multiplicity C(n, j) - C(n, j - 1).
    """
    ell = min(level, n - level)
    table = [(0.0, 1)]
    for j in range(1, ell + 1):
        table.append((alpha * j * (n - j + 1), math.comb(n, j) - math.comb(n, j - 1)))
    return table


def complete_graph_basis(n: int, level: int, alpha: float) -> SpectralBasis:
    """Closed-form eigenbasis of -Q on the complete graph, levels <= n/2.

    Built recursively: the level-0 basis is the constant; each next level
    normalizes the marble-addition lifts of the previous basis (their
    lengths are strictly positive in this range) and completes them with an
    orthonormal complement, all of which carries the new top eigenvalue
    alpha * level * (n - level + 1). Use mirror_basis for levels above n/2.
    """
    if not (2 <= n <= 63):
        raise ValueError(f"supported vertex counts are 2..63, got {n}")
    if not alpha > 0:
        raise ValueError(f"rate must be > 0, got {alpha}")
    if not (0 <= level <= n / 2):
        raise ValueError(
            f"level must be in 0..n/2 = {n / 2:g}, got {level}; "
            "use mirror_basis for the upper range"
        )
    space = enumerate_level(n, 0)
    eigenvalues = [0.0]
    vectors = np.ones((1, 1))
    for m in range(1, level + 1):
        target = enumerate_level(n, m)
        up = lift_up(space, vectors)
        lifted = up / np.sqrt(column_dots(up) / target.size)
        new_count = target.size - lifted.shape[1]
        if new_count:
            # Orthonormal complement of the lifted span; SVD keeps it
            # deterministic. Every complement vector carries the top
            # eigenvalue alpha * m * (n - m + 1).
            u, _, _ = np.linalg.svd(lifted / math.sqrt(target.size), full_matrices=True)
            extra = u[:, lifted.shape[1]:] * math.sqrt(target.size)
            eigenvalues = eigenvalues + [alpha * m * (n - m + 1)] * new_count
            vectors = np.hstack([lifted, extra])
        else:
            vectors = lifted
        space = target
    vectors[:, 0] = 1.0
    fix_sign(vectors[:, 1:])
    return SpectralBasis(space, np.array(eigenvalues), vectors)


def mirror_basis(basis: SpectralBasis) -> SpectralBasis:
    """Re-index a basis through marble-color complementation.

    Maps level l to level n - l with identical eigenvalues; applying it
    twice restores the original vectors exactly.
    """
    space = basis.space
    # Complementing reverses the ascending order: state i maps to row size - 1 - i.
    target = enumerate_level(space.n, space.n - space.level)
    return SpectralBasis(target, basis.eigenvalues.copy(), basis.vectors[::-1].copy())
