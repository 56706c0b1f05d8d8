"""The vectorized level-operator kernel against scalar reference loops.

The references below are the per-word double loops over a word -> index
dict that the kernel replaced. Every comparison is exact (==), not
approximate: the kernel must reproduce them bit for bit.
"""

import math

import numpy as np
import pytest

from xproc.fourier import bases_profile, dictator, majority, mass_by_eigenvalue, parity_on_set
from xproc import spectral
from xproc.generator import build_level_generator, build_stack, dirichlet_form
from xproc.graph import Graph, make_complete, make_cycle, make_half_complete_cycle
from xproc.spectral import (
    GROUP_RTOL,
    SIGN_TOL,
    complete_graph_basis,
    eigendecompose_stack,
    fix_sign,
    group_eigenvalues,
    lift_down,
    lift_up,
    mirror_basis,
)
from xproc.statespace import (
    StateCapExceeded,
    _level_slice,
    bit_position,
    enumerate_level,
    pair_row,
    state_cap,
    swap_words,
    vertex_masks,
)
from xproc.verify import random_connected_graph

from conftest import solve_alone


# ---------------------------------------------------------------------------
# scalar references
# ---------------------------------------------------------------------------

def ref_index(space):
    return {int(w): i for i, w in enumerate(space.words)}


def ref_lift_down(space, psi):
    index = ref_index(space)
    target = enumerate_level(space.n, space.level - 1)
    out = np.zeros(target.size)
    n = space.n
    for i, w in enumerate(target.words):
        w = int(w)
        acc = 0.0
        for v in range(n):
            bit = 1 << bit_position(n, v)
            if not (w & bit):
                acc += psi[index[w | bit]]
        out[i] = acc
    return out


def ref_lift_up(space, psi):
    index = ref_index(space)
    target = enumerate_level(space.n, space.level + 1)
    out = np.zeros(target.size)
    n = space.n
    for i, w in enumerate(target.words):
        w = int(w)
        acc = 0.0
        for v in range(n):
            bit = 1 << bit_position(n, v)
            if w & bit:
                acc += psi[index[w ^ bit]]
        out[i] = acc
    return out


def fixed(vec):
    """A copy of vec with fix_sign applied to it in place."""
    out = vec.copy()
    fix_sign(out)
    return out


def ref_fix_sign(vec):
    scale = np.max(np.abs(vec))
    if scale == 0.0:
        return vec
    nz = np.nonzero(np.abs(vec) > SIGN_TOL * scale)[0]
    if len(nz) and vec[nz[0]] < 0:
        return -vec
    return vec


def scalar_fix_sign(column):
    """The sign rule one coordinate at a time: a copy of column, negated iff its first
    |x| > SIGN_TOL * max |x| is negative; a column holding NaN is kept."""
    values = [float(x) for x in column]
    if any(math.isnan(x) for x in values):
        return column.copy()
    scale = max(abs(x) for x in values)
    for x in values:
        if abs(x) > SIGN_TOL * scale:
            return -column if x < 0 else column.copy()
    return column.copy()


def ref_dirichlet_form(gen, f):
    """The edge sum one edge at a time, in edge order, as dirichlet_form once ran."""
    total = 0.0
    for u, v, rate in gen.graph.edges:
        diff = f - f[gen.space.swaps[pair_row(gen.space.n, u, v)]]
        total += rate * float(diff @ diff)
    return total / (2.0 * gen.space.size)


def ref_group_eigenvalues(eigenvalues, rtol=GROUP_RTOL):
    groups = []
    for i, lam in enumerate(eigenvalues):
        if groups and lam - eigenvalues[groups[-1][-1]] <= rtol * max(1.0, abs(lam)):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def ref_mass_by_eigenvalue(profile):
    """Pool sorted eigenvalues that lie within GROUP_RTOL of their cluster's first."""
    order = np.argsort(profile.eigenvalues, kind="stable")
    lam = profile.eigenvalues[order]
    sq = profile.coefficients[order] ** 2
    out = []
    for value, mass in zip(lam, sq):
        if out and value - out[-1][0] <= GROUP_RTOL * max(1.0, abs(value)):
            out[-1][1] += float(mass)
        else:
            out.append([float(value), float(mass)])
    return [(v, m) for v, m in out]


def ref_complete_graph_basis(n, level, alpha):
    space = enumerate_level(n, 0)
    eigenvalues = [0.0]
    vectors = np.ones((1, 1))
    for m in range(1, level + 1):
        target = enumerate_level(n, m)
        lifted = np.empty((target.size, vectors.shape[1]))
        for i in range(vectors.shape[1]):
            up = ref_lift_up(space, vectors[:, i])
            lifted[:, i] = up / math.sqrt(float(np.dot(up, up)) / target.size)
        new_count = target.size - lifted.shape[1]
        if new_count:
            u, _, _ = np.linalg.svd(lifted / math.sqrt(target.size), full_matrices=True)
            extra = u[:, lifted.shape[1]:] * math.sqrt(target.size)
            eigenvalues = eigenvalues + [alpha * m * (n - m + 1)] * new_count
            vectors = np.hstack([lifted, extra])
        else:
            vectors = lifted
        space = target
    vectors = vectors.copy()
    vectors[:, 0] = 1.0
    for i in range(1, vectors.shape[1]):
        vectors[:, i] = ref_fix_sign(vectors[:, i])
    return np.array(eigenvalues), vectors


def ref_generator_matrix(g, level):
    space = enumerate_level(g.n, level)
    index = ref_index(space)
    m = np.zeros((space.size, space.size))
    for u, v, rate in g.edges:
        bu = 1 << bit_position(g.n, u)
        bv = 1 << bit_position(g.n, v)
        for i, w in enumerate(space.words):
            w = int(w)
            if bool(w & bu) != bool(w & bv):
                m[i, index[w ^ (bu | bv)]] -= rate
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1))
    return m


def rough(rng, *shape):
    """Values spread over 16 decades, so any change of summation order shows."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


# ---------------------------------------------------------------------------
# bit-exact lifts
# ---------------------------------------------------------------------------

SMALL_SLICES = [(n, level) for n in range(2, 11) for level in range(n + 1)]
LARGE_SLICES = [(12, 6), (13, 4), (14, 7)]


@pytest.mark.parametrize("n,level", SMALL_SLICES + LARGE_SLICES)
def test_lift_down_and_up_bit_exact(n, level):
    rng = np.random.default_rng(1000 * n + level)
    space = enumerate_level(n, level)
    psi = rough(rng, space.size)
    batch = rough(rng, space.size, 3)
    for lift, ref, ok in ((lift_down, ref_lift_down, level > 0),
                          (lift_up, ref_lift_up, level < n)):
        if not ok:
            continue
        assert np.array_equal(lift(space, psi), ref(space, psi))
        out = lift(space, batch)
        assert out.shape[1] == 3
        for c in range(3):
            assert np.array_equal(out[:, c], ref(space, batch[:, c]))


def test_lift_down_with_many_neighbours():
    # every level-0 state has 10 single-marble additions at n = 10
    space = enumerate_level(10, 1)
    assert enumerate_level(10, 0).additions.shape == (1, 10)
    psi = rough(np.random.default_rng(3), space.size)
    assert np.array_equal(lift_down(space, psi), ref_lift_down(space, psi))


def test_lift_rejects_bad_shapes():
    space = enumerate_level(5, 2)
    for bad in (np.ones(space.size + 1), np.ones((space.size, 2, 2)), np.ones((1, space.size))):
        with pytest.raises(ValueError, match="shape"):
            lift_up(space, bad)


# ---------------------------------------------------------------------------
# bases and generators built on the kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 11))
def test_complete_graph_basis_matches_reference(n):
    alpha = 1.0 / n
    for level in range(n // 2 + 1):
        basis = complete_graph_basis(n, level, alpha)
        eigenvalues, vectors = ref_complete_graph_basis(n, level, alpha)
        assert np.array_equal(basis.eigenvalues, eigenvalues)
        assert np.array_equal(basis.vectors, vectors)


@pytest.mark.parametrize("n", [5, 8, 9])
def test_mirror_basis_matches_reference(n):
    g = make_cycle(n, 0.5)
    for level in range(n + 1):
        basis = solve_alone(g, [level])[0]
        target = enumerate_level(n, n - level)
        index = ref_index(basis.space)
        mask = (1 << n) - 1
        perm = [index[int(w) ^ mask] for w in target.words]
        mirrored = mirror_basis(basis)
        assert mirrored.space is target
        assert np.array_equal(mirrored.vectors, basis.vectors[perm, :])


def test_generator_matches_reference():
    rng = np.random.default_rng(5)
    graphs = [make_complete(7, 0.3), make_cycle(9, 1.5), make_half_complete_cycle(4, 0.25),
              random_connected_graph(rng, 8, 0.7)]
    for g in graphs:
        for level in range(g.n + 1):
            gen = build_level_generator(g, level)
            assert np.array_equal(gen.matrix, ref_generator_matrix(g, level))
            index = ref_index(gen.space)
            for u, v, _ in g.edges:
                bu, bv = 1 << bit_position(g.n, u), 1 << bit_position(g.n, v)
                want = [index[w ^ (bu | bv)] if bool(w & bu) != bool(w & bv) else i
                        for i, w in enumerate(map(int, gen.space.words))]
                assert gen.space.swaps[pair_row(g.n, u, v)].tolist() == want


def ref_generator_by_masks(g, level):
    """Matrix and edge permutations as built before the swap table: one
    swap_words + rank pass over the graph's own edge masks."""
    space = enumerate_level(g.n, level)
    bu, bv = vertex_masks(g.n)[[(u, v) for u, v, _ in g.edges]].T
    perms = space.rank(swap_words(space.words, bu[:, None], bv[:, None]))
    m = np.zeros((space.size, space.size))
    rates = np.array([rate for _, _, rate in g.edges])
    m[np.arange(space.size), perms] = -rates[:, None]
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1))
    return m, perms


@pytest.mark.parametrize("n", range(2, 10))
def test_generator_from_swap_table_is_bit_identical(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(3):
        g = unequal_rate_graph(rng, n)
        for level in range(n + 1):
            gen = build_level_generator(g, level)
            matrix, perms = ref_generator_by_masks(g, level)
            assert gen.matrix.tobytes() == matrix.tobytes()
            rows = [pair_row(g.n, u, v) for u, v, _ in g.edges]
            assert np.array_equal(gen.space.swaps[rows], perms)


def test_disconnected_graph_is_rejected_at_the_trivial_levels():
    g = Graph(5, ((0, 1, 1.0), (2, 3, 0.5), (3, 4, 2.0)))
    for level in (0, g.n):
        with pytest.raises(ValueError, match="connected"):
            build_level_generator(g, level)


def test_fix_sign_columns_match_per_column():
    edge = SIGN_TOL * 4.0
    columns = [
        [0.0, 0.0, 0.0],                            # zero column: unchanged
        [-edge, 4.0, -1.0],                         # first entry at the edge: skipped
        [-np.nextafter(edge, 1.0), 4.0, -1.0],      # just above the edge: counted
        [edge, -4.0, 1.0],
        [0.0, -2.0, 3.0],
        [-1.0, -2.0, -3.0],
        [1e-300, -1e-290, 0.0],
    ]
    mat = np.array(columns).T
    rng = np.random.default_rng(9)
    mat = np.hstack([mat, rough(rng, 3, 20)])
    got = fixed(mat)
    for c in range(mat.shape[1]):
        assert np.array_equal(got[:, c], ref_fix_sign(mat[:, c]))
        assert np.array_equal(fixed(mat[:, c]), ref_fix_sign(mat[:, c]))
    assert np.array_equal(got[:, 1], mat[:, 1]) and np.array_equal(got[:, 2], -mat[:, 2])


def test_fix_sign_matches_per_column_on_random_matrices():
    rng = np.random.default_rng(17)
    for rows, cols in ((2, 3), (9, 40), (60, 25)):
        mat = rough(rng, rows, cols)
        # Lead some columns with entries at or below SIGN_TOL * scale, of
        # either sign, so the first counted coordinate lies further down;
        # the column's largest entry moves to the last row and keeps its scale.
        for c in range(0, cols, 3):
            big = int(np.argmax(np.abs(mat[:, c])))
            mat[[big, -1], c] = mat[[-1, big], c]
            scale = abs(mat[-1, c])
            k = int(rng.integers(1, rows))
            planted = SIGN_TOL * scale * rng.uniform(-1.0, 1.0, k)
            planted[0] = SIGN_TOL * scale * rng.choice([-1.0, 1.0])
            mat[:k, c] = planted
        mat[:, 1::7] = 0.0
        mat[rows // 2, cols - 1] = np.nan
        got = fixed(mat)
        for c in range(cols):
            want = ref_fix_sign(mat[:, c])
            assert got[:, c].tobytes() == want.tobytes()
            assert fixed(mat[:, c]).tobytes() == want.tobytes()


def test_eigendecompose_signs_match_per_column():
    g = random_connected_graph(np.random.default_rng(4), 8, 0.9)
    gens = build_stack([(g, 4)])
    gen, basis = gens[0], eigendecompose_stack(gens)[0]
    _, v = np.linalg.eigh(gen.matrix)
    vectors = v * math.sqrt(gen.space.size)
    vectors[:, 0] = 1.0
    for i in range(1, gen.space.size):
        vectors[:, i] = ref_fix_sign(vectors[:, i])
    assert np.array_equal(basis.vectors, vectors)


def ref_fix_sign_stack(vec):
    """fix_sign as an out-of-place product, the form its in-place flip replaced."""
    cols = vec[:, None] if vec.ndim == 1 else vec
    scale = np.maximum(cols.max(axis=-2, initial=0.0), -cols.min(axis=-2, initial=0.0))
    tol = SIGN_TOL * scale[..., None, :]
    first = ((cols > tol) | (cols < -tol)).argmax(axis=-2)
    lead = np.take_along_axis(cols, first[..., None, :], axis=-2)
    return (cols * np.where(lead < -tol, -1.0, 1.0)).reshape(vec.shape)


def planted_stack(rng, members, rows, cols):
    """Random columns, with zero columns, NaN columns and columns led by
    entries exactly at the SIGN_TOL edge or one ulp past it."""
    stack = rough(rng, members, rows, cols)
    stack[:, :, 1::7] = 0.0
    stack[:, rows // 2, 2::9] = np.nan
    for m in range(members):
        for c in range(3, cols, 5):
            big = int(np.argmax(np.abs(stack[m, :, c])))
            stack[m, [big, -1], c] = stack[m, [-1, big], c]
            edge = SIGN_TOL * abs(stack[m, -1, c])
            lead = edge if rng.random() < 0.5 else np.nextafter(edge, np.inf)
            stack[m, 0, c] = lead * rng.choice([-1.0, 1.0])
    return stack


@pytest.mark.parametrize("members,rows,cols", [(1, 2, 1), (3, 9, 8), (4, 45, 44),
                                               (1, 252, 251), (2, 3, 40)])
def test_in_place_sign_fix_matches_fix_sign_on_stacks(members, rows, cols):
    rng = np.random.default_rng(members * 1000 + rows)
    stack = planted_stack(rng, members, rows, cols)
    want = ref_fix_sign_stack(stack)
    got = fixed(stack)
    assert got.tobytes() == want.tobytes()
    for m in range(members):
        for c in range(cols):
            assert got[m, :, c].tobytes() == ref_fix_sign(stack[m, :, c]).tobytes()


def planted_leads(rng, size, leads):
    """(size, len(leads) + 2) columns: column c leads at row leads[c], with every
    earlier coordinate at most SIGN_TOL times the column's largest (exactly at it,
    of either sign, or zero); then an all-zero column and a column holding NaN."""
    cols = rough(rng, size, len(leads) + 2)
    for c, row in enumerate(leads):
        scale = float(np.max(np.abs(cols[:, c]))) * 2.0
        cols[-1, c] = scale * rng.choice([-1.0, 1.0])   # the column's largest entry
        edge = SIGN_TOL * scale
        cols[:row, c] = rng.choice([-edge, 0.0, edge], size=row)
        if row < size - 1:
            cols[row, c] = rng.choice([-1.0, 1.0]) * rng.choice([np.nextafter(edge, 1.0), 0.5])
    cols[:, -2] = 0.0
    cols[size // 2, -1] = np.nan
    return cols


@pytest.mark.parametrize("size", [111, 140])
def test_fix_sign_equals_a_scalar_reference_with_deep_leads(size):
    rng = np.random.default_rng(size)
    leads = [0, 1, 110, size - 1] * 3
    cols = planted_leads(rng, size, leads)
    want = np.stack([scalar_fix_sign(cols[:, c]) for c in range(cols.shape[1])], axis=1)
    for c, row in enumerate(leads):   # each lead is where it was planted
        scale = np.max(np.abs(cols[:, c]))
        assert np.flatnonzero(np.abs(cols[:, c]) > SIGN_TOL * scale)[0] == row
    flipped = [want[-1, c] != cols[-1, c] for c in range(len(leads))]
    assert 0 < sum(flipped) < len(leads)
    assert np.isnan(want[size // 2, -1]) and np.array_equal(want[:, -2], cols[:, -2])
    assert fixed(cols).tobytes() == want.tobytes()
    for c in range(cols.shape[1]):
        assert fixed(cols[:, c]).tobytes() == want[:, c].tobytes()
    # a stack of three members, each with its own column order
    orders = [rng.permutation(cols.shape[1]) for _ in range(3)]
    stack = np.stack([cols[:, order] for order in orders])
    assert fixed(stack).tobytes() == np.stack([want[:, order] for order in orders]).tobytes()
    # the sign-fix's own input in eigendecompose_stack: a strided view of the columns
    wide = np.hstack([np.ones((size, 1)), cols])
    fix_sign(wide[:, 1:])
    assert wide[:, 1:].tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_dirichlet_form_equals_the_edge_loop(seed):
    rng = np.random.default_rng(seed)
    n = 5 + seed
    g = Graph(n, tuple((u, v, float(rng.uniform(0.1, 2.0)))
                       for u, v, _ in random_connected_graph(rng, n, 1.0).edges))
    for level in range(n + 1):
        gen = build_level_generator(g, level)
        f = rng.standard_normal(gen.space.size)
        assert dirichlet_form(gen, f) == ref_dirichlet_form(gen, f)


def test_eigendecompose_stack_signs_match_fix_sign():
    rng = np.random.default_rng(12)
    graphs = [make_complete(6, 1.0), make_cycle(6, 0.5),
              *(random_connected_graph(rng, 6, 0.7) for _ in range(2))]
    gens = build_stack([(g, 3) for g in graphs])
    _, v = np.linalg.eigh(np.stack([gen.matrix for gen in gens]))
    v *= math.sqrt(gens[0].space.size)
    v[:, :, 0] = 1.0
    want = v.copy()
    fix_sign(want[:, :, 1:])
    for basis, vectors in zip(spectral.eigendecompose_stack(gens), want):
        assert basis.vectors.tobytes() == vectors.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (9, 1), (252, 252), (3, 40), (495, 200),
                                   (70, 13)])
def test_column_dots_match_a_dot_per_column_copy(shape):
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    x = rough(rng, *shape)
    want = np.array([float(c @ c) for c in map(np.copy, x.T)])
    assert spectral.column_dots(x).tobytes() == want.tobytes()
    # A strided view and a Fortran-ordered copy give the same bits.
    wide = rough(rng, shape[0], 2 * shape[1])
    wide[:, ::2] = x
    assert spectral.column_dots(wide[:, ::2]).tobytes() == want.tobytes()
    assert spectral.column_dots(np.asfortranarray(x)).tobytes() == want.tobytes()


def test_group_eigenvalues_matches_reference_on_random_spectra():
    rng = np.random.default_rng(21)
    for size in (0, 1, 2, 7, 200):
        w = np.sort(rng.uniform(-1e-9, 50.0, size))
        # Repeat some values exactly and nudge others just inside the tolerance.
        w[1::3] = w[0:-1:3][: len(w[1::3])]
        w[2::5] += GROUP_RTOL * 0.5 * np.maximum(1.0, w[2::5])
        w = np.sort(w)
        assert group_eigenvalues(w) == ref_group_eigenvalues(w)
    spectrum = np.array([0.0, 4.0, 4.0, 4.0, 6.0, 6.0])
    assert group_eigenvalues(spectrum) == [[0], [1, 2, 3], [4, 5]]
    assert group_eigenvalues(spectrum) == ref_group_eigenvalues(spectrum)


@pytest.mark.parametrize("lam", [0.25, 1.0, 5.0, 1234.5])
def test_group_eigenvalues_at_the_tolerance_edge(lam):
    tol = GROUP_RTOL * max(1.0, lam)
    # The lowest predecessor still within tolerance, found one ulp at a time.
    prev = lam - tol
    while lam - prev > tol:
        prev = np.nextafter(prev, np.inf)
    while lam - np.nextafter(prev, -np.inf) <= tol:
        prev = np.nextafter(prev, -np.inf)
    for before, groups in ((prev, 1), (np.nextafter(prev, -np.inf), 2)):
        w = np.array([before, lam])
        assert group_eigenvalues(w) == ref_group_eigenvalues(w)
        assert len(group_eigenvalues(w)) == groups


@pytest.mark.parametrize("lam", [0.5, 4.0])
def test_group_eigenvalues_joins_a_gap_equal_to_the_tolerance(monkeypatch, lam):
    # A power-of-two rtol makes the gap exactly rtol * max(1, lam).
    rtol = 2.0**-20
    monkeypatch.setattr(spectral, "GROUP_RTOL", rtol)
    prev = lam - rtol * max(1.0, lam)
    assert lam - prev == rtol * max(1.0, lam)
    for before, groups in ((prev, 1), (np.nextafter(prev, -np.inf), 2)):
        w = np.array([before, lam])
        assert group_eigenvalues(w) == ref_group_eigenvalues(w, rtol)
        assert len(group_eigenvalues(w)) == groups


def unequal_rate_graph(rng, n):
    g = random_connected_graph(rng, n, 1.0)
    return Graph(n, tuple((u, v, float(rng.uniform(0.25, 2.0))) for u, v, _ in g.edges))


@pytest.mark.parametrize("name", ["K_12", "C_12", "random_12"])
def test_pooled_masses_match_reference_bit_for_bit(name):
    g = {"K_12": lambda: make_complete(12, 1.0 / 12), "C_12": lambda: make_cycle(12, 0.5),
         "random_12": lambda: unequal_rate_graph(np.random.default_rng(12), 12)}[name]()
    bases = solve_alone(g)
    for f in (majority(12), dictator(12, 0), parity_on_set(12, [0, 2, 5])):
        profile = bases_profile(f, bases)
        assert mass_by_eigenvalue(profile) == ref_mass_by_eigenvalue(profile)


# ---------------------------------------------------------------------------
# ranks and the slice cache
# ---------------------------------------------------------------------------

def test_rank_round_trips():
    space = enumerate_level(9, 4)
    assert np.array_equal(space.rank(space.words), np.arange(space.size))
    assert space.rank(int(space.words[17])) == 17
    grid = space.words[[[3, 1], [0, 5]]]
    assert space.rank(grid).tolist() == [[3, 1], [0, 5]]


@pytest.mark.parametrize("bad", [0b0111, 1 << 6, -3])
def test_rank_rejects_words_outside_the_slice(bad):
    space = enumerate_level(6, 2)     # 0b0111 has popcount 3; 64 >= 2^6
    with pytest.raises(ValueError, match=f"word {bad} "):
        space.rank(bad)
    with pytest.raises(ValueError, match=f"word {bad} "):
        space.rank(np.array([3, bad, 5]))


def test_cached_arrays_are_read_only():
    space = enumerate_level(7, 3)
    assert enumerate_level(7, 3) is space
    with pytest.raises(ValueError):
        space.words[0] = 99
    assert space.swaps is enumerate_level(7, 3).swaps
    assert space.additions.shape == (space.size, 4)
    assert enumerate_level(7, 4).additions.shape == (space.size, 3)
    for table in (space.additions, enumerate_level(7, 4).additions, space.swaps,
                  vertex_masks(7)):
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0
    assert vertex_masks(7) is vertex_masks(7)


@pytest.mark.parametrize("n,level", [(n, level) for n in range(2, 9) for level in range(n + 1)])
def test_swap_table_rows_are_the_swap_involutions(n, level):
    space = enumerate_level(n, level)
    table = space.swaps
    assert table.dtype == np.int32 and table.shape == (math.comb(n, 2), space.size)
    # A swap fixes a state iff u and v carry the same colour: both white
    # (choose the l black marbles among the other n - 2) or both black.
    fixed = math.comb(n - 2, level) + (math.comb(n - 2, level - 2) if level >= 2 else 0)
    ident = np.arange(space.size)
    for row, (u, v) in enumerate(zip(*np.triu_indices(n, 1))):
        assert pair_row(n, u, v) == row
        bu, bv = 1 << bit_position(n, u), 1 << bit_position(n, v)
        perm = table[row]
        assert np.array_equal(perm, space.rank(swap_words(space.words, bu, bv)))
        assert np.array_equal(perm[perm], ident)
        assert np.count_nonzero(perm == ident) == fixed


def test_cached_slice_still_respects_the_cap(monkeypatch):
    space = enumerate_level(12, 6)
    source = enumerate_level(12, 5)
    lift_up(source, np.ones(source.size))           # caches level 12 - 5 - 1's additions
    additions, swaps = space.additions, space.swaps
    built = _level_slice.cache_info().currsize
    monkeypatch.setenv("XPROC_STATE_CAP", "100")
    for _ in range(2):
        with pytest.raises(StateCapExceeded):
            enumerate_level(12, 6)
        with pytest.raises(StateCapExceeded):
            lift_up(source, np.ones(source.size))
        with pytest.raises(StateCapExceeded):
            enumerate_level(12, 6).swaps
        with pytest.raises(StateCapExceeded):
            enumerate_level(17, 3).swaps            # 680 states, never built
    assert _level_slice.cache_info().currsize == built
    monkeypatch.setenv("XPROC_STATE_CAP", "1000")
    assert enumerate_level(12, 6) is space
    assert space.additions is additions and space.swaps is swaps


def test_a_lift_over_the_cap_names_its_target_slice(monkeypatch):
    # lift_up reads the additions of level n - level - 1, a slice of the
    # target's size; the error still names the target, C(9, 3)
    source = enumerate_level(9, 2)                  # 36 states
    monkeypatch.setenv("XPROC_STATE_CAP", "50")
    with pytest.raises(StateCapExceeded, match=r"level slice C\(9,3\) has 84 states"):
        lift_up(source, np.ones(source.size))


@pytest.mark.parametrize("raw", ["-5", "0", "abc", "1.5", " "])
def test_state_cap_rejects_nonsense(monkeypatch, raw):
    monkeypatch.setenv("XPROC_STATE_CAP", raw)
    with pytest.raises(ValueError, match="XPROC_STATE_CAP"):
        state_cap()


def test_state_cap_reads_positive_integers(monkeypatch):
    monkeypatch.setenv("XPROC_STATE_CAP", "1")
    assert state_cap() == 1
    monkeypatch.delenv("XPROC_STATE_CAP")
    assert state_cap() == 20000

