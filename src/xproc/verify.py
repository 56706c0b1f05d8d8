"""Self-verification suite: every structural invariant as a counted check.

Each check runs a deterministic batch of instances (sized by nmax, driven
by a seeded generator where randomized) and reports how many violated its
tolerance, the worst residual seen, and which instance produced it. The
CLI `verify` subcommand serializes these results and exits nonzero on any
violation.
"""

import math
from collections import Counter
from functools import partial

import numpy as np

from . import diagnostics, dynamics, fourier, oracle, spectral
from .generator import build_stack, dirichlet_form
from .graph import (
    Graph, make_complete, make_cycle, make_half_complete_cycle, max_degree,
    with_rate,
)

# Fewest samples at which check_monte_carlo's 3-standard-error test means
# something: below it a sample with no spread, and so a zero standard error,
# is too likely.
MIN_MC_SAMPLES = 100
# check_monte_carlo seeds its three instances with seed, seed + 1 and seed + 2.
MAX_SEED = dynamics.SEED_MAX - 2

EXTRA_EDGE_PROB = 0.35  # random_connected_graph: chance of each non-tree edge
KEEP_PROB = 0.5         # random_connected_subgraph: chance of keeping each non-tree edge


class BasisTable:
    """The solve plan of one suite run, and the store of its bases.

    Starts empty. plan and levels add one planned read per (Graph, level)
    pair when called, and return the reads: Graph is a frozen dataclass, so a
    graph built at two call sites with equal rates is one key. A read solves
    its pairs not held, in one spectral.solve_stacks call; if one of them
    shares a stack with others (shares_a_stack), the call also takes every
    planned pair not held that shares one. So the first read of a small level
    solves the run's batch, a larger level is solved by its first read, and
    each pair is solved once. A basis is held while the plan has reads of it
    left and dropped by its last read, after which the reader's reference is
    the only one. Held arrays are read-only, so no check can change a basis
    another check reads. A solve is deterministic for identical input,
    stacked or not, so the plan changes no report.
    """

    def __init__(self):
        self._reads = Counter()   # reads left, per pair
        self._bases: dict[tuple[Graph, int], spectral.SpectralBasis] = {}

    def plan(self, groups):
        """Plan one read of each group of (graph, level) pairs.

        Returns an iterator that yields, per group in order, the bases of its
        pairs; the group's pairs not held are solved as it is read, in one
        solve_stacks call.
        """
        groups = [list(group) for group in groups]
        self._reads.update(pair for group in groups for pair in group)
        return map(self._read, groups)

    def levels(self, graphs):
        """plan of each graph's levels 0..n, one group per graph."""
        return self.plan([(g, level) for level in range(g.n + 1)] for g in graphs)

    def _read(self, pairs) -> list[spectral.SpectralBasis]:
        missing = [pair for pair in dict.fromkeys(pairs) if pair not in self._bases]
        if any(shares_a_stack(*pair) for pair in missing):
            batch = [pair for pair in self._reads
                     if pair not in self._bases and shares_a_stack(*pair)]
            missing = list(dict.fromkeys([*missing, *batch]))
        for pair, basis in zip(missing, spectral.solve_stacks(missing, lambda _, basis: basis)):
            basis.eigenvalues.flags.writeable = False
            basis.vectors.flags.writeable = False
            self._bases[pair] = basis
        found = [self._bases[pair] for pair in pairs]
        for pair in pairs:
            self._reads[pair] -= 1
            if not self._reads[pair]:
                del self._reads[pair], self._bases[pair]
        return found


def shares_a_stack(g: Graph, level: int) -> bool:
    """Whether spectral.solve_stacks stacks more than one level of this one's size:
    8 * size**2 <= STACK_BYTES / 2, at most 128 states."""
    return spectral.stack_members(math.comb(g.n, level)) > 1


# ---------------------------------------------------------------------------
# randomized instance generators (shared with the test suite)
# ---------------------------------------------------------------------------

def random_connected_graph(rng: np.random.Generator, n: int, rate: float) -> Graph:
    """Random spanning tree plus independent extra edges; always connected."""
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = rate
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < EXTRA_EDGE_PROB:
                edges[(u, v)] = rate
    return Graph(n, tuple((u, v, r) for (u, v), r in sorted(edges.items())))


def random_connected_subgraph(rng: np.random.Generator, g: Graph) -> Graph:
    """Connected equal-rate subgraph: a spanning tree of g plus kept extras."""
    order = list(range(len(g.edges)))
    rng.shuffle(order)
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree = set()
    for k in order:
        u, v, _ = g.edges[k]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.add(k)
    kept = [
        g.edges[k]
        for k in range(len(g.edges))
        if k in tree or rng.random() < KEEP_PROB
    ]
    return Graph(g.n, tuple(kept))


def random_boolean_function(rng: np.random.Generator, n: int) -> fourier.BooleanFunction:
    values = rng.integers(0, 2, size=1 << n).astype(float)
    return fourier.BooleanFunction(n, values)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _record(name: str, rows: list[tuple[float, float, str]]) -> dict:
    """check_record of one check's (residual, tolerance, instance label) rows."""
    residuals, tols, labels = zip(*rows) if rows else ((), (), ())
    return diagnostics.check_record(name, residuals, tols, labels)


def draw_generator_invariants(nmax: int, rng: np.random.Generator):
    """check_generator_invariants on the named graphs of the matrix checks and the
    Dirichlet-monotonicity draws: (n, graph, connected subgraph, level, function) each."""
    named = []
    for n in range(3, min(nmax, 8) + 1):
        named += [(f"K_{n}", make_complete(n, 1.0)), (f"C_{n}", make_cycle(n, 0.5)),
                  (f"random_{n}", random_connected_graph(rng, n, float(rng.uniform(0.2, 1.5))))]
    if nmax >= 6:
        named.append(("half_complete_cycle_3", make_half_complete_cycle(3, 0.25)))
    draws = []
    for _ in range(10):
        n = int(rng.integers(4, min(nmax, 6) + 1))
        g = random_connected_graph(rng, n, 1.0)
        sub = random_connected_subgraph(rng, g)
        level = int(rng.integers(1, n))
        draws.append((n, g, sub, level, rng.standard_normal(math.comb(n, level))))
    return partial(check_generator_invariants, nmax, named, draws)


def level_groups(named) -> list[list[tuple[Graph, int]]]:
    """The (graph, level) pairs of the (name, graph) pairs, one group per (n, level)."""
    on_n: dict[int, list[Graph]] = {}
    for _, g in named:
        on_n.setdefault(g.n, []).append(g)
    return [[(g, level) for g in graphs] for n, graphs in on_n.items() for level in range(n + 1)]


def check_generator_invariants(nmax: int, named, draws) -> dict:
    """Row sums, symmetry, sign pattern, kernel, complete-graph diagonal,
    and edge-monotonicity of the quadratic form."""
    defects = {}
    for group in level_groups(named):
        for pair, gen in zip(group, build_stack(group)):
            m = gen.matrix
            scale = max(1.0, float(np.max(np.abs(m))))
            off = m - np.diag(np.diag(m))
            res = float(np.max([
                np.max(np.abs(m - m.T)),
                np.max(np.abs(m.sum(axis=1))),
                off.max(initial=0.0),          # off-diagonal must be <= 0
                -np.diag(m).min(initial=0.0),  # diagonal must be >= 0
                np.max(np.abs(m @ np.ones(gen.space.size))),
            ]))
            defects[pair] = res / scale
    rows = [(defects[g, level], 1e-12, f"{name} level {level}")
            for name, g in named for level in range(g.n + 1)]
    # complete-graph diagonal is level * (n - level) * rate everywhere
    for n in range(2, min(nmax, 8) + 1):
        rate = 0.75
        g = make_complete(n, rate)
        for level in range(n + 1):
            [gen] = build_stack([(g, level)])
            expected = level * (n - level) * rate
            res = float(np.max(np.abs(np.diag(gen.matrix) - expected)))
            rows.append((res, 1e-12 * max(1.0, expected), f"K_{n} diagonal level {level}"))
    # removing edges can only decrease the quadratic form
    for i, (n, g, sub, level, f) in enumerate(draws):
        gen, gen_sub = build_stack([(g, level), (sub, level)])
        gap = dirichlet_form(gen_sub, f) - dirichlet_form(gen, f)
        rows.append((gap, 1e-10 * max(1.0, abs(dirichlet_form(gen, f))),
                     f"dirichlet monotonicity draw {i} (n={n})"))
    return _record("generator_invariants", rows)


def basis_defect(gen, basis) -> float:
    """Worst of eigen-residual, orthonormality error, and kernel conventions."""
    m = gen.matrix
    size = basis.size
    norm2 = float(basis.eigenvalues[-1]) if size else 0.0
    res = m @ basis.vectors - basis.vectors * basis.eigenvalues
    eig_err = float(np.max(np.linalg.norm(res, axis=0))) / max(norm2, 1e-300)
    gram = basis.vectors.T @ basis.vectors / size - np.eye(size)
    ortho_err = float(np.max(np.abs(gram)))
    kernel_err = 0.0 if (basis.eigenvalues[0] == 0.0 and
                         np.all(basis.vectors[:, 0] == 1.0)) else 1.0
    return float(np.max([eig_err if norm2 > 0 else 0.0, ortho_err, kernel_err]))


def draw_eigensolver(nmax: int, rng: np.random.Generator, table: BasisTable):
    """check_eigensolver on every level of the named graphs, one read per (n, level)."""
    named = [(f"{name}_{n}", g) for n in range(3, min(nmax, 8) + 1)
             for name, g in (("K", make_complete(n, 1.0)), ("C", make_cycle(n, 0.5)),
                             ("random", random_connected_graph(rng, n, 1.0)))]
    groups = level_groups(named)
    return partial(check_eigensolver, named, groups, table.plan(groups))


def check_eigensolver(named, groups, reads) -> dict:
    """Each basis against its generator, built again apart from its solve:
    one build_stack per group of level_groups(named)."""
    defects = {}
    for group, bases in zip(groups, reads, strict=True):
        for pair, gen, basis in zip(group, build_stack(group), bases, strict=True):
            defects[pair] = basis_defect(gen, basis)
    rows = [(defects[g, level], 1e-10, f"{name} level {level}")
            for name, g in named for level in range(g.n + 1)]
    return _record("eigensolver_residuals", rows)


def lift_length_error(n: int, level: int, alpha: float, lam: np.ndarray,
                      down: np.ndarray | None, up: np.ndarray) -> float:
    """Worst relative error of the closed-form lift lengths of one K_n level.

    lam are the level's eigenvalues, down and up its eigenvectors lifted one
    level down (None at level 0) and one level up.
    """
    lifts = [(up, (level + 1) / (alpha * (n - level))
              * (alpha * (level + 1) * (n - level) - lam))]
    if down is not None:
        lifts.append((down, (n - level + 1) / (alpha * level)
                      * (alpha * level * (n - level + 1) - lam)))
    errs = [np.max(np.abs(spectral.column_dots(lifted) / lifted.shape[0] - want)
                   / np.maximum(1.0, np.abs(want))) for lifted, want in lifts]
    return float(np.max(errs))


def complete_graph_cases(nmax: int, table: BasisTable):
    """check_complete_graphs on (n, alpha, K_n at rate alpha, level): n = 2..nmax,
    rates 1 and 1/n, levels 0..n/2, each level read alone."""
    graphs = [(n, alpha, make_complete(n, alpha))
              for n in range(2, nmax + 1) for alpha in (1.0, 1.0 / n)]
    cases = [(n, alpha, g, level) for n, alpha, g in graphs for level in range(n // 2 + 1)]
    return partial(check_complete_graphs, cases,
                   table.plan([(g, level)] for _, _, g, level in cases))


def check_complete_graphs(cases, reads) -> list[dict]:
    """The closed forms of K_n on the complete_graph_cases.

    One pass reads each basis, one at a time, and lifts it once in each
    direction, for three records: the spectrum against
    complete_graph_eigenvalue_table, the lift lengths, and, at rate 1 for
    n >= 3 and level >= 1, the orthogonality of the lifted eigenvectors.
    """
    spectrum, lengths, orthogonality = [], [], []
    for (n, alpha, g, level), [basis] in zip(cases, reads, strict=True):
        label = f"K_{n} alpha={alpha:g} level {level}"
        lam, mult = zip(*spectral.complete_graph_eigenvalue_table(n, level, alpha))
        expected = np.sort(np.repeat(lam, mult))
        err = np.max(np.abs(np.sort(basis.eigenvalues) - expected) / np.maximum(1.0, expected))
        spectrum.append((float(err), 1e-8, label))
        down = spectral.lift_down(basis.space, basis.vectors) if level >= 1 else None
        up = spectral.lift_up(basis.space, basis.vectors)
        lengths.append((lift_length_error(n, level, alpha, basis.eigenvalues, down, up),
                        1e-8, label))
        if alpha == 1.0 and n >= 3 and level >= 1:
            for tag, mat in (("down", down), ("up", up)):
                gram = mat.T @ mat / mat.shape[0]
                off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
                orthogonality.append((off, 1e-10 * max(1.0, float(np.max(np.abs(gram)))),
                                      f"K_{n} level {level} {tag}"))
    return [_record("complete_graph_multiplicities", spectrum),
            _record("lift_length_formulas", lengths),
            _record("lift_orthogonality", orthogonality)]


def draw_eigenvalue_bound(nmax: int, rng: np.random.Generator, table: BasisTable):
    draws = []
    for _ in range(30):
        n = int(rng.integers(3, min(nmax, 8) + 1))
        rate = float(rng.uniform(0.1, 1.5))
        draws.append((n, rate, random_connected_graph(rng, n, rate)))
    return partial(check_eigenvalue_bound, draws, table.levels(g for _, _, g in draws))


def check_eigenvalue_bound(draws, levels) -> dict:
    rows = []
    for i, ((n, rate, g), bases) in enumerate(zip(draws, levels, strict=True)):
        d = max_degree(g)
        for level, basis in enumerate(bases):
            bound = 2.0 * rate * level * d
            gap = float(basis.eigenvalues[-1]) - bound
            rows.append((gap, 1e-9 * max(1.0, bound), f"draw {i} (n={n}) level {level}"))
    return _record("eigenvalue_upper_bound", rows)


def draw_parseval(nmax: int, rng: np.random.Generator, table: BasisTable):
    draws = []
    for _ in range(12):
        n = int(rng.integers(3, min(nmax, 7) + 1))
        g = random_connected_graph(rng, n, float(rng.uniform(0.3, 1.2)))
        draws.append((n, g, random_boolean_function(rng, n)))
    return partial(check_parseval, draws, table.levels(g for _, g, _ in draws))


def check_parseval(draws, levels) -> dict:
    rows = []
    for i, ((n, g, f), bases) in enumerate(zip(draws, levels, strict=True)):
        profile = fourier.bases_profile(f, bases)
        direct = float(np.mean(f.values**2))
        cond = 0.0
        for basis in bases:
            cond += basis.size / 2.0**n * float(f.values[basis.space.words].mean()) ** 2
        err = float(np.max(np.abs([profile.total_mass - direct,
                                   profile.zero_mass() - cond,
                                   fourier.exact_correlation(profile, 0.0) - direct])))
        rows.append((err, 1e-10, f"draw {i} (n={n})"))
    return _record("parseval", rows)


def draw_oracle_equivalence(rng: np.random.Generator, table: BasisTable):
    draws = []
    for _ in range(15):
        n = int(rng.integers(3, 7))
        g = random_connected_graph(rng, n, float(rng.uniform(0.3, 1.2)))
        f = random_boolean_function(rng, n)
        draws.append((n, g, f, float(rng.uniform(0.0, 2.0))))
    return partial(check_oracle_equivalence, draws, table.levels(g for _, g, _, _ in draws))


def check_oracle_equivalence(draws, levels) -> dict:
    rows = []
    for i, ((n, g, f, t), bases) in enumerate(zip(draws, levels, strict=True)):
        profile = fourier.bases_profile(f, bases)
        err = abs(fourier.exact_correlation(profile, t)
                  - oracle.brute_force_correlation(g, f, t))
        rows.append((err, 1e-8, f"draw {i} (n={n}, t={t:.3f})"))
    return _record("oracle_equivalence", rows)


def draw_containment(nmax: int, rng: np.random.Generator, table: BasisTable):
    """check_containment per n in 6, 8, 10, 12 up to nmax: K_n at rate 1/n and the
    named other graphs, each at rate 1 / its max degree."""
    cases = []
    for n in range(6, min(nmax, 12) + 1, 2):
        others = [("cycle", make_cycle(n, 1.0)),
                  ("half_complete_cycle", make_half_complete_cycle(n // 2, 1.0)),
                  ("random", random_connected_graph(rng, n, 1.0))]
        cases.append((n, make_complete(n, 1.0 / n),
                      [(name, with_rate(raw, 1.0 / max_degree(raw))) for name, raw in others]))
    return partial(check_containment, cases, [
        (table.levels([complete]), table.levels(other for _, other in others))
        for _, complete, others in cases])


def check_containment(cases, reads) -> dict:
    rows = []
    for (n, complete, others), ([bases_c], other_levels) in zip(cases, reads, strict=True):
        # One other graph at a time: all nine at once would hold their
        # bases together, 1.5 MB per graph at n = 10.
        for (name, other), bases_o in zip(others, other_levels, strict=True):
            for k in (0.5, 1.0, 2.0, n / 4.0):
                residuals = diagnostics.containment_residual(complete, other, k, 2.0 * k,
                                                             bases_c, bases_o)
                for level, res in enumerate(residuals):
                    rows.append((res, diagnostics.CONTAINMENT_TOL,
                                 f"{name} n={n} k={k:g} level {level}"))
    return _record("containment_residual", rows)


def draw_projection_mass(nmax: int, rng: np.random.Generator, table: BasisTable):
    draws = []
    for _ in range(25):
        n = int(rng.integers(4, min(nmax, 8) + 1))
        raw = random_connected_graph(rng, n, 1.0)
        other = with_rate(raw, 1.0 / max_degree(raw))
        f = random_boolean_function(rng, n)
        draws.append((n, make_complete(n, 1.0 / n), other, f, float(rng.uniform(0.05, n / 4.0))))
    return partial(check_projection_mass, draws,
                   table.levels(complete for _, complete, *_ in draws),
                   table.levels(other for _, _, other, *_ in draws))


def check_projection_mass(draws, complete_levels, other_levels) -> dict:
    rows = []
    for i, ((n, complete, other, f, k), bases_c, bases_o) in enumerate(
            zip(draws, complete_levels, other_levels, strict=True)):
        lhs, rhs = diagnostics.projection_mass_inequality(
            complete, other, k, fourier.bases_profile(f, bases_c),
            fourier.bases_profile(f, bases_o),
        )
        rows.append((rhs - lhs, diagnostics.PROJECTION_MASS_TOL,
                     f"draw {i} (n={n}, k={k:.3f})"))
    return _record("projection_mass_inequality", rows)


def draw_monotonicity(rng: np.random.Generator, table: BasisTable):
    """check_monotonicity on the random draws and the example chains of graphs on
    4 and 6 vertices."""
    draws = []
    for _ in range(25):
        n = int(rng.integers(5, 7))
        g = random_connected_graph(rng, n, float(rng.uniform(0.3, 1.2)))
        sub = random_connected_subgraph(rng, g)
        f = random_boolean_function(rng, n)
        lam_max = 2.0 * max(r for _, _, r in g.edges) * n * max_degree(g)
        k = float(rng.uniform(1e-3, 2.0 * lam_max))
        draws.append((n, g, sub, f, k, float(rng.uniform(1e-3, 2.0 * lam_max))))
    chains = [(("cycle", make_cycle(2 * half, 0.5)),
               ("half_complete_cycle", make_half_complete_cycle(half, 0.5)),
               ("complete", make_complete(2 * half, 0.5))) for half in (2, 3)]
    return partial(check_monotonicity, draws, chains,
                   table.levels(g for _, g, *_ in draws),
                   table.levels(sub for _, _, sub, *_ in draws),
                   [table.levels(g for _, g in chain) for chain in chains])


def check_monotonicity(draws, chains, levels, sub_levels, chain_levels) -> dict:
    rows = []
    for i, ((n, g, sub, f, k, kprime), bases, bases_sub) in enumerate(
            zip(draws, levels, sub_levels, strict=True)):
        lhs, rhs = diagnostics.monotonicity_inequality_check(
            g, sub, k, kprime, fourier.bases_profile(f, bases),
            fourier.bases_profile(f, bases_sub),
        )
        rows.append((lhs - rhs, diagnostics.MONOTONICITY_TOL,
                     f"draw {i} (n={n}, k={k:.3f}, k'={kprime:.3f})"))
    # the example chains: spectra grow pointwise under edge addition
    for chain, reads in zip(chains, chain_levels, strict=True):
        bases = list(reads)
        for i, ((sname, small), (bname, big)) in enumerate(zip(chain, chain[1:])):
            gap = float(np.max(
                diagnostics.spectra_domination_gap(small, big, bases[i], bases[i + 1])))
            rows.append((gap, diagnostics.DOMINATION_TOL,
                         f"{sname} vs {bname} on {small.n} vertices"))
    return _record("monotonicity_inequality", rows)


def monte_carlo_cases(seed: int, samples: int, table: BasisTable):
    """check_monte_carlo on (label, graph, function, "cov" or "flip", horizon)."""
    cases = [
        ("K_4 dictator cov t=1", make_complete(4, 0.25), fourier.dictator(4, 0), "cov", 1.0),
        ("C_6 parity flip eps=0.3", make_cycle(6, 0.5),
         fourier.parity_on_set(6, [0, 2, 4]), "flip", 0.3),
        ("half_complete_cycle_3 dictator cov t=0.5", make_half_complete_cycle(3, 0.25),
         fourier.dictator(6, 1), "cov", 0.5),
    ]
    return partial(check_monte_carlo, cases, seed, samples, table.levels(g for _, g, *_ in cases))


def check_monte_carlo(cases, seed: int, samples: int, levels) -> dict:
    """Estimates agree with the exact formulas within 3 standard errors."""
    rows = []
    for idx, ((label, g, f, kind, t), bases) in enumerate(zip(cases, levels, strict=True)):
        profile = fourier.bases_profile(f, bases)
        spec = dynamics.SimulationSpec(seed=seed + idx, samples=samples)
        if kind == "cov":
            est = dynamics.estimate_covariance(g, f, t, spec)
            exact = fourier.exact_covariance(profile, t)
        else:
            est = dynamics.estimate_flip_probability(g, f, t, spec)
            exact = fourier.exact_flip_probability(profile, t)
        dev = abs(est.point - exact) / max(est.std_error, 1e-12)
        rows.append((dev, 3.0, label))
    return _record("monte_carlo_agreement", rows)


def run_suite(*, nmax: int, seed: int, mc_samples: int) -> dict:
    """Run every check; the report is JSON-ready and fully deterministic.

    Every check is drawn first, with the random calls of the checks in run
    order; each draw plans its reads in one BasisTable. Then the checks run
    in report order: the run's first read, check_eigensolver's, solves the
    planned levels that share a stack, and the larger levels are solved when
    read.
    """
    rng = np.random.default_rng(seed)
    table = BasisTable()
    invariants, eigensolver, complete, *others = [
        draw_generator_invariants(nmax, rng),
        draw_eigensolver(nmax, rng, table),
        complete_graph_cases(nmax, table),
        draw_eigenvalue_bound(nmax, rng, table),
        draw_parseval(nmax, rng, table),
        draw_oracle_equivalence(rng, table),
        draw_containment(nmax, rng, table),
        draw_projection_mass(nmax, rng, table),
        draw_monotonicity(rng, table),
        monte_carlo_cases(seed, mc_samples, table),
    ]
    checks = [invariants(), eigensolver(), *complete(), *(check() for check in others)]
    return {
        "suite": "all",
        "nmax": nmax,
        "seed": seed,
        "checks": checks,
        "violations": sum(c["violations"] for c in checks),
    }
