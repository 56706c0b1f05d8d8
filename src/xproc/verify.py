"""Self-verification suite: every structural invariant as a counted check.

Each check runs a deterministic batch of instances (sized by nmax, driven
by a seeded generator where randomized) and reports how many violated its
tolerance, the worst residual seen, and which instance produced it. The
CLI `verify` subcommand serializes these results and exits nonzero on any
violation.
"""

import numpy as np

from . import diagnostics, dynamics, fourier, oracle, spectral
from .generator import build_level_generators, dirichlet_form
from .graph import (
    Graph, is_complete, make_complete, make_cycle, make_half_complete_cycle, max_degree,
    with_rate,
)
from .statespace import enumerate_level

# Fewest samples at which check_monte_carlo's 3-standard-error test means
# something: below it a sample with no spread, and so a zero standard error,
# is too likely.
MIN_MC_SAMPLES = 100
# check_monte_carlo seeds its three instances with seed, seed + 1 and seed + 2.
MAX_SEED = dynamics.SEED_MAX - 2

EXTRA_EDGE_PROB = 0.35  # random_connected_graph: chance of each non-tree edge
KEEP_PROB = 0.5         # random_connected_subgraph: chance of keeping each non-tree edge


class BasisTable:
    """Complete-graph eigenbases of one suite run, each solved once.

    Keyed by (Graph, level): Graph is a frozen dataclass, so a complete
    graph built at two call sites with equal rates is one key. Only
    complete graphs are held; any other graph is solved on every call, since
    holding every basis of a run would cost three times the memory for
    little more speed. Held arrays are read-only, so no check can change a
    basis another check reads. A solve is deterministic for identical input,
    stacked or not, so reusing a basis changes no report. Every check reads
    its bases here but check_eigensolver, which solves its own to keep each
    basis's generator and then holds them.
    """

    def __init__(self):
        self._bases: dict[tuple[Graph, int], spectral.SpectralBasis] = {}

    def hold(self, g: Graph, level: int, basis: spectral.SpectralBasis) -> None:
        """Keep a complete graph's basis, read-only; any other graph's is not kept."""
        if is_complete(g) and (g, level) not in self._bases:
            basis.eigenvalues.flags.writeable = False
            basis.vectors.flags.writeable = False
            self._bases[(g, level)] = basis

    def bases(self, pairs) -> list[spectral.SpectralBasis]:
        """The bases of the (graph, level) pairs, in order.

        Each distinct pair not held is solved once, all of them in one batch
        of stacks (spectral.solve_stacks).
        """
        pairs = list(pairs)
        found = {pair: self._bases[pair] for pair in pairs if pair in self._bases}
        missing = [pair for pair in dict.fromkeys(pairs) if pair not in found]
        for i, _, basis in spectral.solve_stacks(missing):
            self.hold(*missing[i], basis)
            found[missing[i]] = basis
        return [found[pair] for pair in pairs]

    def levels(self, graphs) -> list[list[spectral.SpectralBasis]]:
        """Per graph, its bases of levels 0..n, as one call to bases."""
        bases = iter(self.bases([(g, level) for g in graphs for level in range(g.n + 1)]))
        return [[next(bases) for _ in range(g.n + 1)] for g in graphs]


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


def check_generator_invariants(nmax: int, rng: np.random.Generator) -> dict:
    """Row sums, symmetry, sign pattern, kernel, complete-graph diagonal,
    and edge-monotonicity of the quadratic form."""
    rows = []

    def graphs():
        for n in range(3, min(nmax, 8) + 1):
            yield f"K_{n}", make_complete(n, 1.0)
            yield f"C_{n}", make_cycle(n, 0.5)
            yield f"random_{n}", random_connected_graph(rng, n, float(rng.uniform(0.2, 1.5)))
        if nmax >= 6:
            yield "half_complete_cycle_3", make_half_complete_cycle(3, 0.25)

    for name, g in graphs():
        for level in range(g.n + 1):
            [gen] = build_level_generators([g], level)
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
            rows.append((res / scale, 1e-12, f"{name} level {level}"))
    # complete-graph diagonal is level * (n - level) * rate everywhere
    for n in range(2, min(nmax, 8) + 1):
        rate = 0.75
        g = make_complete(n, rate)
        for level in range(n + 1):
            [gen] = build_level_generators([g], level)
            expected = level * (n - level) * rate
            res = float(np.max(np.abs(np.diag(gen.matrix) - expected)))
            rows.append((res, 1e-12 * max(1.0, expected), f"K_{n} diagonal level {level}"))
    # removing edges can only decrease the quadratic form
    for i in range(10):
        n = int(rng.integers(4, min(nmax, 6) + 1))
        g = random_connected_graph(rng, n, 1.0)
        sub = random_connected_subgraph(rng, g)
        level = int(rng.integers(1, n))
        gen, gen_sub = build_level_generators([g, sub], level)
        f = rng.standard_normal(gen.space.size)
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


def check_eigensolver(nmax: int, rng: np.random.Generator,
                      table: BasisTable) -> dict:
    """Each basis against the generator it was solved from.

    Each distinct (graph, level) is solved here, with its generator at hand;
    the complete graphs' bases are then held in the table.
    """
    graphs = [(f"{name}_{n}", g) for n in range(3, min(nmax, 8) + 1)
              for name, g in (("K", make_complete(n, 1.0)), ("C", make_cycle(n, 0.5)),
                              ("random", random_connected_graph(rng, n, 1.0)))]
    pairs = list(dict.fromkeys((g, level) for _, g in graphs for level in range(g.n + 1)))
    defects = {}
    for i, gen, basis in spectral.solve_stacks(pairs):
        table.hold(*pairs[i], basis)
        defects[pairs[i]] = basis_defect(gen, basis)
    rows = [(defects[g, level], 1e-10, f"{name} level {level}")
            for name, g in graphs for level in range(g.n + 1)]
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


def check_complete_graphs(nmax: int, table: BasisTable) -> list[dict]:
    """The closed forms of K_n, n = 2..nmax at rates 1 and 1/n, levels 0..n/2.

    One pass reads each basis and lifts it once in each direction, for three
    records: the spectrum against complete_graph_eigenvalue_table, the lift
    lengths, and, at rate 1 for n >= 3 and level >= 1, the orthogonality of
    the lifted eigenvectors.
    """
    graphs = [(n, alpha, make_complete(n, alpha))
              for n in range(2, nmax + 1) for alpha in (1.0, 1.0 / n)]
    cases = [(n, alpha, g, level) for n, alpha, g in graphs for level in range(n // 2 + 1)]
    bases = table.bases((g, level) for _, _, g, level in cases)
    spectrum, lengths, orthogonality = [], [], []
    for (n, alpha, _, level), basis in zip(cases, bases):
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


def check_eigenvalue_bound(nmax: int, rng: np.random.Generator, table: BasisTable) -> dict:
    draws = []
    for _ in range(30):
        n = int(rng.integers(3, min(nmax, 8) + 1))
        rate = float(rng.uniform(0.1, 1.5))
        draws.append((n, rate, random_connected_graph(rng, n, rate)))
    rows = []
    levels = table.levels([g for _, _, g in draws])
    for i, ((n, rate, g), bases) in enumerate(zip(draws, levels)):
        d = max_degree(g)
        for level, basis in enumerate(bases):
            bound = 2.0 * rate * level * d
            gap = float(basis.eigenvalues[-1]) - bound
            rows.append((gap, 1e-9 * max(1.0, bound), f"draw {i} (n={n}) level {level}"))
    return _record("eigenvalue_upper_bound", rows)


def check_parseval(nmax: int, rng: np.random.Generator, table: BasisTable) -> dict:
    draws = []
    for _ in range(12):
        n = int(rng.integers(3, min(nmax, 7) + 1))
        g = random_connected_graph(rng, n, float(rng.uniform(0.3, 1.2)))
        draws.append((n, g, random_boolean_function(rng, n)))
    rows = []
    levels = table.levels([g for _, g, _ in draws])
    for i, ((n, g, f), bases) in enumerate(zip(draws, levels)):
        profile = fourier.spectral_profile(f, bases)
        direct = float(np.mean(f.values**2))
        cond = 0.0
        for level in range(n + 1):
            space = enumerate_level(n, level)
            cond += space.size / 2.0**n * float(f.values[space.words].mean()) ** 2
        err = float(np.max(np.abs([profile.total_mass - direct,
                                   profile.zero_mass() - cond,
                                   fourier.exact_correlation(profile, 0.0) - direct])))
        rows.append((err, 1e-10, f"draw {i} (n={n})"))
    return _record("parseval", rows)


def check_oracle_equivalence(rng: np.random.Generator, table: BasisTable) -> dict:
    draws = []
    for _ in range(15):
        n = int(rng.integers(3, 7))
        g = random_connected_graph(rng, n, float(rng.uniform(0.3, 1.2)))
        f = random_boolean_function(rng, n)
        draws.append((n, g, f, float(rng.uniform(0.0, 2.0))))
    rows = []
    levels = table.levels([g for _, g, _, _ in draws])
    for i, ((n, g, f, t), bases) in enumerate(zip(draws, levels)):
        profile = fourier.spectral_profile(f, bases)
        err = abs(fourier.exact_correlation(profile, t)
                  - oracle.brute_force_correlation(g, f, t))
        rows.append((err, 1e-8, f"draw {i} (n={n}, t={t:.3f})"))
    return _record("oracle_equivalence", rows)


def check_containment(nmax: int, rng: np.random.Generator,
                      table: BasisTable) -> dict:
    rows = []
    for n in (6, 8, 10, 12):
        if n > nmax:
            continue
        complete = make_complete(n, 1.0 / n)
        others = [("cycle", make_cycle(n, 1.0))]
        if n % 2 == 0:
            others.append(("half_complete_cycle", make_half_complete_cycle(n // 2, 1.0)))
        others.append(("random", random_connected_graph(rng, n, 1.0)))
        [bases_c] = table.levels([complete])
        for name, raw in others:
            other = with_rate(raw, 1.0 / max_degree(raw))
            # One other graph at a time: all nine at once would hold their
            # bases together, 1.5 MB per graph at n = 10.
            [bases_o] = table.levels([other])
            for k in (0.5, 1.0, 2.0, n / 4.0):
                residuals = diagnostics.containment_residual(complete, other, k, 2.0 * k,
                                                             bases_c, bases_o)
                for level, res in enumerate(residuals):
                    rows.append((res, diagnostics.CONTAINMENT_TOL,
                                 f"{name} n={n} k={k:g} level {level}"))
    return _record("containment_residual", rows)


def check_projection_mass(nmax: int, rng: np.random.Generator, table: BasisTable) -> dict:
    draws = []
    for _ in range(25):
        n = int(rng.integers(4, min(nmax, 8) + 1))
        raw = random_connected_graph(rng, n, 1.0)
        other = with_rate(raw, 1.0 / max_degree(raw))
        f = random_boolean_function(rng, n)
        draws.append((n, make_complete(n, 1.0 / n), other, f, float(rng.uniform(0.05, n / 4.0))))
    rows = []
    levels = table.levels([g for _, complete, other, _, _ in draws for g in (complete, other)])
    for i, ((n, complete, other, f, k), bases_c, bases_o) in enumerate(
            zip(draws, levels[::2], levels[1::2])):
        lhs, rhs = diagnostics.projection_mass_inequality(
            complete, other, k, fourier.spectral_profile(f, bases_c),
            fourier.spectral_profile(f, bases_o),
        )
        rows.append((rhs - lhs, diagnostics.PROJECTION_MASS_TOL,
                     f"draw {i} (n={n}, k={k:.3f})"))
    return _record("projection_mass_inequality", rows)


def check_monotonicity(rng: np.random.Generator, table: BasisTable) -> dict:
    draws = []
    for _ in range(25):
        n = int(rng.integers(5, 7))
        g = random_connected_graph(rng, n, float(rng.uniform(0.3, 1.2)))
        sub = random_connected_subgraph(rng, g)
        f = random_boolean_function(rng, n)
        lam_max = 2.0 * max(r for _, _, r in g.edges) * n * max_degree(g)
        k = float(rng.uniform(1e-3, 2.0 * lam_max))
        draws.append((n, g, sub, f, k, float(rng.uniform(1e-3, 2.0 * lam_max))))
    rows = []
    levels = table.levels([h for _, g, sub, *_ in draws for h in (g, sub)])
    for i, ((n, g, sub, f, k, kprime), bases, bases_sub) in enumerate(
            zip(draws, levels[::2], levels[1::2])):
        lhs, rhs = diagnostics.monotonicity_inequality_check(
            g, sub, k, kprime, fourier.spectral_profile(f, bases),
            fourier.spectral_profile(f, bases_sub),
        )
        rows.append((lhs - rhs, diagnostics.MONOTONICITY_TOL,
                     f"draw {i} (n={n}, k={k:.3f}, k'={kprime:.3f})"))
    # the example chain: spectra grow pointwise under edge addition
    chains = [(("cycle", make_cycle(2 * half, 0.5)),
               ("half_complete_cycle", make_half_complete_cycle(half, 0.5)),
               ("complete", make_complete(2 * half, 0.5))) for half in (2, 3)]
    graphs = [g for chain in chains for _, g in chain]
    bases = dict(zip(graphs, table.levels(graphs)))
    for chain in chains:
        for (sname, small), (bname, big) in zip(chain, chain[1:]):
            gap = float(np.max(
                diagnostics.spectra_domination_gap(small, big, bases[small], bases[big])))
            rows.append((gap, diagnostics.DOMINATION_TOL,
                         f"{sname} vs {bname} on {small.n} vertices"))
    return _record("monotonicity_inequality", rows)


def check_monte_carlo(seed: int, table: BasisTable, samples: int) -> dict:
    """Estimates agree with the exact formulas within 3 standard errors."""
    rows = []
    cases = [
        ("K_4 dictator cov t=1", make_complete(4, 0.25), fourier.dictator(4, 0), "cov", 1.0),
        ("C_6 parity flip eps=0.3", make_cycle(6, 0.5),
         fourier.parity_on_set(6, [0, 2, 4]), "flip", 0.3),
        ("half_complete_cycle_3 dictator cov t=0.5", make_half_complete_cycle(3, 0.25),
         fourier.dictator(6, 1), "cov", 0.5),
    ]
    for idx, (label, g, f, kind, t) in enumerate(cases):
        [bases] = table.levels([g])
        profile = fourier.spectral_profile(f, bases)
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


def run_suite(nmax: int = 8, seed: int = 7, mc_samples: int = 4000) -> dict:
    """Run every check; the report is JSON-ready and fully deterministic."""
    rng = np.random.default_rng(seed)
    table = BasisTable()
    checks = [
        check_generator_invariants(nmax, rng),
        check_eigensolver(nmax, rng, table),
        *check_complete_graphs(nmax, table),
        check_eigenvalue_bound(nmax, rng, table),
        check_parseval(nmax, rng, table),
        check_oracle_equivalence(rng, table),
        check_containment(nmax, rng, table),
        check_projection_mass(nmax, rng, table),
        check_monotonicity(rng, table),
        check_monte_carlo(seed, table, mc_samples),
    ]
    return {
        "suite": "all",
        "nmax": nmax,
        "seed": seed,
        "checks": checks,
        "violations": sum(c["violations"] for c in checks),
    }
