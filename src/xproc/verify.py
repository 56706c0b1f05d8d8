"""Self-verification suite: every structural invariant as a counted check.

Each check runs a deterministic batch of instances (sized by nmax, driven
by a seeded generator where randomized) and reports how many violated its
tolerance, the worst residual seen, and which instance produced it. The
CLI `verify` subcommand serializes these results and exits nonzero on any
violation.
"""

import numpy as np

from . import diagnostics, dynamics, fourier, oracle, spectral
from .generator import build_level_generator, dirichlet_form
from .graph import (
    Graph, is_complete, make_complete, make_cycle, make_half_complete_cycle, max_degree,
    with_rate,
)
from .statespace import enumerate_level

# Fewest samples at which check_monte_carlo's 3-standard-error test means
# something: below it a sample with no spread, and so a zero standard error,
# is too likely.
MIN_MC_SAMPLES = 100

EXTRA_EDGE_PROB = 0.35  # random_connected_graph: chance of each non-tree edge
KEEP_PROB = 0.5         # random_connected_subgraph: chance of keeping each non-tree edge


class _Tally:
    """One check's result: instances, violations and the worst residual seen."""

    def __init__(self, name: str):
        self.name = name
        self.instances = 0
        self.violations = 0
        self.worst = -np.inf
        self.label = ""

    def add(self, residual: float, threshold: float, label: str):
        self.instances += 1
        if residual > self.worst:
            self.worst = residual
            self.label = label
        if residual > threshold:
            self.violations += 1

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "violations": self.violations,
            "max_residual": 0.0 if self.instances == 0 else float(self.worst),
            "worst_instance": self.label,
        }


class BasisTable:
    """Complete-graph eigenbases of one suite run, each solved once.

    Keyed by (Graph, level): Graph is a frozen dataclass, so a complete
    graph built at two call sites with equal rates is one key. Only
    complete graphs are held; any other graph is solved on every call, since
    holding every basis of a run would cost three times the memory for
    little more speed. Held arrays are read-only, so no check can change a
    basis another check reads. solve_level is deterministic for identical
    input, so reusing a basis changes no report.
    """

    def __init__(self):
        self._bases: dict[tuple[Graph, int], spectral.SpectralBasis] = {}

    def basis(self, g: Graph, level: int) -> spectral.SpectralBasis:
        key = (g, level)
        basis = self._bases.get(key)
        if basis is None:
            basis = spectral.solve_level(g, level)
            if is_complete(g):
                basis.eigenvalues.flags.writeable = False
                basis.vectors.flags.writeable = False
                self._bases[key] = basis
        return basis

    def all_levels(self, g: Graph) -> list[spectral.SpectralBasis]:
        return [self.basis(g, level) for level in range(g.n + 1)]


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
    return fourier.BooleanFunction(n, values, name="random")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_generator_invariants(nmax: int, rng: np.random.Generator) -> _Tally:
    """Row sums, symmetry, sign pattern, kernel, complete-graph diagonal,
    and edge-monotonicity of the quadratic form."""
    tally = _Tally("generator_invariants")

    def graphs():
        for n in range(3, min(nmax, 8) + 1):
            yield f"K_{n}", make_complete(n, 1.0)
            yield f"C_{n}", make_cycle(n, 0.5)
            yield f"random_{n}", random_connected_graph(rng, n, float(rng.uniform(0.2, 1.5)))
        if nmax >= 6:
            yield "half_complete_cycle_3", make_half_complete_cycle(3, 0.25)

    for name, g in graphs():
        for level in range(g.n + 1):
            gen = build_level_generator(g, level)
            m = gen.matrix
            scale = max(1.0, float(np.max(np.abs(m))))
            off = m - np.diag(np.diag(m))
            res = max(
                float(np.max(np.abs(m - m.T))),
                float(np.max(np.abs(m.sum(axis=1)))),
                float(off.max(initial=0.0)),          # off-diagonal must be <= 0
                float(max(0.0, -np.diag(m).min(initial=0.0))),
                float(np.max(np.abs(m @ np.ones(gen.space.size)))),
            )
            tally.add(res / scale, 1e-12, f"{name} level {level}")
    # complete-graph diagonal is level * (n - level) * rate everywhere
    for n in range(2, min(nmax, 8) + 1):
        rate = 0.75
        g = make_complete(n, rate)
        for level in range(n + 1):
            gen = build_level_generator(g, level)
            expected = level * (n - level) * rate
            res = float(np.max(np.abs(np.diag(gen.matrix) - expected)))
            tally.add(res, 1e-12 * max(1.0, expected), f"K_{n} diagonal level {level}")
    # removing edges can only decrease the quadratic form
    for i in range(10):
        n = int(rng.integers(4, min(nmax, 6) + 1))
        g = random_connected_graph(rng, n, 1.0)
        sub = random_connected_subgraph(rng, g)
        level = int(rng.integers(1, n))
        gen = build_level_generator(g, level)
        gen_sub = build_level_generator(sub, level)
        f = rng.standard_normal(gen.space.size)
        gap = dirichlet_form(gen_sub, f) - dirichlet_form(gen, f)
        tally.add(gap, 1e-10 * max(1.0, abs(dirichlet_form(gen, f))),
                  f"dirichlet monotonicity draw {i} (n={n})")
    return tally


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
    return max(eig_err if norm2 > 0 else 0.0, ortho_err, kernel_err)


def check_eigensolver(nmax: int, rng: np.random.Generator,
                      table: BasisTable) -> _Tally:
    tally = _Tally("eigensolver_residuals")
    for n in range(3, min(nmax, 8) + 1):
        for name, g in ((f"K_{n}", make_complete(n, 1.0)),
                        (f"C_{n}", make_cycle(n, 0.5)),
                        (f"random_{n}", random_connected_graph(rng, n, 1.0))):
            for level in range(n + 1):
                basis = table.basis(g, level)
                tally.add(basis_defect(build_level_generator(g, level), basis), 1e-10,
                          f"{name} level {level}")
    return tally


def expected_complete_spectrum(n: int, level: int, alpha: float) -> np.ndarray:
    lam, mult = zip(*spectral.complete_graph_eigenvalue_table(n, level, alpha))
    return np.sort(np.repeat(lam, mult))


def check_complete_multiplicities(nmax: int, table: BasisTable) -> _Tally:
    tally = _Tally("complete_graph_multiplicities")
    for n in range(2, nmax + 1):
        for alpha in (1.0, 1.0 / n):
            g = make_complete(n, alpha)
            for level in range(n // 2 + 1):
                basis = table.basis(g, level)
                expected = expected_complete_spectrum(n, level, alpha)
                err = float(
                    np.max(np.abs(np.sort(basis.eigenvalues) - expected)
                           / np.maximum(1.0, expected))
                )
                tally.add(err, 1e-8, f"K_{n} alpha={alpha:g} level {level}")
    return tally


def lift_length_error(n: int, level: int, alpha: float, basis) -> float:
    """Worst relative error of the closed-form lift lengths on one basis."""
    lam = basis.eigenvalues
    worst = 0.0
    lifts = []
    if level >= 1:
        want = (n - level + 1) / (alpha * level) * (alpha * level * (n - level + 1) - lam)
        lifts.append((spectral.lift_down(basis.space, basis.vectors), want))
    if level <= n - 1:
        want = (level + 1) / (alpha * (n - level)) * (alpha * (level + 1) * (n - level) - lam)
        lifts.append((spectral.lift_up(basis.space, basis.vectors), want))
    for lifted, want in lifts:
        # Dots of contiguous copies: a strided dot rounds differently.
        got = np.array([float(c @ c) for c in map(np.copy, lifted.T)]) / lifted.shape[0]
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        worst = max(worst, float(err.max()))
    return worst


def check_lift_lengths(nmax: int, table: BasisTable) -> _Tally:
    tally = _Tally("lift_length_formulas")
    for n in range(2, nmax + 1):
        for alpha in (1.0, 1.0 / n):
            g = make_complete(n, alpha)
            for level in range(n // 2 + 1):
                basis = table.basis(g, level)
                err = lift_length_error(n, level, alpha, basis)
                tally.add(err, 1e-8, f"K_{n} alpha={alpha:g} level {level}")
    return tally


def check_orthogonality_preserved(nmax: int, table: BasisTable) -> _Tally:
    """Lifts of orthogonal complete-graph eigenvectors stay orthogonal."""
    tally = _Tally("lift_orthogonality")
    for n in range(3, nmax + 1):
        g = make_complete(n, 1.0)
        for level in range(1, n // 2 + 1):
            basis = table.basis(g, level)
            downs = spectral.lift_down(basis.space, basis.vectors)
            ups = spectral.lift_up(basis.space, basis.vectors)
            for tag, mat in (("down", downs), ("up", ups)):
                gram = mat.T @ mat / mat.shape[0]
                off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
                tally.add(off, 1e-10 * max(1.0, float(np.max(np.abs(gram)))),
                          f"K_{n} level {level} {tag}")
    return tally


def check_eigenvalue_bound(nmax: int, rng: np.random.Generator,
                           count: int = 30) -> _Tally:
    tally = _Tally("eigenvalue_upper_bound")
    for i in range(count):
        n = int(rng.integers(3, min(nmax, 8) + 1))
        rate = float(rng.uniform(0.1, 1.5))
        g = random_connected_graph(rng, n, rate)
        d = max_degree(g)
        for level in range(n + 1):
            basis = spectral.solve_level(g, level)
            bound = 2.0 * rate * level * d
            gap = float(basis.eigenvalues[-1]) - bound
            tally.add(gap, 1e-9 * max(1.0, bound), f"draw {i} (n={n}) level {level}")
    return tally


def check_parseval(nmax: int, rng: np.random.Generator, count: int = 12) -> _Tally:
    tally = _Tally("parseval")
    for i in range(count):
        n = int(rng.integers(3, min(nmax, 7) + 1))
        g = random_connected_graph(rng, n, float(rng.uniform(0.3, 1.2)))
        f = random_boolean_function(rng, n)
        profile = fourier.spectral_profile(f, spectral.level_bases(g))
        direct = float(np.mean(f.values**2))
        err = abs(profile.total_mass - direct)
        cond = 0.0
        for level in range(n + 1):
            space = enumerate_level(n, level)
            cond += space.size / 2.0**n * float(f.values[space.words].mean()) ** 2
        err = max(err, abs(profile.zero_mass() - cond))
        err = max(err, abs(fourier.exact_correlation(profile, 0.0) - direct))
        tally.add(err, 1e-10, f"draw {i} (n={n})")
    return tally


def check_oracle_equivalence(rng: np.random.Generator, count: int = 15) -> _Tally:
    tally = _Tally("oracle_equivalence")
    for i in range(count):
        n = int(rng.integers(3, 7))
        g = random_connected_graph(rng, n, float(rng.uniform(0.3, 1.2)))
        f = random_boolean_function(rng, n)
        t = float(rng.uniform(0.0, 2.0))
        profile = fourier.spectral_profile(f, spectral.level_bases(g))
        err = abs(fourier.exact_correlation(profile, t)
                  - oracle.brute_force_correlation(g, f, t))
        tally.add(err, 1e-8, f"draw {i} (n={n}, t={t:.3f})")
    return tally


def check_containment(nmax: int, rng: np.random.Generator,
                      table: BasisTable) -> _Tally:
    tally = _Tally("containment_residual")
    for n in (6, 8, 10, 12):
        if n > nmax:
            continue
        complete = make_complete(n, 1.0 / n)
        others = [("cycle", make_cycle(n, 1.0))]
        if n % 2 == 0:
            others.append(("half_complete_cycle", make_half_complete_cycle(n // 2, 1.0)))
        others.append(("random", random_connected_graph(rng, n, 1.0)))
        bases_c = table.all_levels(complete)
        for name, raw in others:
            other = with_rate(raw, 1.0 / max_degree(raw))
            bases_o = list(spectral.level_bases(other))
            for k in (0.5, 1.0, 2.0, n / 4.0):
                residuals = diagnostics.containment_residual(complete, other, k, 2.0 * k,
                                                             bases_c, bases_o)
                for level, res in enumerate(residuals):
                    tally.add(res, diagnostics.CONTAINMENT_TOL,
                              f"{name} n={n} k={k:g} level {level}")
    return tally


def check_projection_mass(nmax: int, rng: np.random.Generator, table: BasisTable,
                          count: int = 25) -> _Tally:
    tally = _Tally("projection_mass_inequality")
    for i in range(count):
        n = int(rng.integers(4, min(nmax, 8) + 1))
        complete = make_complete(n, 1.0 / n)
        raw = random_connected_graph(rng, n, 1.0)
        other = with_rate(raw, 1.0 / max_degree(raw))
        f = random_boolean_function(rng, n)
        k = float(rng.uniform(0.05, n / 4.0))
        lhs, rhs = diagnostics.projection_mass_inequality(
            complete, other, k, fourier.spectral_profile(f, table.all_levels(complete)),
            fourier.spectral_profile(f, spectral.level_bases(other)),
        )
        tally.add(rhs - lhs, diagnostics.PROJECTION_MASS_TOL, f"draw {i} (n={n}, k={k:.3f})")
    return tally


def check_monotonicity(rng: np.random.Generator, count: int = 25) -> _Tally:
    tally = _Tally("monotonicity_inequality")
    for i in range(count):
        n = int(rng.integers(5, 7))
        g = random_connected_graph(rng, n, float(rng.uniform(0.3, 1.2)))
        sub = random_connected_subgraph(rng, g)
        f = random_boolean_function(rng, n)
        lam_max = 2.0 * max(r for _, _, r in g.edges) * n * max_degree(g)
        k = float(rng.uniform(1e-3, 2.0 * lam_max))
        kprime = float(rng.uniform(1e-3, 2.0 * lam_max))
        lhs, rhs = diagnostics.monotonicity_inequality_check(
            g, sub, k, kprime, fourier.spectral_profile(f, spectral.level_bases(g)),
            fourier.spectral_profile(f, spectral.level_bases(sub)),
        )
        tally.add(lhs - rhs, diagnostics.MONOTONICITY_TOL,
                  f"draw {i} (n={n}, k={k:.3f}, k'={kprime:.3f})")
    # the example chain: spectra grow pointwise under edge addition
    for half in (2, 3):
        chain = (
            ("cycle", make_cycle(2 * half, 0.5)),
            ("half_complete_cycle", make_half_complete_cycle(half, 0.5)),
            ("complete", make_complete(2 * half, 0.5)),
        )
        bases = {g: list(spectral.level_bases(g)) for g in {g for _, g in chain}}
        for (sname, small), (bname, big) in zip(chain, chain[1:]):
            gap = max(diagnostics.spectra_domination_gap(small, big, bases[small], bases[big]))
            tally.add(gap, diagnostics.DOMINATION_TOL,
                      f"{sname} vs {bname} on {2 * half} vertices")
    return tally


def check_monte_carlo(seed: int, table: BasisTable, samples: int = 4000) -> _Tally:
    """Estimates agree with the exact formulas within 3 standard errors."""
    tally = _Tally("monte_carlo_agreement")
    cases = [
        ("K_4 dictator cov t=1", make_complete(4, 0.25), fourier.dictator(4, 0), "cov", 1.0),
        ("C_6 parity flip eps=0.3", make_cycle(6, 0.5),
         fourier.parity_on_set(6, [0, 2, 4]), "flip", 0.3),
        ("half_complete_cycle_3 dictator cov t=0.5", make_half_complete_cycle(3, 0.25),
         fourier.dictator(6, 1), "cov", 0.5),
    ]
    for idx, (label, g, f, kind, t) in enumerate(cases):
        profile = fourier.spectral_profile(f, table.all_levels(g))
        spec = dynamics.SimulationSpec(seed=seed + idx, samples=samples)
        if kind == "cov":
            est = dynamics.estimate_covariance(g, f, t, spec)
            exact = fourier.exact_covariance(profile, t)
        else:
            est = dynamics.estimate_flip_probability(g, f, t, spec)
            exact = fourier.exact_flip_probability(profile, t)
        dev = abs(est.point - exact) / max(est.std_error, 1e-12)
        tally.add(dev, 3.0, label)
    return tally


def run_suite(nmax: int = 8, seed: int = 7, mc_samples: int = 4000) -> dict:
    """Run every check; the report is JSON-ready and fully deterministic."""
    rng = np.random.default_rng(seed)
    table = BasisTable()
    checks = [
        check_generator_invariants(nmax, rng),
        check_eigensolver(nmax, rng, table),
        check_complete_multiplicities(nmax, table),
        check_lift_lengths(nmax, table),
        check_orthogonality_preserved(nmax, table),
        check_eigenvalue_bound(nmax, rng),
        check_parseval(nmax, rng),
        check_oracle_equivalence(rng),
        check_containment(nmax, rng, table),
        check_projection_mass(nmax, rng, table),
        check_monotonicity(rng),
        check_monte_carlo(seed, table, mc_samples),
    ]
    return {
        "suite": "all",
        "nmax": nmax,
        "seed": seed,
        "checks": [c.to_dict() for c in checks],
        "violations": int(sum(c.violations for c in checks)),
    }
