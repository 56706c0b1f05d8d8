"""Batch command line: spectra, profiles, exact values, simulation, checks.

Output is deterministic byte-for-byte for a fixed config (including the
seed): floats print with 17 significant digits in JSON and 12 in CSV, key
order is fixed, and no timestamps are embedded. Exit codes: 0 success,
1 when a check record of the report counts a violation (verify, compare,
profile --n-grid), 2 config errors, 3 numerical failures (a solver or the
oracle failed on valid input).
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from collections.abc import Iterable

import numpy as np

from . import __version__
from . import diagnostics, dynamics, fourier, spectral, verify
from .generator import NumericalError
from .statespace import StateCapExceeded, check_levels, state_cap
from .graph import (
    FAMILIES, Graph, GraphFormatError, is_complete, is_edge_subgraph, load_graph, max_degree,
    to_json_dict, with_rate,
)

SCHEMA_VERSION = "xproc-report-1"


class ConfigError(Exception):
    """A bad flag or config value; the message names the field."""


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _float_repr(x: float, digits: int) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return format(x, f".{digits}g")


def dumps_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_repr(float(obj), 17)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{inner}{dumps_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def format_csv(header: list[str], rows: Iterable[tuple], config: dict) -> str:
    lines = [f"# schema={SCHEMA_VERSION} config={json.dumps(config, sort_keys=True)}"]
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            elif isinstance(cell, (float, np.floating)):
                cells.append(_float_repr(float(cell), 12))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def check_writable(flag: str, path: str | None) -> None:
    """Refuse an output path that cannot be written, before any work is done."""
    if not path:
        return
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ConfigError(f"{flag}: {path} is a directory")
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError(f"{flag}: cannot write {path}: {folder} is not a writable directory")


def emit(text: str, out: str | None, flag: str = "--out") -> None:
    """Write text to out, or to stdout when out is unset; a failed write names flag."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot write {out}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def check_numbers(*rules) -> None:
    """The one rule for numeric flags: each (flag, value, op, bound), op ">", ">="
    or "<=", needs a finite value op bound; an unset value (None) passes."""
    for flag, value, op, bound in rules:
        real = isinstance(value, float)
        if value is not None and not (COMPARE[op](value, bound)
                                      and (not real or math.isfinite(value))):
            finite = "finite and " if real else ""
            raise ConfigError(f"{flag} must be {finite}{op} {bound}, got {value}")


def horizon_rules(args: argparse.Namespace) -> tuple:
    """check_numbers rules for --t and --eps, at least one of which is required."""
    if args.t is None and args.eps is None:
        raise ConfigError(f"--t and/or --eps is required for {args.subcommand!r}")
    return ("--t", args.t, ">=", 0), ("--eps", args.eps, ">=", 0)


def resolve_graph(spec: str | None, rate: float | None, rate_policy: str,
                  field: str = "--graph") -> Graph:
    """The graph of --graph, --rate and --rate-policy (or of their -b twins)."""
    if not spec:
        raise ConfigError(f"{field} is required")
    check_numbers((field.replace("--graph", "--rate"), rate, ">", 0))
    if spec.startswith("@"):
        return rate_step(load_graph(spec[1:]), rate, rate_policy, field)
    head, _, arg = spec.partition(":")
    if head not in FAMILIES:
        raise ConfigError(
            f"{field}: unknown family {head!r}; expected {', '.join(FAMILIES)}, or @file.json"
        )
    try:
        size = int(arg)
    except ValueError:
        raise ConfigError(f"{field}: family parameter must be an integer, got {arg!r}")
    return family_graph(head, size, rate, rate_policy, field)


def family_graph(head: str, size: int, rate: float | None, rate_policy: str,
                 field: str = "--graph") -> Graph:
    """FAMILIES[head] at size, built at rate 1 and rated by rate_step; it has no
    rates of its own, so the uniform policy needs a rate."""
    if rate is None and rate_policy == "uniform":
        raise ConfigError(f"{field.replace('--graph', '--rate')} is required with "
                          f"rate policy 'uniform' for {field}")
    return rate_step(FAMILIES[head](size, 1.0), rate, rate_policy, field)


def rate_step(g: Graph, rate: float | None, rate_policy: str, field: str) -> Graph:
    """g at rate 1/max-degree under one-over-max-degree, else at rate if one is given;
    a rate given with one-over-max-degree, or whose sum over g's edges overflows,
    names field's rate flag."""
    rate_flag = field.replace("--graph", "--rate")
    if rate_policy == "one-over-max-degree":
        if rate is not None:
            raise ConfigError(f"{rate_flag}: not read with "
                              f"{field.replace('--graph', '--rate-policy')} one-over-max-degree")
        return with_rate(g, 1.0 / max_degree(g))
    try:
        return g if rate is None else with_rate(g, rate)
    except GraphFormatError as exc:
        raise ConfigError(f"{rate_flag}: {exc}") from exc


def resolve_function(spec: str | None, n: int) -> fourier.BooleanFunction:
    """The --function table on n vertices; a table too large to allocate names --graph."""
    if not spec:
        raise ConfigError("--function is required")
    too_large = f"--graph: n={n} is too large for a function table of 2^{n} values"
    if 8 << n > np.iinfo(np.intp).max:
        raise ConfigError(f"{too_large} (more bytes than numpy can address)")
    try:
        if not spec.startswith("@"):
            return fourier.make_function(n, spec)
        with open(spec[1:]) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict) or "n" not in raw or "values" not in raw:
            raise ConfigError(
                "--function: table file must be {\"n\": int, \"values\": [...]}"
            )
        if raw["n"] != n:
            raise ConfigError(
                f"--function: table is for n={raw['n']} but the graph has n={n}"
            )
        return fourier.BooleanFunction(n, raw["values"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"--function: {exc}")
    except MemoryError as exc:
        raise ConfigError(f"{too_large} ({exc})")


def parse_levels(spec: str, n: int) -> list[int]:
    if spec == "all":
        return list(range(n + 1))
    try:
        level = int(spec)
    except ValueError:
        raise ConfigError(f"--level must be an integer or 'all', got {spec!r}")
    if not (0 <= level <= n):
        raise ConfigError(f"--level must be in 0..{n}, got {level}")
    return [level]


def parse_n_grid(spec: str) -> list[int]:
    try:
        lo, _, hi = spec.partition(":")
        a, b = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--n-grid must look like a:b, got {spec!r}")
    if a > b:
        raise ConfigError(f"--n-grid must be nondecreasing, got {spec!r}")
    return list(range(a, b + 1))


def config_echo(args: argparse.Namespace, keys: list[str]) -> dict:
    echo = {"subcommand": args.subcommand}
    for key in keys:
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            echo[key] = value
    if os.environ.get("XPROC_STATE_CAP"):
        echo["state_cap"] = state_cap()
    return echo


# ---------------------------------------------------------------------------
# subcommands: each returns (config, body), which main writes. A dict body is
# a JSON report, and (header, rows) a CSV table.
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> tuple:
    g = resolve_graph(args.graph, args.rate, args.rate_policy)
    levels = parse_levels(args.level, g.n)
    check_levels(g.n, levels)
    config = config_echo(args, ["graph", "rate", "rate_policy", "level", "format"])

    def read(gen, basis) -> list[tuple]:  # the level's rows; --dump-matrix writes gen too
        level = gen.space.level
        if args.dump_matrix:
            path = args.dump_matrix
            if len(levels) > 1:
                root, ext = os.path.splitext(path)
                path = f"{root}.level{level}{ext or '.csv'}"
            # Rows as the CSV reads them, not size^2 float objects at once
            emit(format_csv([f"c{j}" for j in range(gen.space.size)],
                            map(tuple, gen.matrix), config), path, "--dump-matrix")
        return [(level, i, float(basis.eigenvalues[i]), gid)
                for gid, group in enumerate(basis.groups) for i in group]

    rows = [row for level_rows in spectral.solve_stacks([(g, level) for level in levels], read)
            for row in level_rows]
    if args.format == "csv":
        return config, (["level", "index", "eigenvalue", "multiplicity_group_id"], rows)
    return config, {
        "graph": to_json_dict(g),
        "spectrum": [
            {"level": l, "index": i, "eigenvalue": lam, "multiplicity_group_id": gid}
            for l, i, lam, gid in rows
        ],
    }


def solve_profile(g: Graph, f: fourier.BooleanFunction) -> fourier.SpectralProfile:
    """f's spectral profile on g, from one solve_stacks call that keeps only the
    level pieces."""
    pieces = spectral.solve_stacks([(g, level) for level in range(g.n + 1)],
                                   lambda _, basis: fourier.level_piece(f, basis))
    return fourier.spectral_profile(f, pieces)


def cmd_profile(args) -> tuple:
    if args.n_grid:
        return _profile_sweep(args)
    if args.k is not None:
        raise ConfigError("--k is read only with --n-grid")
    g = resolve_graph(args.graph, args.rate, args.rate_policy)
    check_levels(g.n)
    f = resolve_function(args.function, g.n)
    config = config_echo(args, ["graph", "rate", "rate_policy", "function", "format"])
    profile = solve_profile(g, f)
    if args.format == "csv":
        return config, (["level", "eigenvalue", "coeff_sq"], fourier.profile_csv_rows(profile))
    return config, fourier.profile_summary(profile)


def _profile_sweep(args) -> tuple:
    """Sensitivity tabulation of one (graph family, function) over an n-grid."""
    if not args.graph or ":" in args.graph or args.graph.startswith("@"):
        raise ConfigError(
            f"--graph: with --n-grid give a bare family name ({', '.join(FAMILIES)}); "
            "the grid supplies the size"
        )
    family = args.graph
    if family not in FAMILIES:
        raise ConfigError(f"--graph: unknown family {family!r}")
    if args.format != "json":
        raise ConfigError("--format: an --n-grid sweep is written as json only")
    n_grid = parse_n_grid(args.n_grid)
    if family == "half_complete_cycle":  # its graphs have even vertex counts only
        n_grid = [n for n in n_grid if n % 2 == 0]
        if not n_grid:
            raise ConfigError(f"--n-grid: half_complete_cycle needs an even vertex count, "
                              f"and {args.n_grid} holds none")

    def size_of(n: int) -> int:  # the family's size parameter for n vertices
        return n // 2 if family == "half_complete_cycle" else n

    try:  # a maker refuses only sizes below its family's smallest graph
        FAMILIES[family](size_of(min(n_grid)), 1.0)
    except ValueError:
        raise ConfigError(f"--n-grid: {family} has no graph on n={min(n_grid)} vertices")
    try:
        k_grid = [float(s) for s in (args.k or "1.0").split(",")]
    except ValueError:
        raise ConfigError(f"--k: expected a comma-separated list of thresholds, got {args.k!r}")
    check_numbers(*(("--k", k, ">", 0) for k in k_grid), ("--rate", args.rate, ">", 0))
    function_spec = args.function
    if not function_spec or function_spec.startswith("@"):
        raise ConfigError("--function: a named family is required with --n-grid")

    def make_profile(n: int) -> fourier.SpectralProfile:
        g = family_graph(family, size_of(n), args.rate, args.rate_policy)
        check_levels(g.n)
        f = resolve_function(function_spec, g.n)
        return solve_profile(g, f)

    config = config_echo(args, ["graph", "rate", "rate_policy", "function",
                                "n-grid", "k", "format"])
    return config, diagnostics.sensitivity_profile(make_profile, n_grid, k_grid,
                                                   family=f"{family}/{function_spec}")


def cmd_exact(args) -> tuple:
    g = resolve_graph(args.graph, args.rate, args.rate_policy)
    check_levels(g.n)
    f = resolve_function(args.function, g.n)
    check_numbers(*horizon_rules(args))
    config = config_echo(args, ["graph", "rate", "rate_policy", "function", "t", "eps"])
    profile = solve_profile(g, f)
    body: dict = {"mean": profile.mean, "variance": profile.variance()}
    if args.t is not None:
        body["t"] = args.t
        body["correlation"] = fourier.exact_correlation(profile, args.t)
        body["covariance"] = fourier.exact_covariance(profile, args.t)
    if args.eps is not None:
        body["eps"] = args.eps
        body["flip_probability"] = fourier.exact_flip_probability(profile, args.eps)
    return config, body


def cmd_simulate(args) -> tuple:
    g = resolve_graph(args.graph, args.rate, args.rate_policy)
    f = resolve_function(args.function, g.n)
    check_numbers(*horizon_rules(args), ("--samples", args.samples, ">=", 1),
                  ("--seed", args.seed, ">=", dynamics.SEED_MIN),
                  ("--seed", args.seed, "<=", dynamics.SEED_MAX))
    level = None
    if args.level != "all":
        level = parse_levels(args.level, g.n)[0]
    config = config_echo(args, ["graph", "rate", "rate_policy", "function", "t",
                                "eps", "level", "samples", "seed"])
    body: dict = {}
    for name, flag, horizon, estimate in (
            ("covariance", "--t", args.t, dynamics.estimate_covariance),
            ("flip_probability", "--eps", args.eps, dynamics.estimate_flip_probability)):
        if horizon is None:
            continue
        try:
            est = estimate(g, f, horizon, samples=args.samples, seed=args.seed, level=level)
        except ValueError as exc:   # a horizon with too many jumps to sample
            raise ConfigError(f"{flag}: {exc}") from exc
        except MemoryError as exc:
            raise ConfigError(f"--samples: {args.samples} samples are too many to allocate ({exc})")
        body[name] = {flag[2:]: horizon, "point": est.point,
                      "std_error": est.std_error, "samples": est.samples}
    return config, body


def cmd_verify(args) -> tuple:
    if args.suite != "all":
        raise ConfigError(f"--suite: only 'all' is supported, got {args.suite!r}")
    check_numbers(("--nmax", args.nmax, ">=", 4),
                  ("--mc-samples", args.mc_samples, ">=", verify.MIN_MC_SAMPLES),
                  ("--seed", args.seed, ">=", 0), ("--seed", args.seed, "<=", verify.MAX_SEED))
    try:  # the largest slice any check enumerates
        check_levels(args.nmax, [args.nmax // 2])
    except StateCapExceeded as exc:
        raise ConfigError(f"--nmax: {exc}") from exc
    try:  # the Monte Carlo check's two sample arrays, before any check runs
        np.empty((2, args.mc_samples))
    except MemoryError as exc:
        raise ConfigError(f"--mc-samples: {args.mc_samples} samples are too many "
                          f"to allocate ({exc})") from exc
    config = config_echo(args, ["suite", "nmax", "seed", "mc_samples"])
    return config, verify.run_suite(nmax=args.nmax, seed=args.seed,
                                    mc_samples=args.mc_samples)


def cmd_compare(args) -> tuple:
    check_numbers(("--k", args.k, ">", 0), ("--kprime", args.kprime, ">", 0))
    if args.kprime is not None and args.k is None:
        raise ConfigError("--k is required with --kprime; no check reads --kprime alone")
    g_a = resolve_graph(args.graph, args.rate, args.rate_policy)
    g_b = resolve_graph(args.graph_b, args.rate_b, args.rate_policy_b, "--graph-b")
    if g_a.n != g_b.n:
        raise ConfigError(f"--graph-b: vertex counts differ ({g_a.n} vs {g_b.n})")
    check_levels(g_a.n)
    config = config_echo(args, ["graph", "rate", "rate_policy", "graph-b", "rate-b",
                                "rate-policy-b", "function", "k", "kprime"])
    checks = []
    subgraph = is_edge_subgraph(g_b, g_a)
    if args.function and not (subgraph and args.k is not None and args.kprime is not None):
        raise ConfigError("--function: no check reads it; the monotonicity check needs "
                          "--graph-b to be an edge subgraph of --graph, and --k and --kprime")
    if args.k is not None and not (is_complete(g_a) or args.function):
        raise ConfigError("--k: no check reads it; containment needs --graph to be complete, "
                          "and the monotonicity check needs --function")
    f = resolve_function(args.function, g_a.n) if args.function else None
    holds = None  # the containment hypothesis; None when g_a is not complete or k is unset
    if is_complete(g_a) and args.k is not None:
        kprime = args.kprime if args.kprime is not None else 2.0 * args.k
        holds = diagnostics.containment_hypothesis(g_a, args.k, kprime)
    n = g_a.n
    if subgraph or holds:
        # Both graphs' levels in one call. Containment and monotonicity read
        # eigenvectors; domination alone keeps each level's eigenvalues only.
        keep = bool(holds) or f is not None
        solved = spectral.solve_stacks([(g, level) for g in (g_a, g_b) for level in range(n + 1)],
                                       lambda _, basis: basis if keep else basis.eigenvalues)
        bases_a, bases_b = solved[:n + 1], solved[n + 1:]
        spectra = [basis.eigenvalues for basis in solved] if keep else solved
    if subgraph:
        checks.append(diagnostics.check_record(
            "spectra_dominated_by_supergraph",
            diagnostics.spectra_domination_gap(g_b, g_a, spectra[n + 1:], spectra[:n + 1]),
            diagnostics.DOMINATION_TOL))
        if f is not None:
            lhs, rhs = diagnostics.monotonicity_inequality_check(
                g_a, g_b, args.k, args.kprime, fourier.bases_profile(f, bases_a),
                fourier.bases_profile(f, bases_b))
            checks.append({**diagnostics.check_record("monotonicity_inequality", [lhs - rhs],
                                                      diagnostics.MONOTONICITY_TOL),
                           "lhs": lhs, "rhs": rhs})
    if holds is not None:
        residuals = diagnostics.containment_residual(
            g_a, g_b, args.k, kprime, bases_a, bases_b) if holds else []
        checks.append(diagnostics.check_record("containment_residual", residuals,
                                               diagnostics.CONTAINMENT_TOL))
        if not holds:
            checks[-1]["skipped"] = "threshold hypothesis does not hold for these k, k'"
    return config, {
        "edge_subgraph": subgraph,
        "checks": checks,
        "violations": sum(c["violations"] for c in checks),
    }


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_graph_flags(p, suffix=""):
    dash = "-b" if suffix else ""
    p.add_argument(f"--graph{dash}", help="family:params (complete:N, cycle:N, "
                   "half_complete_cycle:N) or @file.json")
    p.add_argument(f"--rate{dash}", type=float, default=None,
                   help="uniform edge rate")
    p.add_argument(f"--rate-policy{dash}", default="uniform",
                   choices=["uniform", "one-over-max-degree"],
                   help="how edge rates are chosen for graph families")


def _spectrum_flags(p):
    _add_graph_flags(p)
    p.add_argument("--level", default="all", help="level index or 'all'")
    p.add_argument("--dump-matrix", default=None, metavar="PATH",
                   help="also write the level generator matrix as CSV")
    p.add_argument("--format", default="csv", choices=["json", "csv"])


def _profile_flags(p):
    _add_graph_flags(p)
    p.add_argument("--function", help="dictator:v | parity_on_set:v1,v2 | majority | @table.json")
    p.add_argument("--n-grid", default=None, metavar="A:B",
                   help="sweep a bare graph family over vertex counts A..B")
    p.add_argument("--k", default=None,
                   help="comma-separated eigenvalue thresholds for the sweep")
    p.add_argument("--format", default="json", choices=["json", "csv"])


def _exact_flags(p):  # simulate's first flags too
    _add_graph_flags(p)
    p.add_argument("--function")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)


def _simulate_flags(p):
    _exact_flags(p)
    p.add_argument("--level", default="all",
                   help="start level ('all' = uniform over every configuration)")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=7)


def _verify_flags(p):
    p.add_argument("--suite", default="all")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--mc-samples", type=int, default=4000)


def _compare_flags(p):
    _add_graph_flags(p)
    _add_graph_flags(p, suffix="b")
    p.add_argument("--function", default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--kprime", type=float, default=None)


# name -> (help, the function that adds its flags, cmd_*), in the order --help lists them
SUBCOMMANDS = {
    "spectrum": ("eigenvalues and multiplicities per level", _spectrum_flags, cmd_spectrum),
    "profile": ("spectral profile of a function", _profile_flags, cmd_profile),
    "exact": ("exact covariance / flip probability", _exact_flags, cmd_exact),
    "simulate": ("Monte Carlo estimates with std errors", _simulate_flags, cmd_simulate),
    "verify": ("run the full invariant suite", _verify_flags, cmd_verify),
    "compare": ("two-graph containment/monotonicity report", _compare_flags, cmd_compare),
}


def _fill(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, add_flags, func = SUBCOMMANDS[name]
    add_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xproc",
        description="Spectral analysis and simulation of exclusion dynamics on graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, _) in SUBCOMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv as build_parser() does, building only the named subcommand's parser.

    Argv with no subcommand first, or with a word that subcommand leaves over, goes to
    the full tree, which words help, usage and errors as before. So does a word starting
    '--=': the top-level parser rejects it as ambiguous before any subcommand reads it."""
    name = argv[0] if argv else None
    if name in SUBCOMMANDS and not any(word.startswith("--=") for word in argv):
        p = _fill(argparse.ArgumentParser(prog=f"xproc {name}"), name)
        args, rest = p.parse_known_args(argv[1:])
        if not rest:
            args.subcommand = name
            return args
    return build_parser().parse_args(argv)


def apply_config_file(argv: list[str]) -> list[str]:
    """Expand --config FILE (or --config=FILE, given once) into flags read before the
    explicit ones, so that an explicit flag wins in either form (--k 1 or --k=1); a JSON
    null leaves its flag unset."""
    found = [i for i, word in enumerate(argv) if word.partition("=")[0] == "--config"]
    if not found:
        return argv
    if len(found) > 1:
        raise ConfigError("--config may be given only once")
    idx = found[0]
    _, eq, path = argv[idx].partition("=")
    rest = argv[:idx] + argv[idx + 1:]
    if not eq:
        if idx == len(rest):
            raise ConfigError("--config requires a path")
        path = rest.pop(idx)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {path}: {exc.strerror or exc}")
    except ValueError as exc:  # json.JSONDecodeError, or bytes that are not text
        raise ConfigError(f"--config: {path} is not a JSON file: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("--config: file must hold a JSON object of flag values")
    head = []
    if rest and not rest[0].startswith("-"):
        head, rest = [rest[0]], rest[1:]
    elif raw.get("subcommand") is not None:
        head = [str(raw["subcommand"])]
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in raw.items()
             if key != "subcommand" and value is not None]
    return head + flags + rest


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = apply_config_file(argv)
        args = parse_args(argv)
        check_writable("--out", args.out)
        check_writable("--dump-matrix", getattr(args, "dump_matrix", None))
        config, body = args.func(args)
        if not isinstance(body, dict):
            emit(format_csv(*body, config), args.out)
            return 0
        emit(dumps_json({"schema_version": SCHEMA_VERSION, "config": config, **body}) + "\n",
             args.out)
        return 1 if any(c["violations"] for c in body.get("checks", ())) else 0
    except (ConfigError, OSError, ValueError, StateCapExceeded) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
