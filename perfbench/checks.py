"""Output checks for every op kind, against references that share no code
with xproc.

Each check returns a list of problems; an empty list means the op's output
is correct. References are computed by run.py after the timed loop:

* verify: a well-formed report of all 12 checks with no violation. The
  Monte Carlo agreement check inside it trips at 3 standard errors on
  about 1 seed in 120 by design; it is judged here at 5 standard errors,
  the same rule as simulate ops.
* exact: dictator covariance by one-particle duality,
  Cov = 1/4 [exp(-t L)]_vv with L the rate-weighted graph Laplacian; every
  other correlation by Krylov exp(-t L_l) f_l (scipy's expm_multiply) on
  level generators built here from sparse swaps.
* spectrum and profile: on each level the eigenvalue count is C(n, l), the
  eigenvalue sum is 2 * (total edge rate) * C(n-2, l-1), and the smallest
  nonzero eigenvalue is the graph Laplacian's gap (Aldous' spectral gap
  identity, Caputo-Liggett-Richthammer); complete graphs match the
  closed-form eigenvalue table. Profiles also match the level masses of f
  and of its level means.
* simulate: within 5 standard errors of the Krylov reference, so a correct
  program fails about 1 op in 10^6.
"""

from __future__ import annotations

import json
import math
import os
from itertools import combinations

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

ATOL = 1e-9          # exact values against references
SPEC_RTOL = 1e-8     # eigenvalue sums, gaps and closed forms
MC_SIGMAS = 5.0      # Monte Carlo agreement, in standard errors
ZERO_EIG = 1e-8


def flags(argv: list[str]) -> dict[str, str]:
    return {argv[k][2:]: argv[k + 1] for k in range(1, len(argv) - 1, 2)}


def graph_edges(spec: str, rate: str | None, workdir: str) -> tuple[int, list]:
    """(n, [(u, v, rate)]) for a graph flag, built independently of xproc."""
    if spec.startswith("@"):
        with open(os.path.join(workdir, spec[1:])) as fh:
            raw = json.load(fh)
        return raw["n"], [(u, v, float(r)) for u, v, r in raw["edges"]]
    family, _, arg = spec.partition(":")
    k, r = int(arg), float(rate)
    if family == "complete":
        return k, [(u, v, r) for u, v in combinations(range(k), 2)]
    cycle = [(i, i + 1) for i in range(2 * k - 1 if family != "cycle" else k - 1)]
    if family == "cycle":
        return k, [(u, v, r) for u, v in cycle + [(0, k - 1)]]
    pairs = set(cycle) | {(0, 2 * k - 1)} | set(combinations(range(k, 2 * k), 2))
    return 2 * k, [(u, v, r) for u, v in sorted(pairs)]


def function_table(spec: str, n: int) -> np.ndarray:
    """Values of a named Boolean function over all 2^n words (vertex 0 leftmost)."""
    bits = (np.arange(1 << n)[:, None] >> (n - 1 - np.arange(n))) & 1
    head, _, arg = spec.partition(":")
    if head == "dictator":
        return bits[:, int(arg)].astype(float)
    if head == "parity_on_set":
        return (bits[:, [int(v) for v in arg.split(",")]].sum(axis=1) % 2).astype(float)
    return (bits.sum(axis=1) > n / 2).astype(float)


def level_words(n: int, level: int) -> np.ndarray:
    words = [sum(1 << (n - 1 - v) for v in c) for c in combinations(range(n), level)]
    return np.array(sorted(words), dtype=np.int64)


def level_laplacian(n: int, edges: list, words: np.ndarray) -> scipy.sparse.csr_matrix:
    """The negated generator on one level slice, as a sparse matrix."""
    rows, cols, vals = [], [], []
    diag = np.zeros(len(words))
    for u, v, rate in edges:
        bu, bv = 1 << (n - 1 - u), 1 << (n - 1 - v)
        src = np.nonzero(((words & bu) != 0) != ((words & bv) != 0))[0]
        rows.append(src)
        cols.append(np.searchsorted(words, words[src] ^ (bu | bv)))
        vals.append(np.full(len(src), -rate))
        diag[src] += rate
    size = len(words)
    off = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size))
    return off + scipy.sparse.diags(diag)


def correlation(n: int, edges: list, f: np.ndarray, t: float, level: int | None) -> float:
    """E[f(X_0) f(X_t)] from the uniform start on one level, or on all words."""
    levels = range(n + 1) if level is None else [level]
    total = 0.0
    for l in levels:
        words = level_words(n, l)
        fl = f[words]
        moved = expm_multiply(-t * level_laplacian(n, edges, words), fl)
        weight = 1.0 / len(words) if level is not None else 2.0**-n
        total += weight * float(fl @ moved)
    return total


def laplacian_gap(n: int, edges: list) -> float:
    lap = np.zeros((n, n))
    for u, v, rate in edges:
        lap[u, v] -= rate
        lap[v, u] -= rate
        lap[u, u] += rate
        lap[v, v] += rate
    return float(np.linalg.eigvalsh(lap)[1])


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def check_level_spectra(n: int, edges: list, spectra: dict[int, list[float]],
                        complete: bool) -> list[str]:
    problems = []
    total_rate = sum(r for _, _, r in edges)
    gap = laplacian_gap(n, edges)
    for level in range(n + 1):
        lam = np.sort(np.array(spectra.get(level, []), dtype=float))
        if len(lam) != math.comb(n, level):
            problems.append(f"level {level}: {len(lam)} eigenvalues, want {math.comb(n, level)}")
            continue
        scale = max(1.0, float(lam[-1]))
        trace = 2.0 * total_rate * math.comb(n - 2, level - 1) if 0 < level < n else 0.0
        if not _close(float(lam.sum()), trace, SPEC_RTOL * max(1.0, trace)):
            problems.append(f"level {level}: eigenvalue sum {lam.sum()!r}, want {trace!r}")
        if abs(lam[0]) > ZERO_EIG * scale:
            problems.append(f"level {level}: smallest eigenvalue {lam[0]!r} is not 0")
        if 0 < level < n and not _close(float(lam[1]), gap, SPEC_RTOL * scale):
            problems.append(f"level {level}: gap {lam[1]!r}, Laplacian gap {gap!r}")
        if complete:
            alpha = edges[0][2]
            want = [0.0]
            for j in range(1, min(level, n - level) + 1):
                want += [alpha * j * (n - j + 1)] * (math.comb(n, j) - math.comb(n, j - 1))
            if np.max(np.abs(lam - np.sort(want))) > SPEC_RTOL * scale:
                problems.append(f"level {level}: spectrum differs from the closed form")
    return problems


def check_spectrum(argv, text, workdir) -> list[str]:
    fl = flags(argv)
    n, edges = graph_edges(fl["graph"], fl.get("rate"), workdir)
    doc = json.loads(text)
    if doc["graph"] != {"n": n, "edges": [list(e) for e in sorted(edges)]}:
        return ["graph echo differs from the input graph"]
    spectra: dict[int, list[float]] = {}
    for row in doc["spectrum"]:
        spectra.setdefault(row["level"], []).append(row["eigenvalue"])
    return check_level_spectra(n, edges, spectra, fl["graph"].startswith("complete"))


def check_profile(argv, text, workdir) -> list[str]:
    fl = flags(argv)
    n, edges = graph_edges(fl["graph"], fl.get("rate"), workdir)
    f = function_table(fl["function"], n)
    lines = text.splitlines()
    if lines[1] != "level,eigenvalue,coeff_sq":
        return [f"unexpected CSV header {lines[1]!r}"]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    spectra = {l: list(rows[rows[:, 0] == l, 1]) for l in range(n + 1)}
    problems = check_level_spectra(n, edges, spectra, fl["graph"].startswith("complete"))
    for level in range(n + 1):
        sel = rows[rows[:, 0] == level]
        fl_vals = f[level_words(n, level)]
        share = math.comb(n, level) / 2.0**n
        zero = sel[np.abs(sel[:, 1]) <= ZERO_EIG * max(1.0, sel[:, 1].max(initial=0)), 2]
        if not _close(float(sel[:, 2].sum()), share * float(np.mean(fl_vals**2)), ATOL):
            problems.append(f"level {level}: profile mass differs from the level mass of f^2")
        if not _close(float(zero.sum()), share * float(fl_vals.mean()) ** 2, ATOL):
            problems.append(f"level {level}: zero-eigenvalue mass differs from the level mean")
    return problems


def check_exact(argv, text, workdir) -> list[str]:
    fl = flags(argv)
    n, edges = graph_edges(fl["graph"], fl.get("rate"), workdir)
    f = function_table(fl["function"], n)
    body = json.loads(text)
    mean = float(f.mean())

    def corr(t: float) -> float:
        if fl["function"].startswith("dictator:"):
            v = int(fl["function"].partition(":")[2])
            lap = np.zeros((n, n))
            for u, w, rate in edges:
                lap[[u, w], [w, u]] -= rate
                lap[[u, w], [u, w]] += rate
            return 0.25 * float(scipy.linalg.expm(-t * lap)[v, v]) + mean**2
        return correlation(n, edges, f, t, None)

    t, eps = float(fl["t"]), float(fl["eps"])
    c_t = corr(t)
    want = {"mean": mean, "variance": float(f.var()), "correlation": c_t,
            "covariance": c_t - mean**2, "flip_probability": 2.0 * (mean - corr(eps))}
    return [f"{key} = {body.get(key)!r}, reference {value!r}"
            for key, value in want.items()
            if not isinstance(body.get(key), (int, float)) or not _close(body[key], value, ATOL)]


def check_simulate(argv, text, workdir) -> list[str]:
    fl = flags(argv)
    n, edges = graph_edges(fl["graph"], fl.get("rate"), workdir)
    f = function_table(fl["function"], n)
    level = int(fl["level"]) if "level" in fl else None
    start = f if level is None else f[level_words(n, level)]
    mean = float(start.mean())
    body = json.loads(text)
    want = {"covariance": (fl.get("t"), lambda s: correlation(n, edges, f, s, level) - mean**2),
            "flip_probability": (fl.get("eps"),
                                 lambda s: 2.0 * (mean - correlation(n, edges, f, s, level)))}
    problems = []
    for key, (horizon, reference) in want.items():
        if horizon is None:
            continue
        est = body[key]
        ref = reference(float(horizon))
        tol = MC_SIGMAS * est["std_error"] if est["std_error"] > 0 else ATOL
        if est["samples"] != int(fl["samples"]) or not _close(est["point"], ref, tol):
            problems.append(f"{key} = {est['point']!r} +- {est['std_error']!r} "
                            f"over {est['samples']} samples, reference {ref!r}")
    return problems


def check_verify(argv, text, workdir) -> list[str]:
    fl = flags(argv)
    doc = json.loads(text)
    problems = []
    if (doc["config"]["seed"], doc["config"]["nmax"]) != (int(fl["seed"]), int(fl["nmax"])):
        problems.append("config echo differs from the flags")
    if len(doc["checks"]) != 12:
        problems.append(f"{len(doc['checks'])} checks, want 12")
    for c in doc["checks"]:
        if c["instances"] == 0:
            problems.append(f"{c['name']}: no instances")
        statistical = c["name"] == "monte_carlo_agreement" and c["max_residual"] <= MC_SIGMAS
        if c["violations"] and not statistical:
            problems.append(f"{c['name']}: {c['violations']} violations, "
                            f"worst {c['max_residual']!r} at {c['worst_instance']}")
    return problems


CHECKS = {"verify": check_verify, "exact": check_exact, "profile": check_profile,
          "spectrum": check_spectrum, "simulate": check_simulate}


def expected_exit_codes(argv: list[str], text: str) -> tuple[int, ...]:
    """verify exits 1 when it reports any violation, including a statistical one."""
    if argv[0] == "verify":
        try:
            return (1,) if json.loads(text)["violations"] else (0,)
        except (ValueError, KeyError, TypeError):
            return (0,)
    return (0,)


def check_op(argv: list[str], child: dict | None, workdir: str) -> list[str]:
    """Every reason the op failed: it crashed, raised, exited badly, or its
    output differs from the reference."""
    if child is None:
        return ["child process failed"]
    if child.get("raised"):
        return ["raised: " + child["raised"].strip().splitlines()[-1]]
    text = child["stdout"]
    if child["rc"] not in expected_exit_codes(argv, text):
        return [f"exit code {child['rc']}: {child['stderr'].strip()}"]
    try:
        return CHECKS[argv[0]](argv, text, workdir)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
