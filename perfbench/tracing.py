"""Spans around xproc's public functions, recorded from outside the package.

In a traced child, `install()` replaces each listed function with a wrapper
in every `xproc` module namespace that holds it, so calls made through any
import path are seen. A wrapper records one span per call: its layer, its
parent span, start, end, whether it raised, and counts derived from the
arguments or the result after the end time is taken. Spans stay in memory;
the child hands them to run.py once, when the op is done.

`layer_metrics` turns the spans of many ops into the per-layer metrics of
BENCHMARK.json: calls, self time and errors per layer, plus the computed
counts. A layer's self time is its span durations minus the time covered
by its direct child spans.
"""

from __future__ import annotations

import math
import sys
import time

VERIFY_CHECKS = (
    "generator_invariants", "eigensolver", "complete_multiplicities",
    "lift_lengths", "orthogonality_preserved", "eigenvalue_bound", "parseval",
    "oracle_equivalence", "containment", "projection_mass", "monotonicity",
    "monte_carlo",
)

# layer name -> the (module, function) pairs whose spans it collects
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("cli", "main"),),
    "cli.dumps_json": (("cli", "dumps_json"),),
    "graph.make": (("graph", "make_complete"), ("graph", "make_cycle"),
                   ("graph", "make_half_complete_cycle"), ("graph", "load_graph")),
    "graph.is_connected": (("graph", "is_connected"),),
    "statespace.enumerate_level": (("statespace", "enumerate_level"),),
    "generator.build_level_generator": (("generator", "build_level_generator"),),
    "generator.dirichlet_form": (("generator", "dirichlet_form"),),
    "spectral.eigendecompose": (("spectral", "eigendecompose"),),
    "spectral.lift": (("spectral", "lift_up"), ("spectral", "lift_down"),
                      ("spectral", "sum_lift")),
    "spectral.mirror_basis": (("spectral", "mirror_basis"),),
    "spectral.complete_graph_basis": (("spectral", "complete_graph_basis"),),
    "fourier.spectral_profile": (("fourier", "spectral_profile"),),
    "fourier.exact": (("fourier", "exact_correlation"), ("fourier", "exact_covariance"),
                      ("fourier", "exact_flip_probability")),
    "dynamics.estimate": (("dynamics", "estimate_covariance"),
                          ("dynamics", "estimate_flip_probability")),
    "dynamics.sample_rng": (("dynamics", "sample_rng"),),
    "oracle.matrix_exponential": (("oracle", "matrix_exponential"),),
    "oracle.brute_force_correlation": (("oracle", "brute_force_correlation"),),
    "diagnostics.containment_residual": (("diagnostics", "containment_residual"),),
    "diagnostics.projection_mass_inequality": (("diagnostics", "projection_mass_inequality"),),
    "diagnostics.monotonicity_inequality_check": (
        ("diagnostics", "monotonicity_inequality_check"),),
    "diagnostics.spectra_domination_gap": (("diagnostics", "spectra_domination_gap"),),
    **{f"verify.check.{c}": (("verify", f"check_{c}"),) for c in VERIFY_CHECKS},
}
LAYER_NAMES = tuple(LAYERS)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _generator_counts(args, kwargs, gen):
    n, level, edges = gen.space.n, gen.space.level, len(gen.graph.edges)
    # Each edge joins exactly 2*C(n-2, level-1) pairs of states of the slice.
    nnz = 2 * edges * math.comb(n - 2, level - 1) if 0 < level < n else 0
    return {"states": gen.space.size, "offdiag_nnz": nnz,
            "bytes_computed": gen.matrix.nbytes, "key": (gen.graph, level)}


def _eigen_counts(args, kwargs, basis):
    gen = _arg(args, kwargs, 0, "gen")
    m = gen.space.size
    # Dense symmetric eigensolve with vectors: about 9 m^3 flops (Golub and
    # Van Loan, symmetric QR); it reads the m x m matrix and writes as many
    # vector entries.
    return {"states": m, "flops_computed": 9 * m**3, "bytes_computed": 16 * m * m,
            "key": (gen.graph, gen.space.level)}


def _estimate_counts(args, kwargs, est):
    g = _arg(args, kwargs, 0, "g")
    horizon = float(args[2]) if len(args) > 2 else float(kwargs.get("t", kwargs.get("eps")))
    total_rate = sum(rate for _, _, rate in g.edges)
    # A path over horizon s makes Poisson(total_rate * s) jumps on average.
    return {"samples": est.samples, "jumps_computed": est.samples * total_rate * horizon}


COUNTS = {
    "statespace.enumerate_level": lambda a, k, r: {"states": r.size},
    "generator.build_level_generator": _generator_counts,
    "spectral.eigendecompose": _eigen_counts,
    "spectral.lift": lambda a, k, r: {"states": len(r)},
    "fourier.spectral_profile": lambda a, k, r: {"states": int(r.coefficients.size)},
    "oracle.matrix_exponential": lambda a, k, r: {"states": r.space.size},
    "dynamics.estimate": _estimate_counts,
}
EXTRA_COUNTS = {
    "statespace.enumerate_level": ("states",),
    "generator.build_level_generator": ("states", "offdiag_nnz", "bytes_computed"),
    "spectral.eigendecompose": ("states", "flops_computed", "bytes_computed"),
    "spectral.lift": ("states",),
    "fourier.spectral_profile": ("states",),
    "oracle.matrix_exponential": ("states",),
    "dynamics.estimate": ("samples", "jumps_computed"),
}
UNIQUE_FRAC = ("generator.build_level_generator", "spectral.eigendecompose")

# metric suffix -> (unit, better)
UNITS = {
    "calls": ("call/op", "lower"), "self_s": ("s/op", "lower"),
    "errors": ("error/op", "lower"), "states": ("state/op", "lower"),
    "offdiag_nnz": ("entry/op", "lower"), "bytes_computed": ("B/op", "lower"),
    "flops_computed": ("flop/op", "lower"), "unique_frac": ("ratio", "higher"),
    "samples": ("sample/op", "higher"), "jumps_computed": ("jump/op", "lower"),
    "s_per_sample": ("s/sample", "lower"),
}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYER_NAMES:
        if layer.startswith("verify.check."):
            suffixes = ["self_s"]
        else:
            suffixes = ["calls", "self_s", "errors", *EXTRA_COUNTS.get(layer, ())]
            if layer in UNIQUE_FRAC:
                suffixes.append("unique_frac")
            if layer == "dynamics.estimate":
                suffixes.append("s_per_sample")
        out += [(f"{layer}.{s}", *UNITS[s]) for s in suffixes]
    out.append(("trace_overhead_frac", "ratio", "lower"))
    return out


class Tracer:
    """Wraps xproc's public functions and keeps one span per call in memory.

    A span is [layer index, parent span index or -1, start, end, raised,
    counts or None]. A call a function makes to itself stays inside its
    outer span, so recursive serialization is one span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._fns = [None]
        self._keys: dict = {}

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "xproc" or name.startswith("xproc."))]
        for index, (layer, members) in enumerate(LAYERS.items()):
            for module, fname in members:
                # A function the program no longer has leaves its layer at 0.
                original = getattr(sys.modules.get(f"xproc.{module}"), fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(index, original, COUNTS.get(layer))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _wrap(self, index, fn, count):
        spans, stack, fns, keys = self.spans, self._stack, self._fns, self._keys
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if fns[-1] is fn:
                return fn(*args, **kwargs)
            span = [index, stack[-1], 0.0, 0.0, 0, None]
            stack.append(len(spans))
            fns.append(fn)
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4] = 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
                fns.pop()
            if count is not None:
                counts = count(args, kwargs, result)
                if "key" in counts:
                    counts["key"] = keys.setdefault(counts["key"], len(keys))
                span[5] = counts
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def export(self, origin: float) -> list[list]:
        """Spans with times in seconds since origin, ready for JSON."""
        return [[l, p, round(s - origin, 7), round(e - origin, 7), err, c]
                for l, p, s, e, err, c in self.spans]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for _, _, s, e, _, _ in spans]
    for _, parent, s, e, _, _ in spans:
        if parent >= 0:
            own[parent] -= e - s
    return own


def layer_metrics(ops: list[list[list]]) -> dict[str, float]:
    """Per-op means of every per-layer metric over the spans of traced ops."""
    calls = dict.fromkeys(LAYER_NAMES, 0)
    errors = dict.fromkeys(LAYER_NAMES, 0)
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    inclusive = dict.fromkeys(LAYER_NAMES, 0.0)
    extra = {layer: dict.fromkeys(keys, 0.0) for layer, keys in EXTRA_COUNTS.items()}
    distinct = dict.fromkeys(UNIQUE_FRAC, 0)
    for spans in ops:
        keys = {layer: set() for layer in UNIQUE_FRAC}
        for span, own in zip(spans, self_times(spans)):
            layer = LAYER_NAMES[span[0]]
            calls[layer] += 1
            errors[layer] += span[4]
            self_s[layer] += own
            inclusive[layer] += span[3] - span[2]
            counts = span[5]
            if counts:
                for k in extra[layer]:
                    extra[layer][k] += counts[k]
                if "key" in counts:
                    keys[layer].add(counts["key"])
        for layer in UNIQUE_FRAC:
            distinct[layer] += len(keys[layer])
    n_ops = max(len(ops), 1)
    out = {}
    for name, _, _ in metric_names():
        layer, _, suffix = name.rpartition(".")
        if suffix == "calls":
            out[name] = calls[layer] / n_ops
        elif suffix == "self_s":
            out[name] = self_s[layer] / n_ops
        elif suffix == "errors":
            out[name] = errors[layer] / n_ops
        elif suffix == "unique_frac":
            out[name] = distinct[layer] / calls[layer] if calls[layer] else 0.0
        elif suffix == "s_per_sample":
            samples = extra[layer]["samples"]
            out[name] = inclusive[layer] / samples if samples else 0.0
        elif layer in extra:
            out[name] = extra[layer][suffix] / n_ops
    return out
