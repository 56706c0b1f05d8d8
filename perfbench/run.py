"""Benchmark entry point: run one seeded workload of real xproc CLI ops and print
every metric by name.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Each op runs as xproc.cli.main(argv) in a fresh child process, one child at
a time (a closed loop with one client), as a CLI user pays for it. With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
each op runs twice, untraced and traced, and the line holds the per-layer
metrics and the tracing overhead. The line before it is the full record:
environment, seed, op list, op counts, the tail percentile and the raw
wall-clock times. Both are also written under .perfbench/ together with
the spans of a traced run.

The host this runs on is shared, and its speed drifts by up to a factor of
two within seconds. So while each child imports xproc and runs its op, a
timer samples the time of a fixed tick of interpreter work that shares no
code with xproc (child.py). An op's host factor is its mean tick time over
TICK_REF_S, and every reported time is divided by it: times read as
seconds on a host where a tick takes TICK_REF_S. The record keeps the raw
wall-clock values beside them.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import gzip
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import checks
import tracing
from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
ROUND_GRACE_S = 45   # no op starts this long past --seconds, even mid-round
OP_GRACE_S = 90      # an op may run this long past --seconds before it is killed
# The tick time (child.tick) that host-normalized times are scaled to: a tick
# run alone takes about this long on an unloaded 2-vCPU Xeon at 2.0 GHz. Ticks
# inside an op take longer, and on that host, unloaded, a verify op of 3.3 s
# wall time normalizes to about 3.2 s.
TICK_REF_S = 0.35e-3
# A child with fewer ticks than this in its op (one spent in a few long C
# calls) or in its import takes the host factor of its whole run there.
MIN_TICKS = 4
# name -> unit of every end-to-end metric. ok_frac is 1 - failed/attempted:
# the complement keeps the metric nonzero on a correct program.
END_TO_END = {"ops_per_s": "op/s", "op_s_p50": "s", "op_s_tail": "s",
              "peak_rss_mb": "MiB", "setup_s": "s", "ok_frac": "ratio"}


def child_command(spec: dict) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), json.dumps(spec)]


def run_child(argv: list[str] | None, trace: bool, workdir: Path,
              timeout: float = PROBE_TIMEOUT_S) -> dict | None:
    """Run one op (or, with argv None, only the import) in a fresh process;
    None when the child crashed or was killed at the timeout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(child_command({"argv": argv, "trace": trace}), cwd=workdir,
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout)


def host_factors(children: list[dict | None]) -> tuple[float, list[float], list[float]]:
    """(run factor, factor of each child's op, factor of each child's import):
    mean tick time over TICK_REF_S, over every tick of the run and over the
    part's own ticks."""
    ticks = [t for c in children if c for t in c["setup_ticks"] + c.get("op_ticks", [])]
    run_factor = statistics.fmean(ticks) / TICK_REF_S

    def own(part: str) -> list[float]:
        return [statistics.fmean(c[part]) / TICK_REF_S
                if c and len(c.get(part, ())) >= MIN_TICKS else run_factor for c in children]

    return run_factor, own("op_ticks"), own("setup_ticks")


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) at the highest percentile with at
    least 10 ops beyond it, but never below the median: with fewer than 22
    ops no percentile at or above the median has 10 ops beyond it, and the
    median op is reported."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def blas_threads() -> int | None:
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed, "git_commit": commit, "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "child_command": child_command({"argv": ["<op argv>"], "trace": False}),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = Workload(workload_name, seed)
    workdir = OUT / "work" / f"{workload_name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in workload.files.items():
        (workdir / name).write_text(text)

    run_child(None, False, workdir)          # compiles bytecode and warms the file cache
    setup_children = [run_child(None, False, workdir) for _ in range(SETUP_PROBES)]
    ops, children, traced_flags, op_walls = [], [], [], []
    start = time.perf_counter()
    i = 0
    # Measure for at least `seconds`, then finish the current round of op kinds
    # unless the host has slowed so much that the round would run on too long.
    while (time.perf_counter() - start < seconds
           or i % workload.round and time.perf_counter() - start < seconds + ROUND_GRACE_S):
        argv = workload.op(i)
        # A traced run pairs each op with an untraced copy, alternating order.
        modes = [False] if not trace else ([False, True] if i % 2 == 0 else [True, False])
        for mode in modes:
            ops.append(argv)
            traced_flags.append(mode)
            t0 = time.perf_counter()
            children.append(run_child(argv, mode, workdir,
                                      start + seconds + OP_GRACE_S - time.perf_counter()))
            op_walls.append(time.perf_counter() - t0)
        i += 1
    wall = time.perf_counter() - start
    if not any(children):
        sys.exit("perfbench: no op ran to completion; see the errors above")
    every_child = setup_children + children
    host, factors, setup_factors = host_factors(every_child)
    factors = factors[len(setup_children):]
    raw_setup = [c["setup_s"] for c in every_child if c]
    setup = [c["setup_s"] / f for c, f in zip(every_child, setup_factors) if c]
    # Each op's time in the loop, less the ticks its child ran.
    op_walls = [w - (c["tick_cost_s"] if c else 0.0) for w, c in zip(op_walls, children)]

    problems = [checks.check_op(argv, child, str(workdir))
                for argv, child in zip(ops, children)]
    failed = sum(1 for p in problems if p)
    record = {"workload": workload_name, "seconds": seconds, "trace": trace,
              "environment": environment(seed), "attempted": len(ops), "failed": failed,
              "failures": [{"op": i, "argv": ops[i], "problems": p}
                           for i, p in enumerate(problems) if p],
              "ops": ops, "wall_s": wall, "host_factor": host, "op_host_factor": factors,
              "op_wall_s": op_walls, "op_s": [c["op_s"] if c else None for c in children]}
    if not trace:
        raw_times = [c["op_s"] for c in children if c]
        record["wall_clock"] = {"ops_per_s": (len(ops) - failed) / sum(op_walls),
                                "op_s_p50": statistics.median(raw_times),
                                "op_s_tail": tail(raw_times)[0],
                                "setup_s": statistics.median(raw_setup)}
        times = [c["op_s"] / f for c, f in zip(children, factors) if c]
        tail_s, tail_pct, beyond = tail(times)
        record["tail"] = {"percentile": tail_pct, "ops": len(times), "ops_beyond": beyond}
        values = {
            "ops_per_s": (len(ops) - failed) / sum(w / f for w, f in zip(op_walls, factors)),
            "op_s_p50": statistics.median(times),
            "op_s_tail": tail_s,
            "peak_rss_mb": max(c["peak_rss_kib"] for c in children if c) / 1024,
            "setup_s": statistics.median(setup),
            "ok_frac": (len(ops) - failed) / len(ops),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    else:
        traced = [(argv, c) for argv, c, t in zip(ops, children, traced_flags) if c and t]
        untraced_s = sum(c["op_s"] for c, t in zip(children, traced_flags) if c and not t)
        values = tracing.layer_metrics([c["spans"] for _, c in traced])
        values["trace_overhead_frac"] = sum(c["op_s"] for _, c in traced) / untraced_s - 1
        metrics = {name: (values[name] / host if unit.startswith("s/") else values[name], unit)
                   for name, unit, _ in tracing.metric_names()}
        with gzip.open(OUT / f"trace-{workload_name}.jsonl.gz", "wt") as fh:
            for op_id, (argv, child) in enumerate(traced):
                for span_id, (layer, parent, s, e, err, counts) in enumerate(child["spans"]):
                    fh.write(json.dumps({
                        "op": op_id, "span": span_id, "parent": parent,
                        "name": tracing.LAYER_NAMES[layer], "start": s, "end": e,
                        "error": err, "counts": counts}) + "\n")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    record["result"] = result
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify", "exact_large", "monte_carlo"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "xproc" / "cli.py").is_file():
        print(f"perfbench: no xproc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = record.pop("result")
    record.pop("ops")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
