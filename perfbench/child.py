"""Run one xproc CLI op in this fresh process and print its record as JSON.

Usage: python3 child.py '{"argv": [...] or null, "trace": false}'

The import of xproc.cli is timed on its own (setup_s); the op is timed
around cli.main (op_s). With argv null only the import is timed. With
trace true the spans recorded by tracing.Tracer are included. xproc must
be importable, e.g. through PYTHONPATH=src.

The host's speed drifts within a single op, so while the import and the op
run, a timer signal every TICK_EVERY_S runs tick(), a fixed bit of
interpreter work that shares no code with xproc, and records how long it
took. Tick time is left out of setup_s and op_s; the tick times go into
the record, and run.py turns them into the host factor of each op. A
traced op runs no ticks.
"""

import contextlib
import io
import json
import signal
import sys
import time
import traceback

TICK_EVERY_S = 0.025


def tick() -> float:
    """Seconds for a fixed bit of interpreter work: build and read a small
    dict keyed by tuples (about 0.35 ms on the reference host)."""
    start = time.perf_counter()
    index = {}
    for i in range(2000):
        index[(i, i * i % 7)] = i
    total = 0
    for key in index:
        total += index[key]
    return time.perf_counter() - start


class HostTicks:
    """Runs tick() on a SIGALRM timer while the block runs. The handler runs
    in the main thread between bytecodes, so a long C call delays it."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.ticks: list[float] = []
        self.cost_s = 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.ticks.append(tick())
        self.cost_s += time.perf_counter() - start

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def peak_rss_kib() -> int:
    """This process's peak resident set since exec (VmHWM).

    ru_maxrss is not used: Linux carries it over from the parent through
    fork and exec, so it would report the parent's size for a small op.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    spec = json.loads(sys.argv[1])
    tick()                                   # the first call pays for lazy set-up
    with HostTicks() as ticks:
        t0 = time.perf_counter()
        from xproc import cli
        setup_s = time.perf_counter() - t0
    record = {"setup_s": setup_s - ticks.cost_s, "setup_ticks": ticks.ticks,
              "tick_cost_s": ticks.cost_s}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        rc, raised = None, None
        # A traced op runs no ticks, so that its spans hold only xproc's time.
        with HostTicks(enabled=not spec["trace"]) as ticks:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(spec["argv"])
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                raised = traceback.format_exc()
            op_s = time.perf_counter() - start
        record["op_s"] = op_s - ticks.cost_s
        record["op_ticks"] = ticks.ticks
        record["tick_cost_s"] = record["tick_cost_s"] + ticks.cost_s
        record.update(rc=rc, raised=raised, stdout=out.getvalue(), stderr=err.getvalue())
        if tracer is not None:
            record["spans"] = tracer.export(start)
    record["peak_rss_kib"] = peak_rss_kib()
    json.dump(record, sys.stdout)


if __name__ == "__main__":
    main()
