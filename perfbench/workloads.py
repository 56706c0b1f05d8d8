"""Seeded op streams for the three benchmark workloads.

An op is one `xproc` subcommand, given as its argv. A workload is an
endless, deterministic stream of ops plus the input files they read: the
same (workload, seed) always yields the same argv for op i and the same
file bytes. Each stream repeats its op kinds in a fixed round, and a run
ends on a round boundary, so every run holds the kinds in the same
proportions; run-to-run spread then comes from the machine, not from the
mix.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("verify", "exact_large", "monte_carlo")
# Ops per full round of each workload's op kinds.
ROUND = {"verify": 1, "exact_large": 12, "monte_carlo": 3}

# exact_large pairs sparse graphs (cycles) with dense, highly degenerate ones
# (complete) so that a backend tuned to one family shows a regression on the
# other. One op in four is on cycle:13, whose 1716-state slices take about
# five times as long as the others; the median and tail ops fall among the
# others rather than on the border between the two.
EXACT_GRAPHS = ("cycle:13", "complete:12", "half_complete_cycle:6", "@random12.json")
EXACT_KINDS = ("exact", "profile", "spectrum")
RANDOM_GRAPH_FILE = "random12.json"


def _function(rng: random.Random, n: int) -> str:
    kind = rng.choice(("dictator", "parity_on_set", "majority"))
    if kind == "dictator":
        return f"dictator:{rng.randrange(n)}"
    if kind == "parity_on_set":
        vertices = sorted(rng.sample(range(n), rng.randint(2, 4)))
        return "parity_on_set:" + ",".join(map(str, vertices))
    return "majority"


def random_graph_json(rng: random.Random, n: int) -> str:
    """A random spanning tree plus extra edges, with non-uniform rates."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                edges.add((u, v))
    rated = [[u, v, round(rng.uniform(0.25, 2.0), 4)] for u, v in sorted(edges)]
    return json.dumps({"n": n, "edges": rated}, indent=1) + "\n"


class Workload:
    """The op stream and input files of one workload at one seed."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.round = ROUND[name]
        self.files: dict[str, str] = {}
        if name == "exact_large":
            rng = random.Random(f"{name}:{seed}:graph")
            self.files[RANDOM_GRAPH_FILE] = random_graph_json(rng, 12)

    def op(self, i: int) -> list[str]:
        """argv of op i; file arguments are relative to the input directory."""
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        return getattr(self, "_" + self.name)(i, rng)

    def _verify(self, i: int, rng: random.Random) -> list[str]:
        return ["verify", "--suite", "all", "--nmax", "10",
                "--seed", str(rng.randrange(1, 2**31)), "--mc-samples", "4000"]

    def _exact_large(self, i: int, rng: random.Random) -> list[str]:
        graph = EXACT_GRAPHS[i % len(EXACT_GRAPHS)]
        kind = EXACT_KINDS[(i // len(EXACT_GRAPHS)) % len(EXACT_KINDS)]
        argv = [kind, "--graph", graph]
        if not graph.startswith("@"):
            # A file graph keeps its own non-uniform rates.
            argv += ["--rate", rng.choice(("0.25", "0.5", "1", "2"))]
        if kind == "spectrum":
            return argv + ["--level", "all", "--format", "json"]
        argv += ["--function", _function(rng, 12 if graph != "cycle:13" else 13)]
        if kind == "profile":
            return argv + ["--format", "csv"]
        return argv + ["--t", f"{rng.uniform(0.05, 2.0):.3f}",
                       "--eps", f"{rng.uniform(0.01, 0.5):.3f}"]

    def _monte_carlo(self, i: int, rng: random.Random) -> list[str]:
        # One short-horizon op, then two long-horizon ones: the kinds take
        # about equal shares of the time, and the median and tail ops fall
        # among the long ones rather than on the border between the kinds.
        if i % 3 == 0:
            # Short horizon, many samples: about one jump per sample, so the
            # per-sample stream construction dominates.
            n = 10
            argv = ["simulate", "--graph", "cycle:10", "--rate", "0.1",
                    "--t", "1", "--eps", "0.3", "--samples", "50000"]
        else:
            # Long horizon: about 70 jumps per sample, so the jump loop dominates.
            n = 8
            argv = ["simulate", "--graph", "complete:8", "--rate", "0.25",
                    "--t", "10", "--samples", "5000"]
        argv += ["--function", _function(rng, n), "--seed", str(rng.randrange(2**31))]
        if (i // 3) % 4 == 3:
            argv += ["--level", str(n // 2 + rng.choice((-1, 0, 1)))]
        return argv
