"""Finite simple graphs with per-edge swap rates.

Vertices are labeled 0..n-1. Edges are stored canonically as (u, v, rate)
with u < v, sorted lexicographically, so that a graph has exactly one
representation and file output is deterministic.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .statespace import pair_row, read_only


class GraphFormatError(ValueError):
    """A malformed graph file or edge list; index is the offending edge's, if one is."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with a finite, strictly positive rate on each edge.

    The rates must also have a finite sum, which bounds every generator entry.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...] = field(default=())

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 vertices, got n={self.n}")
        canon = []
        seen = set()
        for k, e in enumerate(self.edges):
            try:
                u, v, rate = e
            except (TypeError, ValueError):
                raise GraphFormatError(f"edge {k}: expected (u, v, rate), got {e!r}", k)
            # Plain int endpoints and a plain float rate are canonical already.
            if not (type(u) is int and type(v) is int and type(rate) is float):
                # int() and float() accept booleans; numpy's are not bool instances
                if any(isinstance(x, bool) or getattr(x, "dtype", None) == bool
                       for x in (u, v, rate)):
                    raise GraphFormatError(
                        f"edge {k}: endpoints and rate cannot be booleans, got {e!r}", k)
                # float() would also read a string such as "1.5"
                if not isinstance(rate, numbers.Real):
                    raise GraphFormatError(
                        f"edge {k}: rate must be a real number, got {rate!r}", k)
                try:
                    iu, iv, rate = int(u), int(v), float(rate)
                    integral = (iu, iv) == (u, v)
                except (TypeError, ValueError, OverflowError):
                    integral = False
                if not integral:
                    raise GraphFormatError(
                        f"edge {k}: expected integer endpoints and a numeric rate, got {e!r}", k)
                u, v = iu, iv
            if not (0 <= u < v < self.n):
                raise GraphFormatError(
                    f"edge {k}: endpoints must satisfy 0 <= u < v < n, got ({u}, {v}) with n={self.n}",
                    k,
                )
            if (u, v) in seen:
                raise GraphFormatError(f"edge {k}: duplicate edge ({u}, {v})", k)
            if not (math.isfinite(rate) and rate > 0.0):
                raise GraphFormatError(f"edge {k}: rate must be finite and > 0, got {rate}", k)
            seen.add((u, v))
            canon.append((u, v, rate))
        total = sum(rate for _, _, rate in canon)
        if not math.isfinite(total):
            raise GraphFormatError(f"edge rates sum to {total}; the total rate must be finite")
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, v, _ in self.edges)

    @cached_property  # kept in the instance __dict__, outside the compared fields
    def connected(self) -> bool:
        return is_connected(self)

    # Read-only arrays over the edges, in edge order, each built once per graph.
    @cached_property
    def ends(self) -> np.ndarray:
        """int64 (edges, 2) array of the endpoints."""
        return read_only(np.array([e[:2] for e in self.edges], dtype=np.int64).reshape(-1, 2))

    @cached_property
    def rates(self) -> np.ndarray:
        return read_only(np.array([e[2] for e in self.edges], dtype=float))

    @cached_property
    def swap_rows(self) -> np.ndarray:
        """Each edge's row in LevelStateSpace.swaps (statespace.pair_row)."""
        rows = [pair_row(self.n, u, v) for u, v, _ in self.edges]
        return read_only(np.array(rows, dtype=np.intp))

    # The dataclass hash of (n, edges), kept once per instance: graphs key the
    # basis table's dicts, and hashing the edge tuple visits every edge.
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.edges))


# A named graph is built once per (size, rate) and shared: every caller gets
# one object, so the dicts that graphs key compare it by identity, not edge
# by edge. typed: a bool, int or float rate is its own key, as Graph checks it.
named_graph = lru_cache(maxsize=None, typed=True)


@named_graph
def make_complete(n: int, rate: float) -> Graph:
    """Complete graph on n vertices, every edge at the given rate."""
    edges = [(u, v, rate) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, tuple(edges))


@named_graph
def make_cycle(n: int, rate: float) -> Graph:
    """Cycle 0-1-2-...-(n-1)-0, every vertex of degree 2."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    edges = [(i, i + 1, rate) for i in range(n - 1)]
    edges.append((0, n - 1, rate))
    return Graph(n, tuple(edges))


@named_graph
def make_half_complete_cycle(n: int, rate: float) -> Graph:
    """Cycle on 2n vertices plus all chords among the upper half {n..2n-1}.

    Chords that coincide with cycle edges are not duplicated.
    """
    if n < 2:
        raise ValueError(f"half-complete cycle needs n >= 2, got {n}")
    base = make_cycle(2 * n, rate)
    present = set(base.edge_set())
    edges = list(base.edges)
    for u in range(n, 2 * n):
        for v in range(u + 1, 2 * n):
            if (u, v) not in present:
                edges.append((u, v, rate))
    return Graph(2 * n, tuple(edges))


# family name -> maker(size, rate); half_complete_cycle's size is half its vertex count
FAMILIES = {
    "complete": make_complete,
    "cycle": make_cycle,
    "half_complete_cycle": make_half_complete_cycle,
}


def with_rate(g: Graph, rate: float) -> Graph:
    """g with every edge at the given rate."""
    return Graph(g.n, tuple((u, v, rate) for u, v, _ in g.edges))


def degrees(g: Graph) -> list[int]:
    deg = [0] * g.n
    for u, v, _ in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def max_degree(g: Graph) -> int:
    """Maximum number of edges incident to any vertex."""
    return max(degrees(g))


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component."""
    adj = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.n


def uniform_rate(g: Graph) -> float:
    """The common edge rate; raises if rates are not all equal."""
    rates = {r for _, _, r in g.edges}
    if len(rates) != 1:
        raise ValueError(f"graph does not have a uniform rate: {sorted(rates)}")
    return rates.pop()


def is_complete(g: Graph) -> bool:
    return len(g.edges) == math.comb(g.n, 2)


def is_edge_subgraph(small: Graph, big: Graph) -> bool:
    """True iff small's rated edges all appear in big with identical rates."""
    if small.n != big.n:
        return False
    rated = {(u, v): r for u, v, r in big.edges}
    return all((u, v) in rated and rated[(u, v)] == r for u, v, r in small.edges)


def to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v, r] for u, v, r in g.edges]}


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(g), fh, indent=2)
        fh.write("\n")


def load_graph(path: str) -> Graph:
    """Load {"n": int, "edges": [[u, v, rate], ...]} from a JSON file.

    Malformed entries are reported with the offending edge index and, when
    the file has one edge per line, the line number.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict) or "n" not in raw or "edges" not in raw:
        raise GraphFormatError(f"{path}: expected an object with keys 'n' and 'edges'")
    # JSON true and false load as bools, an int subclass, so they fail as 1 and 0.
    if not isinstance(raw["n"], int) or raw["n"] < 2:
        raise GraphFormatError(f"{path}: 'n' must be an integer >= 2, got {raw['n']!r}")
    if not isinstance(raw["edges"], list):
        raise GraphFormatError(f"{path}: 'edges' must be a list")
    for k, entry in enumerate(raw["edges"]):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise GraphFormatError(
                f"{path}: {_locate_edge(text, k)}: expected [u, v, rate], got {entry!r}"
            )
    try:
        return Graph(raw["n"], tuple((e[0], e[1], e[2]) for e in raw["edges"]))
    except GraphFormatError as exc:
        where = "" if exc.index is None else f"{_locate_edge(text, exc.index)}: "
        raise GraphFormatError(f"{path}: {where}{exc}", exc.index) from exc


_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"\s*")


def _locate_edge(text: str, k: int) -> str:
    """Locate edge entry k of a parsed file; line-precise for one-edge-per-line files.

    Steps over the entries of the first list after the "edges" key, of any
    JSON type, one raw_decode each.
    """
    key = text.find('"edges"')
    pos = text.find("[", key) if key >= 0 else -1
    for i in range(k + 1 if pos >= 0 else 0):
        pos = _SPACE.match(text, pos + 1).end()   # entry i, past "[" or ","
        if i == k and text[pos] != "]":
            line = text.count("\n", 0, pos) + 1
            return f"edges[{k}] (line {line})"
        try:
            pos = _SPACE.match(text, _DECODER.raw_decode(text, pos)[1]).end()
        except ValueError:   # the list ends before entry k
            break
        if text[pos] != ",":
            break
    return f"edges[{k}]"
