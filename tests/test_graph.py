"""Graph families, validation, and the JSON file format."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xproc.graph import (
    Graph,
    GraphFormatError,
    is_connected,
    load_graph,
    make_complete,
    make_cycle,
    make_half_complete_cycle,
    max_degree,
    save_graph,
    uniform_rate,
    with_rate,
)
from xproc.statespace import pair_row


def test_complete_smallest():
    g = make_complete(2, 1.0)
    assert g.edges == ((0, 1, 1.0),)


def test_complete_edge_count():
    g = make_complete(4, 0.25)
    assert len(g.edges) == 6
    assert all(r == 0.25 for _, _, r in g.edges)


def test_complete_k7():
    g = make_complete(7, 1 / 6)
    assert len(g.edges) == 21
    assert max_degree(g) == 6


@pytest.mark.parametrize("n", range(2, 21))
def test_complete_edge_count_formula(n):
    assert len(make_complete(n, 1.0).edges) == n * (n - 1) // 2


def test_cycle_four():
    g = make_cycle(4, 0.5)
    assert g.edge_set() == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert all(r == 0.5 for _, _, r in g.edges)


def test_cycle_triangle_is_k3():
    assert make_cycle(3, 1.0).edge_set() == make_complete(3, 1.0).edge_set()


def test_cycle_fourteen_degrees():
    g = make_cycle(14, 0.5)
    assert len(g.edges) == 14
    assert max_degree(g) == 2


def test_half_complete_cycle_counts():
    # chords among the upper half, deduplicated against the cycle
    g = make_half_complete_cycle(7, 1 / 6)
    assert len(g.edges) == 14 + (math.comb(7, 2) - 6)
    g3 = make_half_complete_cycle(3, 0.5)
    assert g3.n == 6
    # brute-force pair count: upper-half pairs not already cycle edges
    cyc = make_cycle(6, 0.5).edge_set()
    extra = [
        (u, v) for u in range(3, 6) for v in range(u + 1, 6) if (u, v) not in cyc
    ]
    assert len(g3.edges) == 6 + len(extra) == 7


def test_half_complete_cycle_dedup():
    g = make_half_complete_cycle(2, 1.0)
    assert g.edge_set() == make_cycle(4, 1.0).edge_set()


def test_half_complete_cycle_max_degree():
    # a boundary upper vertex has 1 lower + 1 upper cycle neighbor + 5 chords
    g = make_half_complete_cycle(7, 1 / 6)
    deg = {v: 0 for v in range(g.n)}
    for u, v, _ in g.edges:
        deg[u] += 1
        deg[v] += 1
    assert max_degree(g) == max(deg.values()) == 7


@pytest.mark.parametrize("n", range(2, 8))
def test_example_chain_containment(n):
    cyc = make_cycle(2 * n, 1.0).edge_set()
    half = make_half_complete_cycle(n, 1.0).edge_set()
    comp = make_complete(2 * n, 1.0).edge_set()
    assert cyc <= half <= comp
    if n >= 3:
        assert cyc < half
    assert half < comp


@pytest.mark.parametrize(
    "maker,args",
    [
        (make_complete, (5, 1.0)),
        (make_cycle, (9, 0.5)),
        (make_half_complete_cycle, (4, 0.25)),
    ],
)
def test_families_connected(maker, args):
    assert is_connected(maker(*args))


def test_connectivity_cases():
    assert is_connected(make_complete(5, 1.0))
    two_pairs = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    assert not is_connected(two_pairs)
    path = Graph(10, tuple((i, i + 1, 1.0) for i in range(9)))
    assert is_connected(path)


def test_max_degree_cycle_and_complete():
    assert max_degree(make_cycle(6, 1.0)) == 2
    assert max_degree(make_complete(7, 1.0)) == 6


def test_invalid_parameters():
    with pytest.raises(ValueError):
        make_complete(1, 1.0)
    with pytest.raises(ValueError):
        make_complete(3, 0.0)
    with pytest.raises(ValueError):
        make_cycle(2, 1.0)
    with pytest.raises(ValueError):
        make_half_complete_cycle(1, 1.0)


def test_graph_validation():
    with pytest.raises(GraphFormatError):
        Graph(3, ((0, 0, 1.0),))
    with pytest.raises(GraphFormatError):
        Graph(3, ((1, 0, 1.0),))
    with pytest.raises(GraphFormatError):
        Graph(3, ((0, 1, 1.0), (0, 1, 2.0)))
    with pytest.raises(GraphFormatError):
        Graph(3, ((0, 1, -1.0),))
    with pytest.raises(ValueError):
        Graph(1, ())


def test_canonical_edge_order():
    g = Graph(4, ((2, 3, 1.0), (0, 1, 1.0), (0, 2, 1.0)))
    assert g.edges == ((0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0))


def test_uniform_rate():
    assert uniform_rate(make_cycle(5, 0.3)) == 0.3
    mixed = Graph(3, ((0, 1, 1.0), (1, 2, 2.0)))
    with pytest.raises(ValueError):
        uniform_rate(mixed)


def test_json_roundtrip(tmp_path):
    g = make_half_complete_cycle(3, 0.125)
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    assert load_graph(str(path)) == g


def test_loader_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{\n  "n": 4,\n  "edges": [\n    [0, 1, 1.0],\n    [1, 1, 1.0]\n  ]\n}\n'
    )
    with pytest.raises(GraphFormatError) as exc:
        load_graph(str(path))
    assert "edges[1]" in str(exc.value)
    assert "line 5" in str(exc.value)


def test_loader_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 4, "edges": [[0, 1,]]}')
    with pytest.raises(GraphFormatError) as exc:
        load_graph(str(path))
    assert "line" in str(exc.value)


def test_loader_rejects_wrong_shape(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1]]}))
    with pytest.raises(GraphFormatError):
        load_graph(str(path))


@pytest.mark.parametrize("rate", [math.inf, math.nan, "abc", "1.5"])
def test_bad_rate_rejected_with_edge_index(rate):
    with pytest.raises(GraphFormatError, match="edge 1:"):
        Graph(3, ((0, 1, 1.0), (1, 2, rate)))


@pytest.mark.parametrize("literal", ["1e999", "NaN", '"abc"', '"1.5"'])
def test_loader_rejects_bad_rate(tmp_path, literal):
    path = tmp_path / "bad.json"
    path.write_text(
        '{\n  "n": 3,\n  "edges": [\n    [0, 1, 1.0],\n    [1, 2, ' + literal + ']\n  ]\n}\n'
    )
    with pytest.raises(GraphFormatError) as exc:
        load_graph(str(path))
    assert "edges[1] (line 5)" in str(exc.value)
    assert "edge 1:" in str(exc.value)


BAD_EDGES = [(1.7, 2, 1.0), (1, 2.5, 1.0), (False, 2, 1.0), (True, 2, 1.0), (1, 2, True),
             (1, 2, np.True_), ("1", 2, 1.0), (1, math.inf, 1.0), (math.nan, 2, 1.0)]


@pytest.mark.parametrize("edge", BAD_EDGES, ids=repr)
def test_non_integral_or_boolean_edge_rejected_with_edge_index(edge):
    with pytest.raises(GraphFormatError, match="edge 1:"):
        Graph(3, ((0, 1, 1.0), edge))


def test_integral_endpoints_of_any_numeric_type_accepted():
    g = Graph(3, ((np.int64(0), 1.0, np.float64(0.5)), (1, np.float64(2), 2)))
    assert g.edges == ((0, 1, 0.5), (1, 2, 2.0))
    assert all(type(x) is int for u, v, _ in g.edges for x in (u, v))


def test_edge_arrays_hold_each_edge_in_order_and_are_read_only():
    g = Graph(5, ((3, 4, 0.5), (0, 2, 2.0), (1, 4, 1.25), (0, 1, 1.0)))
    # numpy endpoints and an int rate take the checked path to the same graph
    twin = Graph(5, ((np.int64(3), 4, np.float64(0.5)), (0, 2, 2), (1, np.int32(4), 1.25),
                     (0, 1, 1.0)))
    assert twin == g and all(type(r) is float for _, _, r in twin.edges)
    for h in (g, twin):
        assert h.ends.tolist() == [[u, v] for u, v, _ in g.edges]
        assert h.rates.tolist() == [r for _, _, r in g.edges]
        assert h.swap_rows.tolist() == [pair_row(5, u, v) for u, v, _ in g.edges]
        assert h.ends.dtype == np.int64 and h.rates.dtype == float
        for arr in (h.ends, h.rates, h.swap_rows):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
    assert "rates" not in repr(g) and hash(twin) == hash(g)


@pytest.mark.parametrize("entry", ["[0, 2.5, 1.0]", "[false, 2, 1.0]", "[1, 2, true]"])
def test_loader_rejects_non_integral_or_boolean_edge(tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "n": 3,\n  "edges": [\n    [0, 1, 1.0],\n    ' + entry + '\n  ]\n}\n')
    with pytest.raises(GraphFormatError) as exc:
        load_graph(str(path))
    assert "edges[1] (line 5)" in str(exc.value)
    assert "edge 1:" in str(exc.value)


@pytest.mark.parametrize("edge", BAD_EDGES + [(1, 2), (1, 1, 1.0), (1, 3, 1.0), (0, 1, 2.0),
                                              (1, 2, -1.0), (1, 2, "1.5")], ids=repr)
def test_format_error_carries_edge_index(edge):
    with pytest.raises(GraphFormatError) as exc:
        Graph(3, ((0, 1, 1.0), edge))
    assert exc.value.index == 1


def test_loader_keeps_the_edge_index(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "edges": [\n[0, 1, 1.0],\n[0, 1, 2.0]]}')
    with pytest.raises(GraphFormatError) as exc:
        load_graph(str(path))
    assert exc.value.index == 1
    assert str(exc.value) == f"{path}: edges[1] (line 3): edge 1: duplicate edge (0, 1)"


def test_format_error_without_an_edge_has_no_index(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": "3", "edges": []}')
    with pytest.raises(GraphFormatError) as exc:
        load_graph(str(path))
    assert exc.value.index is None


def test_rates_whose_sum_overflows_are_refused(tmp_path):
    # each rate is finite, but a generator's diagonal entry can reach their sum
    with pytest.raises(GraphFormatError, match="^edge rates sum to inf; the total rate "
                                               "must be finite$") as exc:
        make_cycle(5, 1e308)
    assert exc.value.index is None
    big = 0.5 * np.finfo(float).max
    assert Graph(3, ((0, 1, big), (1, 2, big))).edges[0][2] == big
    with pytest.raises(GraphFormatError, match="sum to inf"):
        with_rate(make_cycle(5, 1.0), 1e308)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]}))
    with pytest.raises(GraphFormatError, match=f"^{re.escape(str(path))}: edge rates sum to inf"):
        load_graph(str(path))


def test_with_rate_matches_the_family_at_that_rate():
    assert with_rate(make_cycle(5, 1.0), 0.5) == make_cycle(5, 0.5)
    assert with_rate(make_half_complete_cycle(3, 2.0), 0.25) == make_half_complete_cycle(3, 0.25)


@pytest.mark.parametrize("literal,shown", [("true", "True"), ("false", "False"), ("1", "1"),
                                           ("-3", "-3"), ("4.0", "4.0")])
def test_loader_rejects_a_bad_n_naming_it(tmp_path, literal, shown):
    path = tmp_path / "bad.json"
    path.write_text('{"n": ' + literal + ', "edges": [[0, 1, 1.0]]}')
    with pytest.raises(GraphFormatError) as exc:
        load_graph(str(path))
    assert str(exc.value) == f"{path}: 'n' must be an integer >= 2, got {shown}"


@st.composite
def graphs(draw):
    """Any graph: n in 2..9, a random edge set and finite positive rates."""
    n = draw(st.integers(2, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] < p[1]), unique=True, max_size=n * (n - 1) // 2))
    rates = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False)
    return Graph(n, tuple((u, v, draw(rates)) for u, v in pairs))


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_saved_graph_loads_back_equal(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("graph") / "g.json"
    save_graph(g, str(path))
    assert load_graph(str(path)) == g


CORRUPT_ENTRIES = ["[0, 0, 1.0]", "[1, 0, 1.0]", "[0, 99, 1.0]", "[-1, 1, 1.0]",
                   "[0, 1.5, 1.0]", "[true, 1, 1.0]", "[0, 1, 0.0]", "[0, 1, -2.0]",
                   "[0, 1, true]", '[0, 1, "1.0"]', "[0, 1, 1e999]", "[0, 1]", "[0, 1, 1.0, 1.0]",
                   "{}", "null"]


@settings(max_examples=100, deadline=None)
@given(graphs().filter(lambda g: g.edges), st.data())
def test_corrupted_edge_is_refused_with_its_index(tmp_path_factory, g, data):
    k = data.draw(st.integers(0, len(g.edges) - 1))
    entry = data.draw(st.sampled_from(CORRUPT_ENTRIES))
    lines = [json.dumps([u, v, rate]) for u, v, rate in g.edges]
    lines[k] = entry
    path = tmp_path_factory.mktemp("graph") / "bad.json"
    path.write_text('{"n": %d, "edges": [\n%s\n]}\n' % (g.n, ",\n".join(lines)))
    with pytest.raises(GraphFormatError) as exc:
        load_graph(str(path))
    # Line 1 opens the edge list, so edge k sits on line k + 2.
    assert f"edges[{k}] (line {k + 2})" in str(exc.value)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_hash_is_the_field_hash_kept_once(g):
    assert hash(g) == hash((g.n, g.edges))
    twin = Graph(g.n, g.edges)
    assert twin == g and hash(twin) == hash(g)
    # Kept in the instance __dict__, outside the fields that repr and == read.
    assert g.__dict__["_hash"] == hash(g) and "_hash" not in repr(g)
