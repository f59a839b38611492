"""Tests for simple graphs, pattern constructors, power graphs, and the
edgelist/JSON/DOT serialization formats."""

from __future__ import annotations

import hashlib
import itertools

import pytest

from powerindex.graphs import (
    FORMATS,
    GraphFormatError,
    SimpleGraph,
    _bits,
    apex_one_factor,
    complete_bipartite,
    complete_graph,
    one_factor,
    parse_graph,
    power_graph,
    serialize_graph,
    star,
)
from powerindex.groups import catalog_for_order, construct_group, involutions

from oracles import cycle_graph, empty_graph, is_complete, power_graph_edges_brute

POWER_GRAPH_SPECS = [
    "Z1", "Z2", "Z6", "Z8", "Z12", "Z15", "Ab[2,4]", "Ab[2,2,2]",
    "D8", "D12", "Q8", "Q16", "Dic3", "S3", "S4", "A4", "Prod(Z3,D6)",
]


def test_complete_graph():
    g = complete_graph(5)
    assert g.n == 5 and g.n_edges == 10
    assert is_complete(g)
    assert not is_complete(empty_graph(3))
    assert is_complete(empty_graph(0))
    assert is_complete(complete_graph(1))
    for n in range(7):  # rows are filled directly, so check them against the pairs
        g = complete_graph(n)
        assert g.edges() == list(itertools.combinations(range(n), 2))
        assert g.degrees() == [n - 1] * n


def test_complete_bipartite_structure():
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.n_edges == 6
    # parts are 0..s-1 and s..s+t-1; edges run only across
    for u in range(2):
        for v in range(2, 5):
            assert g.has_edge(u, v)
    assert not g.has_edge(0, 1)
    assert not g.has_edge(2, 3) and not g.has_edge(3, 4)


def test_star_is_k1t():
    g = star(4)
    assert g.n == 5
    assert sorted(g.degrees()) == [1, 1, 1, 1, 4]
    assert serialize_graph(g) == serialize_graph(complete_bipartite(1, 4))


def test_one_factor_and_apex():
    g = one_factor(3)
    assert g.n == 6 and g.n_edges == 3
    assert g.degrees() == [1] * 6
    assert g.edges() == [(0, 1), (2, 3), (4, 5)]

    h = apex_one_factor(3)
    assert h.n == 7 and h.n_edges == 9
    assert h.degree(0) == 6
    assert all(h.degree(v) == 2 for v in range(1, 7))
    assert h.has_edge(1, 2) and h.has_edge(3, 4) and h.has_edge(5, 6)
    assert not h.has_edge(2, 3)


def test_cycle_graph():
    g = cycle_graph(5)
    assert g.n_edges == 5 and g.degrees() == [2] * 5
    assert g.has_edge(0, 4)


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphFormatError):
        SimpleGraph(3, [(0, 0)])
    with pytest.raises(GraphFormatError):
        SimpleGraph(3, [(0, 3)])
    with pytest.raises(GraphFormatError):
        SimpleGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(-1)


def test_power_graph_matches_bruteforce():
    hosts = [construct_group(spec) for spec in POWER_GRAPH_SPECS + ["D600", "S6"]]
    hosts += [g for m in range(1, 65) for g in catalog_for_order(m).groups]
    for g in hosts:
        pg = power_graph(g)
        got = {frozenset(e) for e in pg.graph.edges()}
        assert got == power_graph_edges_brute(g), g.label
        assert pg.group_ref == g.label


# sha256 of the edgelist text followed by the DOT text, first 16 hex digits,
# as the element-power walk printed them before the class construction
SERIALIZED_DIGESTS = {
    "Z1": "b41d9c65d100be07",
    "Z2": "7933acdd91748a8f",
    "Z6": "534303ef3a19d907",
    "Z8": "2341e035b98ca4ac",
    "Z12": "c60cbea3de19048e",
    "Z15": "0afe3741b9a24d90",
    "Ab[2,4]": "0d4641116f627329",
    "Ab[2,2,2]": "63dd24bf2ca3e8bb",
    "D8": "9e95c055e16b94ce",
    "D12": "ffba4d40528983c5",
    "Q8": "538687f791816159",
    "Q16": "054a97dba3891593",
    "Dic3": "abe28c4183e2ab49",
    "S3": "a3349264266c26c3",
    "S4": "99d718dc6d96a0ec",
    "A4": "aec3e4bf11bf1048",
    "Prod(Z3,D6)": "2c1133e717a79b91",
}


def test_power_graph_serialization_unchanged():
    assert list(SERIALIZED_DIGESTS) == POWER_GRAPH_SPECS
    for spec, digest in SERIALIZED_DIGESTS.items():
        gr = power_graph(construct_group(spec)).graph
        text = serialize_graph(gr, "edgelist") + serialize_graph(gr, "dot")
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, spec


def test_power_graph_identity_and_inverses():
    for spec in POWER_GRAPH_SPECS:
        g = construct_group(spec)
        gr = power_graph(g).graph
        if g.n > 1:
            assert gr.degree(0) == g.n - 1, spec
        for x in range(g.n):
            if g.orders[x] >= 3:
                assert gr.has_edge(x, g.inv[x]), (spec, x)


def test_cyclic_prime_power_graphs_are_complete():
    for q in (2, 3, 4, 5, 8, 9, 16, 25, 27, 32):
        assert is_complete(power_graph(construct_group(f"Z{q}")).graph), q
    for n in (6, 10, 12, 15, 20):
        assert not is_complete(power_graph(construct_group(f"Z{n}")).graph), n
    assert not is_complete(power_graph(construct_group("Q8")).graph)


def _components(gr: SimpleGraph, keep: set[int]) -> list[set[int]]:
    todo = set(keep)
    comps = []
    while todo:
        seed = min(todo)
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for w in _bits(gr.adj[v]):
                if w in todo and w not in comp:
                    comp.add(w)
                    frontier.append(w)
        todo -= comp
        comps.append(comp)
    return comps


def test_quaternion_power_graph_shape():
    # Removing the identity and the unique involution splits the power graph
    # of Q_{2^k} into the cyclic remainder plus 2^(k-2) two-element cliques.
    for k in (3, 4, 5):
        n = 2 ** k
        g = construct_group(f"Q{n}")
        invs = involutions(g)
        assert len(invs) == 1
        z = invs.pop()
        gr = power_graph(g).graph
        assert gr.degree(z) == n - 1
        comps = _components(gr, set(range(n)) - {0, z})
        sizes = sorted(len(c) for c in comps)
        assert sizes == sorted([n // 2 - 2] + [2] * (n // 4))
        for comp in comps:
            members = sorted(comp)
            assert all(gr.has_edge(u, v)
                       for i, u in enumerate(members) for v in members[i + 1:])


def test_edgelist_round_trip():
    for gr in (complete_graph(6), empty_graph(4), one_factor(4),
               SimpleGraph(5, [(0, 3), (1, 4)]),
               power_graph(construct_group("D12")).graph):
        text = serialize_graph(gr, "edgelist")
        back = parse_graph(text)
        assert back.n == gr.n
        assert back.edges() == gr.edges()


def test_json_round_trip_and_autodetect():
    gr = power_graph(construct_group("Z12")).graph
    text = serialize_graph(gr, "json")
    assert text.startswith("{")
    back = parse_graph(text)
    assert back.n == gr.n and back.edges() == gr.edges()
    # leading whitespace still auto-detects JSON
    assert parse_graph("  " + text).n_edges == gr.n_edges


def test_serialization_is_stable():
    gr = power_graph(construct_group("Dic3")).graph
    for fmt in FORMATS:
        assert serialize_graph(gr, fmt) == serialize_graph(gr, fmt)


def test_dot_output():
    gr = cycle_graph(4)
    text = serialize_graph(gr, "dot")
    assert text.startswith("graph {") and text.rstrip().endswith("}")
    assert text.count("--") == gr.n_edges
    labeled = power_graph(construct_group("Z4")).graph
    out = serialize_graph(labeled, "dot")
    assert 'label="4"' in out  # generators of Z4 have order 4


def test_serialize_unknown_format():
    with pytest.raises(GraphFormatError):
        serialize_graph(complete_graph(2), "yaml")


def test_edgelist_comments_and_blanks():
    text = "# a triangle\n3 3\n\n0 1  # first\n1 2\n0 2\n"
    gr = parse_graph(text)
    assert gr.n == 3 and gr.n_edges == 3


@pytest.mark.parametrize("text", [
    "",
    "# only a comment\n",
    "3\n",
    "3 x\n",
    "3 2\n0 1\n",            # missing edge line
    "3 1\n0 1\n1 2\n",       # extra edge line
    "3 1\n0 3\n",            # vertex out of range
    "3 1\n1 1\n",            # self-loop
    "3 2\n0 1\n1 0\n",       # duplicate edge
    "3 1\n0 1 2\n",          # malformed edge line
    "3 1\nab cd\n",
])
def test_edgelist_errors(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


@pytest.mark.parametrize("text", [
    "{",
    '{"n": 3}',
    '{"edges": []}',
    '{"n": -1, "edges": []}',
    '{"n": "3", "edges": []}',
    '{"n": 3, "edges": [[0, 1, 2]]}',
    '{"n": 3, "edges": [[0, 3]]}',
    '{"n": 3, "edges": [[1, 1]]}',
    '{"n": 3, "edges": [[0, 1], [1, 0]]}',
    '{"n": 3, "edges": 7}',
])
def test_json_errors(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)
