"""Tests for the exact maximum-clique search."""

from __future__ import annotations

import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerindex.clique import clique_number
from powerindex.graphs import SimpleGraph, complete_graph, one_factor, power_graph
from powerindex.groups import catalog_for_order, construct_group
from powerindex.numtheory import chi

from oracles import brute_max_clique, empty_graph


def _assert_is_clique(gr, witness):
    for u, v in itertools.combinations(witness, 2):
        assert gr.has_edge(u, v)


def test_complete_and_trivial_graphs():
    res = clique_number(complete_graph(5))
    assert res.size == 5 and res.witness == (0, 1, 2, 3, 4)
    assert clique_number(complete_graph(1)) == clique_number(empty_graph(1))
    assert clique_number(empty_graph(4)).size == 1
    assert clique_number(empty_graph(4)).witness == (0,)
    assert clique_number(one_factor(3)).size == 2
    assert clique_number(one_factor(3)).witness == (0, 1)
    with pytest.raises(ValueError):
        clique_number(empty_graph(0))


def test_power_graph_of_z36():
    gr = power_graph(construct_group("Z36")).graph
    res = clique_number(gr)
    assert res.size == 27
    _assert_is_clique(gr, res.witness)


def test_power_graph_of_z6():
    gr = power_graph(construct_group("Z6")).graph
    res = clique_number(gr)
    assert res.size == 5
    # the order-2 element 3 is the only vertex left out
    assert res.witness == (0, 1, 2, 4, 5)


def test_cyclic_clique_number_equals_chi():
    for n in range(1, 201):
        gr = power_graph(construct_group(f"Z{n}")).graph
        assert clique_number(gr).size == chi(n), n


def test_group_clique_number_is_max_over_cyclic_parts():
    orders = list(range(1, 33)) + [36, 48]
    for m in orders:
        for g in catalog_for_order(m).groups:
            gr = power_graph(g).graph
            res = clique_number(gr)
            assert res.size == max(chi(k) for k in g.orders), g.label
            _assert_is_clique(gr, res.witness)


def test_against_bruteforce_on_random_graphs():
    rng = random.Random(20240817)
    for trial in range(60):
        n = rng.randrange(1, 13)
        p = rng.choice((0.2, 0.5, 0.8))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        gr = SimpleGraph(n, edges)
        res = clique_number(gr)
        expected = brute_max_clique(n, {frozenset(e) for e in edges})
        assert res.size == expected, (n, edges)
        _assert_is_clique(gr, res.witness)


def test_witness_deterministic():
    gr = power_graph(construct_group("D12")).graph
    first = clique_number(gr)
    second = clique_number(gr)
    assert first == second
    with pytest.raises(AttributeError):
        first.size = 0
    # two disjoint triangles: ties resolve the same way every run
    twin = SimpleGraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert clique_number(twin).witness == (0, 1, 2)


def _hub_over_independent_set(k, s):
    """K_k on 0..k-1 beside a hub k joined to an independent set k+1..k+s.
    With s >= k >= 2 the greedy incumbent is the hub and one set vertex,
    while omega is k."""
    edges = list(itertools.combinations(range(k), 2))
    edges += [(k, k + 1 + i) for i in range(s)]
    return SimpleGraph(k + 1 + s, edges)


def test_deep_search_needs_no_recursion():
    # a pendant leaf on each of the 300 clique vertices leaves the graph
    # without true twins, so the search must go 300 frames deep
    k, s = 300, 301
    gr = _hub_over_independent_set(k, s)
    gr = SimpleGraph(gr.n + k, gr.edges() + [(v, k + 1 + s + v) for v in range(k)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        res = clique_number(gr)
    finally:
        sys.setrecursionlimit(limit)
    assert res.size == 300
    assert res.witness == tuple(range(300))
    _assert_is_clique(gr, res.witness)


@st.composite
def _small_graphs(draw):
    if draw(st.booleans()):
        k = draw(st.integers(0, 5))
        s = draw(st.integers(0, 9 - k))
        gr = _hub_over_independent_set(k, s)
        perm = draw(st.permutations(range(gr.n)))
        return gr.n, [(perm[u], perm[v]) for u, v in gr.edges()]
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, kept in zip(pairs, keep) if kept]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_small_graphs())
def test_against_bruteforce_property(case):
    n, edges = case
    gr = SimpleGraph(n, edges)
    res = clique_number(gr)
    assert res.size == brute_max_clique(n, {frozenset(e) for e in edges})
    assert len(set(res.witness)) == res.size
    _assert_is_clique(gr, res.witness)


@st.composite
def _blown_up_graphs(draw):
    """A graph of at most 8 vertices with each vertex blown up into 1-3
    true twins under shuffled ids, with the copies of each vertex."""
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    starts = list(itertools.accumulate(sizes, initial=0))
    perm = draw(st.permutations(range(starts[-1])))
    copies = [perm[starts[v]:starts[v + 1]] for v in range(n)]
    edges = [(a, b) for c in copies for a, b in itertools.combinations(c, 2)]
    edges += [(a, b) for (u, v), kept in zip(pairs, keep) if kept
              for a in copies[u] for b in copies[v]]
    return starts[-1], edges, copies


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_blown_up_graphs())
def test_twin_blow_ups_against_bruteforce(case):
    # brute force over the graph before the blow-up: a maximum clique
    # takes every copy of each vertex of a heaviest clique there
    n, edges, copies = case
    gr = SimpleGraph(n, edges)
    res = clique_number(gr)
    base = [c[0] for c in copies]
    assert res.size == max(
        sum(len(copies[i]) for i in sub)
        for r in range(1, len(base) + 1)
        for sub in itertools.combinations(range(len(base)), r)
        if all(gr.has_edge(base[i], base[j]) for i, j in itertools.combinations(sub, 2)))
    if n <= 12:
        assert res.size == brute_max_clique(n, {frozenset(e) for e in edges})
    assert len(set(res.witness)) == res.size
    _assert_is_clique(gr, res.witness)
