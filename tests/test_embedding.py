"""Tests for the embedding oracle, power-index computations, bipartite
criticality, and the degree characterization."""

from __future__ import annotations

import itertools
import random

import pytest

from oracles import (
    embedding_brute,
    empty_graph,
    is_embedding,
    is_prime,
    power_graph_edges_brute,
    unique_subgroup_of_prime_order,
)
from powerindex.embedding import (
    check_embedding,
    embed_kst_cyclic,
    embeds,
    has_universal_nonidentity,
    is_kst_power_critical,
    is_power_critical,
    kst_optimal_groups,
    max_nonidentity_degree,
    theta_complete,
    theta_kn_equals_nplus1,
    theta_search,
)
from powerindex.graphs import (
    SimpleGraph,
    apex_one_factor,
    complete_bipartite,
    complete_graph,
    one_factor,
    power_graph,
    star,
)
from powerindex.groups import catalog_for_order, construct_group
from powerindex.numtheory import chi_table, factorize, is_prime_power, totient


def _host(spec):
    return power_graph(construct_group(spec)).graph


def _relabel(pattern, seed):
    perm = list(range(pattern.n))
    random.Random(seed).shuffle(perm)
    return SimpleGraph(pattern.n, [(perm[u], perm[v]) for u, v in pattern.edges()])


def test_embeds_complete_graphs():
    w = embeds(complete_graph(6), construct_group("Z7"))
    assert w is not None
    assert check_embedding(complete_graph(6), _host("Z7"), w.as_dict())
    assert embeds(complete_graph(6), construct_group("Z6")) is None
    assert embeds(complete_graph(6), construct_group("S3")) is None
    assert embeds(complete_graph(5), construct_group("Z3")) is None


def test_embeds_witness_fields():
    w = embeds(complete_graph(3), construct_group("Z4"))
    assert w.group_ref == "Z4"
    assert sorted(w.as_dict()) == [0, 1, 2]
    assert all(isinstance(x, int) for x in w.as_dict().values())
    with pytest.raises(AttributeError):
        w.group_ref = "Z5"


def test_embeds_agrees_with_brute_force():
    # every labelled graph on at most 4 vertices, plus seeded random 5- and
    # 6-vertex patterns, against every catalog group of order <= 10
    patterns = []
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            patterns.append((n, [e for i, e in enumerate(pairs) if bits >> i & 1]))
    rng = random.Random(2015)
    for n in (5, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(15):
            density = rng.choice((0.3, 0.6, 0.9))
            patterns.append((n, [e for e in pairs if rng.random() < density]))
    # relabelled patterns whose twin classes an automorphism swaps whole:
    # the edges of a one-factor, the pairs under an apex, the sides of
    # K_{3,3} and the three pairs of the octahedron K_{2,2,2}
    octahedron = SimpleGraph(6, [(u, v) for u, v in itertools.combinations(range(6), 2)
                                 if u // 2 != v // 2])
    for seed, pattern in enumerate((one_factor(2), one_factor(3), apex_one_factor(2),
                                    apex_one_factor(3), complete_bipartite(3, 3), octahedron)):
        pattern = _relabel(pattern, seed)
        patterns.append((pattern.n, list(pattern.edges())))
    hosts = [(g, power_graph_edges_brute(g))
             for m in range(1, 11) for g in catalog_for_order(m).groups]
    for n, edges in patterns:
        pattern = SimpleGraph(n, edges)
        for g, host_edges in hosts:
            w = embeds(pattern, g)
            expected = embedding_brute(n, edges, g.n, host_edges)
            assert (w is None) == (expected is None), (n, edges, g.label)
            if w is not None:
                assert is_embedding(edges, w.as_dict(), host_edges), (n, edges, g.label)


def test_embeds_large_patterns_without_recursion():
    g = construct_group("Z1103")
    host = power_graph(g).graph
    for pattern in (empty_graph(1100), complete_graph(1100)):
        w = embeds(pattern, g)
        assert w is not None
        assert check_embedding(pattern, host, w.as_dict())


def test_embeds_ignores_pattern_labels():
    # a shuffled K_{12,12} interleaves its sides, which a search order by id
    # alone would split into many short runs of each twin class
    for seed in (1, 2, 3):
        for n in range(4, 21):
            groups = catalog_for_order(n).groups
            for s in range(2, n // 2 + 1):
                pattern = _relabel(complete_bipartite(s, n - s), seed)
                found = False
                for g in groups:
                    w = embeds(pattern, g)
                    if w is not None:
                        found = True
                        assert check_embedding(pattern, power_graph(g).graph,
                                               w.as_dict()), (seed, s, g.label)
                assert found == is_kst_power_critical(s, n - s), (seed, s, n)
        assert embeds(_relabel(complete_bipartite(10, 14), seed),
                      construct_group("Z24")) is None
        pattern = _relabel(complete_bipartite(12, 12), seed)
        assert all(embeds(pattern, g) is None for g in catalog_for_order(24).groups)
    pattern = _relabel(complete_bipartite(11, 15), 1)
    w = embeds(pattern, construct_group("Z26"))
    assert w is not None
    assert check_embedding(pattern, _host("Z26"), w.as_dict())


def test_stars_embed_everywhere():
    for t in range(1, 21):
        for g in catalog_for_order(t + 1).groups:
            w = embeds(star(t), g)
            assert w is not None, (t, g.label)
            assert check_embedding(star(t), power_graph(g).graph, w.as_dict())


def test_theta_complete_values():
    assert theta_complete(1) == 1
    assert theta_complete(2) == 2
    assert theta_complete(5) == 5
    assert theta_complete(6) == 7
    assert theta_complete(7) == 7
    assert theta_complete(14) == 16
    assert theta_complete(34) == 37
    assert theta_complete(36) == 37
    assert theta_complete(91) == 93
    with pytest.raises(ValueError):
        theta_complete(0)


def test_theta_complete_against_table_scan():
    # independent route: sieve-based chi table, scanned directly
    table = chi_table(300)
    for n in range(1, 201):
        expected = next(k for k in range(n, 301) if table[k] >= n)
        assert theta_complete(n) == expected, n


def test_theta_complete_matches_cyclic_search():
    for n in range(2, 21):
        first = next(m for m in range(n, 40)
                     if embeds(complete_graph(n), construct_group(f"Z{m}")) is not None)
        assert first == theta_complete(n), n


def test_theta_search_on_complete_graphs():
    for n in range(2, 15):
        res = theta_search(complete_graph(n))
        assert res.value == theta_complete(n), n
        assert res.exact
        assert res.searched_orders[-1] == res.value
        assert check_embedding(complete_graph(n),
                               _host(res.witness.group_ref), res.witness.as_dict())


def test_theta_kn_equals_nplus1():
    assert theta_kn_equals_nplus1(6)
    assert not theta_kn_equals_nplus1(14)
    assert theta_kn_equals_nplus1(21)
    assert theta_kn_equals_nplus1(10)       # 11 prime
    assert theta_kn_equals_nplus1(33)       # 34 = 2 * 17
    assert not theta_kn_equals_nplus1(20)   # 21 = 3 * 7
    with pytest.raises(ValueError):
        theta_kn_equals_nplus1(8)
    with pytest.raises(ValueError):
        theta_kn_equals_nplus1(9)
    for n in range(2, 201):
        if not is_prime_power(n):
            assert theta_kn_equals_nplus1(n) == (theta_complete(n) == n + 1), n


def test_kst_criterion():
    assert not is_kst_power_critical(6, 6)
    assert is_kst_power_critical(2, 3)
    assert is_kst_power_critical(2, 6)
    assert not is_kst_power_critical(9, 9)
    for s in range(2, 101):
        expected = (s % 2 == 1 and is_prime(s)) or (s & (s - 1) == 0)
        assert is_kst_power_critical(s, s) == expected, s
    with pytest.raises(ValueError):
        is_kst_power_critical(1, 5)
    with pytest.raises(ValueError):
        is_kst_power_critical(5, 3)


def test_embed_kst_cyclic():
    for s, t in ((2, 6), (3, 4), (5, 7), (2, 3), (4, 4)):
        w = embed_kst_cyclic(s, t)
        assert w.group_ref == f"Z{s + t}"
        assert check_embedding(complete_bipartite(s, t),
                               _host(f"Z{s + t}"), w.as_dict())
    with pytest.raises(ValueError):
        embed_kst_cyclic(6, 6)


def test_kst_optimal_groups():
    res = kst_optimal_groups(2, 6)
    assert sorted(g.label for g in res.groups) == ["Q8", "Z8"]
    assert res.catalog_complete

    res = kst_optimal_groups(3, 5)
    assert [g.label for g in res.groups] == ["Z8"]

    res = kst_optimal_groups(2, 3)
    assert [g.label for g in res.groups] == ["Z5"]

    res = kst_optimal_groups(2, 14)
    assert sorted(g.label for g in res.groups) == ["Q16", "Z16"]
    assert not res.catalog_complete  # order 16 families are not exhaustive

    with pytest.raises(ValueError):
        kst_optimal_groups(6, 6)


def test_theta_search_bipartite_non_critical():
    res = theta_search(complete_bipartite(6, 6))
    assert res.value == 13
    assert res.exact
    assert list(res.searched_orders) == [12, 13]
    res = theta_search(complete_bipartite(9, 9))
    assert res.value == 19
    assert res.exact


def test_theta_search_one_factors_and_null_graphs():
    for n in range(1, 11):
        res = theta_search(one_factor(n))
        assert res.value == 2 * n, n
        assert check_embedding(one_factor(n), _host(res.witness.group_ref),
                               res.witness.as_dict())
    for n in range(1, 11):
        assert theta_search(empty_graph(n)).value == n, n


def test_theta_search_bounds():
    with pytest.raises(ValueError, match="below the vertex count"):
        theta_search(complete_graph(6), 5)
    assert theta_search(complete_graph(6), 6) is None  # exhausts without a witness


def test_is_power_critical():
    rng = random.Random(7)
    for trial in range(5):
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8)
                 if rng.random() < 0.5]
        res = is_power_critical(SimpleGraph(8, edges))
        assert res.critical and res.exact and res.witness is not None

    res = is_power_critical(complete_graph(6))
    assert not res.critical and res.exact and res.witness is None

    res = is_power_critical(complete_bipartite(6, 6))
    assert not res.critical and res.exact

    for n in range(1, 8):
        res = is_power_critical(apex_one_factor(n))
        assert res.critical, n


def test_apex_one_factor_embeds_into_every_odd_group():
    for order in (3, 5, 7, 9, 11, 13, 15):
        n = (order - 1) // 2
        for g in catalog_for_order(order).groups:
            assert embeds(apex_one_factor(n), g) is not None, g.label


def test_apex_one_factor_absences_at_order_24():
    # nine interchangeable pairs under an apex: without an order among the
    # pairs these two proofs of absence took a minute each
    pattern = apex_one_factor(9)
    for spec in ("Prod(Z4,D6)", "Prod(Z2,A4)"):
        assert embeds(pattern, construct_group(spec)) is None, spec


def test_max_nonidentity_degree():
    assert max_nonidentity_degree(construct_group("Z10")).holds
    assert max_nonidentity_degree(construct_group("Q16")).holds
    rep = max_nonidentity_degree(construct_group("D8"))
    assert rep.degree == 3 and not rep.holds
    with pytest.raises(ValueError):
        max_nonidentity_degree(construct_group("Z1"))


def test_degree_characterization_over_catalog():
    for m in range(2, 33):
        for g in catalog_for_order(m).groups:
            assert max_nonidentity_degree(g).holds == has_universal_nonidentity(g), g.label


def test_kst_criterion_matches_search_small_orders():
    # embedding into some group of order s+t exists iff the totient criterion
    # holds; catalogs at these orders are complete
    for n in range(4, 16):
        for s in range(2, n // 2 + 1):
            t = n - s
            if s > t:
                continue
            pattern = complete_bipartite(s, t)
            found = any(embeds(pattern, g) is not None
                        for g in catalog_for_order(n).groups)
            assert found == is_kst_power_critical(s, t), (s, t)


def test_order_exact_embeddings_have_unique_prime_subgroups():
    # images of equal prime order generate one common subgroup, and
    # non-prime-power hosts are cyclic with one side on generators + identity
    for n in range(4, 16):
        for s in range(2, n // 2 + 1):
            t = n - s
            if s > t:
                continue
            pattern = complete_bipartite(s, t)
            for g in catalog_for_order(n).groups:
                w = embeds(pattern, g)
                if w is None:
                    continue
                for p, _ in factorize(n).factors:
                    if any(g.orders[x] == p for x in range(n)):
                        assert unique_subgroup_of_prime_order(g, p), (s, t, g.label)
                if not is_prime_power(n):
                    assert any(k == g.n for k in g.orders), (s, t, g.label)
                    universal = {0} | {x for x in range(g.n) if g.orders[x] == g.n}
                    mp = w.as_dict()
                    side_u = {mp[v] for v in range(s)}
                    side_w = {mp[v] for v in range(s, n)}
                    assert side_u <= universal or side_w <= universal, (s, t, g.label)
