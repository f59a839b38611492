"""Acceptance sweep: eleven end-to-end checks, one test per criterion.

Every test prints a single summary line on success, so a verbose run
reads as a checklist.  The checks pin the headline numeric results,
cross-validate each closed-form criterion against brute-force search
over the group catalog, and exercise the matching and path-cover
pipeline end to end.  Zero tolerance: any drift is a failure.
"""

from __future__ import annotations

import random

from powerindex.clique import clique_number
from powerindex.embedding import (
    check_embedding,
    embeds,
    has_universal_nonidentity,
    is_kst_power_critical,
    is_power_critical,
    max_nonidentity_degree,
    theta_complete,
    theta_kn_equals_nplus1,
    theta_search,
)
from powerindex.graphs import (
    SimpleGraph,
    apex_one_factor,
    complete_bipartite,
    power_graph,
)
from powerindex.groups import catalog_for_order, construct_group, involutions
from powerindex.matching import (
    compress_path,
    matching_from_path_cover,
    maximum_matching,
    maximum_matching_bruteforce,
    near_perfect_matching_odd,
    path_cover_from_matching,
)
from powerindex.numtheory import (
    chi,
    chi_table,
    factorize,
    is_prime_power,
    is_twice_odd_prime,
    rho,
    totient,
)


def _report(num: int, text: str) -> None:
    print(f"criterion {num:02d} PASS: {text}")


def _random_graph(rng: random.Random, n: int) -> SimpleGraph:
    p = rng.choice((0.2, 0.4, 0.6, 0.8))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return SimpleGraph(n, edges)


def test_criterion_01_headline_values():
    assert theta_complete(6) == 7
    assert theta_complete(7) == 7
    assert theta_complete(14) == 16 == rho(14)
    assert chi(36) == 27
    assert theta_complete(34) == 37
    assert chi(93) == 91
    assert theta_complete(91) == 93
    assert rho(91) == 97 > 93
    r66 = theta_search(complete_bipartite(6, 6))
    assert r66.value == 13 and r66.exact
    r99 = theta_search(complete_bipartite(9, 9))
    assert r99.value == 19 and r99.exact
    _report(1, "headline indices, chi values, and both bipartite searches")


def test_criterion_02_clique_number_oracle():
    for n in range(1, 201):
        g = construct_group(f"Z{n}")
        assert clique_number(power_graph(g).graph).size == chi(n), n
    for m in range(1, 65):
        for g in catalog_for_order(m).groups:
            expected = max(chi(g.orders[x]) for x in range(g.n))
            assert clique_number(power_graph(g).graph).size == expected, g.label
    _report(2, "clique numbers match the totient chain sum on cyclic groups "
               "to 200 and on every catalog group to order 64")


def test_criterion_03_chi_arithmetic_sweep():
    limit = 10000
    table = chi_table(limit)
    for n in range(2, limit + 1):
        p = factorize(n)[0][0]
        assert table[n] == totient(n) + table[n // p], n
        assert table[n] <= n, n
        assert (table[n] == n) == is_prime_power(n), n
        assert (table[n] == n - 1) == is_twice_odd_prime(n), n
    # n = 1 sits outside the sweep: chi(1) = 1 = n yet 1 is not a prime power
    assert table[1] == 1
    _report(3, "chi recursion and both equality characterizations to 10000")


def test_criterion_04_theta_plus_one_characterization():
    for n in range(2, 501):
        if is_prime_power(n):
            continue
        closed_form = theta_kn_equals_nplus1(n)
        assert closed_form == (is_prime_power(n + 1) or is_twice_odd_prime(n + 1)), n
    _report(4, "theta(K_n) = n+1 exactly when n+1 is a prime power or twice "
               "an odd prime, non-prime-power n to 500")


def test_criterion_05_bipartite_criterion_both_directions():
    for n in range(4, 16):
        for s in range(2, n // 2 + 1):
            t = n - s
            found = any(embeds(complete_bipartite(s, t), g) is not None
                        for g in catalog_for_order(n).groups)
            assert found == is_kst_power_critical(s, t), (s, t)
            assert found == (totient(n) >= s - 1), (s, t)
    _report(5, "searching all groups of order s+t matches the totient "
               "criterion in both directions, s+t <= 15")


def test_criterion_06_optimal_groups_for_small_bipartite():
    for k in (3, 4):
        n = 2 ** k
        cat = catalog_for_order(n)
        hosts = [g.label for g in cat.groups
                 if embeds(complete_bipartite(2, n - 2), g) is not None]
        assert sorted(hosts) == sorted([f"Z{n}", f"Q{n}"]), hosts
        hosts = [g.label for g in cat.groups
                 if embeds(complete_bipartite(3, n - 3), g) is not None]
        assert hosts == [f"Z{n}"], hosts
    _report(6, "only cyclic and quaternion 2-groups host K_{2,2^k-2}, and "
               "only cyclic host K_{3,2^k-3}, k = 3, 4")


def test_criterion_07_universal_vertex_characterization():
    for m in range(2, 65):
        for g in catalog_for_order(m).groups:
            assert max_nonidentity_degree(g).holds == \
                has_universal_nonidentity(g), g.label
    _report(7, "a non-identity vertex of full degree appears exactly in "
               "cyclic and generalized quaternion groups, orders 2..64")


def test_criterion_08_matching_families():
    for m in range(2, 65, 2):
        g = construct_group(f"Z{m}")
        assert maximum_matching(power_graph(g).graph).is_perfect(m), g.label
    for m in range(8, 65, 4):
        g = construct_group(f"Q{m}" if (m & (m - 1)) == 0 else f"Dic{m // 4}")
        assert maximum_matching(power_graph(g).graph).is_perfect(m), g.label
    for n in range(2, 51):
        g = construct_group(f"D{2 * n}")
        assert maximum_matching(power_graph(g).graph).size < n, g.label
    for m in range(1, 64, 2):
        for g in catalog_for_order(m).groups:
            gr = power_graph(g).graph
            npm = near_perfect_matching_odd(g)
            npm.validate(gr)
            assert npm.is_near_perfect(m) and 0 not in npm.covered, g.label
            if m > 1:
                w = embeds(apex_one_factor((m - 1) // 2), g)
                assert w is not None, g.label
                assert check_embedding(apex_one_factor((m - 1) // 2), gr,
                                       w.as_dict()), g.label
    _report(8, "perfect matchings for cyclic and dicyclic, none for "
               "dihedral, near-perfect plus apex embedding for odd orders")


def test_criterion_09_path_cover_pipeline():
    checked = 0
    for m in range(2, 65, 2):
        for g in catalog_for_order(m).groups:
            gr = power_graph(g).graph
            mm = maximum_matching(gr)
            if not mm.is_perfect(m):
                continue
            checked += 1
            ubar = involutions(g) | {0}
            cover = path_cover_from_matching(g, mm)
            seen: set[int] = set()
            for p in cover:
                assert not seen & set(p)
                seen |= set(p)
                for a, b in zip(p, p[1:]):
                    assert gr.has_edge(a, b)
                assert {g.inv[v] for v in p} == set(p)
            assert {x for p in cover for x in (p[0], p[-1])} == ubar
            rebuilt = matching_from_path_cover(g, cover)
            rebuilt.validate(gr)
            assert rebuilt.is_perfect(m)
            for p in cover:
                if 0 in (p[0], p[-1]) or len(p) < 3:
                    continue
                interior = p[1:-1]
                out = compress_path(g, interior)
                assert out[0] == interior[0]
                assert out[-1] in (interior[-1], g.inv[interior[-1]])
                assert set(out) <= set(interior)
                assert len(out) % 2 == 0
                for j in range(0, len(out), 2):
                    assert g.inv[out[j]] == out[j + 1]
    assert checked > 0
    _report(9, f"path covers extracted, validated, and recompressed for "
               f"{checked} even-order groups with perfect matchings")


def test_criterion_10_matching_engine_cross_check():
    for m in range(1, 15):
        for g in catalog_for_order(m).groups:
            gr = power_graph(g).graph
            assert maximum_matching(gr).size == \
                maximum_matching_bruteforce(gr).size, g.label
    rng = random.Random(404)
    for trial in range(100):
        gr = _random_graph(rng, rng.randrange(1, 15))
        assert maximum_matching(gr).size == \
            maximum_matching_bruteforce(gr).size, trial
    _report(10, "blossom and brute-force matchings agree on catalog power "
                "graphs and 100 random graphs up to 14 vertices")


def test_criterion_11_prime_power_orders_always_critical():
    for n in (8, 9, 16, 25):
        rng = random.Random(1000 + n)
        host = power_graph(construct_group(f"Z{n}")).graph
        for trial in range(50):
            gr = _random_graph(rng, n)
            res = is_power_critical(gr)
            assert res.critical and res.exact, (n, trial)
            assert check_embedding(gr, host, res.witness.as_dict()), (n, trial)
    _report(11, "50 random graphs at each prime-power order 8, 9, 16, 25 "
                "are all power-critical with validated witnesses")
