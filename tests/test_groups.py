"""Tests for group construction, the spec grammar, Cayley-table loading,
isomorphism testing, and the per-order catalog."""

from __future__ import annotations

import hashlib
import json
import random
from unittest.mock import patch

import pytest

from powerindex import groups
from powerindex.groups import (
    COMPLETE_ORDERS,
    CayleyTableError,
    Group,
    GroupSpecError,
    abelian_types,
    are_isomorphic,
    catalog_for_order,
    construct_group,
    group_fingerprint,
    involutions,
    is_cyclic,
    is_generalized_quaternion,
    parse_group_spec,
    _candidate_specs,
    _conjugacy_class_sizes,
    _walk,
)

from oracles import (
    count_groups_up_to_isomorphism,
    is_abelian_brute,
    is_generalized_quaternion_by_isomorphism,
    orders_and_inverses_brute,
    power_graph_edges_brute,
    subgroups_of_prime_order,
    tables_isomorphic,
    unique_subgroup_of_prime_order,
)

# Isomorphism class counts from the classification of small groups, for
# every order the catalog promises to exhaust.
CLASS_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
    11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 17: 1, 18: 5, 19: 1, 22: 2,
    23: 1, 25: 2, 26: 2, 28: 4, 29: 1, 30: 4, 31: 1, 33: 1, 34: 2,
    35: 1, 37: 1, 38: 2, 41: 1, 43: 1, 44: 4, 45: 2, 46: 2, 47: 1,
    49: 2, 50: 5, 51: 1, 53: 1, 58: 2, 59: 1, 61: 1, 62: 2,
}

AXIOM_SPECS = [
    "Z1", "Z7", "Z12", "Ab[2,4]", "Ab[2,2,2]", "Ab[3,6]", "D6", "D8",
    "D14", "GDih[3,3]", "GDih[5,5]", "Q8", "Q16", "Dic3", "Dic5",
    "S3", "S4", "A4", "A5", "Prod(Z2,D8)", "Prod(Z3,Q8)",
]


def _check_axioms(g) -> None:
    n, mul = g.n, g.mul
    for x in range(n):
        assert mul[0][x] == x and mul[x][0] == x
        assert sorted(mul[x]) == list(range(n))           # rows permute
        assert sorted(mul[a][x] for a in range(n)) == list(range(n))
        assert mul[x][g.inv[x]] == 0 and mul[g.inv[x]][x] == 0
    limit = n if n <= 24 else 12
    for a in range(limit):
        for b in range(limit):
            for c in range(limit):
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]


def test_family_axioms():
    for spec in AXIOM_SPECS:
        g = construct_group(spec)
        assert g.label == spec
        _check_axioms(g)


# sha256 of the rows of each multiplication table, one line per row with
# entries separated by spaces, first 16 hex digits, as the tables were
# built before abelian groups became iterated products of cyclic tables and
# before permutation tables were filled along a generator walk; S7 and A7
# keep array('H') rows
TABLE_DIGESTS = {
    "Z12": "47c124f452e0a7c6",
    "Ab[1,4]": "c710ff76c54d89b9",
    "Ab[2,6]": "440eca3618b107ba",
    "Ab[2,2,2,2]": "1a1da10b7bad1449",
    "Ab[2,2,4,60]": "10635c6cfab4cf5d",
    "D8": "5fceffa984d4e186",
    "GDih[3,3]": "919a78abb09171cf",
    "Q16": "f83e72c78e5f854c",
    "Dic5": "a0f35279e4a0e3f1",
    "S4": "8bda73dca8aba971",
    "A5": "558d596965f1c30a",
    "S5": "fefb97013464c038",
    "S6": "414f1d35d205b7b9",
    "A6": "a7e0e45e1a667cac",
    "A7": "e9692b76db6f57af",
    "S7": "89ac9edd277254d9",
    "Prod(S3,Q8)": "4c2eecd13e5c8d82",
    "Prod(Z3,Prod(Z2,S3))": "95576f877e16c1f6",
}


def _table_digest(mul) -> str:
    # fed row by row, so S7's 127 MB of text is never held at once
    names = [str(x) for x in range(len(mul))]
    h = hashlib.sha256()
    for i, row in enumerate(mul):
        h.update(("\n" * (i > 0) + " ".join(map(names.__getitem__, row))).encode())
    return h.hexdigest()[:16]


def test_tables_unchanged():
    for spec, digest in TABLE_DIGESTS.items():
        assert _table_digest(construct_group(spec).mul) == digest, spec


def test_list_rows_share_int_objects():
    # orders 257..1024 keep list rows, whose entries lie outside the small-int
    # cache; shared ints hold such a table near 8 bytes per entry
    for spec in ("Z1000", "D600", "GDih[2,150]", "Dic100", "Ab[2,2,4,60]", "S6",
                 "Prod(Z2,S5)"):
        mul = construct_group(spec).mul
        assert isinstance(mul[0], list), spec
        assert len({id(x) for row in mul for x in row}) == len(mul), spec


def test_family_orders():
    assert construct_group("Z1").n == 1
    assert construct_group("D6").n == 6
    assert construct_group("GDih[3,3]").n == 18
    assert construct_group("Dic5").n == 20
    assert construct_group("Q32").n == 32
    assert construct_group("S5").n == 120
    assert construct_group("A5").n == 60
    assert construct_group("Prod(Z6,D8)").n == 48
    assert construct_group("Ab[2,2,4]").n == 16


def test_element_orders():
    z12 = construct_group("Z12")
    from math import gcd
    assert z12.orders == tuple(12 // gcd(12, k) for k in range(12))
    assert z12.inv == tuple(-k % 12 for k in range(12))
    s4 = construct_group("S4")
    from collections import Counter
    assert Counter(s4.orders) == {1: 1, 2: 9, 3: 8, 4: 6}


def test_orders_and_inverses_match_oracle():
    # the one cyclic-subgroup walk against a per-element power walk and
    # row scan, across the catalog and on the large benchmark groups
    groups = [g for m in range(1, 65) for g in catalog_for_order(m).groups]
    groups += [construct_group(spec) for spec in
               ("Z1680", "D600", "Dic300", "S6", "Ab[2,2,4,60]")]
    for g in groups:
        assert (g.orders, g.inv) == orders_and_inverses_brute(g), g.label


def test_group_rejects_powers_missing_the_identity():
    with pytest.raises(ValueError, match="never reach the identity"):
        Group([[0, 1], [1, 1]], "bad")


def test_involution_counts():
    assert len(involutions(construct_group("D12"))) == 7
    assert len(involutions(construct_group("Q8"))) == 1
    assert len(involutions(construct_group("Q32"))) == 1
    assert len(involutions(construct_group("Z15"))) == 0
    assert len(involutions(construct_group("Ab[2,2,2]"))) == 7
    # groups of even order have an odd number of involutions
    for spec in AXIOM_SPECS:
        g = construct_group(spec)
        if g.n % 2 == 0:
            assert len(involutions(g)) % 2 == 1, spec


def test_cyclic_subgroup_and_generation():
    z12 = construct_group("Z12")
    assert z12.cyclic_subgroup(2) == [0, 2, 4, 6, 8, 10]
    assert z12.cyclic_subgroup(0) == [0]
    d8 = construct_group("D8")
    rotation = next(x for x in range(8) if d8.orders[x] == 4)
    powers = d8.cyclic_subgroup(rotation)
    assert powers[:2] == [0, rotation] and len(powers) == 4
    assert d8.cyclic_subgroup(powers[2]) == [0, powers[2]]
    assert d8.cyclic_subgroup(d8.inv[rotation]) == [0, powers[3], powers[2], rotation]


def test_cyclic_classes_partition_and_comparability():
    # classes partition the group by generated subgroup, two distinct
    # elements are power-graph adjacent iff their classes are comparable,
    # and each class's degree is its members' power-graph degree
    for m in range(1, 25):
        for g in catalog_for_order(m).groups:
            classes = g.cyclic_classes
            assert classes is g.cyclic_classes
            class_of = {}
            for i, cl in enumerate(classes):
                assert list(cl.members) == sorted(cl.members)
                subgroup = set(g.cyclic_subgroup(cl.members[0]))
                for x in cl.members:
                    assert set(g.cyclic_subgroup(x)) == subgroup, g.label
                    class_of[x] = i
            assert sorted(class_of) == list(range(g.n))
            assert classes[0].members == (0,)
            edges = power_graph_edges_brute(g)
            for cl in classes:
                for x in cl.members:
                    assert cl.degree == sum(x in e for e in edges), (g.label, x)
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    comparable = bool(classes[class_of[x]].comparable
                                      >> class_of[y] & 1)
                    assert comparable == (frozenset((x, y)) in edges), (g.label, x, y)


def test_products_and_isomorphism():
    assert are_isomorphic(construct_group("Prod(Z3,Z4)"), construct_group("Z12"))
    assert are_isomorphic(construct_group("Prod(Z2,Z6)"), construct_group("Ab[2,6]"))
    assert are_isomorphic(construct_group("S3"), construct_group("D6"))
    assert are_isomorphic(construct_group("Dic2"), construct_group("Q8"))
    assert are_isomorphic(construct_group("Prod(Z2,D22)"), construct_group("D44"))
    assert not are_isomorphic(construct_group("D8"), construct_group("Q8"))
    assert not are_isomorphic(construct_group("Z12"), construct_group("Dic3"))
    assert not are_isomorphic(construct_group("GDih[3,3]"), construct_group("D18"))
    assert not are_isomorphic(construct_group("Z8"), construct_group("Z12"))


def test_walk_reaches_each_element_once_from_greedy_generators():
    for spec in ("Z1", "Z12", "Ab[2,2,2]", "Q16", "S4", "A5", "Prod(S3,Q8)"):
        g = construct_group(spec)
        levels = _walk(g.n, lambda x, s: g.mul[x][s])
        reached, gens = [0], []
        for level in levels:
            s = level[0][0]
            assert level[0] == (s, 0, s), spec
            assert s == min(set(range(g.n)) - set(reached)), spec
            gens.append(s)
            for y, x, t in level:
                assert y == g.mul[x][t] and x in reached and t in gens, spec
                reached.append(y)
        assert sorted(reached) == list(range(g.n)), spec
        assert 2 ** len(gens) <= g.n, spec


def test_generator_checks_match_all_element_scans():
    # conjugation orbits under the greedy generators against conjugation
    # by every element
    catalog = [g for m in range(1, 49) for g in catalog_for_order(m).groups]
    for g in catalog + [construct_group("S5")]:
        n, mul = g.n, g.mul
        gens = [level[0][0] for level in _walk(n, lambda x, s: mul[x][s])]
        sizes = [len({mul[mul[a][x]][g.inv[a]] for a in range(n)}) for x in range(n)]
        assert _conjugacy_class_sizes(g, gens) == sizes, g.label


def test_catalog_lists_its_abelian_groups_first():
    # _candidate_specs skips products of two abelian groups by position
    for m in range(1, 65):
        k = len(abelian_types(m))
        commuting = [is_abelian_brute(g) for g in catalog_for_order(m).groups]
        assert commuting[:k] == [True] * k, m
        assert not any(commuting[k:]), m


def test_product_reuses_cached_factor_tables(monkeypatch):
    spec = "Prod(Z3,Prod(Z2,S3))"
    construct_group("Prod(Z2,S3)")
    monkeypatch.delitem(groups._group_cache, spec, raising=False)
    calls = []
    product_table = groups._product_table

    def counted(mul_a, mul_b):
        calls.append((len(mul_a), len(mul_b)))
        return product_table(mul_a, mul_b)

    monkeypatch.setattr(groups, "_product_table", counted)
    g = construct_group(spec)
    assert calls == [(3, 12)]
    assert _table_digest(g.mul) == TABLE_DIGESTS[spec]


def test_isomorphism_walks_each_group_once(monkeypatch):
    calls = []
    walk = groups._walk

    def counted(n, right):
        calls.append(n)
        return walk(n, right)

    monkeypatch.setattr(groups, "_walk", counted)
    # non-abelian pairs with equal fingerprints, and two pairs told apart
    # by their profiles
    for a, b, expected in (("S3", "D6", True), ("D12", "Prod(Z2,D6)", True),
                           ("GDih[3,6]", "Prod(Z2,GDih[3,3])", True),
                           ("D8", "Q8", False), ("Dic3", "Prod(Z3,Z4)", False)):
        g, h = construct_group(a), construct_group(b)
        calls.clear()
        assert are_isomorphic(g, h) == expected, (a, b)
        assert calls == [g.n, g.n], (a, b)


def _relabelled(g, seed: int) -> Group:
    """g under a random relabelling that fixes the identity."""
    rng = random.Random(seed)
    perm = list(range(1, g.n))
    rng.shuffle(perm)
    perm = [0] + perm
    mul = [[0] * g.n for _ in range(g.n)]
    for a in range(g.n):
        for b in range(g.n):
            mul[perm[a]][perm[b]] = perm[g.mul[a][b]]
    return Group(mul, f"relabelled {g.label}")


def test_isomorphic_to_relabelled_copy():
    # abelian pairs go through the same search as the rest, so every
    # abelian type of the larger 2-power orders is covered too
    cases = [g for m in range(1, 33) for g in catalog_for_order(m).groups]
    cases += [construct_group("S5"), construct_group("Prod(S3,Q8)")]
    cases += [construct_group(f"Z{m}" if len(t) == 1 else f"Ab[{','.join(map(str, t))}]")
              for m in (16, 32, 64, 128) for t in abelian_types(m)]
    for seed, g in enumerate(cases):
        h = _relabelled(g, seed)
        assert are_isomorphic(g, h), g.label
        assert are_isomorphic(h, g), g.label
        assert tables_isomorphic(g.mul, h.mul), g.label


def test_isomorphism_agrees_with_oracle_on_equal_fingerprints():
    # the catalog's candidates before deduplication, so that isomorphic
    # pairs with equal fingerprints reach the search
    compared = 0
    for m in range(1, 33):
        groups = [construct_group(spec) for spec in _candidate_specs(m)]
        for i, g in enumerate(groups):
            for h in groups[i + 1:]:
                if group_fingerprint(g) == group_fingerprint(h):
                    compared += 1
                    assert are_isomorphic(g, h) == tables_isomorphic(g.mul, h.mul), (
                        g.label, h.label)
    assert compared >= 7


def test_catalog_labels_unchanged():
    # sha256 of the catalog labels of orders 1..128, one line per order with
    # labels separated by spaces, first 16 hex digits, as the catalog stood
    # before the isomorphism search branched on generator images
    text = "\n".join(" ".join(g.label for g in catalog_for_order(m).groups)
                     for m in range(1, 129))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "92ac3382ad506c3d"


def test_cyclic_and_abelian_predicates():
    assert is_cyclic(construct_group("Z9"))
    assert is_cyclic(construct_group("Prod(Z3,Z5)"))
    assert not is_cyclic(construct_group("Ab[2,2]"))
    assert not is_cyclic(construct_group("D8"))


def test_prime_order_subgroups():
    d8 = construct_group("D8")
    assert len(subgroups_of_prime_order(d8, 2)) == 5
    assert not unique_subgroup_of_prime_order(d8, 2)
    assert unique_subgroup_of_prime_order(construct_group("Q16"), 2)
    assert unique_subgroup_of_prime_order(construct_group("Z12"), 2)
    assert unique_subgroup_of_prime_order(construct_group("Z12"), 3)
    assert unique_subgroup_of_prime_order(construct_group("D6"), 3)
    assert not unique_subgroup_of_prime_order(construct_group("D6"), 2)
    # no subgroup of order p at all also counts as not unique
    assert not unique_subgroup_of_prime_order(construct_group("Z5"), 3)
    assert subgroups_of_prime_order(construct_group("Z5"), 3) == []
    with pytest.raises(ValueError):
        unique_subgroup_of_prime_order(d8, 4)
    with pytest.raises(ValueError):
        unique_subgroup_of_prime_order(d8, 1)


def test_generalized_quaternion_detector():
    for spec in ("Q8", "Q16", "Q32", "Dic2"):
        assert is_generalized_quaternion(construct_group(spec)), spec
    for spec in ("Z8", "D16", "Dic3", "Dic6", "S4", "Ab[2,4]"):
        assert not is_generalized_quaternion(construct_group(spec)), spec


def test_quaternion_criterion_matches_isomorphism_oracle():
    # the unique-involution criterion against an isomorphism search with
    # the generalized quaternion table of the same order
    found = []
    for k in range(3, 8):
        for g in catalog_for_order(2 ** k).groups:
            got = is_generalized_quaternion(g)
            assert got == is_generalized_quaternion_by_isomorphism(g), g.label
            if got:
                found.append(g.label)
    assert found == ["Q8", "Q16", "Q32", "Q64", "Q128"]


def test_abelian_types_enumeration():
    assert abelian_types(1) == [(1,)]
    assert abelian_types(12) == [(12,), (2, 6)]
    assert abelian_types(16) == [(16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2)]
    assert abelian_types(36) == [(36,), (2, 18), (3, 12), (6, 6)]
    for t in abelian_types(72):
        for a, b in zip(t, t[1:]):
            assert b % a == 0


def test_spec_grammar_accepts():
    assert parse_group_spec("Z5") == ("cyclic", 5)
    assert parse_group_spec(" Z5 ") == ("cyclic", 5)
    assert parse_group_spec("D10") == ("gdih", (5,))
    assert parse_group_spec("Q16") == ("dicyclic", 4)
    assert parse_group_spec("Ab[2,2,4]") == ("ab", (2, 2, 4))
    assert parse_group_spec("Prod(Z2,Prod(Z3,D8))")[0] == "prod"
    assert parse_group_spec("cayley:tables/g.json") == ("cayley", "tables/g.json")


@pytest.mark.parametrize("bad", [
    "", "Z0", "Z", "Zx", "z4", "D7", "D9", "D0", "Q4", "Q12", "Q24",
    "S8", "A8", "Dic0", "Ab[]", "Ab[2,]", "Ab[0]", "GDih[2,-2]",
    "AB[2,2]", "Prod(Z2)", "Prod(Z2,)", "prod(Z2,Z2)", "Prod(Z2,Z2",
    "Z2 Z3", "cayley:",
])
def test_spec_grammar_rejects(bad):
    with pytest.raises(GroupSpecError):
        parse_group_spec(bad)


def test_order_cap_enforced():
    with pytest.raises(GroupSpecError):
        construct_group("Z5041")
    with pytest.raises(GroupSpecError):
        construct_group("Prod(S5,Z43)")  # 120 * 43 = 5160 > 5040
    assert parse_group_spec("S7") == ("perm", "S", 7)  # exactly at the cap


def test_product_past_the_cap_builds_no_factor():
    with patch.dict(groups._group_cache, clear=True):
        with pytest.raises(GroupSpecError, match="cap"):
            construct_group("Prod(S7,Z2)")
        assert "S7" not in groups._group_cache


def test_cayley_round_trip(tmp_path):
    z6 = construct_group("Z6")
    path = tmp_path / "z6.json"
    path.write_text(json.dumps({"n": 6, "mul": [list(r) for r in z6.mul]}))
    g = construct_group(f"cayley:{path}")
    assert g.n == 6 and g.orders == z6.orders
    assert are_isomorphic(g, z6)
    assert g.label == f"cayley:{path}"


def test_cayley_accepts_groups_past_order_64(tmp_path):
    # S5 needs two greedy generators; 2^7 needs seven, the most order 128 allows
    for spec in ("S5", "Ab[2,2,2,2,2,2,2]"):
        g = construct_group(spec)
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": g.n, "mul": [list(r) for r in g.mul]}))
        loaded = construct_group(f"cayley:{path}")
        assert loaded.orders == g.orders, spec


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return f"cayley:{path}"


def test_cayley_rejects_bad_tables(tmp_path):
    z6 = [list(construct_group("Z6").mul[i]) for i in range(6)]

    shifted = [[(a + b + 1) % 6 for b in range(6)] for a in range(6)]
    with pytest.raises(CayleyTableError, match="identity"):
        construct_group(_write(tmp_path, "shift.json", {"n": 6, "mul": shifted}))

    broken = [row[:] for row in z6]
    broken[1][2] = 4  # correct value is 3
    with pytest.raises(CayleyTableError, match="associativity"):
        construct_group(_write(tmp_path, "assoc.json", {"n": 6, "mul": broken}))

    with pytest.raises(CayleyTableError, match="inverse"):
        construct_group(_write(tmp_path, "noinv.json", {"n": 2, "mul": [[0, 1], [1, 1]]}))

    with pytest.raises(CayleyTableError, match="closure"):
        construct_group(_write(tmp_path, "range.json", {"n": 2, "mul": [[0, 1], [1, 9]]}))

    with pytest.raises(CayleyTableError):
        construct_group(_write(tmp_path, "shape.json", {"n": 3, "mul": [[0, 1], [1, 0]]}))

    with pytest.raises(CayleyTableError):
        construct_group(_write(tmp_path, "keys.json", {"size": 2}))

    # Z1000 with the intercalate at rows 2, 502 and columns 5, 505 swapped:
    # still a Latin square with identity 0, but not associative
    z1000 = [[(a + b) % 1000 for b in range(1000)] for a in range(1000)]
    for r, c in ((2, 5), (2, 505), (502, 5), (502, 505)):
        z1000[r][c] = (z1000[r][c] + 500) % 1000
    with pytest.raises(CayleyTableError, match="associativity"):
        construct_group(_write(tmp_path, "z1000.json", {"n": 1000, "mul": z1000}))

    # passes the middle test for 1, whose closure {0, 1} stops short of 2
    short = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    with pytest.raises(CayleyTableError, match="greedy generators"):
        construct_group(_write(tmp_path, "short.json", {"n": 3, "mul": short}))

    missing = tmp_path / "nope.json"
    with pytest.raises(GroupSpecError):
        construct_group(f"cayley:{missing}")

    notjson = tmp_path / "garbage.json"
    notjson.write_text("not json at all")
    with pytest.raises(CayleyTableError):
        construct_group(f"cayley:{notjson}")


def test_catalog_matches_exhaustive_enumeration():
    # Independent check: enumerate all Cayley tables up to isomorphism
    # for tiny orders and compare class counts.
    for m in range(1, 9):
        assert len(catalog_for_order(m).groups) == count_groups_up_to_isomorphism(m), m


def test_catalog_complete_orders_match_classification():
    for m, expected in CLASS_COUNTS.items():
        cat = catalog_for_order(m)
        assert cat.complete, m
        assert len(cat.groups) == expected, m
        assert m in COMPLETE_ORDERS


def test_catalog_incomplete_orders():
    # 16 has 14 groups; the families reach 9 of them
    cat16 = catalog_for_order(16)
    assert not cat16.complete
    assert len(cat16.groups) == 9
    # 20 misses the Frobenius group F20
    cat20 = catalog_for_order(20)
    assert not cat20.complete
    assert len(cat20.groups) == 4
    # 21 misses the nonabelian Z7 : Z3
    cat21 = catalog_for_order(21)
    assert not cat21.complete
    assert len(cat21.groups) == 1


def test_catalog_contents_at_18():
    cat = catalog_for_order(18)
    labels = sorted(g.label for g in cat.groups)
    assert labels == ["Ab[3,6]", "D18", "GDih[3,3]", "Prod(Z3,D6)", "Z18"]
    mults = [sorted(g.orders) for g in cat.groups]
    assert len({tuple(m) for m in mults}) >= 4  # fingerprints mostly distinct


def test_catalog_deterministic():
    first = [g.label for g in catalog_for_order(12).groups]
    second = [g.label for g in catalog_for_order(12).groups]
    assert first == second
    assert construct_group("Z12") is construct_group("Z12")


def test_catalog_pairwise_nonisomorphic():
    for m in (8, 12, 16, 18, 24):
        groups = catalog_for_order(m).groups
        for i, g in enumerate(groups):
            for h in groups[i + 1:]:
                assert not are_isomorphic(g, h), (m, g.label, h.label)
