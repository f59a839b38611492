"""Tests for group construction, the spec grammar, Cayley-table loading,
isomorphism testing, and the per-order catalog."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from array import array
from math import prod
from unittest.mock import patch

import pytest

from powerindex import groups
from powerindex.embedding import embeds, max_nonidentity_degree
from powerindex.graphs import complete_bipartite, power_graph
from powerindex.groups import (
    GROUP_COUNTS,
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
    _factor_key,
    _walk,
)
from powerindex.matching import check_theorem44

from oracles import (
    count_groups_up_to_isomorphism,
    is_abelian_brute,
    is_generalized_quaternion_by_isomorphism,
    orders_and_inverses_brute,
    power_graph_edges_brute,
    subgroups_of_prime_order,
    table_powers,
    tables_isomorphic,
    unique_subgroup_of_prime_order,
    window_table_brute,
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
# built by one builder per family, before every family's table was filled
# along the one generator walk; the digest reads entries, so it held through
# every row format: bytes up to order 256 and lists up to 1024, before rows
# were array('H') at every order
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
    # each windowed family past order 1024, then two factor lists with
    # small last factors; D5040 (4af8223740d35af5) is left out, as its table
    # and digest take about two seconds (CI checks it at the order cap)
    "D1200": "b56a35247ba4f661",
    "Dic300": "ede08fea63ba9c6c",
    "Ab[2,600]": "73674cf5fc63b238",
    "GDih[2,300]": "6b599f5cd35954ba",
    "GDih[6,3]": "85f0955e0d3a8c2c",
    "Ab[60,2]": "3d91020560f9c2ac",
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


def test_window_table_matches_oracle():
    # every factor list of at most 3 factors and order at most 24, factors
    # of 1 and non-ascending lists included: A itself, and A extended by y
    # with y^2 = z for every z = -z in A (z = 0 is generalized dihedral, the
    # involution of an even cyclic A dicyclic)
    for k in (1, 2, 3):
        for ds in itertools.product(range(1, 25), repeat=k):
            if prod(ds) > 24:
                continue
            digits = itertools.product(*map(range, ds))
            zs = [z for z, a in enumerate(digits) if all(2 * x % d == 0 for x, d in zip(a, ds))]
            for z in [None, *zs]:
                table = groups._build_table(("window", ds, z))
                assert [list(row) for row in table] == window_table_brute(ds, z), (ds, z)


def test_band_edges_match_oracle():
    for spec, ds, z in (("Z256", (256,), None), ("Z257", (257,), None),
                        ("D256", (128,), 0), ("D258", (129,), 0),
                        ("Dic64", (128,), 64), ("Dic65", (130,), 65),
                        ("Ab[2,129]", (2, 129), None)):
        mul = construct_group(spec).mul
        assert [list(row) for row in mul] == window_table_brute(ds, z), spec


def _row_formats(mul) -> set:
    return {(type(row), row.typecode) for row in mul}


def test_array_rows_at_every_order():
    # one row format, two bytes per entry, on both sides of the edges of
    # the old bands (bytes up to order 256, lists up to 1024), every family
    for spec in ("Z1", "Z256", "D256", "Q256", "S5", "A5", "Prod(Z2,S5)",
                 "Z257", "D258", "S6", "Prod(Z2,Dic128)", "D1024", "Z1025"):
        assert _row_formats(construct_group(spec).mul) == {(array, "H")}, spec
    for spec in ("Z256", "D256", "Q256"):
        _check_axioms(construct_group(spec))


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
    # one factor at a time, so a factor list longer than the recursion limit
    assert construct_group("Ab[" + ",".join(["1"] * 1500) + "]").n == 1


def test_element_orders():
    z12 = construct_group("Z12")
    from math import gcd
    assert list(z12.orders) == [12 // gcd(12, k) for k in range(12)]
    assert list(z12.inv) == [-k % 12 for k in range(12)]
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
        assert (tuple(g.orders), tuple(g.inv)) == orders_and_inverses_brute(g), g.label


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
    # every row of the walk is read-only, below order 256 and above
    for g in (z12, construct_group("Z1680")):
        for row in (g.degree, g.orders, g.inv, g.members(1)):
            with pytest.raises(TypeError):
                row[0] = 0
    with pytest.raises(AttributeError):
        catalog_for_order(8).complete = False


def _class_rows(g):
    """What the walk keeps of g's elements and cyclic classes."""
    return (g.orders, g.inv, g.degree, g.comparable,
            [g.members(i) for i in range(len(g.comparable))])


def test_family_powers_agree_with_the_table(tmp_path):
    # window groups and products walk their powers by their own arithmetic,
    # the other families along their product, none reading the table; here
    # the table is read, and every walk is checked against
    # it, as is each fact the walk gives against a group given the table
    path = tmp_path / "dic3.json"
    path.write_text(json.dumps({"n": 12, "mul": [list(r) for r in construct_group("Dic3").mul]}))
    specs = [spec for m in range(1, 129) for spec in _candidate_specs(m)]
    specs += ["Z1680", "D600", "Dic300", "S6", "A5", "Ab[2,2,4,60]", "Q64",
              "Prod(S3,Q8)", "Prod(Z2,Prod(Z3,D8))", f"Prod(cayley:{path},Z4)"]
    with patch.dict(groups._group_cache):
        for spec in specs:
            g = construct_group(spec)
            for x in range(g.n):
                assert g.cyclic_subgroup(x) == table_powers(g.mul, x), (spec, x)
            h = Group(g.mul, spec)
            assert _class_rows(g) == _class_rows(h), spec


def test_table_free_work_builds_no_table(monkeypatch):
    built = []
    build_table = groups._build_table
    monkeypatch.setattr(groups, "_build_table", lambda tree: built.append(tree) or build_table(tree))
    with patch.dict(groups._group_cache, clear=True):
        g = construct_group("Z5040")
        assert check_theorem44(g).optimal
        assert max_nonidentity_degree(g).holds
        assert power_graph(g).graph.n == g.n
        assert embeds(complete_bipartite(3, 4), g) is not None
        for spec in ("Z5041", "Prod(S7,Z2)"):
            with pytest.raises(GroupSpecError, match="cap"):
                construct_group(spec)
        assert set(groups._group_cache) == {"Z5040"}
    assert built == []


def test_cyclic_classes_partition_and_comparability():
    # classes partition the group by generated subgroup, two distinct
    # elements are power-graph adjacent iff their classes are comparable,
    # and each class's degree is its members' power-graph degree
    for m in range(1, 25):
        for g in catalog_for_order(m).groups:
            classes = range(len(g.comparable))
            assert g.comparable is g.comparable and g.degree is g.degree
            class_of = {}
            for i in classes:
                members = g.members(i)
                assert list(members) == sorted(members)
                subgroup = set(g.cyclic_subgroup(members[0]))
                for x in members:
                    assert set(g.cyclic_subgroup(x)) == subgroup, g.label
                    class_of[x] = i
            assert sorted(class_of) == list(range(g.n))
            assert list(g.members(0)) == [0]
            edges = power_graph_edges_brute(g)
            for i in classes:
                for x in g.members(i):
                    assert g.degree[i] == sum(x in e for e in edges), (g.label, x)
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    comparable = bool(g.comparable[class_of[x]]
                                      >> class_of[y] & 1)
                    assert comparable == (frozenset((x, y)) in edges), (g.label, x, y)


def test_has_edge_is_power_graph_adjacency():
    # every ordered pair, each element with itself included, against powers
    # taken in the table
    specs = ("Prod(Z3,D8)", "S4", "Q16")
    for g in [g for m in range(1, 33) for g in catalog_for_order(m).groups] + [
            construct_group(spec) for spec in specs]:
        edges = power_graph_edges_brute(g)
        assert all(g.has_edge(x, y) == (frozenset((x, y)) in edges)
                   for x in range(g.n) for y in range(g.n)), g.label


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
    # Z_m and the Ab types come first, and every later abelian candidate
    # (a product of two abelian groups) has one of their factor keys
    for m in range(1, 65):
        k = len(abelian_types(m))
        commuting = [is_abelian_brute(g) for g in catalog_for_order(m).groups]
        assert commuting[:k] == [True] * k, m
        assert not any(commuting[k:]), m


def test_product_reuses_cached_factor_tables(monkeypatch):
    # tables are built on the first read of mul, so the factors' tables are
    # read before counting, and the product's only when construction is done
    spec = "Prod(Z3,Prod(Z2,S3))"
    construct_group("Z3").mul
    construct_group("Prod(Z2,S3)").mul
    monkeypatch.delitem(groups._group_cache, spec, raising=False)
    calls = []
    build_table = groups._build_table

    def counted(tree):
        calls.append(tree)
        return build_table(tree)

    monkeypatch.setattr(groups, "_build_table", counted)
    g = construct_group(spec)
    assert calls == []
    assert _table_digest(g.mul) == TABLE_DIGESTS[spec]
    assert calls == [parse_group_spec(spec)]


def test_product_tables_match_their_factors(tmp_path):
    # (a, b)(c, d) = (ac, bd) with (a, b) at a*|B| + b, entry by entry,
    # on either side of order 256, over a nested product and a cayley: factor
    path = tmp_path / "dic3.json"
    path.write_text(json.dumps({"n": 12, "mul": [list(r) for r in construct_group("Dic3").mul]}))
    with patch.dict(groups._group_cache):
        for spec in ("Prod(S3,Q8)", "Prod(Z3,S5)", "Prod(Z2,Prod(Z3,D8))",
                     f"Prod(cayley:{path},Z4)"):
            _, (left, _), (right, _) = parse_group_spec(spec)
            ma, mb = construct_group(left).mul, construct_group(right).mul
            na, nb = len(ma), len(mb)
            expected = [[ma[a][c] * nb + mb[b][d] for c in range(na) for d in range(nb)]
                        for a in range(na) for b in range(nb)]
            assert [list(row) for row in construct_group(spec).mul] == expected, spec


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
        g.mul, h.mul  # reading a table first builds it, along a walk of its own
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
    # sha256 of the catalogs of orders 1..256, one line per order: "+" if
    # the catalog is complete, else "-", then its labels, all separated by
    # spaces; first 16 hex digits, as the catalog stood before candidates
    # were skipped by factor key
    text = "\n".join(" ".join(["+" if cat.complete else "-"] + [g.label for g in cat.groups])
                     for cat in map(catalog_for_order, range(1, 257)))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "c00b37372a96da0c"


def test_factor_key_examples():
    # products flatten and commute, cyclic factors split by the CRT, and
    # Dih(B x Z2) = Dih(B) x Z2
    for a, b in (("Prod(Z3,Prod(Z2,Z4))", "Prod(Z2,Prod(Z3,Z4))"),
                 ("Prod(Z2,D34)", "D68"), ("Prod(Z2,D6)", "D12"),
                 ("Z6", "Ab[2,3]"), ("D4", "Ab[2,2]"), ("D2", "Z2"),
                 ("GDih[2,2]", "Ab[2,2,2]"), ("GDih[2,6]", "Prod(Ab[2,2],D6)"),
                 ("Prod(Z1,Q8)", "Q8")):
        assert _factor_key(a, parse_group_spec(a)) == _factor_key(b, parse_group_spec(b)), (a, b)
    # S3 = D6 and Q8 = Dic2 are left to the isomorphism test; D8, Z8 and
    # Ab[2,4] are distinct groups
    for a, b in (("S3", "D6"), ("Q8", "Dic2"), ("D8", "Prod(Z2,Z4)"), ("Z8", "Ab[2,4]")):
        assert _factor_key(a, parse_group_spec(a)) != _factor_key(b, parse_group_spec(b)), (a, b)


def test_equal_factor_keys_name_isomorphic_groups():
    # the catalog skips a candidate whose key an earlier one had, unbuilt,
    # so every pair of candidates with equal keys must be isomorphic; the
    # abelian and mirrored products, dropped by key alone, are among them
    pairs = 0
    for m in range(1, 65):
        by_key = {}
        for spec in _candidate_specs(m):
            by_key.setdefault(_factor_key(spec, parse_group_spec(spec)), []).append(spec)
        for specs in by_key.values():
            for a, b in itertools.combinations(specs, 2):
                g, h = construct_group(a), construct_group(b)
                assert are_isomorphic(g, h), (a, b)
                if m <= 24:
                    assert tables_isomorphic(g.mul, h.mul), (a, b)
                pairs += 1
    assert pairs >= 391


def test_cold_catalog_builds_each_factor_key_once(monkeypatch):
    # orders 1..128 keep 629 groups; of their candidates only one is built
    # and then rejected by the isomorphism test: S3, which is D6.  Only
    # that comparison reads a table, so only S3 and D6 build one
    constructed, built, rejected = [], [], []
    group, build_table, isomorphic = groups.Group, groups._build_table, groups.are_isomorphic

    def counted_group(*args):
        g = group(*args)
        constructed.append(g.label)
        return g

    def counted_build(tree):
        built.append(tree)
        return build_table(tree)

    def counted_isomorphic(g, h):
        found = isomorphic(g, h)
        if found:
            rejected.append(g.label)
        return found

    monkeypatch.setattr(groups, "Group", counted_group)
    monkeypatch.setattr(groups, "_build_table", counted_build)
    monkeypatch.setattr(groups, "are_isomorphic", counted_isomorphic)
    catalog_for_order.cache_clear()
    try:
        with patch.dict(groups._group_cache, clear=True):
            kept = sum(len(catalog_for_order(m).groups) for m in range(1, 129))
    finally:
        catalog_for_order.cache_clear()
    assert kept == 629
    assert len(constructed) == len(set(constructed)) == 630
    assert rejected == ["S3"]
    assert sorted(built) == [parse_group_spec("S3"), parse_group_spec("D6")]


def test_each_spec_node_is_parsed_once(monkeypatch):
    # a product's tree carries its factors' trees, so constructing a spec
    # parses each node of it once, and the catalog parses each candidate
    # once, keying and building it from the same tree
    depths, stack = [], []  # per call, how many parses it is nested in
    parse = groups.parse_group_spec

    def counted(spec):
        depths.append(len(stack))
        stack.append(spec)
        try:
            return parse(spec)
        finally:
            stack.pop()

    monkeypatch.setattr(groups, "parse_group_spec", counted)
    chain = "Prod(Z2,Z1)"
    for _ in range(31):
        chain = f"Prod({chain},Z1)"
    with patch.dict(groups._group_cache, clear=True):
        assert construct_group(chain).n == 2
    assert len(depths) == 65
    depths.clear()
    catalog_for_order.cache_clear()
    try:
        with patch.dict(groups._group_cache, clear=True):
            for m in range(1, 129):
                catalog_for_order(m)
            top_level = depths.count(0)
            candidates = sum(len(_candidate_specs(m)) for m in range(1, 129))
    finally:
        catalog_for_order.cache_clear()
    assert top_level == candidates == 1355


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
    assert parse_group_spec("Z5") == ("window", (5,), None)
    assert parse_group_spec(" Z5 ") == ("window", (5,), None)
    assert parse_group_spec("D10") == ("window", (5,), 0)
    assert parse_group_spec("Dic3") == ("window", (6,), 3)
    assert parse_group_spec("Q16") == parse_group_spec("Dic4") == ("window", (8,), 4)
    assert parse_group_spec("Ab[2,2,4]") == ("window", (2, 2, 4), None)
    assert parse_group_spec("GDih[3,3]") == ("window", (3, 3), 0)
    assert parse_group_spec("A5") == ("perm", 5, True)
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
    assert parse_group_spec("S7") == ("perm", 7, False)  # exactly at the cap


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


def test_cayley_rows_match_the_built_tables(tmp_path):
    # a loaded table has the built one's entries in the same array('H')
    # rows, on both sides of the edges of the old bands
    for spec in ("D8", "Z1", "Z256", "Z257", "Z1000", "Z1024", "Z1025"):
        built = construct_group(spec).mul
        path = tmp_path / f"{spec}.json"
        path.write_text(json.dumps({"n": len(built), "mul": [list(r) for r in built]}))
        mul = construct_group(f"cayley:{path}").mul
        assert mul == built, spec
        assert _row_formats(mul) == {(array, "H")}, spec
        if spec == "D8":
            assert _table_digest(mul) == TABLE_DIGESTS["D8"]


def test_cayley_accepts_groups_past_order_64(tmp_path):
    # S5 needs two greedy generators; 2^7 needs seven, the most order 128 allows
    for i, spec in enumerate(("S5", "Ab[2,2,2,2,2,2,2]")):
        g = construct_group(spec)
        path = tmp_path / f"g{i}.json"  # a cayley: file is loaded once per process
        path.write_text(json.dumps({"n": g.n, "mul": [list(r) for r in g.mul]}))
        loaded = construct_group(f"cayley:{path}")
        assert loaded.orders == g.orders, spec


def test_cayley_factor_loaded_once(tmp_path, monkeypatch):
    g = construct_group("Dic3")
    path = tmp_path / "dic3.json"
    path.write_text(json.dumps({"n": g.n, "mul": [list(r) for r in g.mul]}))
    calls = []
    load = groups._load_cayley
    monkeypatch.setattr(groups, "_load_cayley",
                        lambda *args: calls.append(args) or load(*args))
    assert construct_group(f"Prod(cayley:{path},Z2)").n == 24
    assert len(calls) == 1  # not once more for the order check
    assert construct_group(f"cayley:{path}") is construct_group(f"cayley:{path}")
    assert len(calls) == 1


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
    # for tiny orders and compare class counts, both the catalog's and the
    # published counts that certify completeness.
    for m in range(1, 9):
        count = count_groups_up_to_isomorphism(m)
        assert len(catalog_for_order(m).groups) == count == GROUP_COUNTS[m], m


def test_catalog_complete_orders_match_classification():
    for m, expected in CLASS_COUNTS.items():
        cat = catalog_for_order(m)
        assert cat.complete, m
        assert len(cat.groups) == expected, m
    # the dedup is exact, so no catalog outgrows the published count
    catalogs = {m: catalog_for_order(m) for m in range(1, len(GROUP_COUNTS))}
    assert all(len(cat.groups) <= GROUP_COUNTS[m] for m, cat in catalogs.items())
    assert {m for m, cat in catalogs.items() if cat.complete} == set(CLASS_COUNTS)


def test_rejected_candidates_leave_the_spec_cache(monkeypatch):
    # S3 is a candidate at order 6 that the dedup rejects (it is D6), and
    # Prod(Z2,D6) at order 12 has the factor key of D12, so it is never built
    built = []
    build_table = groups._build_table

    def counted_build(tree):
        built.append(tree)
        return build_table(tree)

    monkeypatch.setattr(groups, "_build_table", counted_build)
    catalog_for_order.cache_clear()
    try:
        with patch.dict(groups._group_cache, clear=True):
            catalog_for_order(12)
            cached = set(groups._group_cache)
            assert ("perm", 3, False) in built and "S3" not in cached
            assert parse_group_spec("Prod(Z2,D6)") not in built
            assert cached <= {g.label for m in range(1, 13) for g in catalog_for_order(m).groups}
        catalog_for_order.cache_clear()
        with patch.dict(groups._group_cache, clear=True):
            g = construct_group("S3")
            assert "S3" not in [h.label for h in catalog_for_order(6).groups]
            assert construct_group("S3") is g
    finally:
        catalog_for_order.cache_clear()


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


def test_class_walk_keeps_no_int_per_element():
    # the walk's rows take their final type from the start: bytes up to
    # order 256, array('H') above, kept behind a read-only view.  Z1680's
    # walk visits 5,952 powers; a list holding an int object for each takes
    # its build to about 360 KB traced, where the typed rows take about 140 KB
    import tracemalloc

    for spec, kind in (("Q16", bytes), ("Z256", bytes), ("Z258", memoryview)):
        g = construct_group(spec)
        assert {type(g._flat), type(g._class), type(g._exponent)} == {kind}, spec
    groups._group_cache.pop("Z1680", None)
    tracemalloc.start()
    try:
        g = construct_group("Z1680")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g._flat.format == "H" and len(g._flat) == 5952
    assert peak < 250 * 1024


@pytest.mark.parametrize("spec", ["Z12", "Ab[2,2,2,2]", "Z1680"])
def test_group_rows_are_flat(spec):
    # a row per element or per class, never a Python object per entry: every
    # attribute of a fresh group whose length grows with the order or the
    # class count is bytes or an array behind a view, but the class bitmasks
    with patch.dict(groups._group_cache, clear=True):
        g = construct_group(spec)
    sized = {name for name in Group.__slots__
             if hasattr(getattr(g, name), "__len__") and name != "label"}
    assert {"orders", "inv", "degree", "_members", "_offsets"} <= sized
    for name in sized - {"comparable"}:
        row = getattr(g, name)
        assert isinstance(row, (bytes, array, memoryview)), (spec, name, type(row))
    assert len(g.comparable) == len(g.degree)
