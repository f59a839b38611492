"""Tests for matching engines, inverse pairing, path compression, path
cover extraction, and the three-way equivalence checker."""

from __future__ import annotations

import io
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerindex.graphs as graphs
import powerindex.matching as matching
import powerindex.verify as verify_module
from powerindex.cli import main
from powerindex.graphs import SimpleGraph, _bits, power_graph
from powerindex.groups import catalog_for_order, construct_group, involutions
from powerindex.matching import (
    Matching,
    barrier_surplus,
    check_theorem44,
    compress_path,
    matching_from_path_cover,
    maximum_matching,
    maximum_matching_bruteforce,
    near_perfect_matching_odd,
    path_cover_from_matching,
)

from oracles import brute_max_matching_size, cycle_graph, odd_components_brute


def test_matching_type_invariants():
    m = Matching.from_edges([(3, 1), (0, 2)])
    assert m.edges == ((0, 2), (1, 3))
    assert m.covered == frozenset({0, 1, 2, 3})
    assert m.size == 2 and m.is_perfect(4) and not m.is_perfect(5)
    assert m.is_near_perfect(5)
    assert m.to_json() == [[0, 2], [1, 3]]
    with pytest.raises(AttributeError):
        m.edges = ()
    with pytest.raises(ValueError):
        Matching.from_edges([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Matching.from_edges([(2, 2)])


def test_cycle_matching():
    assert maximum_matching(cycle_graph(4)).size == 2
    assert maximum_matching(cycle_graph(5)).size == 2
    assert maximum_matching_bruteforce(cycle_graph(5)).size == 2


def test_engines_agree_on_random_graphs():
    rng = random.Random(404)
    for trial in range(50):
        n = rng.randrange(1, 13)
        p = rng.choice((0.15, 0.4, 0.7))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        gr = SimpleGraph(n, edges)
        blossom = maximum_matching(gr)
        brute = maximum_matching_bruteforce(gr)
        oracle = brute_max_matching_size(n, edges)
        assert blossom.size == brute.size == oracle, (n, edges)
        blossom.validate(gr)
        brute.validate(gr)


@st.composite
def _core_with_pendants_and_odd_cycles(draw) -> SimpleGraph:
    """A random core with pendant vertices, triangles and pentagons hung on
    it, at most 16 vertices in a drawn order, so that searches from
    pendants fail and later searches can still augment."""
    n = draw(st.integers(2, 6))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
    while n < 16:
        at = draw(st.integers(0, n - 1))
        # stop, a pendant (most often), a triangle or a pentagon
        new = draw(st.sampled_from((0, 1, 1, 1, 1, 2, 4)))
        if new == 0 or n + new > 16:
            break
        path = [at, *range(n, n + new)]
        edges += zip(path, path[1:])
        if new > 1:
            edges.append((path[-1], at))
        n += new
    label = draw(st.permutations(range(n)))
    return SimpleGraph(n, [(label[u], label[v]) for u, v in edges])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_core_with_pendants_and_odd_cycles())
def test_retired_search_trees_keep_the_matching_maximum(gr):
    m = maximum_matching(gr)
    m.validate(gr)
    assert m.size == maximum_matching_bruteforce(gr).size


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_core_with_pendants_and_odd_cycles())
def test_inner_vertices_of_retired_trees_attain_the_deficiency(gr):
    # Tutte-Berge: odd(G - B) - |B| is the number of exposed vertices
    match, barrier = matching._blossom(gr)
    exposed = match.count(-1)
    assert exposed == gr.n - 2 * maximum_matching_bruteforce(gr).size
    assert odd_components_brute(gr, _bits(barrier)) - barrier.bit_count() == exposed


def test_engines_agree_on_power_graphs():
    for m in range(1, 15):
        for g in catalog_for_order(m).groups:
            gr = power_graph(g).graph
            assert maximum_matching(gr).size == maximum_matching_bruteforce(gr).size, g.label


def test_bruteforce_cap():
    with pytest.raises(ValueError):
        maximum_matching_bruteforce(cycle_graph(21))


def test_cyclic_even_orders_have_perfect_matchings():
    for n in range(1, 33):
        gr = power_graph(construct_group(f"Z{2 * n}")).graph
        m = maximum_matching(gr)
        assert m.is_perfect(2 * n), n
        m.validate(gr)


def test_dihedral_never_has_perfect_matching():
    # the reflections touch only the identity, and Z_n has a perfect
    # matching (n even) or a near-perfect one missing the identity (n odd),
    # so the maximum is exact; the pendant reflections make many searches fail
    for n in range(2, 101):
        gr = power_graph(construct_group(f"D{2 * n}")).graph
        assert maximum_matching(gr).size == (n + 1) // 2, n


def test_scans_skip_inner_vertices_and_own_blossom(monkeypatch):
    # D1000's rotations are dense rows of inner vertices: listing each row
    # bit by bit would list 222,962 neighbours, the masked scan lists 499
    listed = []

    def counted(mask):
        out = _bits(mask)
        listed.append(len(out))
        return out

    gr = power_graph(construct_group("D1000")).graph
    monkeypatch.setattr(matching, "_bits", counted)
    assert maximum_matching(gr).size == 250
    assert sum(listed) < 1000


def test_dicyclic_orders_have_perfect_matchings():
    for n in range(2, 9):
        gr = power_graph(construct_group(f"Dic{n}")).graph
        assert maximum_matching(gr).is_perfect(4 * n), n


def test_near_perfect_matching_odd():
    m7 = near_perfect_matching_odd(construct_group("Z7"))
    assert m7.size == 3 and 0 not in m7.covered
    assert near_perfect_matching_odd(construct_group("Z15")).size == 7
    for order in (1, 3, 5, 7, 9, 11, 13, 15, 21, 25, 27):
        for g in catalog_for_order(order).groups:
            m = near_perfect_matching_odd(g)
            assert m.size == (g.n - 1) // 2, g.label
            assert m.is_near_perfect(g.n)
            assert 0 not in m.covered
            m.validate(power_graph(g).graph)
    with pytest.raises(ValueError):
        near_perfect_matching_odd(construct_group("Z6"))


# ── path compression ─────────────────────────────────────────────────────────

def test_compress_path_fixed_point():
    z5 = construct_group("Z5")
    assert compress_path(z5, (2, 3)) == (2, 3)


def test_compress_path_z5_trace():
    # (a, b, b^-1, a^-1) with a=1, b=2 collapses to the endpoint pair
    z5 = construct_group("Z5")
    assert compress_path(z5, (1, 2, 3, 4)) == (1, 4)


def test_compress_path_z9_landing_swap():
    # the walk lands exactly on the last vertex, forcing the final swap
    z9 = construct_group("Z9")
    assert compress_path(z9, (1, 6, 8, 3)) == (1, 8, 6, 3)


def _inverse_closed_paths(g, gr, max_len):
    """All inverse-closed identity-free paths up to max_len vertices, as
    tuples; undirected duplicates (reversals) are kept, which is harmless."""
    found = []
    vertices = [x for x in range(g.n) if g.orders[x] >= 3]

    def extend(path):
        if len(set(g.inv[x] for x in path) - set(path)) == 0:
            found.append(tuple(path))
        if len(path) == max_len:
            return
        for w in _bits(gr.adj[path[-1]]):
            if w in vertices and w not in path:
                path.append(w)
                extend(path)
                path.pop()

    for v in vertices:
        extend([v])
    return found


def test_compress_path_properties_by_enumeration():
    for spec, max_len in (("Z9", 6), ("Z12", 5), ("Z7", 5)):
        g = construct_group(spec)
        gr = power_graph(g).graph
        paths = _inverse_closed_paths(g, gr, max_len)
        assert paths, spec
        for vertices in paths:
            out = compress_path(g, vertices)
            assert set(out) <= set(vertices), (spec, vertices)
            # still a path of the power graph
            for a, b in zip(out, out[1:]):
                assert gr.has_edge(a, b), (spec, vertices, out)
            # endpoints as a set always survive compression
            assert {out[0], out[-1]} == {vertices[0], vertices[-1]}, (spec, vertices, out)
            # alternating (x, x^-1) shape
            assert len(out) % 2 == 0
            for j in range(0, len(out), 2):
                assert g.inv[out[j]] == out[j + 1]


# ── path covers ──────────────────────────────────────────────────────────────

def test_path_cover_cyclic_even():
    for n in range(2, 17):
        g = construct_group(f"Z{2 * n}")
        gr = power_graph(g).graph
        cover = path_cover_from_matching(g, maximum_matching(gr))
        assert len(cover) == 1
        assert {cover[0][0], cover[0][-1]} == {0, n}


def test_path_cover_q8():
    g = construct_group("Q8")
    gr = power_graph(g).graph
    cover = path_cover_from_matching(g, maximum_matching(gr))
    assert len(cover) == 1
    assert {cover[0][0], cover[0][-1]} == {0, 2}


def test_path_cover_rejects_bad_inputs():
    d8 = construct_group("D8")
    gr = power_graph(d8).graph
    not_perfect = maximum_matching(gr)
    assert not not_perfect.is_perfect(8)
    with pytest.raises(ValueError, match="perfect"):
        path_cover_from_matching(d8, not_perfect)
    z7 = construct_group("Z7")
    with pytest.raises(ValueError, match="even"):
        path_cover_from_matching(z7, Matching.from_edges([]))


def test_path_cover_properties_across_catalog():
    for m in range(2, 33, 2):
        for g in catalog_for_order(m).groups:
            gr = power_graph(g).graph
            mm = maximum_matching(gr)
            if not mm.is_perfect(g.n):
                continue
            cover = path_cover_from_matching(g, mm)
            invs = involutions(g)
            assert len(cover) == (len(invs) + 1) // 2, g.label
            seen = set()
            for p in cover:
                vset = set(p)
                assert not (seen & vset), g.label
                seen |= vset
                assert {g.inv[x] for x in vset} == vset, g.label
                interior = p[1:-1]
                assert all(g.orders[x] >= 3 for x in interior), g.label
                if 0 not in p:
                    # every identity-free path showed at least 2 interiors
                    assert len(interior) >= 2, g.label
            assert {x for p in cover for x in (p[0], p[-1])} == invs | {0}, g.label


# ── matching from cover, and the equivalence ─────────────────────────────────

def test_matching_from_hand_built_cover():
    g = construct_group("Z12")
    cover = ((0, 6),)
    m = matching_from_path_cover(g, cover)
    assert m.is_perfect(12)
    assert m.edges == ((0, 6), (1, 11), (2, 10), (3, 9), (4, 8), (5, 7))


def test_matching_from_cover_round_trip():
    for m in range(2, 49, 2):
        for g in catalog_for_order(m).groups:
            gr = power_graph(g).graph
            mm = maximum_matching(gr)
            if not mm.is_perfect(g.n):
                continue
            cover = path_cover_from_matching(g, mm)
            rebuilt = matching_from_path_cover(g, cover)
            assert rebuilt.is_perfect(g.n), g.label
            rebuilt.validate(gr)


def test_matching_from_cover_rejects_bad_covers():
    z12 = construct_group("Z12")
    with pytest.raises(ValueError, match="endpoint"):
        matching_from_path_cover(z12, ((1, 11),))
    with pytest.raises(ValueError, match="paths"):
        matching_from_path_cover(z12, ((0, 6), (1, 11)))
    with pytest.raises(ValueError, match="single-vertex"):
        matching_from_path_cover(z12, ((0,),))
    with pytest.raises(ValueError, match="single-vertex"):
        matching_from_path_cover(z12, ((),))
    # compress_path checks nothing, so every path it could be handed wrong
    # is refused here first: a repeated vertex, a non-adjacent pair (<9> and
    # <4> are not nested), the involution 6 or the identity inside a path,
    # and an interior that is not inverse-closed
    with pytest.raises(ValueError, match="repeated"):
        matching_from_path_cover(z12, ((0, 1, 11, 1, 6),))
    with pytest.raises(ValueError, match="adjacent"):
        matching_from_path_cover(z12, ((0, 3, 9, 4, 8, 6),))
    with pytest.raises(ValueError, match="endpoint"):
        matching_from_path_cover(z12, ((0, 1, 6, 11),))
    with pytest.raises(ValueError, match="endpoint"):
        matching_from_path_cover(z12, ((6, 0, 1, 11),))
    with pytest.raises(ValueError, match="inverse-closed"):
        matching_from_path_cover(z12, ((0, 1, 2, 6),))
    q8 = construct_group("Q8")
    # (0, 1, 3, 2) is a legitimate cover: {1, 3} are mutual inverses
    assert matching_from_path_cover(q8, ((0, 1, 3, 2),)).is_perfect(8)
    with pytest.raises(ValueError, match="inverse-closed"):
        matching_from_path_cover(q8, ((2, 5),))


def test_shortest_identity_free_paths():
    # Ab[2,6] has the involutions 3, 6 and 9.  A path from 6 to 9 with
    # fewer than 2 interior vertices fails the checks (ValueError) before
    # assembly.  No identity-free path in the covers check_theorem44 builds
    # for the catalog up to order 64 is shorter than 8 vertices, as
    # Ab[2,6]'s 3, 1, 5, 2, 4, 8, 10, 6
    g = construct_group("Ab[2,6]")
    for short in ((6, 9), (6, 8, 9), (6, 2, 9)):
        with pytest.raises(ValueError):
            matching_from_path_cover(g, ((0, 3), short))
    cover = ((0, 3), (6, 8, 10, 2, 4, 11, 7, 9))
    m = matching_from_path_cover(g, cover)
    assert m.is_perfect(12)
    assert (0, 3) in m.edges and (1, 5) in m.edges


def test_check_theorem44():
    assert check_theorem44(construct_group("Z12")).optimal
    cover = check_theorem44(construct_group("Ab[2,6]")).cover
    assert cover == ((0, 9), (3, 1, 5, 2, 4, 8, 10, 6))
    report = check_theorem44(construct_group("D10"))
    assert report == matching.Theorem44Report(False, None, None, (0,))
    with pytest.raises(ValueError):
        check_theorem44(construct_group("Z9"))
    full = check_theorem44(construct_group("Q16"))
    assert full.optimal and full.matching.is_perfect(16) and full.barrier is None
    assert full.cover is not None and len(full.cover) == 1


def _check_certificate(g, report, gr):
    """The report's certificate, checked on the power graph's rows."""
    if report.optimal:
        assert report.barrier is None, g.label
        assert report.matching.is_perfect(g.n), g.label
        report.matching.validate(gr)
        assert all(gr.has_edge(a, b) for p in report.cover for a, b in zip(p, p[1:]))
        assert matching_from_path_cover(g, report.cover) == report.matching
    else:
        assert report.matching is None and report.cover is None, g.label
        removed = {x for lead in report.barrier for x in g.members(g._class[lead])}
        assert all(g.members(g._class[lead])[0] == lead
                   for lead in report.barrier), g.label
        assert odd_components_brute(gr, removed) > len(removed), g.label


def test_check_theorem44_across_catalog():
    # the gadget's answer against the blossom on the whole power graph, and
    # up to order 64 each certificate checked on the power graph's rows
    for m in range(2, 129, 2):
        for g in catalog_for_order(m).groups:
            report = check_theorem44(g)
            gr = power_graph(g).graph
            assert report.optimal == maximum_matching(gr).is_perfect(g.n), g.label
            if report.optimal:
                ends = {x for p in report.cover for x in (p[0], p[-1])}
                assert ends == involutions(g) | {0}
            if m <= 64:
                _check_certificate(g, report, gr)


# the groups at the order cap that CI checks, and the large groups of the
# benchmark
CAP_GROUPS = ["Z5040", "Dic1260", "Ab[2,2520]", "D5040", "S7", "GDih[2,1260]"]
LARGE_GROUPS = ["Z1680", "D600", "Dic300", "S6", "Ab[2,2,4,60]"]


@pytest.mark.parametrize("spec", CAP_GROUPS + LARGE_GROUPS)
def test_check_theorem44_agrees_with_the_blossom_on_large_groups(spec):
    g = construct_group(spec)
    report = check_theorem44(g)
    assert report.optimal == maximum_matching(power_graph(g).graph).is_perfect(g.n)
    if report.optimal:
        assert matching_from_path_cover(g, report.cover) == report.matching
    else:
        assert barrier_surplus(g, report.barrier) > 0


def test_every_no_carries_a_barrier():
    # that the gadget's barrier projects to a barrier of the power graph is
    # checked at run time, not proved, so the sweep goes past the catalog
    # to 128: 70 of the 315 "no" answers up to order 128, and 173 of the
    # 495 from 130 to 256, need more than {e}
    wider = {128: 0, 256: 0}
    for m in range(2, 257, 2):
        for g in catalog_for_order(m).groups:
            report = check_theorem44(g)
            if not report.optimal:
                assert report.barrier and barrier_surplus(g, report.barrier) > 0
                if report.barrier != (0,):
                    wider[128 if m <= 128 else 256] += 1
    assert wider == {128: 70, 256: 173}


def test_a_forged_barrier_is_rejected(monkeypatch):
    # a yes group has no barrier at all (Tutte), and a no group's barrier
    # stops working without one of its classes
    z12 = construct_group("Z12")
    leads = [z12.members(i)[0] for i in range(len(z12.comparable))]
    for r in range(len(leads) + 1):
        for forged in itertools.combinations(leads, r):
            assert barrier_surplus(z12, forged) <= 0, forged
    g = next(g for g in catalog_for_order(24).groups
             if check_theorem44(g).barrier not in (None, (0,)))
    barrier = check_theorem44(g).barrier
    assert barrier_surplus(g, barrier) > 0
    assert barrier_surplus(g, barrier[1:]) <= 0
    gr = power_graph(g).graph
    removed = {x for lead in barrier[1:] for x in g.members(g._class[lead])}
    assert odd_components_brute(gr, removed) <= len(removed)
    # verify recounts the barrier from the report, and fails on the forged one
    real = check_theorem44

    def forged(h):
        report = real(h)
        return report._replace(barrier=barrier[1:]) if h.label == g.label else report

    monkeypatch.setattr(verify_module, "check_theorem44", forged)
    claim = verify_module.verify_suite("thm44", 24, progress=io.StringIO()).claims[0]
    assert not claim.passed
    assert claim.counterexample == f"{g.label}: the barrier does not check"


def test_a_cover_across_incomparable_classes_is_rejected():
    # Ab[2,6]: the involution 6 and the elements of order 3 generate no
    # nested subgroups, so a path stepping from 6 into them is no path
    g = construct_group("Ab[2,6]")
    x = next(x for x in range(g.n) if g.orders[x] == 3)
    assert not g.has_edge(6, x) and not power_graph(g).graph.has_edge(6, x)
    cover = ((0, 3), (6, x, g.inv[x], 9))
    with pytest.raises(ValueError, match="not adjacent"):
        matching_from_path_cover(g, cover)


def _count_power_graphs(monkeypatch) -> list[str]:
    calls = []

    def counted(g):
        calls.append(g.label)
        return power_graph(g)

    # both the graphs module and any name bound from it elsewhere
    monkeypatch.setattr(graphs, "power_graph", counted)
    monkeypatch.setattr(matching, "power_graph", counted, raising=False)
    return calls


def test_check_theorem44_builds_no_power_graph(monkeypatch):
    # the identity barrier decides exactly when the power graph less the
    # identity has more than one odd component; either way no power graph
    # is built
    calls = _count_power_graphs(monkeypatch)
    outcomes = set()
    for m in range(2, 33, 2):
        for g in catalog_for_order(m).groups:
            report = check_theorem44(g)
            assert calls == [], g.label
            barrier = odd_components_brute(power_graph(g).graph, {0}) > 1
            assert barrier == (report.barrier == (0,)), g.label
            outcomes.add((barrier, report.optimal))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_path_cover_prints_the_theorem44_cover(monkeypatch, capsys):
    # path-cover prints check-thm44's cover and builds no power graph and
    # runs no element blossom; its exit code is still the blossom's answer
    def cli_json(*argv):
        code = main([*argv, "--json"])
        return code, json.loads(capsys.readouterr().out)

    calls = _count_power_graphs(monkeypatch)
    blossoms = []
    monkeypatch.setattr(matching, "maximum_matching", blossoms.append)
    for m in range(2, 65, 2):
        for g in catalog_for_order(m).groups:
            code, payload = cli_json("path-cover", g.label)
            assert calls == [] and blossoms == [], g.label
            _, report = cli_json("check-thm44", g.label)
            assert payload.get("paths") == report["cover"], g.label
            perfect = maximum_matching(power_graph(g).graph).is_perfect(g.n)
            assert code == (0 if perfect else 1), g.label
    assert main(["path-cover", "Z7"]) == 1
    assert capsys.readouterr().out == (
        "no perfect matching, so no inverse-closed path cover\n")
    assert calls == [] and blossoms == []


@pytest.mark.parametrize("spec", ["D5040", "S7", "GDih[2,1260]"])
def test_identity_barrier_agrees_with_the_blossom_at_the_cap(spec, monkeypatch):
    g = construct_group(spec)
    calls = _count_power_graphs(monkeypatch)
    assert check_theorem44(g) == matching.Theorem44Report(False, None, None, (0,))
    assert calls == []
    assert not maximum_matching(power_graph(g).graph).is_perfect(g.n)


def test_serialization_shapes():
    g = construct_group("Z10")
    report = check_theorem44(g)
    as_json = report.matching.to_json()
    assert all(isinstance(e, list) and len(e) == 2 for e in as_json)
    # the cover is a tuple of tuples, which JSON prints as lists of lists
    cov = json.loads(json.dumps(report.cover))
    assert cov == [list(p) for p in report.cover] and all(isinstance(p, list) for p in cov)
