"""Embedding search and the power-index machinery built on it.

The generic oracle, ``embeds``, never builds the host power graph.  Two
elements are adjacent in it exactly when the cyclic subgroups they
generate are nested (Feng, Ma & Wang, Eur. J. Combin. 43, 2015), so it
is the comparability graph of the host's cyclic classes with each class
blown up to a clique.  The search therefore assigns pattern vertices to
classes, in one static order and within each class's capacity, on an
explicit stack with forward checking of bitset class domains and a Hall
count on pattern twins (as in the Glasgow Subgraph Solver; McCreesh,
Prosser & Trimble, ICGT 2020), and lifts a class assignment to elements
at the end.  Twins take non-decreasing class indices, and so do the
least members of twin classes that a pattern automorphism swaps whole;
an exhausted search is still a proof that no embedding exists (the
argument is in ``embeds``).  On top of the oracle sit the constructive
embedding behind the bipartite criticality criterion, optimal-group
classification, and catalog-relative index search for arbitrary
patterns.  The closed forms (``theta_complete``, ``theta_kn_equals_nplus1``,
``is_kst_power_critical``) read only integers, so they live in
``numtheory``; they are re-exported here.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .graphs import SimpleGraph, _bits, complete_bipartite
from .groups import (
    CyclicClass,
    Group,
    catalog_for_order,
    construct_group,
    is_cyclic,
    is_generalized_quaternion,
)
from .numtheory import (  # the closed forms are re-exported from here
    is_kst_power_critical,
    is_prime_power,
    rho,
    theta_complete,
    theta_kn_equals_nplus1,
    totient,
)


class EmbeddingWitness(NamedTuple):
    """Injective vertex map carrying every pattern edge to a host edge."""

    mapping: tuple[tuple[int, int], ...]
    group_ref: str

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)


class ThetaResult(NamedTuple):
    value: int
    witness: EmbeddingWitness
    exact: bool
    searched_orders: tuple[int, ...]


class CriticalityResult(NamedTuple):
    critical: bool
    exact: bool
    witness: EmbeddingWitness | None


class KstOptimalResult(NamedTuple):
    groups: tuple[Group, ...]
    catalog_complete: bool


class DegreeReport(NamedTuple):
    degree: int
    holds: bool


def check_embedding(pattern: SimpleGraph, host: SimpleGraph,
                    mapping: dict[int, int]) -> bool:
    """Validate injectivity and edge preservation of a candidate map."""
    if sorted(mapping) != list(range(pattern.n)):
        return False
    if len(set(mapping.values())) != pattern.n:
        return False
    if any(not 0 <= x < host.n for x in mapping.values()):
        return False
    return all(host.has_edge(mapping[u], mapping[v]) for u, v in pattern.edges())


def _twin_classes(rows: list[int], key: list) -> list[tuple[str, list[int]]]:
    """The twin classes with two or more members of the graph whose vertex
    v has the neighbour bitmask rows[v], among vertices of equal key[v],
    each as its kind ("o" or "c") and its members by increasing id.

    Two vertices are twins when they share the same open neighbourhood
    (non-adjacent case) or the same closed neighbourhood (adjacent case);
    any permutation of a class is a graph automorphism, so ordering the
    images of a class's members discards only redundant branches.  No
    vertex has twins of both kinds: an open twin u and a closed twin w of
    v would make u a neighbour of w, hence of v, hence of itself.
    """
    by_key: dict[tuple, list[int]] = {}
    for v, row in enumerate(rows):
        by_key.setdefault((key[v], "o", row), []).append(v)
        by_key.setdefault((key[v], "c", row | 1 << v), []).append(v)
    return [(kind, members) for (_, kind, _), members in by_key.items() if len(members) > 1]


def embeds(pattern: SimpleGraph, g: Group) -> EmbeddingWitness | None:
    """Search for an embedding of the pattern into the group's power graph.

    The search assigns each pattern vertex a cyclic class of the host
    (``Group.cyclic_classes``), not an element.  A class assignment is
    valid when no class takes more vertices than it has members, the two
    ends of every pattern edge sit in comparable classes (a class is
    comparable with itself), and every vertex sits in a class whose
    elements have at least its degree.  A valid assignment lifts to the
    witness by giving out each class's members in ascending order.

    None is a proof that no embedding exists:

    - Any embedding projects to a valid assignment: adjacent images are
      powers of one another, so their cyclic subgroups are nested and
      their classes comparable, and injectivity bounds each class's load
      by its size.
    - Any valid assignment lifts: x lies in <y> exactly when <x> is
      contained in <y>, so elements of comparable classes are adjacent,
      and the lift is injective because no class is overloaded.
    - Pattern twins are interchangeable by a pattern automorphism, so
      every valid assignment can be permuted into one that gives the
      members of each twin class non-decreasing class indices.
    - Two twin classes of one size and kind with the same neighbours
      outside both are swapped whole by a pattern automorphism, which
      keeps each class's members in order, so the assignment can further
      be permuted to give the least members of each run of such classes
      non-decreasing class indices.
    - Forward checking and the Hall count only cut partial assignments
      that no valid assignment extends.
    """
    if pattern.n > g.n:
        return None
    classes = g.cyclic_classes
    assign = _assign_classes(pattern, classes)
    if assign is None:
        return None
    taken = [0] * len(classes)
    mapping = []
    for v, c in enumerate(assign):
        mapping.append((v, classes[c].members[taken[c]]))
        taken[c] += 1
    return EmbeddingWitness(tuple(mapping), g.label)


def _assign_classes(pattern: SimpleGraph,
                    classes: tuple[CyclicClass, ...]) -> list[int] | None:
    """A valid class per pattern vertex (see embeds), or None if none exists.

    Depth-first search on an explicit stack, over one vertex order fixed
    before it starts: degree descending, then the least member of the
    vertex's run of swappable twin classes, then that of its twin class
    (so each run, and in it each twin class, is placed in a row, by
    increasing id), then id.  The runs are the twin classes of the graph
    of twin classes, among classes of equal size, kind and neighbours in
    no twin class.  Frame i branches on ``order[i]`` and holds its untried
    classes and the domains (bitmasks over class indices) and remaining
    capacities left by the placements above it.  A twin's predecessor, and
    the lead of the class before a class in a run, is always placed first,
    so only the successors in ``succ`` take the non-decreasing bound.
    """
    n = pattern.n
    if n == 0:
        return []
    padj, pdeg = pattern.adj, pattern.degrees()
    size = [len(cl.members) for cl in classes]
    comp = [cl.comparable for cl in classes]
    pool = {d: sum(1 << c for c, cl in enumerate(classes) if cl.degree >= d)
            for d in set(pdeg)}
    twins = _twin_classes(padj, [None] * n)
    twin_sets = [members for _, members in twins]
    lone = ~sum(1 << u for members in twin_sets for u in members)
    runs = _twin_classes(
        [sum(1 << j for j, other in enumerate(twin_sets)
             if other is not members and padj[members[0]] >> other[0] & 1)
         for members in twin_sets],
        [(len(members), kind, padj[members[0]] & lone) for kind, members in twins])
    lead, run, succ = list(range(n)), list(range(n)), [[] for _ in range(n)]
    for members in twin_sets:
        for a, b in zip(members, members[1:]):
            succ[a].append(b)
            lead[b] = members[0]
    for _, ids in runs:
        heads = [twin_sets[i][0] for i in ids]
        for a, b in zip(heads, heads[1:]):
            succ[a].append(b)
            run[b] = heads[0]
    order = sorted(range(n), key=lambda v: (-pdeg[v], run[lead[v]], lead[v], v))
    assign = [-1] * n

    def feasible(dom: list[int], cap: list[int], i: int) -> bool:
        """Whether every vertex from order[i] on has a class left and every
        twin class has room for its unplaced members in their domains."""
        if not all(map(dom.__getitem__, order[i:])):
            return False
        for members in twin_sets:
            union = need = 0
            for u in members:
                if assign[u] == -1:
                    union |= dom[u]
                    need += 1
            room = 0
            while union and room < need:
                room += cap[(union & -union).bit_length() - 1]
                union &= union - 1
            if room < need:
                return False
        return True

    dom = [pool[pdeg[v]] for v in range(n)]
    if not feasible(dom, size, 0):
        return None
    stack = [[0, dom[order[0]], dom, size]]
    while stack:
        frame = stack[-1]
        i, cand, dom, cap = frame
        v = order[i]
        if not cand:
            assign[v] = -1
            stack.pop()
            continue
        c = (cand & -cand).bit_length() - 1
        frame[1] = cand & (cand - 1)
        assign[v] = c
        if i + 1 == n:
            return assign
        cap = cap[:]
        cap[c] -= 1
        dom = [d & ~(1 << c) for d in dom] if not cap[c] else dom[:]
        for u in _bits(padj[v]):
            dom[u] &= comp[c]
        for u in succ[v]:
            dom[u] &= -1 << c
        if feasible(dom, cap, i + 1):
            stack.append([i + 1, dom[order[i + 1]], dom, cap])
    return None


# ── complete bipartite graphs ────────────────────────────────────────────────

def embed_kst_cyclic(s: int, t: int) -> EmbeddingWitness:
    """Constructive embedding of a critical K_{s,t} into the cyclic group
    of order s + t: the small side goes to generators and the identity."""
    if not is_kst_power_critical(s, t):
        raise ValueError(f"K_{{{s},{t}}} fails the criterion: "
                         f"phi({s + t}) = {totient(s + t)} < {s - 1}")
    n = s + t
    universal = [0] + [x for x in range(1, n) if gcd(x, n) == 1]
    side_u = sorted(universal[:s])
    side_w = [x for x in range(n) if x not in set(side_u)]
    mapping = tuple(enumerate(side_u + side_w))
    return EmbeddingWitness(mapping, f"Z{n}")


def kst_optimal_groups(s: int, t: int) -> KstOptimalResult:
    """All order-(s+t) catalog groups whose power graph hosts K_{s,t}.

    Only meaningful when K_{s,t} is power-critical; the result records
    whether the catalog provably exhausts that order.
    """
    if not is_kst_power_critical(s, t):
        raise ValueError(f"K_{{{s},{t}}} is not power-critical")
    pattern = complete_bipartite(s, t)
    cat = catalog_for_order(s + t)
    hits = tuple(g for g in cat.groups if embeds(pattern, g) is not None)
    return KstOptimalResult(hits, cat.complete)


# ── general patterns ─────────────────────────────────────────────────────────

def theta_search(pattern: SimpleGraph,
                 max_order: int | None = None) -> ThetaResult | None:
    """Least group order whose power graph hosts the pattern, by scanning
    catalogs order by order, or None when no catalog group up to max_order
    hosts it.

    The default bound (least prime power at or above the vertex count)
    always suffices, since the corresponding cyclic power graph is
    complete.  exact is True when every order below the answer had a
    provably complete catalog.
    """
    n = max(1, pattern.n)
    if max_order is None:
        max_order = rho(n)
    if max_order < n:
        raise ValueError(f"max_order {max_order} is below the vertex count {n}")
    searched: list[int] = []
    exact = True
    for m in range(n, max_order + 1):
        cat = catalog_for_order(m)
        searched.append(m)
        for g in cat.groups:
            witness = embeds(pattern, g)
            if witness is not None:
                return ThetaResult(m, witness, exact, tuple(searched))
        exact = exact and cat.complete
    return None


def is_power_critical(pattern: SimpleGraph) -> CriticalityResult:
    """Whether the pattern's power index equals its vertex count.

    Prime-power vertex counts are always critical (the cyclic power graph
    of that order is complete); otherwise the order's catalog decides, and
    a negative answer is exact only when that catalog is complete.
    """
    n = pattern.n
    if n < 1:
        raise ValueError("pattern needs at least one vertex")
    if is_prime_power(n):
        witness = embeds(pattern, construct_group(f"Z{n}"))
        if witness is None:  # pragma: no cover - complete host graph
            raise AssertionError("embedding into complete power graph failed")
        return CriticalityResult(True, True, witness)
    cat = catalog_for_order(n)
    for g in cat.groups:
        witness = embeds(pattern, g)
        if witness is not None:
            return CriticalityResult(True, True, witness)
    return CriticalityResult(False, cat.complete, None)


def max_nonidentity_degree(g: Group) -> DegreeReport:
    """Largest power-graph degree among non-identity elements, read from
    every cyclic class but the identity's, and whether it reaches |G| - 1
    (a universal non-identity vertex)."""
    if g.n == 1:
        raise ValueError("needs a non-trivial group")
    top = max(cl.degree for cl in g.cyclic_classes[1:])
    return DegreeReport(top, top >= g.n - 1)


def has_universal_nonidentity(g: Group) -> bool:
    """Closed-form side of the degree characterization: cyclic groups and
    generalized quaternion 2-groups, nothing else."""
    return is_cyclic(g) or is_generalized_quaternion(g)
