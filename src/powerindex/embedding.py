"""Embedding search and the power-index machinery built on it.

The generic oracle, ``embeds``, never builds the host power graph.  Two
elements are adjacent in it exactly when the cyclic subgroups they
generate are nested (Feng, Ma & Wang, Eur. J. Combin. 43, 2015), so it
is the comparability graph of the host's cyclic classes with each class
blown up to a clique.  The search therefore assigns pattern vertices to
classes, in one static order and within each class's capacity, on an
explicit stack with forward checking of bitset class domains and Hall
counts of room per closed twin class and per open block (as in the
Glasgow Subgraph Solver; McCreesh, Prosser & Trimble, ICGT 2020), and
lifts a class assignment to elements at the end.  Closed twins take
non-decreasing class indices, and so do the least members of closed
twin classes that a pattern automorphism swaps whole.  Each open twin
block (such as a side of K_{s,t}) is one unit: it branches on a closed
set of classes, not on a class per member, and one max flow from blocks
to classes settles the counts at the end, a global cardinality
constraint over blocks (Régin, AAAI 1996).  An
exhausted search is still a proof that no embedding exists (the
argument is in ``embeds``).  On top of the oracle sit the constructive
embedding behind the bipartite criticality criterion, optimal-group
classification, and catalog-relative index search for arbitrary
patterns.  The closed forms (``theta_complete``, ``theta_kn_equals_nplus1``,
``is_kst_power_critical``) read only integers, so they live in
``numtheory``; they are re-exported here.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import or_
from typing import NamedTuple

from .graphs import SimpleGraph, _bits, complete_bipartite
from .groups import (
    Catalog,
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


class DegreeReport(NamedTuple):
    degree: int
    holds: bool


def check_embedding(pattern: SimpleGraph, host: SimpleGraph | Group,
                    mapping: dict[int, int]) -> bool:
    """Validate injectivity and edge preservation of a candidate map.

    The host is read one pattern row at a time: each distinct row's images
    form one mask, which must lie in the host row of every image of a
    vertex with that row.  A group host is read on its cyclic classes
    (``comparable``), so no power graph is built: injectivity is checked
    first, and distinct elements are adjacent exactly when their classes
    are comparable."""
    if sorted(mapping) != list(range(pattern.n)):
        return False
    if len(set(mapping.values())) != pattern.n:
        return False
    if any(not 0 <= x < host.n for x in mapping.values()):
        return False
    of, rows = ((host._class, host.comparable) if isinstance(host, Group)
                else (range(host.n), host.adj))
    image = [1 << of[mapping[v]] for v in range(pattern.n)]
    mask = {row: reduce(or_, map(image.__getitem__, _bits(row)), 0) for row in set(pattern.adj)}
    return all(not mask[row] & ~rows[of[mapping[v]]] for v, row in enumerate(pattern.adj))


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
    (``Group.members``), not an element.  A class assignment is
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
    - Closed twins are interchangeable by a pattern automorphism, so
      every valid assignment can be permuted into one that gives the
      members of each closed twin class non-decreasing class indices.
    - Two closed twin classes of one size with the same neighbours
      outside both are swapped whole by a pattern automorphism, which
      keeps each class's members in order, so the assignment can further
      be permuted to give the least members of each run of such classes
      non-decreasing class indices.  Neither permutation moves a member
      of an open twin block.
    - An open twin block (two or more vertices with one open
      neighbourhood) is placed as one unit.  Where the search branches
      on the block, let D be its domain and L the classes its unplaced
      neighbours may still take, and project a valid assignment that
      agrees with the units placed before it to the set U of classes the
      block's members use.  Its unplaced neighbours take classes in
      Y = L ∩ common(U), common(S) being the classes comparable with
      every class of S, and U lies in X = D ∩ common(Y).
      X is closed: X = D ∩ common(L ∩ common(X)).  Every class of X is
      comparable with every class of Y, so the pair (X, Y) dominates
      (U, Y): narrowing the block's domain to X and its neighbours'
      domains to common(X) keeps the assignment.  So branching on the
      closed sets alone, by ``_closed_sets``, misses no valid assignment.
      A block with no unplaced neighbour has one closed set, its domain.
    - Once every unit is placed, each vertex unit has a class, each block
      a domain, and any two classes that adjacent units may take are
      comparable.  What is left is whether the blocks' members fit in
      the capacity the vertices leave, a transportation problem that one
      max flow decides exactly (``_transport``).  Its counts per class
      lift to the block's members in ascending order.
    - Forward checking and the capacity counts only cut partial
      assignments that no valid assignment extends: a closed twin class's
      unplaced members, a block's members, or all blocks' members
      together, need that much room in the classes their domains hold.
    """
    if pattern.n > g.n:
        return None
    assign = _assign_classes(pattern, g)
    if assign is None:
        return None
    rows = {c: iter(g.members(c)) for c in set(assign)}
    return EmbeddingWitness(tuple((v, next(rows[c])) for v, c in enumerate(assign)), g.label)


def _assign_classes(pattern: SimpleGraph, g: Group) -> list[int] | None:
    """A valid class per pattern vertex (see embeds), or None if none exists.

    Depth-first search on an explicit stack, over one order of units fixed
    before it starts.  The vertices are sorted by degree descending, then
    the least member of the vertex's run of swappable closed twin classes,
    then that of its twin class (so each run, and in it each twin class,
    is placed in a row, by increasing id), then id.  The runs are the twin
    classes of the graph of closed twin classes, among classes of equal
    size and neighbours outside closed twin classes.  Each open twin block
    is one unit, at the place of its first member; every other vertex is
    a unit of its own.  Frame i branches on unit i and holds its untried
    choices and the domains (bitmasks over class indices, one per unit)
    and remaining capacities left by the units before it.  A placed unit's
    domain is its choice: a vertex takes a one-class set and one of that
    class's capacity, and a full class leaves the later units' domains (an
    earlier block that keeps it has no room there); a block takes a closed
    set of classes (``_closed_sets``) and no capacity, and after the last
    unit one transportation check (``_transport``) gives each block its
    count per class.  Each node checks every capacity group in one loop
    (``feasible``), and each unit's later neighbour units, which one step
    narrows to the classes comparable with all of its choice, are listed
    once in ``ahead`` after the root passes.  A closed twin's predecessor,
    and the lead of the class before a class in a run, is always placed
    first, so only the successors in ``succ`` take the non-decreasing
    bound.
    """
    n = pattern.n
    if n == 0:
        return []
    padj, pdeg = pattern.adj, pattern.degrees()
    comp = g.comparable
    size = [len(g.members(c)) for c in range(len(comp))]
    pool = {d: sum(1 << c for c, deg in enumerate(g.degree) if deg >= d)
            for d in set(pdeg)}
    lead, run = list(range(n)), list(range(n))
    succ: dict[int, list[int]] = {}
    block: list[list[int] | None] = [None] * n
    closed = []
    for kind, members in _twin_classes(padj, [None] * n):
        for b in members[1:]:
            lead[b] = members[0]
        if kind == "o":
            for u in members:
                block[u] = members
        else:
            closed.append(members)
            for a, b in zip(members, members[1:]):
                succ[a] = [b]
    outside = ~sum(1 << u for members in closed for u in members)
    runs = _twin_classes(
        [sum(1 << j for j, other in enumerate(closed)
             if other is not members and padj[members[0]] >> other[0] & 1)
         for members in closed],
        [(len(members), padj[members[0]] & outside) for members in closed])
    for _, ids in runs:
        heads = [closed[i][0] for i in ids]
        for a, b in zip(heads, heads[1:]):
            succ.setdefault(a, []).append(b)
            run[b] = heads[0]
    units: list[list[int]] = []
    blocks, unit = [], [0] * n  # unit[v] is v's unit
    for v in sorted(range(n), key=lambda v: (-pdeg[v], run[lead[v]], lead[v], v)):
        if block[v] is None:
            unit[v] = len(units)
            units.append([v])
        elif v == lead[v]:
            for u in block[v]:
                unit[u] = len(units)
            blocks.append(len(units))
            units.append(block[v])
    k = len(units)
    # capacity groups of (unit, last, width): at unit i the group needs room
    # for the width members of each unit with i <= last, in their domains.
    # A closed twin class counts its units from i on; a block takes no
    # capacity until _transport runs, so each block alone and all blocks
    # together count every member (for two blocks these are Hall's
    # conditions, so the flow can fail only from three)
    capacity = [[(unit[u], unit[u], 1) for u in members] for members in closed]
    capacity += [[(b, k, len(units[b]))] for b in blocks]
    if len(blocks) > 1:
        capacity.append([(b, k, len(units[b])) for b in blocks])

    def feasible(dom: list[int], cap: list[int], i: int) -> bool:
        """Whether every unit from i on has a class left and every capacity
        group has room for what it still needs in its units' domains."""
        if not all(dom[i:]):
            return False
        for group in capacity:
            union = need = 0
            for u, last, width in group:
                if i <= last:
                    union |= dom[u]
                    need += width
            room = 0
            while union and room < need:
                room += cap[(union & -union).bit_length() - 1]
                union &= union - 1
            if room < need:
                return False
        return True

    def choices(i: int, dom: list[int], cap: list[int]) -> list[int]:
        """The one-class sets of vertex unit i, or the closed class sets of
        block unit i, last tried first."""
        if len(units[i]) == 1:
            return [1 << c for c in reversed(_bits(dom[i]))]
        later = 0
        for j in ahead[i]:
            later |= dom[j]
        return _closed_sets(dom[i], later, comp, cap, len(units[i]))

    dom = [pool[pdeg[members[0]]] for members in units]
    if not feasible(dom, size, 0):
        return None
    # only the search reads what follows, so a root that fails skips it
    succ = {unit[a]: [unit[b] for b in bs] for a, bs in succ.items()}
    # unit i's later neighbour units: a neighbour of one member of a block
    # neighbours them all, so the first members' rows decide
    ahead = [[j for j in range(i + 1, k) if padj[units[i][0]] >> units[j][0] & 1]
             for i in range(k)]
    stack = [[0, choices(0, dom, size), dom, size]]
    while stack:
        i, cand, dom, cap = stack[-1]
        if not cand:
            stack.pop()
            continue
        x = cand.pop()
        dom = dom[:]
        dom[i], common = x, -1
        for c in _bits(x):
            common &= comp[c]
        if len(units[i]) == 1:  # x is {c}
            cap = cap[:]
            cap[c] -= 1
            if not cap[c]:
                dom[i + 1:] = [d & ~x for d in dom[i + 1:]]
            for j in succ.get(i, ()):
                dom[j] &= -x
        for j in ahead[i]:
            dom[j] &= common
        i += 1
        if i < k:
            if feasible(dom, cap, i):
                stack.append([i, choices(i, dom, cap), dom, cap])
            continue
        counts = _transport([len(units[b]) for b in blocks], [dom[b] for b in blocks], cap)
        if counts is None:
            continue
        out = [-1] * n
        for members, x in zip(units, dom):
            out[members[0]] = x.bit_length() - 1
        for b, load in zip(blocks, counts):
            it = iter(units[b])
            for c, m in load:
                for _ in range(m):
                    out[next(it)] = c
        return out
    return None


def _closed_sets(dom: int, later: int, comp: tuple[int, ...], cap: list[int],
                 need: int) -> list[int]:
    """The closed class sets of a block with domain dom, whose unplaced
    neighbours may take the classes in later, that have room for need
    members, by increasing room (the search tries the list from its end).

    X is closed when X = dom ∩ common(later ∩ common(X)), common(Y) being
    the classes comparable with every class in Y.  These are exactly dom
    and its intersections with comp[y] for classes y in later."""
    closed = {dom}
    for y in {comp[c] & dom for c in _bits(later)}:
        closed |= {x & y for x in closed}
    rooms = {x: sum(cap[c] for c in _bits(x)) for x in closed}
    return sorted((x for x, r in rooms.items() if r >= need), key=lambda x: (rooms[x], x))


def _transport(need: list[int], dom: list[int],
               cap: list[int]) -> list[list[tuple[int, int]]] | None:
    """Per block, its (class, count) pairs by increasing class, giving block
    b need[b] members in the classes of dom[b] with no class over its
    capacity in cap; None if no such counts exist.

    A max flow from blocks to classes, filled one block at a time: a block
    first fills its classes in increasing order, then each further step
    searches breadth first for a class with room, through full
    classes whose members another block can move to one of its own
    classes, and pushes along that path.  A block that finds no path
    cannot be filled beside the blocks before it, so none fill them all."""
    free = cap[:]
    flow: list[dict[int, int]] = [{} for _ in need]
    for b, want in enumerate(need):
        for c in _bits(dom[b]):
            k = min(want, free[c])
            if k:
                flow[b][c] = k
                free[c] -= k
                want -= k
                if not want:
                    break
        while want:
            # reach[c]: the block that takes class c on the path; via[y]:
            # the class that block y gives up to the block before it
            reach: dict[int, int] = {}
            via, queue, end = {b: -1}, [b], -1
            for y in queue:
                for c in _bits(dom[y]):
                    if c in reach:
                        continue
                    reach[c] = y
                    if free[c]:
                        end = c
                        break
                    for z, load in enumerate(flow):
                        if z not in via and load.get(c):
                            via[z] = c
                            queue.append(z)
                if end >= 0:
                    break
            if end < 0:
                return None
            path, c = [], end
            while c >= 0:
                path.append((reach[c], c))
                c = via[reach[c]]
            k = min(want, free[end], *(flow[y][via[y]] for y, _ in path[:-1]))
            for y, c in path:
                flow[y][c] = flow[y].get(c, 0) + k
                if y != b:
                    flow[y][via[y]] -= k
            free[end] -= k
            want -= k
    return [sorted((c, k) for c, k in load.items() if k) for load in flow]


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


def kst_optimal_groups(s: int, t: int) -> Catalog:
    """All order-(s+t) catalog groups whose power graph hosts K_{s,t}.

    Only meaningful when K_{s,t} is power-critical; ``complete`` records
    whether the catalog provably exhausts that order.
    """
    if not is_kst_power_critical(s, t):
        raise ValueError(f"K_{{{s},{t}}} is not power-critical")
    pattern = complete_bipartite(s, t)
    cat = catalog_for_order(s + t)
    hits = tuple(g for g in cat.groups if embeds(pattern, g) is not None)
    return Catalog(hits, cat.complete)


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
    found = theta_search(pattern, n)
    if found is not None:
        return CriticalityResult(True, True, found.witness)
    return CriticalityResult(False, catalog_for_order(n).complete, None)


def max_nonidentity_degree(g: Group) -> DegreeReport:
    """Largest power-graph degree among non-identity elements, read from
    every cyclic class but the identity's, and whether it reaches |G| - 1
    (a universal non-identity vertex)."""
    if g.n == 1:
        raise ValueError("needs a non-trivial group")
    top = max(g.degree[1:])
    return DegreeReport(top, top >= g.n - 1)


def has_universal_nonidentity(g: Group) -> bool:
    """Closed-form side of the degree characterization: cyclic groups and
    generalized quaternion 2-groups, nothing else."""
    return is_cyclic(g) or is_generalized_quaternion(g)
