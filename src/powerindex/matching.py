"""Matchings and inverse-closed path covers in power graphs.

This module carries the constructive side of the matching theory: exact
maximum matching on general graphs (blossom contraction on the bitset
rows, plus a brute-force twin), the inverse-pairing near-perfect matching
for odd group orders, path compression into alternating (x, x^-1) shape,
extraction of a path cover from a perfect matching, and the reverse
construction that assembles a perfect matching from such a cover.

The Theorem 4.4 check builds no power graph.  It answers "no" from the
cyclic classes when removing the identity leaves more than one odd
component.  Otherwise it runs the blossom on a gadget over the classes:
one node per class of size 1 (the identity and the involutions, T), and
for every other class i of size s_i, min(s_i/2, |T|/2 - 1) pairs of
nodes, each pair joined; nodes of distinct comparable classes are
adjacent.  The power graph has a perfect matching exactly when the gadget
does (the proof is in ``check_theorem44``).  A "yes" is lifted to an
inverse-closed path cover and checked by rebuilding a perfect matching
from it.  Every certificate reads its edges from the group
(``Group.has_edge``), so none needs a power graph.  A "no" carries a
barrier S, a union of classes taken from the gadget's Hungarian trees,
and ``barrier_surplus`` recounts the odd components of the power graph
less S from the classes.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import NamedTuple

from .graphs import SimpleGraph, _bits
from .groups import Group, involutions


class Matching(NamedTuple):
    """A set of pairwise disjoint edges; pairs stored as (u, v) with u < v.
    The matched vertices (``covered``) are read from the edges."""

    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, edges) -> "Matching":
        canon = sorted((u, v) if u < v else (v, u) for u, v in edges)
        ends = sorted(x for e in canon for x in e)
        for a, b in zip(ends, ends[1:]):
            if a == b:
                raise ValueError(f"edges are not pairwise disjoint at vertex {a}")
        return cls(tuple(canon))

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(x for e in self.edges for x in e)

    @property
    def size(self) -> int:
        return len(self.edges)

    def is_perfect(self, n: int) -> bool:
        return 2 * len(self.edges) == n

    def is_near_perfect(self, n: int) -> bool:
        return 2 * len(self.edges) == n - 1

    def validate(self, gr: SimpleGraph | Group) -> None:
        for u, v in self.edges:
            if not gr.has_edge(u, v):
                raise ValueError(f"matching edge ({u}, {v}) not present in the graph")

    def to_json(self) -> list[list[int]]:
        return [[u, v] for u, v in self.edges]


# ── matching engines ─────────────────────────────────────────────────────────

def maximum_matching(gr: SimpleGraph) -> Matching:
    """Exact maximum-cardinality matching via blossom contraction (see
    ``_blossom``)."""
    match, _ = _blossom(gr)
    return Matching.from_edges(
        (v, match[v]) for v in range(gr.n) if match[v] > v)


def _blossom(gr: SimpleGraph) -> tuple[list[int], int]:
    """A maximum matching as a partner row (-1 for exposed), and a Tutte
    barrier as the bitmask of the inner vertices of the Hungarian trees.

    Deterministic: searches start from vertices in ascending order and scan
    each popped vertex's bitset row in ascending order.  A failed search
    leaves a Hungarian tree, which no later augmenting path meets (Edmonds,
    *Canad. J. Math.* 17, 1965; Lovász & Plummer, *Matching Theory*, 1986),
    so its vertices leave ``alive`` for good.  A search's outer vertices
    are its tree less ``inner``, so a contraction queues the bases still
    in ``inner`` and no vertex carries a flag.  Each base of the current
    search keeps the vertices it heads as one bitmask, so a contraction
    relabels only the members of the blossom's bases, and a scan masks out
    the inner vertices and the popped vertex's own blossom, which it would
    pass over anyway: D5040's dense rotation rows then cost one mask each,
    not one step per neighbour.  An exposed vertex with no live neighbour
    starts no search: it cannot begin an augmenting path, and no live row
    holds it, so no later scan reaches it.

    The barrier B attains the deficiency: odd(G - B) - |B| is the number of
    exposed vertices.  When a tree retires, each live neighbour of one of
    its outer vertices is inner in it or in the same blossom, and the
    vertices retired before were not live.  So an outer vertex has
    neighbours only in its own blossom and in B, each outer blossom (odd)
    is a component of G - B, and a tree has one more outer blossom than it
    has inner vertices.  An exposed vertex that starts no search has only
    neighbours in B, else an augmenting path would exist, so it is a
    component of its own.
    """
    n, adj = gr.n, gr.adj
    match = [-1] * n
    free = alive = (1 << n) - 1
    for v in range(n):  # greedy start: v takes its lowest unmatched neighbour
        cand = adj[v] & free if free >> v & 1 else 0
        if cand:
            w = (cand & -cand).bit_length() - 1
            match[v], match[w] = w, v
            free ^= 1 << v | 1 << w
    parent, base = [-1] * n, list(range(n))
    barrier = 0

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            blossom.update((base[v], base[match[v]]))
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def try_augment(root: int) -> None:
        nonlocal alive, barrier
        tree = 1 << root  # the vertices this search queued or gave a parent
        inner = 0  # the vertices with a parent that no blossom has absorbed
        bits: dict[int, int] = {}  # base -> its vertices as a bitmask, once more than itself
        queue = deque([root])
        while queue:
            v = queue.popleft()
            # an inner vertex stays inner or joins v's blossom, and bases only
            # merge, so the masked vertices are ones the loop would pass over
            skip = inner | bits.get(base[v], 1 << base[v])
            for to in _bits(adj[v] & alive & ~skip):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur = lca(v, to)
                    blossom: set[int] = set()
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    blossom.discard(cur)
                    mask = bits.get(cur, 1 << cur)
                    for b in sorted(blossom):
                        absorbed = bits.pop(b, 1 << b)
                        for i in _bits(absorbed):
                            base[i] = cur
                        mask |= absorbed
                        if inner >> b & 1:  # it heads only itself and turns outer
                            queue.append(b)
                    bits[cur] = mask
                    inner &= ~mask
                elif parent[to] == -1:
                    parent[to] = v
                    tree |= 1 << to
                    inner |= 1 << to
                    if match[to] == -1:
                        while to != -1:  # flip along the augmenting path
                            pv, nxt = parent[to], match[parent[to]]
                            match[to], match[pv] = pv, to
                            to = nxt
                        for i in _bits(tree):
                            parent[i], base[i] = -1, i
                        return
                    tree |= 1 << match[to]
                    queue.append(match[to])
        alive &= ~tree  # a Hungarian tree: retired without resetting its labels
        barrier |= inner

    for v in range(n):
        if match[v] == -1 and adj[v] & alive:
            try_augment(v)
    return match, barrier


def maximum_matching_bruteforce(gr: SimpleGraph) -> Matching:
    """Exhaustive maximum matching for n <= 20; the blossom engine's twin."""
    n = gr.n
    if n > 20:
        raise ValueError("brute-force matching is capped at 20 vertices")
    adj = gr.adj
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == full:
            return 0
        v = ((~mask) & -(~mask)).bit_length() - 1
        out = best(mask | 1 << v)  # leave v exposed
        avail = adj[v] & ~mask
        while avail:
            w = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            cand = 1 + best(mask | 1 << v | 1 << w)
            if cand > out:
                out = cand
        return out

    edges = []
    mask = 0
    while mask != full:
        v = ((~mask) & -(~mask)).bit_length() - 1
        target = best(mask)
        chosen = False
        avail = adj[v] & ~mask
        while avail:
            w = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            if 1 + best(mask | 1 << v | 1 << w) == target:
                edges.append((v, w))
                mask |= 1 << v | 1 << w
                chosen = True
                break
        if not chosen:
            mask |= 1 << v
    best.cache_clear()
    return Matching.from_edges(edges)


def near_perfect_matching_odd(g: Group) -> Matching:
    """Pair every non-identity element with its inverse; odd order only.

    The identity is the single uncovered vertex, and centering a star on it
    extends this matching to the corresponding apex embedding.
    """
    if g.n % 2 == 0:
        raise ValueError("inverse pairing needs a group of odd order")
    return Matching.from_edges(
        (x, g.inv[x]) for x in range(1, g.n) if x < g.inv[x])


# ── inverse-closed paths ─────────────────────────────────────────────────────

def compress_path(g: Group, u: tuple[int, ...]) -> tuple[int, ...]:
    """Rewrite an inverse-closed path into alternating (x, x^-1) shape.

    Walks the printed index bookkeeping: keep the first vertex, repeatedly
    jump past the position of the current vertex's inverse, and adjust the
    final anchor when the walk lands on the last vertex itself.  The result
    visits a subset of the vertices, keeps both endpoints, and stays a path.

    Nothing is checked here.  The input must be a non-empty path of the
    power graph of g, inverse-closed, with no element of order <= 2: its
    one caller, ``matching_from_path_cover``, passes only the interiors of
    identity-free paths of a cover it has checked, and those hold none of
    the identity and the involutions.
    """
    pos = {x: i for i, x in enumerate(u)}
    last, last_inv = u[-1], g.inv[u[-1]]
    anchors = [u[0]]
    i = 0
    while anchors[-1] != last and anchors[-1] != last_inv:
        l = pos[g.inv[u[i]]]
        i = max(i, l) + 1
        anchors.append(u[i])
    if anchors[-1] == last:
        anchors[-1] = last_inv

    out: list[int] = []
    for x in anchors:
        out.extend((x, g.inv[x]))
    return tuple(out)


def path_cover_from_matching(g: Group, m: Matching) -> tuple[tuple[int, ...], ...]:
    """Walk a perfect matching of the power graph of g into
    vertex-disjoint inverse-closed paths, each a tuple of vertices, whose
    endpoints are exactly the involutions plus the identity.

    From each unused endpoint candidate (smallest identifier first) the walk
    alternates matched edges with inverse hops until it lands back on a
    self-inverse vertex.  ``matching_from_path_cover`` checks the result.
    """
    if g.n % 2:
        raise ValueError("path cover extraction needs even group order")
    m.validate(g)
    if not m.is_perfect(g.n):
        raise ValueError("matching is not perfect")
    partner: dict[int, int] = {}
    for u, v in m.edges:
        partner[u] = v
        partner[v] = u
    ubar = involutions(g) | {0}
    remaining = set(ubar)
    paths = []
    while remaining:
        u = min(remaining)
        remaining.remove(u)
        path = [u]
        x = partner[u]
        path.append(x)
        while x not in ubar:
            x = g.inv[x]
            path.append(x)
            x = partner[x]
            path.append(x)
        remaining.remove(x)
        paths.append(tuple(path))
    return tuple(paths)


def matching_from_path_cover(g: Group, cover: tuple[tuple[int, ...], ...]) -> Matching:
    """Assemble a perfect matching of the power graph of g from a
    path cover witnessing condition (iii): compress every identity-free
    path, take alternating edges, reduce the identity's path to a single
    endpoint edge, and pair every vertex left over with its inverse.

    All (iii) requirements are validated and violations reported
    individually.  They give each identity-free path an interior of even
    size >= 2.  Its ends are distinct involutions, never adjacent (the
    powers of one are itself and the identity), so the interior is not
    empty.  The paths are disjoint, with the involutions and the identity
    as ends, so the interior holds none of them; it is inverse-closed, as
    the path is and its ends are self-inverse, so its size is even.  The
    same checks put the identity at an end of its path and every
    involution at an end of a path, so each vertex left over has an
    inverse other than itself.
    """
    ubar = involutions(g) | {0}
    if len(cover) * 2 != len(ubar):
        raise ValueError(
            f"expected {len(ubar) // 2} paths for {len(ubar)} endpoint "
            f"candidates, got {len(cover)}")
    seen: set[int] = set()
    for p in cover:
        if len(p) < 2:
            raise ValueError(f"single-vertex path {p} not allowed")
        vset = set(p)
        if len(vset) != len(p):
            raise ValueError(f"repeated vertex in path {p}")
        for a, b in zip(p, p[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"consecutive vertices {a}, {b} are not adjacent")
        if seen & vset:
            raise ValueError(f"paths overlap at {sorted(seen & vset)}")
        seen |= vset
        if any(g.inv[x] not in vset for x in vset):
            raise ValueError(f"path {p} is not inverse-closed")
    ends = {x for p in cover for x in (p[0], p[-1])}
    if ends != ubar:
        raise ValueError(
            f"path endpoints {sorted(ends)} do not equal the involutions "
            f"plus identity {sorted(ubar)}")

    edges: list[tuple[int, int]] = []
    for v in cover:
        if 0 in (v[0], v[-1]):
            # the identity's path contributes only its endpoint edge; its
            # interior joins the inverse-paired leftovers
            edges.append((v[0], v[-1]))
            continue
        chain = (v[0],) + compress_path(g, v[1:-1]) + (v[-1],)
        edges.extend((chain[j], chain[j + 1]) for j in range(0, len(chain), 2))

    covered = {x for e in edges for x in e}
    inv = g.inv
    for x in range(g.n):
        if x not in covered and x < inv[x]:
            edges.append((x, inv[x]))
    result = Matching.from_edges(edges)
    result.validate(g)
    if not result.is_perfect(g.n):
        raise AssertionError("assembled matching is not perfect")
    return result


class Theorem44Report(NamedTuple):
    """The answer with its certificate: for "yes" a perfect matching and the
    path cover it was rebuilt from, for "no" a barrier S, printed as the
    least members of its cyclic classes, with more than |S| odd components
    in the power graph less S."""

    optimal: bool
    matching: Matching | None
    cover: tuple[tuple[int, ...], ...] | None
    barrier: tuple[int, ...] | None


def barrier_surplus(g: Group, barrier) -> int:
    """odd(P - S) - |S| for the power graph P of g and S the union of the
    cyclic classes of the elements in ``barrier``.  By Tutte's theorem
    (*J. London Math. Soc.* 22, 1947) a positive value proves that P has no
    perfect matching.  The odd components are read from the cyclic
    classes: every class outside S, joined when comparable, each weighing
    its size."""
    comparable = g.comparable
    removed = 0
    for x in barrier:
        removed |= 1 << g._class[x]
    surplus = -sum(len(g.members(i)) for i in _bits(removed))
    unseen = (1 << len(comparable)) - 1 & ~removed
    while unseen:
        component = frontier = unseen & -unseen
        size = 0
        while frontier:
            reach = 0
            for i in _bits(frontier):
                reach |= comparable[i]
                size += len(g.members(i))
            frontier = reach & unseen & ~component
            component |= frontier
        unseen &= ~component
        surplus += size & 1
    return surplus


def _gadget(g: Group) -> tuple[SimpleGraph, list[int], int]:
    """The class-level matching problem of ``check_theorem44``: the gadget,
    the class of each node, and the index of the first end node.  The pass
    nodes come first, in pairs (2k, 2k + 1), so a pass node's pair mate is
    its index xor 1, and the greedy start of the blossom matches every pair
    to itself.  The end nodes follow, one per class of size 1, the
    identity's first."""
    comparable = g.comparable
    sizes = [len(g.members(i)) for i in range(len(comparable))]
    ends = [i for i, size in enumerate(sizes) if size == 1]
    passes = len(ends) // 2 - 1
    node_class = []
    for i, size in enumerate(sizes):
        if size > 1:
            node_class += [i] * (2 * min(size // 2, passes))
    first_end = len(node_class)
    node_class += ends
    nodes = [0] * len(comparable)
    for u, i in enumerate(node_class):
        nodes[i] |= 1 << u
    rows = [0] * len(comparable)
    for i, mask in enumerate(nodes):
        if mask:
            for j in _bits(comparable[i] & ~(1 << i)):
                rows[i] |= nodes[j]
    gadget = SimpleGraph(len(node_class))
    gadget.adj = [rows[i] | (1 << (u ^ 1) if u < first_end else 0)
                  for u, i in enumerate(node_class)]
    return gadget, node_class, first_end


def _lift(g: Group, node_class: list[int], first_end: int,
          match: list[int]) -> tuple[tuple[int, ...], ...]:
    """An inverse-closed path cover from a perfect matching of the gadget.

    From each end node not yet reached, in order, the walk alternates
    matched edges with pair edges until it lands on another end node, and
    a pass through class i takes the next unused pair x, x^-1 of it.  Each
    pass has its own pass pair, and class i has c_i <= s_i/2 of those, so
    the pairs never run out and the lifted path keeps distinct vertices
    and comparable neighbours.  The identity's walk is cut to its end edge."""
    spare: dict[int, list[tuple[int, int]]] = {}
    reached: set[int] = set()
    paths = []
    for t in range(first_end, len(node_class)):
        if t in reached:
            continue
        passed: list[int] = []
        u = match[t]
        while u < first_end:
            passed.append(node_class[u])
            u = match[u ^ 1]
        reached.add(u)
        vertices = [g.members(node_class[t])[0]]
        for i in passed if t > first_end else ():
            if i not in spare:
                spare[i] = [(x, g.inv[x]) for x in reversed(g.members(i)) if x < g.inv[x]]
            vertices += spare[i].pop()
        vertices.append(g.members(node_class[u])[0])
        paths.append(tuple(vertices))
    return tuple(paths)


def check_theorem44(g: Group) -> Theorem44Report:
    """Decide whether the power graph P of an even-order group g has a
    perfect matching, which Theorem 4.4 ties to an inverse-closed path
    cover, and return a checked certificate either way.  No power graph
    is built.

    First the barrier S = {e}: P - e has |G| - 1 vertices, an odd number,
    so it has an odd number of odd components, and more than one means
    there is no perfect matching.  Its components are read from the cyclic
    classes.

    Otherwise the answer comes from a gadget on the classes.  Each class is
    a clique of twins, inverse-closed, of size phi(k) for elements of order
    k, so the classes of size 1 are T = {e} plus the involutions; |T| is even
    as |G| is.  The gadget has one end node per T class and, for every
    other class i of size s_i, c_i = min(s_i/2, |T|/2 - 1) pairs of pass
    nodes, each pair joined by an edge; nodes of distinct comparable
    classes are adjacent.  P has a perfect matching exactly when the
    gadget does:

    - If P has one, it has a cover (iii): |T|/2 disjoint inverse-closed
      paths whose ends are exactly T.  Project each path onto the classes
      and erase loops; comparable classes are adjacent, so consecutive
      classes stay comparable, and each path passes a class at most once.
      e is comparable to every class, so e's path becomes the edge from e
      to its other end, which passes nothing.  A class i is then passed by
      at most |T|/2 - 1 paths, and by at most s_i/2, since each path that
      meets it holds an inverse pair of it.  So the passes of class i fit
      its c_i pairs, one pair each: match each end node and the second
      node of each pass to the first node of the next pass or to the far
      end node, and each unused pair internally.
    - If the gadget has one, every pass pair is either matched internally
      or has both nodes matched outside (a pass node's only neighbour in
      its class is its mate), so matched edges and pair edges form paths
      between the end nodes, pairing up T, besides cycles that are
      dropped.  ``_lift`` cuts e's path to its end edge and lifts each
      pass through class i to an unused pair x, x^-1: there are s_i/2 of
      them, at least the c_i passes.  The result is a cover (iii),
      and ``matching_from_path_cover`` rebuilds a perfect matching of P from
      it, reading P's edges from the classes (``Group.has_edge``).

    The -1 in c_i keeps the gadget small: Z_n's has two nodes.  When the
    gadget has no perfect matching, the inner vertices of the Hungarian
    trees of its blossom run form a barrier of the gadget, and their
    classes give S.  That S is a barrier of P is checked, not proved: its
    surplus is recomputed on P's classes, and a failure raises
    AssertionError instead of returning an unchecked "no".  It held on
    every even catalog group of order <= 512.
    """
    if g.n % 2:
        raise ValueError("the equivalence applies to even group orders")
    if barrier_surplus(g, (0,)) > 0:
        return Theorem44Report(False, None, None, (0,))
    gadget, node_class, first_end = _gadget(g)
    match, inner = _blossom(gadget)
    if -1 in match:
        barrier = tuple(sorted({g.members(node_class[u])[0] for u in _bits(inner)}))
        if barrier_surplus(g, barrier) <= 0:
            raise AssertionError(f"{g.label}: the gadget's barrier {barrier} "
                                 f"is no barrier of the power graph")
        return Theorem44Report(False, None, None, barrier)
    cover = _lift(g, node_class, first_end, match)
    return Theorem44Report(True, matching_from_path_cover(g, cover), cover, None)
