"""Matchings and inverse-closed path covers in power graphs.

This module carries the constructive side of the matching theory: exact
maximum matching on general graphs (blossom contraction on the bitset
rows, plus a brute-force twin), the inverse-pairing near-perfect matching
for odd group orders, path compression into alternating (x, x^-1) shape,
extraction of a path cover from a perfect matching, and the reverse
construction that assembles a perfect matching from such a cover.  The
three-way equivalence checker ties them together per group: it answers
"no" from the cyclic classes when removing the identity leaves more than
one odd component, and otherwise builds the power graph once and hands it
to every step, so the path functions take the graph as an argument and
check their inputs against it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .graphs import SimpleGraph, _bits, power_graph
from .groups import Group, involutions


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges; pairs stored as (u, v) with u < v."""

    edges: tuple[tuple[int, int], ...]
    covered: frozenset[int]

    @classmethod
    def from_edges(cls, edges) -> "Matching":
        canon = sorted((min(u, v), max(u, v)) for u, v in edges)
        covered: set[int] = set()
        for u, v in canon:
            if u == v or u in covered or v in covered:
                raise ValueError(f"edges are not pairwise disjoint at ({u}, {v})")
            covered.update((u, v))
        return cls(tuple(canon), frozenset(covered))

    @property
    def size(self) -> int:
        return len(self.edges)

    def is_perfect(self, n: int) -> bool:
        return len(self.covered) == n

    def is_near_perfect(self, n: int) -> bool:
        return len(self.covered) == n - 1

    def validate(self, gr: SimpleGraph) -> None:
        for u, v in self.edges:
            if not gr.has_edge(u, v):
                raise ValueError(f"matching edge ({u}, {v}) not present in the graph")

    def to_json(self) -> list[list[int]]:
        return [[u, v] for u, v in self.edges]


@dataclass(frozen=True)
class InversePath:
    """An ordered simple path; inverse-closedness is relative to a group."""

    vertices: tuple[int, ...]

    @property
    def endpoints(self) -> frozenset[int]:
        return frozenset((self.vertices[0], self.vertices[-1]))

    def to_json(self) -> list[int]:
        return list(self.vertices)


@dataclass(frozen=True)
class PathCover:
    paths: tuple[InversePath, ...]

    @property
    def endpoint_union(self) -> frozenset[int]:
        out: set[int] = set()
        for p in self.paths:
            out |= p.endpoints
        return frozenset(out)

    def to_json(self) -> list[list[int]]:
        return [p.to_json() for p in self.paths]


# ── matching engines ─────────────────────────────────────────────────────────

def maximum_matching(gr: SimpleGraph) -> Matching:
    """Exact maximum-cardinality matching via blossom contraction.

    Deterministic: searches start from vertices in ascending order and scan
    each popped vertex's bitset row in ascending order.  A failed search
    leaves a Hungarian tree, which no later augmenting path meets (Edmonds,
    *Canad. J. Math.* 17, 1965; Lovász & Plummer, *Matching Theory*, 1986),
    so its vertices leave ``alive`` for good.  Each base of the current
    search keeps the vertices it heads as one bitmask, so a contraction
    relabels only the members of the blossom's bases, and a scan masks out
    the inner vertices and the popped vertex's own blossom, which it would
    pass over anyway: D5040's dense rotation rows then cost one mask each,
    not one step per neighbour.  An exposed vertex with no live neighbour
    starts no search: it cannot begin an augmenting path, and no live row
    holds it, so no later scan reaches it.
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
    parent, base, used = [-1] * n, list(range(n)), [False] * n

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
        nonlocal alive
        tree = 1 << root  # the vertices this search marks used or gives a parent
        inner = 0  # the vertices with a parent that no blossom has absorbed
        bits: dict[int, int] = {}  # base -> its vertices as a bitmask, once more than itself
        used[root] = True
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
                        if not used[b]:  # an inner vertex, so it heads only itself
                            used[b] = True
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
                            used[i], parent[i], base[i] = False, -1, i
                        return
                    tree |= 1 << match[to]
                    used[match[to]] = True
                    queue.append(match[to])
        alive &= ~tree  # a Hungarian tree: retired without resetting its labels

    for v in range(n):
        if match[v] == -1 and adj[v] & alive:
            try_augment(v)
    return Matching.from_edges(
        (v, match[v]) for v in range(n) if match[v] > v)


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

def _check_path_in_graph(gr: SimpleGraph, vertices: tuple[int, ...]) -> None:
    if len(set(vertices)) != len(vertices):
        raise ValueError(f"repeated vertex in path {vertices}")
    for a, b in zip(vertices, vertices[1:]):
        if not gr.has_edge(a, b):
            raise ValueError(f"consecutive vertices {a}, {b} are not adjacent")


def compress_path(g: Group, gr: SimpleGraph, p: InversePath) -> InversePath:
    """Rewrite an inverse-closed path into alternating (x, x^-1) shape.

    Walks the printed index bookkeeping: keep the first vertex, repeatedly
    jump past the position of the current vertex's inverse, and adjust the
    final anchor when the walk lands on the last vertex itself.  The input
    must be a path of ``gr``, the power graph of g; the result visits a
    subset of its vertices, keeps both endpoints, and stays a path of ``gr``.
    """
    u = p.vertices
    if not u:
        raise ValueError("empty path")
    _check_path_in_graph(gr, u)
    members = set(u)
    for x in u:
        if g.orders[x] < 3:
            raise ValueError(f"vertex {x} has order {g.orders[x]} < 3")
        if g.inv[x] not in members:
            raise ValueError(f"path is not inverse-closed: {g.inv[x]} missing")

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
    return InversePath(tuple(out))


def path_cover_from_matching(g: Group, gr: SimpleGraph, m: Matching) -> PathCover:
    """Walk a perfect matching of the power graph ``gr`` of g into
    vertex-disjoint inverse-closed paths whose endpoints are exactly the
    involutions plus the identity.

    From each unused endpoint candidate (smallest identifier first) the walk
    alternates matched edges with inverse hops until it lands back on a
    self-inverse vertex.  ``matching_from_path_cover`` checks the result.
    """
    if g.n % 2:
        raise ValueError("path cover extraction needs even group order")
    m.validate(gr)
    if not m.is_perfect(g.n):
        raise ValueError("matching is not perfect")
    partner: dict[int, int] = {}
    for u, v in m.edges:
        partner[u] = v
        partner[v] = u
    ubar = involutions(g) | {0}
    a = sorted(ubar)
    remaining = set(a)
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
        paths.append(InversePath(tuple(path)))
    return PathCover(tuple(paths))


def matching_from_path_cover(g: Group, gr: SimpleGraph, c: PathCover) -> Matching:
    """Assemble a perfect matching of the power graph ``gr`` of g from a
    path cover witnessing condition (iii): compress every identity-free
    path, take alternating edges, reduce the identity's path to a single
    endpoint edge, and pair every vertex left over with its inverse.

    All (iii) requirements are validated and violations reported
    individually.  They give each identity-free path an interior of even
    size >= 2.  Its ends are distinct involutions, never adjacent (the
    powers of one are itself and the identity), so the interior is not
    empty.  The paths are disjoint, with the involutions and the identity
    as ends, so the interior holds none of them; it is inverse-closed, as
    the path is and its ends are self-inverse, so its size is even.
    """
    ubar = involutions(g) | {0}
    if len(c.paths) * 2 != len(ubar):
        raise ValueError(
            f"expected {len(ubar) // 2} paths for {len(ubar)} endpoint "
            f"candidates, got {len(c.paths)}")
    seen: set[int] = set()
    for p in c.paths:
        if len(p.vertices) < 2:
            raise ValueError(f"single-vertex path {p.vertices} not allowed")
        _check_path_in_graph(gr, p.vertices)
        vset = set(p.vertices)
        if seen & vset:
            raise ValueError(f"paths overlap at {sorted(seen & vset)}")
        seen |= vset
        if any(g.inv[x] not in vset for x in vset):
            raise ValueError(f"path {p.vertices} is not inverse-closed")
    if c.endpoint_union != ubar:
        raise ValueError(
            f"path endpoints {sorted(c.endpoint_union)} do not equal the involutions "
            f"plus identity {sorted(ubar)}")

    edges: list[tuple[int, int]] = []
    for p in c.paths:
        v = p.vertices
        if 0 in v:
            # the identity's path contributes only its endpoint edge; its
            # interior joins the inverse-paired leftovers
            if 0 not in (v[0], v[-1]):
                raise ValueError("identity must be a path endpoint")
            edges.append((v[0], v[-1]))
            continue
        interior = v[1:-1]
        if len(interior) < 2:
            raise AssertionError(f"path {v} passed the checks with fewer than 2 interior vertices")
        compressed = compress_path(g, gr, InversePath(interior))
        chain = (v[0],) + compressed.vertices + (v[-1],)
        edges.extend((chain[j], chain[j + 1]) for j in range(0, len(chain), 2))

    covered = {x for e in edges for x in e}
    leftover = [x for x in range(g.n) if x not in covered]
    for x in leftover:
        if g.inv[x] == x:
            raise ValueError(f"leftover vertex {x} is self-inverse")
        if x < g.inv[x]:
            edges.append((x, g.inv[x]))
    result = Matching.from_edges(edges)
    result.validate(gr)
    if not result.is_perfect(g.n):
        raise AssertionError("assembled matching is not perfect")
    return result


@dataclass(frozen=True)
class Theorem44Report:
    optimal: bool
    matching: Matching | None
    cover: PathCover | None


def _odd_components_without_identity(g: Group) -> int:
    """The number of odd components of the power graph of g less the
    identity, read from the cyclic classes: every class but the
    identity's, joined when comparable, each weighing its size."""
    classes = g.cyclic_classes
    unseen = (1 << len(classes)) - 2  # the identity's class is class 0
    odd = 0
    while unseen:
        component = frontier = unseen & -unseen
        size = 0
        while frontier:
            reach = 0
            for i in _bits(frontier):
                reach |= classes[i].comparable
                size += len(classes[i].members)
            frontier = reach & unseen & ~component
            component |= frontier
        unseen &= ~component
        odd += size & 1
    return odd


def check_theorem44(g: Group) -> Theorem44Report:
    """Decide matching-optimality for an even-order group and exercise the
    equivalence both ways.

    First the barrier S = {e}: by Tutte's theorem (*J. London Math. Soc.*
    22, 1947) a graph with a perfect matching has at most |S| odd
    components after S is removed.  The power graph less the identity has
    |G| - 1 vertices, an odd number, so it has an odd number of odd
    components, and more than one means there is no perfect matching.
    Its components are read from the cyclic classes, without building the
    power graph.  Otherwise the power graph is built once and a maximum
    matching computed; when perfect, a path cover is extracted and a
    perfect matching rebuilt from it, which raises unless the cover
    satisfies (iii) and the three views agree.
    """
    if g.n % 2:
        raise ValueError("the equivalence applies to even group orders")
    if _odd_components_without_identity(g) > 1:
        return Theorem44Report(False, None, None)
    gr = power_graph(g).graph
    mm = maximum_matching(gr)
    if not mm.is_perfect(g.n):
        return Theorem44Report(False, None, None)
    cover = path_cover_from_matching(g, gr, mm)
    matching_from_path_cover(g, gr, cover)
    return Theorem44Report(True, mm, cover)
