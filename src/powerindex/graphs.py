"""Undirected simple graphs with bitset adjacency rows, plus power graphs.

Adjacency lives in one Python int per vertex, so neighbourhood
intersections (the hot operation in clique and embedding search) are
single ``&`` operations.  Also holds the pattern-graph constructors and
the edgelist / JSON / DOT text formats.

Power graphs are built from the group's partition into cyclic classes
(``Group.members`` and ``Group.comparable``): x and y are adjacent
exactly when the cyclic subgroups they generate are nested (Feng, Ma &
Wang, *Eur. J. Combin.* 43, 2015), so the power graph is the
comparability graph of the classes with each class blown up to a clique.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

from . import FORMATS
from .groups import ORDER_CAP


class GraphFormatError(ValueError):
    """Raised for malformed graph text."""


class SimpleGraph:
    """Finite simple graph on vertices 0..n-1; irreflexive and symmetric.

    No group past ORDER_CAP is built, so no graph with more vertices embeds
    in a power graph here; such a count is rejected before any row is
    allocated.
    """

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 0 <= n <= ORDER_CAP:
            raise GraphFormatError(
                f"vertex count {n} is outside 0..{ORDER_CAP}, the group order cap")
        self.n = n
        self.adj = [0] * n
        self.labels = None
        for u, v in edges:
            self._add_edge(u, v)

    def _add_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphFormatError(f"vertex out of range in edge ({u}, {v})")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        if self.adj[u] >> v & 1:
            raise GraphFormatError(f"duplicate edge ({u}, {v})")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            while row:
                v = (row & -row).bit_length() - 1
                out.append((u, v))
                row &= row - 1
        return out

    @property
    def n_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimpleGraph(n={self.n}, m={self.n_edges})"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


# ── pattern constructors ─────────────────────────────────────────────────────

def complete_graph(n: int) -> SimpleGraph:
    """K_n: each row is every vertex but the row's own."""
    gr = SimpleGraph(n)
    full = (1 << n) - 1
    gr.adj = [full ^ (1 << v) for v in range(n)]
    return gr


def complete_bipartite(s: int, t: int) -> SimpleGraph:
    """K_{s,t} with side U = {0..s-1} and side W = {s..s+t-1}: each row is
    the other side."""
    if s < 0 or t < 0:
        raise ValueError("side sizes must be >= 0")
    gr = SimpleGraph(s + t)
    side_u, side_w = (1 << s) - 1, ((1 << t) - 1) << s
    gr.adj = [side_w] * s + [side_u] * t
    return gr


def star(t: int) -> SimpleGraph:
    """K_{1,t}: centre 0 joined to t leaves."""
    return complete_bipartite(1, t)


def one_factor(n: int) -> SimpleGraph:
    """nK_2: n disjoint edges (2i, 2i+1); each row is the vertex's mate."""
    gr = SimpleGraph(2 * n)
    gr.adj = [1 << (v ^ 1) for v in range(2 * n)]
    return gr


def apex_one_factor(n: int) -> SimpleGraph:
    """K_1 + nK_2: apex vertex 0 joined to every vertex of nK_2, whose
    edges are (2i+1, 2i+2)."""
    gr = SimpleGraph(2 * n + 1)
    gr.adj = [(1 << (2 * n + 1)) - 2] + [
        1 | 1 << (v + 1 if v % 2 else v - 1) for v in range(1, 2 * n + 1)]
    return gr


# ── power graphs ─────────────────────────────────────────────────────────────

class PowerGraph(NamedTuple):
    """Power graph of a finite group: vertex i is group element i."""

    graph: SimpleGraph
    group_ref: str


def power_graph(g) -> PowerGraph:
    """Build the power graph of a Group: distinct x, y adjacent iff one is a
    power of the other.

    Adjacency is comparability of cyclic classes (Feng, Ma & Wang 2015), so
    each class gets one mask, the union of the members of every class
    comparable with it (itself included), and a member's row is that mask
    without its own bit.  That is one OR per comparable pair of classes.
    The graph is rebuilt on each call from the classes, which the Group
    holds.
    """
    members = list(map(g.members, range(len(g.comparable))))
    member_masks = [sum(map((1).__lshift__, m)) for m in members]
    adj = [0] * g.n
    for m, comparable in zip(members, g.comparable):
        mask = 0
        while comparable:  # inline, as a call to _bits per class costs more
            low = comparable & -comparable
            mask |= member_masks[low.bit_length() - 1]
            comparable ^= low
        for x in m:
            adj[x] = mask ^ (1 << x)
    gr = SimpleGraph(g.n)
    gr.adj = adj
    return PowerGraph(gr, g.label)


# ── text formats ─────────────────────────────────────────────────────────────

def serialize_graph(gr: SimpleGraph, fmt: str = "edgelist") -> str:
    """Render a graph as edgelist, JSON, or DOT text."""
    if fmt == "edgelist":
        lines = [f"{gr.n} {gr.n_edges}"]
        lines += [f"{u} {v}" for u, v in gr.edges()]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {"n": gr.n, "edges": [[u, v] for u, v in gr.edges()]}
        return json.dumps(payload, sort_keys=True) + "\n"
    if fmt == "dot":
        lines = ["graph {"]
        for v in range(gr.n):
            label = gr.labels[v] if gr.labels is not None else str(v)
            lines.append(f'  {v} [label="{label}"];')
        lines += [f"  {u} -- {v};" for u, v in gr.edges()]
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise GraphFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def parse_graph(text: str) -> SimpleGraph:
    """Parse edgelist or JSON graph text (auto-detected).

    Edgelist: first line ``n m``, then m lines ``u v`` with 0-based vertex
    ids; ``#`` starts a comment.  JSON: {"n": int, "edges": [[u, v], ...]}.
    Malformed lines, out-of-range vertices, duplicate edges and self-loops
    are rejected.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json_graph(stripped)
    return _parse_edgelist(text)


def _parse_json_graph(text: str) -> SimpleGraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON graph: {exc}") from None
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise GraphFormatError('JSON graph needs keys "n" and "edges"')
    n, edges = payload["n"], payload["edges"]
    if type(n) is not int or n < 0:  # JSON true and false are not counts
        raise GraphFormatError('"n" must be a non-negative integer')
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be a list of pairs')
    gr = SimpleGraph(n)
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
            raise GraphFormatError(f"bad edge entry {e!r}")
        gr._add_edge(e[0], e[1])
    return gr


def _parse_edgelist(text: str) -> SimpleGraph:
    rows: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise GraphFormatError("empty edgelist")
    header = rows[0]
    if len(header) != 2:
        raise GraphFormatError(f"header must be 'n m', got {' '.join(header)!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError(f"header must be 'n m', got {' '.join(header)!r}") from None
    if n < 0 or m < 0:
        raise GraphFormatError("negative counts in header")
    if len(rows) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(rows) - 1}")
    gr = SimpleGraph(n)
    for row in rows[1:]:
        if len(row) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {' '.join(row)!r}")
        try:
            u, v = int(row[0]), int(row[1])
        except ValueError:
            raise GraphFormatError(f"edge line must be 'u v', got {' '.join(row)!r}") from None
        gr._add_edge(u, v)
    return gr
