"""Exact maximum clique for small graphs.

True twins, vertices with one closed neighbourhood, lie in the same
cliques, so the search runs on their classes, read from the rows alone:
each class stands as its least member, weighted by its size.  On a power
graph each cyclic class is a clique of twins (Feng, Ma & Wang, *Eur. J.
Combin.* 43, 2015).

Branch and bound in the style of Tomita, seeded as in BBMC (San Segundo
et al., *Comput. Oper. Res.* 38, 2011):

- A greedy clique is the first incumbent: it takes the vertices in one
  static order, degree descending with the lowest id on ties, and keeps
  each one adjacent to every vertex kept so far.  On power graphs the
  root coloring often matches it, so the search ends at the root.
- Candidates are greedily colored by ascending id; a clique takes at most
  one vertex of each color, so the heaviest class of each color, summed,
  bounds its weight, and subtrees that cannot beat the incumbent are
  cut.  The search runs on an explicit stack, so its depth is not limited
  by the interpreter's recursion limit.

Expansion follows a fixed ascending-id order and the witness is the
greedy clique unless the search finds a larger one, so the reported
witness is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import SimpleGraph


@dataclass(frozen=True)
class CliqueResult:
    """Maximum clique size together with one witness (sorted vertex ids)."""

    size: int
    witness: tuple[int, ...]


def clique_number(gr: SimpleGraph) -> CliqueResult:
    """Exact maximum clique of a non-empty graph.

    Exponential in the worst case, but the greedy incumbent and the coloring
    bound keep the power graphs this library cares about (a few hundred
    vertices) sub-second.
    """
    n = gr.n
    if n < 1:
        raise ValueError("clique_number needs at least one vertex")
    adj = gr.adj

    # Twin classes by closed neighbourhood; only their least members, of
    # nonzero weight, are ever candidates, so adj needs no masking.
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(adj[v] | 1 << v, []).append(v)
    weight = [0] * n
    for members in classes.values():
        weight[members[0]] = len(members)
    full = sum(1 << v for v, w in enumerate(weight) if w)

    # Greedy incumbent: by degree descending (the sort is stable, so lowest
    # id on ties), each class adjacent to all those kept so far stays.
    best_mask = best_size = 0
    deg = gr.degrees()
    for v in sorted(range(n), key=deg.__getitem__, reverse=True):
        if weight[v] and best_mask & adj[v] == best_mask:
            best_mask |= 1 << v
            best_size += weight[v]

    def color_pairs(p_mask: int) -> list[tuple[int, int]]:
        # Greedy coloring by ascending id, built one color class at a time:
        # a class is the ascending-id maximal independent set of the vertices
        # still uncolored, which is the class first-fit would give.  Pairs
        # (vertex, bound) come grouped by ascending color, descending id
        # within a class, so the scan from the end expands low ids first;
        # bound sums the heaviest weight of each color up to the vertex's.
        pairs: list[tuple[int, int]] = []
        bound = 0
        uncolored = p_mask
        while uncolored:
            members = []
            q = uncolored
            while q:
                low = q & -q
                v = low.bit_length() - 1
                members.append(v)
                uncolored ^= low
                q &= ~(adj[v] | low)
            bound += max(map(weight.__getitem__, members))
            pairs.extend((v, bound) for v in reversed(members))
        return pairs

    # Frame: [r_mask, r_size, p_mask, pairs, cursor]; pairs[:cursor] are the
    # candidates not yet expanded, p_mask the candidates not yet excluded.
    root = color_pairs(full)
    stack = [[0, 0, full, root, len(root)]]
    while stack:
        frame = stack[-1]
        r_mask, r_size, p_mask, pairs, i = frame
        if not i:
            stack.pop()
            continue
        i -= 1
        v, bound = pairs[i]
        if r_size + bound <= best_size:
            stack.pop()  # every remaining candidate has a bound <= this one
            continue
        bit = 1 << v
        frame[2] = p_mask ^ bit
        frame[4] = i
        child = p_mask & adj[v]
        if child:
            child_pairs = color_pairs(child)
            stack.append([r_mask | bit, r_size + weight[v], child, child_pairs, len(child_pairs)])
        elif r_size + weight[v] > best_size:
            best_size, best_mask = r_size + weight[v], r_mask | bit

    witness = sorted(u for v in range(n) if best_mask >> v & 1 for u in classes[adj[v] | 1 << v])
    return CliqueResult(best_size, tuple(witness))
