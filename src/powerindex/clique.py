"""Exact maximum clique for small graphs.

Branch and bound in the style of Tomita, seeded as in BBMC (San Segundo
et al., *Comput. Oper. Res.* 38, 2011):

- A greedy clique is the first incumbent: starting from every vertex as a
  candidate, it repeatedly takes the candidate with the most neighbours
  among the remaining candidates (lowest id on ties) and keeps only that
  vertex's neighbours as candidates.  On power graphs the root coloring
  often matches it, so the search ends at the root.
- Candidates are greedily colored by ascending id, color counts bound the
  achievable clique size, and subtrees that cannot beat the incumbent are
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

    # Greedy incumbent: the candidate with most neighbours among the
    # candidates, lowest id on ties, then only its neighbours stay.
    full = (1 << n) - 1
    best_size = 0
    best_mask = 0
    cand = full
    while cand:
        m = cand
        top, top_deg = -1, -1
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            deg = (adj[v] & cand).bit_count()
            if deg > top_deg:
                top, top_deg = v, deg
        best_size += 1
        best_mask |= 1 << top
        cand &= adj[top]

    def color_pairs(p_mask: int) -> list[tuple[int, int]]:
        # Greedy coloring by ascending id, built one color class at a time:
        # a class is the ascending-id maximal independent set of the vertices
        # still uncolored, which is the class first-fit would give.  Pairs
        # (vertex, color) come grouped by ascending color, descending id
        # within a class, so the scan from the end expands low ids first.
        pairs: list[tuple[int, int]] = []
        color = 0
        uncolored = p_mask
        while uncolored:
            color += 1
            members = []
            q = uncolored
            while q:
                low = q & -q
                v = low.bit_length() - 1
                members.append(v)
                uncolored ^= low
                q &= ~(adj[v] | low)
            pairs.extend((v, color) for v in reversed(members))
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
        v, color = pairs[i]
        if r_size + color <= best_size:
            stack.pop()  # every remaining candidate has color <= this one
            continue
        bit = 1 << v
        frame[2] = p_mask ^ bit
        frame[4] = i
        child = p_mask & adj[v]
        if child:
            child_pairs = color_pairs(child)
            stack.append([r_mask | bit, r_size + 1, child, child_pairs, len(child_pairs)])
        elif r_size + 1 > best_size:
            best_size, best_mask = r_size + 1, r_mask | bit

    witness = []
    m = best_mask
    while m:
        witness.append((m & -m).bit_length() - 1)
        m &= m - 1
    return CliqueResult(best_size, tuple(witness))
