"""Slow, obviously-correct reference implementations used to pin expected values.

Everything here is written for clarity, not speed: brute-force counting,
exhaustive enumeration, no shared code with the library under test beyond
the Group/SimpleGraph containers it checks.
"""

from __future__ import annotations

import itertools
import math

from powerindex.graphs import SimpleGraph


def phi_brute(n: int) -> int:
    """Euler totient by direct gcd counting."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def least_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def chi_chain_brute(n: int) -> int:
    """Totient sum over the maximal divisor chain, dividing out the least
    prime factor at every step, ending at phi(1)."""
    total = 0
    while n > 1:
        total += phi_brute(n)
        n //= least_prime_factor(n)
    return total + phi_brute(1)


def is_prime(n: int) -> bool:
    return n >= 2 and least_prime_factor(n) == n


def is_prime_power_brute(n: int) -> bool:
    if n < 2:
        return False
    p = least_prime_factor(n)
    while n % p == 0:
        n //= p
    return n == 1


def rho_brute(n: int) -> int:
    q = n
    while not is_prime_power_brute(q):
        q += 1
    return q


# ── graph-side oracles ────────────────────────────────────────────────────────

def empty_graph(n: int) -> SimpleGraph:
    """The null graph on n vertices."""
    return SimpleGraph(n)


def is_complete(gr: SimpleGraph) -> bool:
    """True iff every pair of distinct vertices is adjacent."""
    return all(gr.has_edge(u, v) for u, v in itertools.combinations(range(gr.n), 2))


def cycle_graph(n: int) -> SimpleGraph:
    """C_n on vertices 0..n-1 in cyclic order."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def brute_max_clique(n: int, edges: set[frozenset[int]]) -> int:
    """Largest clique size by trying every vertex subset, n <= ~16."""
    for size in range(n, 1, -1):
        for sub in itertools.combinations(range(n), size):
            if all(frozenset((u, v)) in edges for u, v in itertools.combinations(sub, 2)):
                return size
    return 1 if n else 0


def brute_max_matching_size(n: int, edges: list[tuple[int, int]]) -> int:
    """Maximum matching cardinality by exhaustive branching on the lowest
    uncovered vertex (leave it exposed, or match it to each neighbour)."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    memo: dict[int, int] = {}

    def best(covered: int) -> int:
        if covered == (1 << n) - 1:
            return 0
        if covered in memo:
            return memo[covered]
        u = 0
        while covered >> u & 1:
            u += 1
        result = best(covered | 1 << u)  # u stays exposed
        for v in adj[u]:
            if not covered >> v & 1:
                result = max(result, 1 + best(covered | 1 << u | 1 << v))
        memo[covered] = result
        return result

    return best(0)


def odd_components_brute(gr: SimpleGraph, removed) -> int:
    """Odd components of gr less the vertices in removed, by a search over
    its rows."""
    unseen = set(range(gr.n)) - set(removed)
    odd = 0
    while unseen:
        stack = [unseen.pop()]
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            for w in list(unseen):
                if gr.adj[v] >> w & 1:
                    unseen.remove(w)
                    stack.append(w)
        odd += size % 2
    return odd


def power_graph_edges_brute(group) -> set[frozenset[int]]:
    """Power-graph edge set computed the slow way: x and y are adjacent iff
    some explicit power of x equals y or vice versa."""
    n = group.n
    powers = []
    for x in range(n):
        seen = set()
        acc = 0  # identity
        for _ in range(n):
            seen.add(acc)
            acc = group.mul[acc][x]
        powers.append(seen)
    return {
        frozenset((x, y))
        for x in range(n)
        for y in range(x + 1, n)
        if y in powers[x] or x in powers[y]
    }


def is_embedding(pattern_edges: list[tuple[int, int]], mapping: dict[int, int],
                 host_edges: set[frozenset[int]]) -> bool:
    """Check a vertex map is injective and carries every pattern edge to a
    host edge."""
    if len(set(mapping.values())) != len(mapping):
        return False
    return all(frozenset((mapping[u], mapping[v])) in host_edges for u, v in pattern_edges)


def embedding_brute(n: int, pattern_edges: list[tuple[int, int]], host_n: int,
                    host_edges: set[frozenset[int]]) -> dict[int, int] | None:
    """First injective map from 0..n-1 into 0..host_n-1 (in lexicographic
    order) carrying every pattern edge to a host edge, or None.

    Enumerates the injective maps vertex by vertex, abandoning a partial
    map as soon as one of its edges misses the host.
    """
    earlier: list[list[int]] = [[] for _ in range(n)]
    for u, v in pattern_edges:
        earlier[max(u, v)].append(min(u, v))
    image: list[int] = []

    def extend() -> bool:
        w = len(image)
        if w == n:
            return True
        for x in range(host_n):
            if x not in image and all(frozenset((image[u], x)) in host_edges
                                      for u in earlier[w]):
                image.append(x)
                if extend():
                    return True
                image.pop()
        return False

    return dict(enumerate(image)) if extend() else None


# ── exhaustive group enumeration (orders <= 8) ───────────────────────────────

def enumerate_group_tables(n: int) -> list[list[list[int]]]:
    """All Cayley tables on {0..n-1} with identity 0, by backtracking with
    Latin-square and associativity propagation.  Feasible for n <= 8."""
    full = (1 << n) - 1
    table = [[-1] * n for _ in range(n)]
    row_used = [0] * n
    col_used = [0] * n
    for x in range(n):
        table[0][x] = x
        table[x][0] = x
        row_used[x] = 1 << x
        col_used[x] = 1 << x
    row_used[0] = col_used[0] = full

    results: list[list[list[int]]] = []

    def associative(t: list[list[int]]) -> bool:
        rng = range(n)
        return all(t[t[a][b]][c] == t[a][t[b][c]] for a in rng for b in rng for c in rng)

    def propagate(queue: list[tuple[int, int, int]], trail: list[tuple[int, int]]) -> bool:
        while queue:
            a, b, c = queue.pop()
            cur = table[a][b]
            if cur != -1:
                if cur != c:
                    return False
                continue
            if (row_used[a] >> c & 1) or (col_used[b] >> c & 1):
                return False
            table[a][b] = c
            row_used[a] |= 1 << c
            col_used[b] |= 1 << c
            trail.append((a, b))
            # push associativity consequences touching the new entry a·b = c
            for x in range(1, n):
                y = table[x][a]
                if y != -1:
                    # (x·a)·b = x·(a·b)
                    if table[y][b] != -1:
                        queue.append((x, c, table[y][b]))
                    elif table[x][c] != -1:
                        queue.append((y, b, table[x][c]))
                z = table[b][x]
                if z != -1:
                    # (a·b)·x = a·(b·x)
                    if table[a][z] != -1:
                        queue.append((c, x, table[a][z]))
                    elif table[c][x] != -1:
                        queue.append((a, z, table[c][x]))
        return True

    def undo(trail: list[tuple[int, int]]) -> None:
        for a, b in trail:
            c = table[a][b]
            table[a][b] = -1
            row_used[a] &= ~(1 << c)
            col_used[b] &= ~(1 << c)

    def next_cell() -> tuple[int, int] | None:
        best_cell, best_count = None, n + 1
        for a in range(1, n):
            row = table[a]
            for b in range(1, n):
                if row[b] == -1:
                    count = (~(row_used[a] | col_used[b]) & full).bit_count()
                    if count < best_count:
                        best_cell, best_count = (a, b), count
                        if count <= 1:
                            return best_cell
        return best_cell

    def search() -> None:
        cell = next_cell()
        if cell is None:
            if associative(table):
                results.append([row[:] for row in table])
            return
        a, b = cell
        free = ~(row_used[a] | col_used[b]) & full
        for c in range(n):
            if free >> c & 1:
                trail: list[tuple[int, int]] = []
                if propagate([(a, b, c)], trail):
                    search()
                undo(trail)

    search()
    return results


def _table_orders(t: list[list[int]]) -> list[int]:
    n = len(t)
    orders = []
    for x in range(n):
        k, acc = 1, x
        while acc != 0:
            acc = t[acc][x]
            k += 1
        orders.append(k)
    return orders


def orders_and_inverses_brute(group) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per element, its order by walking its powers to the identity, and
    its inverse by scanning its row of the table for the identity."""
    return (tuple(_table_orders(group.mul)),
            tuple(row.index(0) for row in group.mul))


def is_abelian_brute(group) -> bool:
    """True iff every pair of elements commutes."""
    mul = group.mul
    return all(mul[a][b] == mul[b][a] for a in range(group.n) for b in range(a))


def table_powers(mul, x: int) -> list[int]:
    """Members of <x> in power order from the identity, by walking the
    multiplication table."""
    members, acc = [0], x
    while acc != 0:
        assert len(members) < len(mul), f"powers of {x} never reach the identity"
        members.append(acc)
        acc = mul[acc][x]
    return members


def subgroups_of_prime_order(group, p: int) -> list[frozenset[int]]:
    """The distinct subgroups of prime order p, each as the set of powers
    of one of its elements."""
    subs: list[frozenset[int]] = []
    for x in range(group.n):
        powers = frozenset(table_powers(group.mul, x))
        if len(powers) == p and powers not in subs:
            subs.append(powers)
    return subs


def unique_subgroup_of_prime_order(group, p: int) -> bool:
    """True iff the group has exactly one subgroup of prime order p; False
    also when p does not divide the order."""
    if p < 2 or least_prime_factor(p) != p:
        raise ValueError(f"{p} is not prime")
    return len(subgroups_of_prime_order(group, p)) == 1


def tables_isomorphic(t1: list[list[int]], t2: list[list[int]]) -> bool:
    """Cayley tables isomorphic under some relabeling fixing 0; incremental
    backtracking with closure under multiplication."""
    n = len(t1)
    if len(t2) != n:
        return False
    ord1, ord2 = _table_orders(t1), _table_orders(t2)
    if sorted(ord1) != sorted(ord2):
        return False

    def close(f: list[int], used: list[bool]) -> bool:
        changed = True
        while changed:
            changed = False
            assigned = [x for x in range(n) if f[x] != -1]
            for a in assigned:
                for b in assigned:
                    c = t1[a][b]
                    w = t2[f[a]][f[b]]
                    if f[c] == -1:
                        if used[w]:
                            return False
                        f[c] = w
                        used[w] = True
                        changed = True
                    elif f[c] != w:
                        return False
        return True

    def extend(f: list[int], used: list[bool]) -> bool:
        try:
            a = f.index(-1)
        except ValueError:
            return True
        for b in range(n):
            if not used[b] and ord2[b] == ord1[a]:
                f2, used2 = f[:], used[:]
                f2[a] = b
                used2[b] = True
                if close(f2, used2) and extend(f2, used2):
                    return True
        return False

    f = [-1] * n
    used = [False] * n
    f[0] = 0
    used[0] = True
    return extend(f, used)


def window_table_brute(ds: tuple[int, ...], z: int | None = None) -> list[list[int]]:
    """Table of A = Z_d1 x ... x Z_dk, a at its mixed-radix index with the
    last factor least significant; or, given z, of A extended by y with
    y a y^-1 = a^-1 and y^2 = z, x^a y^s at s*|A| + a.  Entry by entry:
    x^a y^s * x^b y^t = x^(a + (-1)^s b + st z) y^(s xor t)."""
    digits = list(itertools.product(*map(range, ds)))
    index = {a: i for i, a in enumerate(digits)}
    zd = digits[z or 0]
    flips = (0,) if z is None else (0, 1)
    table = []
    for s in flips:
        for a in digits:
            row = []
            for t in flips:
                for b in digits:
                    c = tuple((ai + (-1) ** s * bi + s * t * zi) % d
                              for ai, bi, zi, d in zip(a, b, zd, ds))
                    row.append((s ^ t) * len(digits) + index[c])
            table.append(row)
    return table


def quaternion_table(n: int) -> list[list[int]]:
    """Generalized quaternion group of order n = 4m from its presentation
    x^(2m) = 1, y^2 = x^m, y x y^-1 = x^-1; element s*2m + a is x^a y^s."""
    m = n // 4
    h = 2 * m
    table = [[0] * n for _ in range(n)]
    for s in (0, 1):
        for a in range(h):
            for t in (0, 1):
                for b in range(h):
                    if s == 0:  # x^a * x^b y^t = x^(a+b) y^t
                        prod = t * h + (a + b) % h
                    elif t == 0:  # x^a y * x^b = x^(a-b) y
                        prod = h + (a - b) % h
                    else:  # x^a y * x^b y = x^(a-b) y^2 = x^(a-b+m)
                        prod = (a - b + m) % h
                    table[s * h + a][t * h + b] = prod
    return table


def is_generalized_quaternion_by_isomorphism(group) -> bool:
    """The group is isomorphic to the generalized quaternion group of its
    order, which must be a power of 2 and at least 8."""
    n = group.n
    if n < 8 or n & (n - 1):
        return False
    return tables_isomorphic(group.mul, quaternion_table(n))


def count_groups_up_to_isomorphism(n: int) -> int:
    reps: list[list[list[int]]] = []
    for table in enumerate_group_tables(n):
        if not any(tables_isomorphic(table, rep) for rep in reps):
            reps.append(table)
    return len(reps)
