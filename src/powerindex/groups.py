"""Finite groups as dense multiplication tables over identifiers 0..n-1.

Groups are built from a small spec grammar (cyclic, abelian, dihedral,
generalized dihedral, dicyclic/quaternion, symmetric/alternating, direct
products, external Cayley tables) and served per order through a catalog
that deduplicates up to isomorphism and carries an explicit completeness
flag.  The identity always sits at identifier 0.

Abelian groups and direct products share one product builder.  Power-graph
degrees, which the isomorphism invariants use, are read from the
cyclic-class partition (``CyclicClass.degree``), so nothing here builds a
power graph.
"""

from __future__ import annotations

import itertools
import json
import re
from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd, isqrt, prod

from .numtheory import factorize

ORDER_CAP = 5040

# Orders whose isomorphism classes are provably exhausted by the built-in
# families; the argument is documented per order in
# docs/complete_orders.md.  Everything else is served catalog-relative.
COMPLETE_ORDERS = frozenset(
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19,
     22, 23, 25, 26, 28, 29, 30, 31, 33, 34, 35, 37, 38, 41, 43, 44,
     45, 46, 47, 49, 50, 51, 53, 58, 59, 61, 62]
)


class GroupSpecError(ValueError):
    """Malformed group spec string."""


class CayleyTableError(ValueError):
    """External Cayley table violating the group axioms."""


@dataclass(frozen=True, slots=True)
class CyclicClass:
    """The elements generating one cyclic subgroup, with the classes whose
    subgroups contain it or lie inside it (itself included), as a bitmask
    over class indices, and the power-graph degree each member has."""

    members: tuple[int, ...]
    comparable: int
    degree: int


class Group:
    """Immutable-by-convention finite group on identifiers 0..n-1."""

    __slots__ = ("n", "label", "mul", "identity", "inv", "orders", "_classes")

    def __init__(self, mul, label: str):
        n = len(mul)
        if n == 0:
            raise ValueError("empty multiplication table")
        self.n = n
        self.label = label
        self.mul = mul
        self.identity = 0
        orders = [0] * n
        inv = [0] * n
        for x in range(n):
            k, acc = 1, x
            while acc != 0:
                acc = mul[acc][x]
                k += 1
                if k > n:
                    raise ValueError(
                        f"powers of element {x} never reach the identity")
            orders[x] = k
            inv[x] = mul[x].index(0)
        self.orders = tuple(orders)
        self.inv = tuple(inv)
        self._classes: tuple[CyclicClass, ...] | None = None

    def power(self, x: int, k: int) -> int:
        k %= self.orders[x]
        acc = 0
        for _ in range(k):
            acc = self.mul[acc][x]
        return acc

    def cyclic_subgroup(self, x: int) -> list[int]:
        """Members of <x> in power order starting at the identity."""
        members = [0]
        acc = x
        while acc != 0:
            members.append(acc)
            acc = self.mul[acc][x]
        return members

    @property
    def cyclic_classes(self) -> tuple[CyclicClass, ...]:
        """Partition of the elements by the cyclic subgroup they generate,
        computed on first use and cached.

        Classes are indexed by their least member, so the identity's class
        comes first.  x and y are adjacent in the power graph exactly when
        their classes are comparable, so each class is a clique of twins.
        Each cyclic subgroup is walked once; its generators are the powers
        x^k with gcd(k, |x|) = 1.  A member x of a class is adjacent to the
        rest of <x> and to the generators of every larger cyclic subgroup
        containing x, which gives the class its degree.
        """
        if self._classes is None:
            class_of = [-1] * self.n
            subgroups: list[list[int]] = []
            members: list[tuple[int, ...]] = []
            for x in range(self.n):
                if class_of[x] != -1:
                    continue
                powers = self.cyclic_subgroup(x)
                k = len(powers)
                gens = sorted(powers[j] for j in range(k) if gcd(j, k) == 1)
                for y in gens:
                    class_of[y] = len(members)
                subgroups.append(powers)
                members.append(tuple(gens))
            comparable = [0] * len(members)
            degree = [len(powers) - 1 for powers in subgroups]
            for i, powers in enumerate(subgroups):
                for j in {class_of[y] for y in powers}:
                    comparable[i] |= 1 << j
                    comparable[j] |= 1 << i
                    if j != i:
                        degree[j] += len(members[i])
            self._classes = tuple(map(CyclicClass, members, comparable, degree))
        return self._classes

    def subgroup_generated(self, gens) -> frozenset[int]:
        closure = {0}
        frontier = [0]
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = self.mul[a][g]
                if b not in closure:
                    closure.add(b)
                    frontier.append(b)
        return frozenset(closure)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Group({self.label!r}, n={self.n})"


def element_order(g: Group, x: int) -> int:
    """Least k >= 1 with x^k = e."""
    if not 0 <= x < g.n:
        raise ValueError(f"identifier {x} out of range for group of order {g.n}")
    return g.orders[x]


def involutions(g: Group) -> set[int]:
    """All elements of order exactly 2."""
    return {x for x in range(g.n) if g.orders[x] == 2}


def is_abelian(g: Group) -> bool:
    return all(g.mul[a][b] == g.mul[b][a] for a in range(g.n) for b in range(a + 1, g.n))


def is_cyclic(g: Group) -> bool:
    return any(k == g.n for k in g.orders)


def subgroups_of_prime_order(g: Group, p: int) -> list[frozenset[int]]:
    """The distinct subgroups of prime order p (each is <x> for some x)."""
    subs: list[frozenset[int]] = []
    for x in range(g.n):
        if g.orders[x] == p:
            sub = frozenset(g.cyclic_subgroup(x))
            if sub not in subs:
                subs.append(sub)
    return subs


def unique_subgroup_of_prime_order(g: Group, p: int) -> bool:
    """True iff all elements of order p generate one common subgroup.

    False both when several such subgroups exist and when there are none at
    all (p not dividing |G|); use subgroups_of_prime_order to tell the two
    apart.
    """
    if len(factorize(p).factors) != 1 or factorize(p).factors[0][1] != 1:
        raise ValueError(f"{p} is not prime")
    return len(subgroups_of_prime_order(g, p)) == 1


def is_generalized_quaternion(g: Group) -> bool:
    """True iff g is dicyclic of 2-power order >= 8 (generalized quaternion).

    A 2-group with exactly one involution is cyclic or generalized
    quaternion (Gorenstein, *Finite Groups*, Thm 5.4.10), so the test is a
    count of element orders.
    """
    n = g.n
    if n < 8 or n & (n - 1):
        return False
    return not is_cyclic(g) and g.orders.count(2) == 1


# ── family constructors ──────────────────────────────────────────────────────

_LIST_ROWS_MAX = 1024  # larger tables keep each row as an array('H')


def _make_rows(n: int):
    if n > _LIST_ROWS_MAX:
        return [array("H", bytes(2 * n)) for _ in range(n)]
    return [[0] * n for _ in range(n)]


def _cyclic_table(n: int):
    """Row a is the window a..a+n-1 of one doubled list, so every row shares
    the same n int objects."""
    doubled = list(range(n)) * 2
    if n > _LIST_ROWS_MAX:
        doubled = array("H", doubled)
    return [doubled[a:a + n] for a in range(n)]


def _abelian_table(ds: tuple[int, ...]):
    """Z_d1 x ... x Z_dk as iterated products of cyclic tables, so element
    (a1, ..., ak) sits at its mixed-radix index, identity at 0."""
    return reduce(_product_table, map(_cyclic_table, ds))


def _gdih_table(ds: tuple[int, ...]):
    """Generalized dihedral over Z_d1 x ... x Z_dk: the abelian part extended
    by an order-2 flip acting as negation.  Entries come from one shared
    list of ints."""
    add = _abelian_table(ds)
    neg = [row.index(0) for row in add]
    h = len(add)
    n = 2 * h
    ids = list(range(n))
    lo, hi = ids[:h], ids[h:]
    rows = []
    for flip in (False, True):
        left, right = (hi, lo) if flip else (lo, hi)
        for row in add:
            src = [row[j] for j in neg] if flip else row
            out = [left[x] for x in src] + [right[x] for x in src]
            rows.append(array("H", out) if n > _LIST_ROWS_MAX else out)
    return rows


def _dicyclic_table(nn: int):
    """Dicyclic group of order 4*nn: x of order 2*nn, y^2 = x^nn,
    y x y^-1 = x^-1.  Element s*2nn + a stands for x^a y^s.

    x^a x^b = x^(a+b) and x^a y x^b y^t = x^(a-b+t*nn) y^(1-t), so each
    half-row is an ascending or descending window of one doubled sequence,
    and every row shares the same int objects."""
    h = 2 * nn
    n = 4 * nn
    ids = list(range(n))
    if n > _LIST_ROWS_MAX:
        ids = array("H", ids)
    lo2, hi2 = ids[:h] * 2, ids[h:] * 2
    rlo2, rhi2 = lo2[::-1], hi2[::-1]
    rows = [lo2[a:a + h] + hi2[a:a + h] for a in range(h)]
    for a in range(h):
        i, j = h - 1 - a, h - 1 - (a + nn) % h
        rows.append(rhi2[i:i + h] + rlo2[j:j + h])
    return rows


def _perm_parity(p: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inversions % 2


def _perm_table(k: int, even_only: bool):
    perms = [p for p in itertools.permutations(range(k))
             if not even_only or _perm_parity(p) == 0]
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    rows = _make_rows(n)
    rng = range(k)
    for i, p in enumerate(perms):
        row = rows[i]
        for j, q in enumerate(perms):
            row[j] = index[tuple(p[q[x]] for x in rng)]
    return rows


def _product_table(mul_a, mul_b):
    """Direct product of two tables; (a, b) sits at a * |B| + b.  Entries
    come from one shared list of ints, not a new int each (26 MB at n = 960)."""
    na, nb = len(mul_a), len(mul_b)
    n = na * nb
    if n > ORDER_CAP:
        raise GroupSpecError(f"product order {n} exceeds the {ORDER_CAP} cap")
    ids = list(range(n))
    blocks = [ids[a * nb:(a + 1) * nb] for a in range(na)]
    rows = _make_rows(n)
    for a1 in range(na):
        mra = mul_a[a1]
        for b1 in range(nb):
            row = rows[a1 * nb + b1]
            mrb = mul_b[b1]
            for a2 in range(na):
                block = blocks[mra[a2]]
                off = a2 * nb
                for b2 in range(nb):
                    row[off + b2] = block[mrb[b2]]
    return rows


# ── spec grammar ─────────────────────────────────────────────────────────────

_ATOM = re.compile(r"(Dic|Z|D|Q|S|A)([0-9]+)\Z")
_LIST = re.compile(r"(Ab|GDih)\[([0-9]+(?:,[0-9]+)*)\]\Z")


def _split_product(body: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(body):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1:]
    raise GroupSpecError("Prod needs two comma-separated specs")


def parse_group_spec(spec: str):
    """Parse a spec string to a tree; raises GroupSpecError when malformed.

    Grammar (exact, case-sensitive): Z<n>, Ab[d1,...,dk], D<2n>,
    GDih[d1,...,dk], Dic<n>, Q<2^k> (k >= 3), S<n>/A<n> (n <= 7),
    Prod(spec,spec), cayley:<path>.
    """
    spec = spec.strip()
    if spec.startswith("cayley:"):
        path = spec[len("cayley:"):]
        if not path:
            raise GroupSpecError("cayley: needs a file path")
        return ("cayley", path)
    if spec.startswith("Prod(") and spec.endswith(")"):
        left, right = _split_product(spec[len("Prod("):-1])
        return ("prod", parse_group_spec(left), parse_group_spec(right))
    m = _LIST.fullmatch(spec)
    if m:
        kind = "ab" if m.group(1) == "Ab" else "gdih"
        ds = tuple(int(tok) for tok in m.group(2).split(","))
        if any(d < 1 for d in ds):
            raise GroupSpecError(f"{m.group(1)} factors must be positive: {spec!r}")
        return (kind, ds)
    m = _ATOM.fullmatch(spec)
    if m:
        family, arg = m.group(1), int(m.group(2))
        if arg < 1:
            raise GroupSpecError(f"parameter must be positive: {spec!r}")
        if family == "Z":
            return ("cyclic", arg)
        if family == "D":
            if arg % 2 or arg < 2:
                raise GroupSpecError(f"D<m> needs even order m >= 2: {spec!r}")
            return ("gdih", (arg // 2,))
        if family == "Dic":
            return ("dicyclic", arg)
        if family == "Q":
            if arg < 8 or arg & (arg - 1):
                raise GroupSpecError(f"Q<m> needs m a power of 2, m >= 8: {spec!r}")
            return ("dicyclic", arg // 4)
        if family in ("S", "A"):
            if arg > 7:
                raise GroupSpecError(f"{family}<n> capped at n <= 7: {spec!r}")
            return ("perm", family, arg)
    raise GroupSpecError(f"unrecognized group spec {spec!r}")


_group_cache: dict[str, Group] = {}


def construct_group(spec: str) -> Group:
    """Build the group named by a spec string; deterministic per spec."""
    spec = spec.strip()
    tree = parse_group_spec(spec)
    if tree[0] == "cayley":
        return _load_cayley(tree[1], spec)
    if spec not in _group_cache:
        _group_cache[spec] = Group(_build_table(tree), spec)
    return _group_cache[spec]


def _build_table(tree):
    kind = tree[0]
    if kind == "cyclic":
        _check_cap(tree[1])
        return _cyclic_table(tree[1])
    if kind == "ab":
        _check_cap(prod(tree[1]))
        return _abelian_table(tree[1])
    if kind == "gdih":
        _check_cap(2 * prod(tree[1]))
        return _gdih_table(tree[1])
    if kind == "dicyclic":
        _check_cap(4 * tree[1])
        return _dicyclic_table(tree[1])
    if kind == "perm":
        return _perm_table(tree[2], even_only=tree[1] == "A")
    if kind == "prod":
        return _product_table(_build_table(tree[1]), _build_table(tree[2]))
    raise GroupSpecError(f"cannot build {kind}")  # pragma: no cover


def _check_cap(n: int) -> None:
    if n > ORDER_CAP:
        raise GroupSpecError(f"order {n} exceeds the {ORDER_CAP} cap")


def _load_cayley(path: str, label: str) -> Group:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise GroupSpecError(f"cannot read Cayley file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CayleyTableError(f"invalid JSON in {path!r}: {exc}") from None
    if not isinstance(payload, dict) or "n" not in payload or "mul" not in payload:
        raise CayleyTableError('Cayley file needs keys "n" and "mul"')
    n, mul = payload["n"], payload["mul"]
    if not isinstance(n, int) or n < 1 or n > ORDER_CAP:
        raise CayleyTableError(f'"n" must be an integer in 1..{ORDER_CAP}')
    if (not isinstance(mul, list) or len(mul) != n
            or any(not isinstance(row, list) or len(row) != n for row in mul)):
        raise CayleyTableError(f'"mul" must be an {n}x{n} table')
    for row in mul:
        for entry in row:
            if not isinstance(entry, int) or not 0 <= entry < n:
                raise CayleyTableError(
                    f"closure violated: entry {entry!r} outside 0..{n - 1}")
    for x in range(n):
        if mul[0][x] != x or mul[x][0] != x:
            raise CayleyTableError(
                f"identity axiom violated: index 0 does not act as identity on {x}")
    for x in range(n):
        if 0 not in mul[x]:
            raise CayleyTableError(f"inverse axiom violated: element {x} has no inverse")
    _check_associative(mul)
    return Group(mul, label)


def _check_associative(mul: list[list[int]]) -> None:
    """Light's associativity test over a greedy generating set S.

    The elements s with x(sy) = (xs)y for all x, y are closed under
    products, so once every s in S passes and S generates the whole table,
    the table is associative (Clifford & Preston, *Algebraic Theory of
    Semigroups* I, 1961).  S takes the least element outside the closure
    of the previous ones under right multiplication, at O(n^2) per member.
    Identity and right inverses are already checked, so an associative
    table is a group, and each new member of S at least doubles the closure:
    needing more than log2(n) of them proves associativity fails.
    """
    n = len(mul)
    inside = bytearray(n)
    inside[0] = 1
    closure = [0]
    gens: list[int] = []
    for s in range(n):
        if inside[s]:
            continue
        if len(gens) == n.bit_length() - 1:
            raise CayleyTableError(
                f"associativity fails: {len(gens)} greedy generators reach "
                f"only {len(closure)} of {n} elements, fewer than any group")
        row_s = mul[s]
        for x in range(n):
            mx = mul[x]
            if mul[mx[s]] != [mx[c] for c in row_s]:
                y = next(y for y in range(n) if mul[mx[s]][y] != mx[row_s[y]])
                raise CayleyTableError(f"associativity fails at ({x}, {s}, {y})")
        gens.append(s)
        frontier = [mul[r][s] for r in closure]
        while frontier:
            y = frontier.pop()
            if not inside[y]:
                inside[y] = 1
                closure.append(y)
                frontier.extend(mul[y][t] for t in gens)


# ── isomorphism testing ──────────────────────────────────────────────────────

def _conjugacy_class_sizes(g: Group) -> list[int]:
    """Per-element size of its conjugacy class."""
    n = g.n
    size = [0] * n
    seen = [False] * n
    for x in range(n):
        if seen[x]:
            continue
        cls = {g.mul[g.mul[a][x]][g.inv[a]] for a in range(n)}
        for y in cls:
            seen[y] = True
            size[y] = len(cls)
    return size


def _vertex_profiles(g: Group) -> list[tuple[int, int, int]]:
    """Per element: its order, power-graph degree and conjugacy class size."""
    sizes = _conjugacy_class_sizes(g)
    profiles = [(0, 0, 0)] * g.n
    for cl in g.cyclic_classes:
        for x in cl.members:
            profiles[x] = (g.orders[x], cl.degree, sizes[x])
    return profiles


def group_fingerprint(g: Group) -> tuple:
    """Cheap isomorphism-invariant summary: sorted element orders plus the
    sorted power-graph degree sequence."""
    degrees = sorted(cl.degree for cl in g.cyclic_classes for _ in cl.members)
    return (tuple(sorted(g.orders)), tuple(degrees))


def are_isomorphic(g1: Group, g2: Group) -> bool:
    """Exact isomorphism test for catalog-scale groups.

    Abelian pairs are decided by their element-order multisets; otherwise a
    backtracking search assigns images consistent with multiplication,
    filtering candidates by (order, power-graph degree, class size).
    """
    n = g1.n
    if g2.n != n:
        return False
    if sorted(g1.orders) != sorted(g2.orders):
        return False
    ab1, ab2 = is_abelian(g1), is_abelian(g2)
    if ab1 != ab2:
        return False
    if ab1:
        return True  # abelian groups with equal order multisets are isomorphic
    prof1, prof2 = _vertex_profiles(g1), _vertex_profiles(g2)
    if sorted(prof1) != sorted(prof2):
        return False

    mul1, mul2 = g1.mul, g2.mul

    def close(f: list[int], used: list[bool]) -> bool:
        changed = True
        while changed:
            changed = False
            assigned = [x for x in range(n) if f[x] != -1]
            for a in assigned:
                fa = f[a]
                for b in assigned:
                    c = mul1[a][b]
                    w = mul2[fa][f[b]]
                    if f[c] == -1:
                        if used[w] or prof1[c] != prof2[w]:
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
            if not used[b] and prof1[a] == prof2[b]:
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


# ── per-order catalog ────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Catalog:
    order: int
    groups: tuple[Group, ...]
    complete: bool


def _partitions(r: int) -> list[tuple[int, ...]]:
    """Partitions of r as descending tuples, deterministic order."""
    if r == 0:
        return [()]
    out = []

    def rec(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, cap), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(r, r, [])
    return out


def abelian_types(m: int) -> list[tuple[int, ...]]:
    """Invariant-factor lists (ascending, each dividing the next) of the
    abelian groups of order m; the cyclic type comes first."""
    if m == 1:
        return [(1,)]
    factors = factorize(m).factors
    per_prime = [[(p, parts) for parts in _partitions(r)] for p, r in factors]
    types = []
    for combo in itertools.product(*per_prime):
        width = max(len(parts) for _, parts in combo)
        invariant = []
        for j in range(width):
            d = 1
            for p, parts in combo:
                if j < len(parts):
                    d *= p ** parts[j]
            invariant.append(d)
        types.append(tuple(reversed(invariant)))  # ascending, d1 | d2 | ...
    types.sort(key=lambda t: (len(t), t))
    return types


_FACTORIAL_SPECS = {6: "S3", 24: "S4", 120: "S5", 720: "S6", 5040: "S7",
                    12: "A4", 60: "A5", 360: "A6", 2520: "A7"}


def _candidate_specs(m: int) -> list[str]:
    if m == 1:
        return ["Z1"]
    specs = [f"Z{m}"]
    for t in abelian_types(m):
        if len(t) > 1:
            specs.append("Ab[" + ",".join(map(str, t)) + "]")
    if m % 2 == 0 and m >= 6:
        specs.append(f"D{m}")
        for t in abelian_types(m // 2):
            # generalized dihedral over A + Z2 and over cyclic A duplicate
            # products and plain dihedral groups; skip those shapes
            if len(t) > 1 and t[0] >= 3:
                specs.append("GDih[" + ",".join(map(str, t)) + "]")
    if m % 4 == 0 and m >= 8:
        specs.append(f"Q{m}" if m & (m - 1) == 0 else f"Dic{m // 4}")
    if m in _FACTORIAL_SPECS:
        specs.append(_FACTORIAL_SPECS[m])
    for d in range(2, isqrt(m) + 1):
        if m % d == 0:
            e = m // d
            left, right = catalog_for_order(d).groups, catalog_for_order(e).groups
            for ia, ga in enumerate(left):
                for ib, gb in enumerate(right):
                    if d == e and ib < ia:
                        continue
                    if is_abelian(ga) and is_abelian(gb):
                        continue  # covered by the abelian enumeration
                    specs.append(f"Prod({ga.label},{gb.label})")
    return specs


@lru_cache(maxsize=None)
def catalog_for_order(m: int) -> Catalog:
    """All family-expressible groups of order m up to isomorphism.

    complete=True only for whitelisted orders where the families provably
    exhaust every isomorphism class.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    _check_cap(m)
    reps: list[Group] = []
    fingerprints: list[tuple] = []
    for spec in _candidate_specs(m):
        g = construct_group(spec)
        fp = group_fingerprint(g)
        duplicate = any(fp == fp0 and are_isomorphic(g, g0)
                        for g0, fp0 in zip(reps, fingerprints))
        if not duplicate:
            reps.append(g)
            fingerprints.append(fp)
    return Catalog(m, tuple(reps), m in COMPLETE_ORDERS)
