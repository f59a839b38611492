"""Finite groups as dense multiplication tables over identifiers 0..n-1.

Groups are built from a small spec grammar (cyclic, abelian, dihedral,
generalized dihedral, dicyclic/quaternion, symmetric/alternating, direct
products, external Cayley tables) and served per order through a catalog
that deduplicates up to isomorphism and carries an explicit completeness
flag.  The identity always sits at identifier 0.

Abelian groups and direct products share one product builder, and one
greedy-generator walk (``_walk``) is the only closure under multiplication.
Power-graph degrees come from the cyclic classes (``CyclicClass.degree``),
so nothing here builds a power graph.
"""

from __future__ import annotations

import itertools
import json
import re
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from math import factorial, gcd, isqrt, prod
from operator import itemgetter

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
    """Immutable-by-convention finite group on identifiers 0..n-1.

    One walk over each cyclic subgroup gives every per-element fact: the
    generators of <x> are the powers x^j with gcd(j, |x|) = 1, each has
    order |x| and inverse x^(|x| - j).  The walk also gives
    ``cyclic_classes``, the partition of the elements by the cyclic
    subgroup they generate, indexed by least member so that the identity's
    class comes first.  x and y are adjacent in the power graph exactly
    when their classes are comparable, so each class is a clique of twins.
    A member x of a class is adjacent to the rest of <x> and to the
    generators of every larger cyclic subgroup containing x, which gives
    the class its degree.
    """

    __slots__ = ("n", "label", "mul", "identity", "inv", "orders", "cyclic_classes")

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
        class_of = [-1] * n
        subgroups: list[list[int]] = []
        members: list[tuple[int, ...]] = []
        for x in range(n):
            if class_of[x] != -1:
                continue
            powers = self.cyclic_subgroup(x)
            k = len(powers)
            gens = [j for j in range(k) if gcd(j, k) == 1]
            for j in gens:
                y = powers[j]
                class_of[y] = len(members)
                orders[y] = k
                inv[y] = powers[-j]
            subgroups.append(powers)
            members.append(tuple(sorted(powers[j] for j in gens)))
        comparable = [0] * len(members)
        degree = [len(powers) - 1 for powers in subgroups]
        for i, powers in enumerate(subgroups):
            for j in {class_of[y] for y in powers}:
                comparable[i] |= 1 << j
                comparable[j] |= 1 << i
                if j != i:
                    degree[j] += len(members[i])
        self.orders = tuple(orders)
        self.inv = tuple(inv)
        self.cyclic_classes = tuple(map(CyclicClass, members, comparable, degree))

    def cyclic_subgroup(self, x: int) -> list[int]:
        """Members of <x> in power order starting at the identity."""
        members = [0]
        acc = x
        while acc != 0:
            if len(members) == self.n:
                raise ValueError(f"powers of element {x} never reach the identity")
            members.append(acc)
            acc = self.mul[acc][x]
        return members

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Group({self.label!r}, n={self.n})"


def involutions(g: Group) -> set[int]:
    """All elements of order exactly 2."""
    return {x for x in range(g.n) if g.orders[x] == 2}


def is_cyclic(g: Group) -> bool:
    return any(k == g.n for k in g.orders)


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

def _row_type(n: int):
    """Row constructor of an n-element table: list, or array('H') past 1024."""
    return list if n <= 1024 else partial(array, "H")


def _walk(n: int, right) -> list[list[tuple[int, int, int]]]:
    """Greedy generators of a group on 0..n-1 with identity 0, right(x, s) =
    x*s, and a spanning walk.  Generator s is the least element outside the
    subgroup H reached so far; its level lists the new elements of <H, s> as
    steps (y, x, t), y = x*t with x reached earlier and t a generator,
    starting with (s, 0, s).  Every element is a product of generators, so a map f
    with f(x*t) = f(x)f(t) for each reached x and generator t so far is a
    homomorphism on the subgroup reached (Light's test), by induction on
    word length."""
    inside = bytearray(n)
    inside[0] = 1
    gens: list[int] = []
    levels = []
    for s in range(n):
        if inside[s]:
            continue
        gens.append(s)
        steps = []
        queue = [(0, (s,))] + [(x, (s,)) for lv in levels for x, _, _ in lv]
        for x, ts in queue:
            for t in ts:
                y = right(x, t)
                if not inside[y]:
                    inside[y] = 1
                    steps.append((y, x, t))
                    queue.append((y, gens))
        levels.append(steps)
    return levels


def _cyclic_table(n: int):
    """Row a is the window a..a+n-1 of one doubled row, so every row shares
    the same n int objects."""
    doubled = _row_type(n)(range(n)) * 2
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
    as_row = _row_type(n)
    ids = list(range(n))
    lo, hi = ids[:h], ids[h:]
    rows = []
    for flip in (False, True):
        left, right = (hi, lo) if flip else (lo, hi)
        for row in add:
            src = [row[j] for j in neg] if flip else row
            rows.append(as_row([left[x] for x in src] + [right[x] for x in src]))
    return rows


def _dicyclic_table(nn: int):
    """Dicyclic group of order 4*nn: x of order 2*nn, y^2 = x^nn,
    y x y^-1 = x^-1.  Element s*2nn + a stands for x^a y^s.

    x^a x^b = x^(a+b) and x^a y x^b y^t = x^(a-b+t*nn) y^(1-t), so each
    half-row is an ascending or descending window of one doubled sequence,
    and every row shares the same int objects."""
    h = 2 * nn
    n = 4 * nn
    ids = _row_type(n)(range(n))
    lo2, hi2 = ids[:h] * 2, ids[h:] * 2
    rlo2, rhi2 = lo2[::-1], hi2[::-1]
    rows = [lo2[a:a + h] + hi2[a:a + h] for a in range(h)]
    for a in range(h):
        i, j = h - 1 - a, h - 1 - (a + nn) % h
        rows.append(rhi2[i:i + h] + rlo2[j:j + h])
    return rows


def _perm_table(k: int, even_only: bool):
    """S_k or A_k on its permutations in lexicographic order, the product
    p*q being p after q.  Only the generators' rows compose permutations;
    every other row follows the walk, as row(x*s) = row(x) permuted by
    row(s)."""
    pairs = list(itertools.combinations(range(k), 2))
    perms = [p for p in itertools.permutations(range(k))
             if not even_only or sum(p[i] > p[j] for i, j in pairs) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    as_row = _row_type(n)
    rows = [as_row(index.values())] + [None] * (n - 1)
    getters = {}
    for level in _walk(n, lambda x, s: index[itemgetter(*perms[s])(perms[x])]):
        for y, x, s in level:
            if x == 0:
                rows[y] = as_row(index[itemgetter(*q)(perms[y])] for q in perms)
                getters[y] = itemgetter(*rows[y])
            else:
                rows[y] = as_row(getters[s](rows[x]))
    return rows


def _product_table(mul_a, mul_b):
    """Direct product of two tables; (a, b) sits at a * |B| + b.  Row
    (a1, b1) is, block by block, the block of ids of a1*a2 permuted by row
    b1 of B (row 0 is the identity, which also covers |B| = 1), so entries
    come from one shared list of ints, not a new int each (26 MB at n = 960)."""
    na, nb = len(mul_a), len(mul_b)
    n = na * nb
    as_row = _row_type(n)
    ids = list(range(n))
    blocks = [ids[a * nb:(a + 1) * nb] for a in range(na)]
    rows = [None] * n
    for b1, mrb in enumerate(mul_b):
        permuted = list(map(itemgetter(*mrb), blocks)) if b1 else blocks
        for a1, mra in enumerate(mul_a):
            segments = map(permuted.__getitem__, mra)
            rows[a1 * nb + b1] = as_row(itertools.chain.from_iterable(segments))
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
    Prod(spec,spec), cayley:<path>.  A product's node holds its two factor
    specs, each validated.
    """
    spec = spec.strip()
    if spec.startswith("cayley:"):
        path = spec[len("cayley:"):]
        if not path:
            raise GroupSpecError("cayley: needs a file path")
        return ("cayley", path)
    if spec.startswith("Prod(") and spec.endswith(")"):
        left, right = _split_product(spec[len("Prod("):-1])
        parse_group_spec(left)
        parse_group_spec(right)
        return ("prod", left, right)
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


def _order(tree) -> int:
    """The order a parse tree names, by arithmetic on the tree; a cayley:
    factor is loaded, since its loader caps n itself."""
    kind, arg = tree[0], tree[-1]
    if kind == "prod":
        return prod(_order(parse_group_spec(spec)) for spec in tree[1:])
    if kind == "cayley":
        return _load_cayley(arg, arg).n
    if kind == "perm":  # A1 and A2 are trivial
        return factorial(arg) // (2 if tree[1] == "A" and arg > 1 else 1)
    if kind in ("ab", "gdih"):
        return prod(arg) * (2 if kind == "gdih" else 1)
    return arg * (4 if kind == "dicyclic" else 1)


def _build_table(tree):
    _check_cap(_order(tree))  # before any factor of a product is built
    kind, arg = tree[0], tree[-1]
    if kind == "perm":
        return _perm_table(arg, even_only=tree[1] == "A")
    if kind == "prod":  # construct_group caches the factors, so none is rebuilt
        return _product_table(construct_group(tree[1]).mul, construct_group(arg).mul)
    return {"cyclic": _cyclic_table, "ab": _abelian_table, "gdih": _gdih_table,
            "dicyclic": _dicyclic_table}[kind](arg)


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
    if type(n) is not int or n < 1 or n > ORDER_CAP:
        raise CayleyTableError(f'"n" must be an integer in 1..{ORDER_CAP}')
    if (not isinstance(mul, list) or len(mul) != n
            or any(not isinstance(row, list) or len(row) != n for row in mul)):
        raise CayleyTableError(f'"mul" must be an {n}x{n} table')
    for row in mul:
        for entry in row:
            if type(entry) is not int or not 0 <= entry < n:
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
    """Light's associativity test over the greedy generators S of _walk.

    The elements s with x(sy) = (xs)y for all x, y are closed under
    products, so once every s in S passes, at O(n^2) each, the table is
    associative (Clifford & Preston, *Algebraic Theory of Semigroups* I,
    1961), hence a group, as identity and right inverses are checked.  In
    a group each member of S at least doubles the subgroup reached, so
    needing more than log2(n) of them proves associativity fails."""
    n = len(mul)
    levels = _walk(n, lambda x, s: mul[x][s])
    bound = n.bit_length() - 1
    for i, level in enumerate(levels):
        if i == bound:
            reached = 1 + sum(map(len, levels[:i]))
            raise CayleyTableError(
                f"associativity fails: {i} greedy generators reach "
                f"only {reached} of {n} elements, fewer than any group")
        s = level[0][0]
        row_s = mul[s]
        for x in range(n):
            mx = mul[x]
            if mul[mx[s]] != [mx[c] for c in row_s]:
                y = next(y for y in range(n) if mul[mx[s]][y] != mx[row_s[y]])
                raise CayleyTableError(f"associativity fails at ({x}, {s}, {y})")


# ── isomorphism testing ──────────────────────────────────────────────────────

def _conjugacy_class_sizes(g: Group, gens: list[int]) -> list[int]:
    """Per-element size of its conjugacy class, the orbit under conjugation
    by generators gens of g, whose products give every conjugation."""
    mul, inv = g.mul, g.inv
    size = [0] * g.n
    for x in range(g.n):
        if size[x]:
            continue
        size[x] = 1
        orbit = [x]
        for y in orbit:
            for s in gens:
                z = mul[mul[inv[s]][y]][s]
                if not size[z]:
                    size[z] = 1
                    orbit.append(z)
        for y in orbit:
            size[y] = len(orbit)
    return size


def _vertex_profiles(g: Group, gens: list[int]) -> list[tuple[int, int, int]]:
    """Per element: its order, power-graph degree and conjugacy class size."""
    sizes = _conjugacy_class_sizes(g, gens)
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

    Each group is walked once, for its greedy generators, which give its
    conjugacy classes.  The multisets of (order, power-graph degree, class
    size) profiles must agree; they tell abelian groups from the rest, as
    a group is abelian iff every conjugacy class is a singleton.  The
    search branches on the image in g2 of each greedy generator s of g1 in
    turn: an unused element with the same profile, in increasing order.
    The walk carries the map over the level of s as f(x*t) = f(x)f(t); the
    level is accepted when f stays injective, keeps profiles and passes
    Light's test, which makes it a homomorphism on the subgroup reached,
    and an isomorphism at the last level.  Every isomorphism is one branch
    of the search, since it agrees with the walk, so the answer is exact."""
    n = g1.n
    if g2.n != n:
        return False
    mul1, mul2 = g1.mul, g2.mul
    levels = _walk(n, lambda x, s: mul1[x][s])
    gens = [level[0][0] for level in levels]
    gens2 = [level[0][0] for level in _walk(n, lambda x, s: mul2[x][s])]
    prof1, prof2 = _vertex_profiles(g1, gens), _vertex_profiles(g2, gens2)
    if sorted(prof1) != sorted(prof2):
        return False

    subgroups = list(itertools.accumulate(([y for y, _, _ in lv] for lv in levels), initial=[0]))
    f = [0] * n
    used = bytearray(n)  # the identity needs no mark: no other element has order 1

    def extend(k: int) -> bool:
        if k == len(levels):
            return True
        s, members, gk = gens[k], subgroups[k + 1], gens[:k + 1]
        for b in range(n):
            if used[b] or prof1[s] != prof2[b]:
                continue
            f[s] = b
            used[b] = 1
            images = [b]
            for y, x, t in levels[k][1:]:
                w = mul2[f[x]][f[t]]
                if used[w] or prof1[y] != prof2[w]:
                    break
                f[y] = w
                used[w] = 1
                images.append(w)
            else:
                if all(f[mul1[x][t]] == mul2[f[x]][f[t]] for x in members for t in gk) \
                        and extend(k + 1):
                    return True
            for w in images:
                used[w] = 0
        return False

    return extend(0)


# ── per-order catalog ────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Catalog:
    order: int
    groups: tuple[Group, ...]
    complete: bool


def _partitions(r: int) -> list[tuple[int, ...]]:
    """Partitions of r as descending tuples, deterministic order."""
    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
        for part in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part, *rest)
    return list(rec(r, r))


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
        invariant = [prod(p ** parts[j] for p, parts in combo if j < len(parts))
                     for j in range(width)]
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
            # A catalog of order m lists Z_m and the Ab types first; they are pairwise
            # non-isomorphic, and every abelian group of order m is one of
            # them, so every later abelian candidate is deduplicated away.
            # Hence its first len(abelian_types(m)) groups are exactly the
            # abelian ones, and products of two of them are skipped here,
            # being covered by the abelian enumeration.
            na, nb = len(abelian_types(d)), len(abelian_types(e))
            for ia, ga in enumerate(left):
                first = max(ia if d == e else 0, nb if ia < na else 0)
                specs.extend(f"Prod({ga.label},{gb.label})" for gb in right[first:])
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
