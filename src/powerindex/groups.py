"""Finite groups on identifiers 0..n-1, with multiplication tables on demand.

Groups are built from a small spec grammar (cyclic, abelian, dihedral,
generalized dihedral, dicyclic/quaternion, symmetric/alternating, direct
products, external Cayley tables) and served per order through a catalog
that keeps one group per exact direct-factor key and is complete when its
size meets the group count.  The identity always sits at identifier 0.

Each family walks its cyclic subgroups, all that the power graph reads,
once per class, and the group keeps the walk, so its table is built on
the first read of ``mul``, which no answer makes but a product's table.
Each family has one product x*s (``_right``).  One builder fills every
table from it along the greedy-generator walk (``_walk``), the only
closure under multiplication, in ``array('H')`` rows at every order.
Power-graph degrees and adjacency come from the cyclic classes, so
nothing here builds a power graph.
"""

from __future__ import annotations

import itertools
import json
import re
from array import array
from functools import lru_cache, partial, reduce
from math import factorial, gcd, isqrt, lcm, prod
from operator import add, itemgetter
from typing import NamedTuple

from .numtheory import factorize

ORDER_CAP = 5040

# The number of groups of each order up to isomorphism, indexed by order
# (Besche, Eick & O'Brien, IJAC 12, 2002; OEIS A000001).  A catalog that
# holds this many pairwise non-isomorphic groups holds every group of its
# order; see docs/complete_orders.md.
GROUP_COUNTS = (
    0, 1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14, 1, 5, 1, 5, 2, 2, 1,
    15, 2, 2, 5, 4, 1, 4, 1, 51, 1, 2, 1, 14, 1, 2, 2, 14, 1, 6, 1, 4, 2, 2,
    1, 52, 2, 5, 1, 5, 1, 15, 2, 13, 2, 2, 1, 13, 1, 2, 4, 267,
)


class GroupSpecError(ValueError):
    """Malformed group spec string."""


class CayleyTableError(ValueError):
    """External Cayley table violating the group axioms."""


class Group:
    """Immutable-by-convention finite group on identifiers 0..n-1.

    ``Group(mul, label)`` walks powers along the table mul.  ``Group(build,
    label, n, powers)`` calls build() for the table on the first read of
    ``mul``, and takes the members of <x> in power order from powers(x).

    One walk over each cyclic subgroup gives every per-element fact: the
    generators of <x> are the powers x^j with gcd(j, |x|) = 1, each has
    order |x| and inverse x^(|x| - j).  The walk also gives the cyclic
    classes, the partition of the elements by the cyclic subgroup they
    generate, indexed by least member so that the identity's class comes
    first.  x and y are adjacent in the power graph exactly when their
    classes are comparable, which ``has_edge`` reads, so each class is a
    clique of twins.  A member x of a class is adjacent to the rest of <x>
    and to the generators of every larger cyclic subgroup containing x,
    which gives the class its degree.  x^t generates <x^gcd(t, |x|)>, so
    the classes inside <x> are those of x^d for the divisors d of |x|.

    The group keeps, per element, ``orders``, ``inv``, its class and the
    exponent e with x = r^e for r its class's least member; per class,
    ``degree`` and the bitmask ``comparable`` over class indices; the
    members of every class, in one row sliced by ``members(i)``; and the
    powers of each r in power order, in one flat row that
    ``cyclic_subgroup`` reads, so a product does not walk its factors
    again.  Every row but ``comparable`` is ``bytes`` while its values fit
    a byte and a read-only view of an array above, so no row is written.
    """

    __slots__ = ("n", "label", "_mul", "_flat", "_starts", "_class", "_exponent",
                 "orders", "inv", "_members", "_offsets", "degree", "comparable")

    def __init__(self, mul, label: str, n: int | None = None, powers=None):
        n = n or len(mul)
        if n == 0:
            raise ValueError("empty multiplication table")
        self.n = n
        self.label = label
        self._mul = mul
        walk = powers or partial(_powers, lambda x, s: mul[x][s], n)
        # the rows are typed from the start, so the walk keeps no int object
        # per element or per power while it runs
        orders = _typed([0] * n, n)
        inv, class_of, exponent = (_typed([0] * n, n - 1) for _ in range(3))
        flat = _typed([], n - 1)
        starts, sizes = [0], []
        for x in range(n):
            if orders[x]:
                continue
            powers = walk(x)
            k, i = len(powers), len(sizes)
            units = _units(k)
            gens = [powers[j] for j in units]
            # j and k - j are units together, so gens[-1 - u] inverts gens[u]
            for j, y, y_inv in zip(units, gens, reversed(gens)):
                class_of[y] = i
                exponent[y] = j
                orders[y] = k
                inv[y] = y_inv
            sizes.append(len(units))
            flat.extend(powers)
            starts.append(len(flat))
        comparable = [0] * len(sizes)
        degree = [b - a - 1 for a, b in zip(starts, starts[1:])]
        for i, size in enumerate(sizes):
            a, k = starts[i], starts[i + 1] - starts[i]
            for d in _divisors(k):
                j = class_of[flat[a + d % k]]
                comparable[i] |= 1 << j
                comparable[j] |= 1 << i
                if j != i:
                    degree[j] += size
        # one stable sort orders the members by class, then by id
        members = _typed(sorted(range(n), key=class_of.__getitem__), n - 1)
        offsets = _typed(itertools.accumulate(sizes, initial=0), n)
        (self.orders, self.inv, self._class, self._exponent, self._flat, self._starts,
         self._members, self._offsets, self.degree) = map(_frozen, (
             orders, inv, class_of, exponent, flat, array("I", starts),
             members, offsets, _typed(degree, n - 1)))
        self.comparable = tuple(comparable)

    @property
    def mul(self):
        """The table, built on first read; no answer reads it but a product's table."""
        if callable(self._mul):
            self._mul = self._mul()
        return self._mul

    def members(self, i: int):
        """The members of class i, ascending, as a read-only row."""
        return self._members[self._offsets[i]:self._offsets[i + 1]]

    def has_edge(self, x: int, y: int) -> bool:
        """Power-graph adjacency: x != y and their classes are comparable."""
        of = self._class
        return x != y and bool(self.comparable[of[x]] >> of[y] & 1)

    def cyclic_subgroup(self, x: int) -> list[int]:
        """Members of <x> in power order starting at the identity."""
        flat, a, k, e = self._locate(x)
        return [flat[a + e * t % k] for t in range(k)]

    def _locate(self, x: int):
        """Where the walk keeps <x>: the flat row, the offset and order of
        x's class there, and the exponent e with x = r^e, so that x^t is
        the entry at offset + e*t mod order."""
        i = self._class[x]
        a = self._starts[i]
        return self._flat, a, self._starts[i + 1] - a, self._exponent[x]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Group({self.label!r}, n={self.n})"


def _powers(right, n: int, x: int) -> list[int]:
    """Members of <x> in power order along right(x, s) = x*s, n = |G|, for
    tables and permutations.  Window groups walk by digits: along their
    product ``verify chi --max 600`` took 0.63 s, not 0.41 s.  Products
    read their factors' walks: along the factors' products the cold
    1..128 catalog was 35% slower."""
    members = [0]
    acc = x
    while acc != 0:
        if len(members) == n:
            raise ValueError(f"powers of element {x} never reach the identity")
        members.append(acc)
        acc = right(acc, x)
    return members


def _typed(values, top: int):
    """A row of values in 0..top: a bytearray if top fits a byte, else array('H')."""
    return bytearray(values) if top < 256 else array("H", values)


def _frozen(row):
    """A row made read-only: ``bytes``, or a read-only view of an array."""
    return bytes(row) if isinstance(row, bytearray) else memoryview(row).toreadonly()


@lru_cache(maxsize=None)
def _units(k: int) -> array:
    """The j in 0..k-1 with gcd(j, k) = 1, ascending: the exponents of the
    generators of a cyclic group of order k, two bytes each."""
    return array("H", (j for j in range(k) if gcd(j, k) == 1))


@lru_cache(maxsize=None)
def _divisors(k: int) -> tuple[int, ...]:
    """The divisors of k, ascending."""
    return tuple(d for d in range(1, k + 1) if k % d == 0)


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
    return not is_cyclic(g) and len(involutions(g)) == 1


# ── family constructors ──────────────────────────────────────────────────────

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


def _window_right(ds: tuple[int, ...], z: int | None, x: int, s: int) -> int:
    """x*s in A = Z_d1 x ... x Z_dk, a at its mixed-radix index; or, given
    z = -z in A, in A extended by y with y a y^-1 = a^-1 and y^2 = z, x^a
    y^t at t*|A| + a (z = 0: generalized dihedral; A = Z_2m, z = m:
    dicyclic).  Digit by digit, x^a x^b = x^(a+b), x^a y x^b = x^(a-b) y
    and y^2 = z."""
    h = prod(ds)
    (t, a), (u, b) = divmod(x, h), divmod(s, h)
    c, w = 0, h
    for d in ds:
        w //= d
        c += (a // w + (-1) ** t * (b // w) + (t & u and z // w)) % d * w
    return (t ^ u) * h + c


def _window_digits(ds: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Each digit's radix d and weight w (the product of the later radices)."""
    weights = list(itertools.accumulate(reversed(ds[1:]), int.__mul__, initial=1))
    return tuple(zip(ds, reversed(weights)))


def _window_powers(digits: tuple[tuple[int, int], ...], z: int | None, x: int) -> list[int]:
    """Powers in the group of ``_window_right(ds, z)``, given the digits of
    ds (``_window_digits``): those of x^a are the multiples t*a, digit by
    digit in the mixed radix, each nonzero digit's period repeated to the
    order; x^a y squares to z, so its powers are [0, x^a y], or [0, x^a y,
    z, x^(a+z) y] if z != 0."""
    h = digits[0][0] * digits[0][1]
    if x >= h:
        az = sum(((x - h) // w + z // w) % d * w for d, w in digits) if z else 0
        return [0, x, z, h + az] if z else [0, x]
    periods = [[t * a % d * w for t in range(d // gcd(a, d))]
               for d, w in digits if (a := x // w % d)]
    if not periods:
        return [0]
    k = lcm(*map(len, periods))
    return list(reduce(partial(map, add), (p * (k // len(p)) for p in periods)))


@lru_cache(maxsize=None)
def _perms(k: int, even: bool) -> tuple[list[tuple[int, ...]], dict]:
    """The permutations of S_k or A_k in lexicographic order, and their indices."""
    pairs = list(itertools.combinations(range(k), 2))
    perms = [p for p in itertools.permutations(range(k))
             if not even or sum(p[i] > p[j] for i, j in pairs) % 2 == 0]
    return perms, {p: i for i, p in enumerate(perms)}


def _product_powers(ga: Group, gb: Group, x: int) -> list[int]:
    """Powers in ga x gb, componentwise from the rows the factors keep, in
    one pass, so a nested product walks no factor again."""
    nb = gb.n
    (fa, a, ka, ea), (fb, b, kb, eb) = ga._locate(x // nb), gb._locate(x % nb)
    return [fa[a + ea * t % ka] * nb + fb[b + eb * t % kb] for t in range(lcm(ka, kb))]


# ── spec grammar ─────────────────────────────────────────────────────────────

_MAX_PRODS = 32  # bounds nesting; twelve non-trivial factors pass ORDER_CAP
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
    """Parse a spec string to its builder's arguments, the one place that
    knows the family names; raises GroupSpecError when malformed.

    Grammar (exact, case-sensitive): Z<n>, Ab[d1,...,dk], D<2n>,
    GDih[d1,...,dk], Dic<n>, Q<2^k> (k >= 3), S<n>/A<n> (n <= 7),
    Prod(spec,spec) (at most 32 Prods in one spec), cayley:<path>.
    Results: ("window", ds, z) for ``_window_right`` (Q<2^k> is
    Dic<2^(k-2)>), ("perm", k, even), ("cayley", path), and ("prod",
    (left, left_tree), (right, right_tree)): each factor's stripped spec,
    its label and cache key, with its tree, so no node is parsed twice.
    """
    spec = spec.strip()
    if spec.startswith("cayley:"):
        path = spec[len("cayley:"):]
        if not path:
            raise GroupSpecError("cayley: needs a file path")
        return ("cayley", path)
    if spec.startswith("Prod(") and spec.endswith(")"):
        if spec.count("Prod(") > _MAX_PRODS:
            raise GroupSpecError(f"a spec holds at most {_MAX_PRODS} Prods")
        factors = map(str.strip, _split_product(spec[len("Prod("):-1]))
        return ("prod", *((factor, parse_group_spec(factor)) for factor in factors))
    m = _LIST.fullmatch(spec)
    if m:
        ds = tuple(int(tok) for tok in m.group(2).split(","))
        if any(d < 1 for d in ds):
            raise GroupSpecError(f"{m.group(1)} factors must be positive: {spec!r}")
        return ("window", ds, None if m.group(1) == "Ab" else 0)
    m = _ATOM.fullmatch(spec)
    if m:
        family, arg = m.group(1), int(m.group(2))
        if arg < 1:
            raise GroupSpecError(f"parameter must be positive: {spec!r}")
        if family == "Z":
            return ("window", (arg,), None)
        if family == "D":
            if arg % 2 or arg < 2:
                raise GroupSpecError(f"D<m> needs even order m >= 2: {spec!r}")
            return ("window", (arg // 2,), 0)
        if family == "Dic":
            return ("window", (2 * arg,), arg)
        if family == "Q":
            if arg < 8 or arg & (arg - 1):
                raise GroupSpecError(f"Q<m> needs m a power of 2, m >= 8: {spec!r}")
            return ("window", (arg // 2,), arg // 4)
        if arg > 7:
            raise GroupSpecError(f"{family}<n> capped at n <= 7: {spec!r}")
        return ("perm", arg, family == "A")
    raise GroupSpecError(f"unrecognized group spec {spec!r}")


_group_cache: dict[str, Group] = {}


def construct_group(spec: str) -> Group:
    """Build the group named by a spec string; deterministic per spec, and
    built once per process, a cayley: file included.  The spec is parsed
    only on a cache miss, and ``_construct`` builds from that tree."""
    spec = spec.strip()
    if spec not in _group_cache:
        _construct(spec, parse_group_spec(spec))
    return _group_cache[spec]


def _construct(spec: str, tree) -> Group:
    """The group of a stripped spec and its parsed tree, cached by spec; a
    product builds its factors from its subtrees.  The order cap is checked
    first, so a product past it builds no factor."""
    if spec not in _group_cache:
        if tree[0] == "cayley":
            _group_cache[spec] = _load_cayley(tree[1], spec)
        else:
            _check_cap(n := _order(tree))
            kind, *args = tree
            powers = (partial(_product_powers, *(_construct(*f) for f in args)) if kind == "prod"
                      else partial(_window_powers, _window_digits(args[0]), args[1])
                      if kind == "window" else partial(_powers, _right(tree), n))
            _group_cache[spec] = Group(partial(_build_table, tree), spec, n, powers)
    return _group_cache[spec]


def _order(tree) -> int:
    """The order a parsed spec names, by arithmetic on its arguments; a
    cayley: factor is constructed, since its loader caps n itself."""
    kind, *args = tree
    if kind == "window":
        return prod(args[0]) * (1 if args[1] is None else 2)
    if kind == "perm":  # A1 and A2 are trivial
        return factorial(args[0]) // (2 if args[1] and args[0] > 1 else 1)
    if kind == "prod":
        return prod(_order(factor) for _, factor in args)
    return _construct(f"cayley:{args[0]}", tree).n


def _right(tree):
    """The product x*s of a parsed spec's group: mixed-radix digits,
    composed permutations (p*q is p after q), or (a, b) at a*|B| + b over
    the factors' tables."""
    kind, *args = tree
    if kind == "window":
        return partial(_window_right, *args)
    if kind == "perm":
        perms, index = _perms(*args)
        return lambda x, s: index[itemgetter(*perms[s])(perms[x])]
    # _construct caches the factors, so none is rebuilt
    ma, mb = (_construct(*factor).mul for factor in args)
    nb = len(mb)
    return lambda x, s: ma[x // nb][s // nb] * nb + mb[x % nb][s % nb]


def _build_table(tree):
    """The table of a parsed spec in ``array('H')`` rows, filled along
    ``_walk`` of ``_right(tree)``: a generator's row is the product, every
    other row(x*s) is row(x) permuted by row(s), as (x*s)*t = x*(s*t)."""
    right, n = _right(tree), _order(tree)
    rows, getters = [array("H", range(n))] * n, {}
    for level in _walk(n, right):
        for y, x, s in level:
            if x == 0:
                rows[y] = array("H", map(partial(right, y), range(n)))
                getters[y] = itemgetter(*rows[y])
            else:
                rows[y] = array("H", getters[s](rows[x]))
    return rows


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
    _check_associative(mul)  # compares rows with lists, so before conversion
    return Group([array("H", row) for row in mul], label)


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


# ── isomorphism testing: no answer calls it; tests and perfbench do ──────────

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
    degrees = map(g.degree.__getitem__, g._class)
    return list(zip(g.orders, degrees, _conjugacy_class_sizes(g, gens)))


def group_fingerprint(g: Group) -> tuple:
    """Cheap isomorphism-invariant summary: sorted element orders plus the
    sorted power-graph degree sequence."""
    degrees = sorted(map(g.degree.__getitem__, g._class))
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

class Catalog(NamedTuple):
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
    per_prime = [[(p, parts) for parts in _partitions(r)] for p, r in factorize(m)]
    types = []
    for combo in itertools.product(*per_prime):
        width = max(len(parts) for _, parts in combo)
        invariant = [prod(p ** parts[j] for p, parts in combo if j < len(parts))
                     for j in range(width)]
        types.append(tuple(reversed(invariant)))  # ascending, d1 | d2 | ...
    types.sort(key=lambda t: (len(t), t))
    return types


# no S3: it is D6, which the dihedral family already lists
_FACTORIAL_SPECS = {24: "S4", 120: "S5", 720: "S6", 5040: "S7",
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
            # over A with a Z2 invariant factor GDih is Z2 x Dih(A'), which
            # the products list as Prod(Z2,...); over a cyclic A it is D{m},
            # whose key drops it
            if t[0] >= 3:
                specs.append("GDih[" + ",".join(map(str, t)) + "]")
    if m % 4 == 0 and m >= 8:
        specs.append(f"Q{m}" if m & (m - 1) == 0 else f"Dic{m // 4}")
    if m in _FACTORIAL_SPECS:
        specs.append(_FACTORIAL_SPECS[m])
    for d in range(2, isqrt(m) + 1):
        if m % d == 0:
            e = m // d
            # abelian and mirrored products are dropped by key, unbuilt
            right = catalog_for_order(e).groups
            specs.extend(f"Prod({ga.label},{gb.label})"
                         for ga in catalog_for_order(d).groups for gb in right)
    return specs


def _factor_key(spec: str, tree) -> tuple:
    """Sorted direct factors of the group a stripped spec names, read from its
    parsed tree, a product's factors from their subtrees.  Prod flattens to
    its leaves; Z and Ab split into cyclic factors of prime-power order;
    Dih(A) gives one Z2 per Z2 elementary divisor of A, as Dih(B x Z2) =
    Dih(B) x Z2, and Dih of the rest A' unless A' is trivial; any other leaf
    is keyed by its spec.  The candidates' atoms are Z_{p^k}, Dih(A') with
    A' != 1 and no Z2 elementary divisor, one Dic/Q per order, S4..S7 and
    A4..A7, each indecomposable: Dic/Q have one involution, so of two direct
    factors one has odd order, lies in the cyclic <a> of index 2 and is
    inverted and centralised by the other's elements outside <a>; in Dih(A') a
    direct factor inside A' is inverted and centralised by a reflection, so it
    is an elementary 2-group and a direct factor of A', and two factors
    holding reflections would square every a = hk in A' to 1; the normal
    subgroups of S_n and A_n form a chain.  Distinct atoms are non-isomorphic:
    only Z_{p^k} is abelian, A' is generated by the elements of order > 2,
    Dic/Q have one involution, and S_n and A_n have trivial centre, while a
    same-order Dih(A') has even |A'|.  So by Krull-Remak-Schmidt equal keys
    hold exactly for isomorphic candidates."""
    if tree[0] == "prod":
        return tuple(sorted(_factor_key(*tree[1]) + _factor_key(*tree[2])))
    if tree[0] != "window" or tree[2]:
        return (("spec", spec),)
    divisors = sorted(p ** r for d in tree[1] for p, r in factorize(d))
    if tree[2] is None:
        return tuple(("Z", q) for q in divisors)
    rest = tuple(q for q in divisors if q != 2)
    twos = (("Z", 2),) * (len(divisors) - len(rest) + (not rest))
    return tuple(sorted(twos + ((("Dih", rest),) if rest else ())))


@lru_cache(maxsize=None)
def catalog_for_order(m: int) -> Catalog:
    """The family-expressible groups of order m, one per ``_factor_key``,
    the rest skipped unbuilt.  The key is exact, so GROUP_COUNTS[m] of them
    certify complete=True: every group of order m is among them."""
    if m < 1:
        raise ValueError("order must be >= 1")
    _check_cap(m)
    found, keys = [], set()
    for spec in _candidate_specs(m):
        tree = parse_group_spec(spec)
        key = _factor_key(spec, tree)
        if key not in keys:
            keys.add(key)
            found.append(_construct(spec, tree))
    return Catalog(tuple(found), m < len(GROUP_COUNTS) and len(found) == GROUP_COUNTS[m])
