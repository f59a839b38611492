"""Verification suites sweeping the closed-form criteria against the
brute-force oracles over the group catalog.

Each suite runs a fixed list of claims with deterministic instance
enumeration and reports per-claim pass/fail with the first counterexample
found.  Progress goes to stderr so stdout stays clean for piping.
"""

from __future__ import annotations

import random
import sys
import time
from typing import NamedTuple

from . import SUITE_NAMES
from .clique import clique_number
from .embedding import (
    check_embedding,
    embed_kst_cyclic,
    embeds,
    has_universal_nonidentity,
    is_kst_power_critical,
    kst_optimal_groups,
    max_nonidentity_degree,
    theta_complete,
    theta_kn_equals_nplus1,
    theta_search,
)
from .graphs import (
    SimpleGraph,
    apex_one_factor,
    complete_bipartite,
    complete_graph,
    power_graph,
)
from .groups import catalog_for_order, construct_group
from .matching import (
    ClassEdges,
    barrier_surplus,
    check_theorem44,
    matching_from_path_cover,
    maximum_matching,
    maximum_matching_bruteforce,
    near_perfect_matching_odd,
)
from .numtheory import (
    chi,
    chi_table,
    classify_order,
    factorize,
    is_prime_power,
    totient,
)


class ClaimResult(NamedTuple):
    claim: str
    statement: str
    instances: int
    passed: bool
    counterexample: str | None


class VerificationReport(NamedTuple):
    suite: str
    claims: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_json(self) -> dict:
        return {**self._asdict(), "claims": [c._asdict() for c in self.claims],
                "passed": self.passed}


def _claim(claim_id: str, statement: str, instances) -> ClaimResult:
    """Drain an iterator of (ok, description) pairs into a ClaimResult.

    A claim with no instances checked nothing, so it does not pass.
    """
    count = 0
    for ok, description in instances:
        count += 1
        if not ok:
            return ClaimResult(claim_id, statement, count, False, description)
    if not count:
        return ClaimResult(claim_id, statement, 0, False,
                           "no instances up to the bound")
    return ClaimResult(claim_id, statement, count, True, None)


# ── chi ──────────────────────────────────────────────────────────────────────

def suite_chi(max_n: int | None = None) -> VerificationReport:
    bound = max_n or 200

    def clique_instances():
        for n in range(1, bound + 1):
            gr = power_graph(construct_group(f"Z{n}")).graph
            res = clique_number(gr)
            got = res.size
            mask = sum(1 << v for v in set(res.witness))
            if not (len(res.witness) == mask.bit_count() == got
                    and all(mask & ~gr.adj[v] == 1 << v for v in res.witness)):
                yield False, f"n={n}: witness {res.witness} is not a clique of size {got}"
                continue
            yield got == chi(n), f"n={n}: clique={got}, chi={chi(n)}"

    def recursion_instances():
        table = chi_table(bound)
        for n in range(2, bound + 1):
            p = factorize(n).primes[0]
            ok = table[n] == totient(n) + table[n // p] and table[n] == chi(n)
            yield ok, f"n={n}"

    def bounds_instances():
        for n in range(2, bound + 1):
            c = chi(n)
            if not (c <= n and (c == n) == is_prime_power(n)):
                yield False, f"n={n}: chi={c}"
                continue
            oc = classify_order(n)
            yield (c == n - 1) == oc.is_twice_odd_prime, f"n={n}: chi={c}"

    claims = (
        _claim("chi-clique-oracle",
               f"clique number of the cyclic power graph equals chi(n), n <= {bound}",
               clique_instances()),
        _claim("chi-recursion",
               f"chi(n) = phi(n) + chi(n/p) for the least prime p, n <= {bound}",
               recursion_instances()),
        _claim("chi-bounds",
               f"chi(n) <= n with equality iff prime power; chi(n) = n-1 iff "
               f"twice an odd prime; 2 <= n <= {bound}",
               bounds_instances()),
    )
    return VerificationReport("chi", claims)


# ── theta-kn ─────────────────────────────────────────────────────────────────

def suite_theta_kn(max_n: int | None = None) -> VerificationReport:
    bound = max_n or 40
    search_bound = min(bound, 60)
    full_bound = min(bound, 16)

    def search_instances():
        for n in range(2, search_bound + 1):
            target = theta_complete(n)
            kn = complete_graph(n)
            first = next((m for m in range(n, target + 1)
                          if embeds(kn, construct_group(f"Z{m}")) is not None), None)
            # first is the least order that hosts K_n, so first == target
            # also proves that no order from n to target - 1 does
            yield first == target, f"n={n}: search={first}, formula={target}"

    def full_catalog_instances():
        for n in range(2, full_bound + 1):
            res = theta_search(complete_graph(n))
            value = res.value if res else None
            ok = value == theta_complete(n) and res.exact
            yield ok, f"n={n}: search={value}, formula={theta_complete(n)}"

    def plus_one_instances():
        for n in range(2, bound + 1):
            if is_prime_power(n):
                continue
            closed = theta_kn_equals_nplus1(n)
            yield closed == (theta_complete(n) == n + 1), f"n={n}"

    claims = (
        _claim("theta-kn-cyclic-search",
               f"scanning cyclic groups reproduces the closed form, n <= {search_bound}",
               search_instances()),
        _claim("theta-kn-full-search",
               f"full catalog search never beats the cyclic answer, n <= {full_bound}",
               full_catalog_instances()),
        _claim("theta-kn-plus-one",
               f"theta(K_n) = n+1 iff n+1 is a prime power or twice an odd "
               f"prime, non-prime-power n <= {bound}",
               plus_one_instances()),
    )
    return VerificationReport("theta-kn", claims)


# ── kst ──────────────────────────────────────────────────────────────────────

def suite_kst(max_n: int | None = None) -> VerificationReport:
    bound = max_n or 15

    def pairs():
        for n in range(4, bound + 1):
            for s in range(2, n // 2 + 1):
                yield s, n - s

    def criterion_instances():
        for s, t in pairs():
            pattern = complete_bipartite(s, t)
            found = any(embeds(pattern, g) is not None
                        for g in catalog_for_order(s + t).groups)
            yield found == is_kst_power_critical(s, t), \
                f"(s,t)=({s},{t}): search={found}, criterion={is_kst_power_critical(s, t)}"

    def classification_instances():
        for k in (3, 4):
            n = 2 ** k
            got = sorted(g.label for g in kst_optimal_groups(2, n - 2).groups)
            expected = sorted([f"Z{n}", f"Q{n}"])
            yield got == expected, f"(2,{n - 2}): {got}"
            got = [g.label for g in kst_optimal_groups(3, n - 3).groups]
            yield got == [f"Z{n}"], f"(3,{n - 3}): {got}"

    def constructive_instances():
        for s, t in pairs():
            if not is_kst_power_critical(s, t):
                continue
            w = embed_kst_cyclic(s, t)
            host = power_graph(construct_group(f"Z{s + t}")).graph
            yield check_embedding(complete_bipartite(s, t), host, w.as_dict()), \
                f"(s,t)=({s},{t})"

    claims = (
        _claim("kst-criterion",
               f"an order-(s+t) group hosts the complete bipartite graph iff "
               f"phi(s+t) >= s-1, for 2 <= s <= t, s+t <= {bound}",
               criterion_instances()),
        _claim("kst-optimal-classification",
               "optimal groups for (2, 2^k-2) are the cyclic and quaternion "
               "2-groups, and for (3, 2^k-3) cyclic only, k = 3, 4",
               classification_instances()),
        _claim("kst-constructive-embedding",
               f"the generators-and-identity construction yields a valid "
               f"embedding for every critical pair with s+t <= {bound}",
               constructive_instances()),
    )
    return VerificationReport("kst", claims)


# ── matching ─────────────────────────────────────────────────────────────────

def suite_matching(max_n: int | None = None) -> VerificationReport:
    bound = max_n or 64

    def perfect_instances():
        for m in range(2, bound + 1, 2):
            gr = power_graph(construct_group(f"Z{m}")).graph
            yield maximum_matching(gr).is_perfect(m), f"Z{m}"
        for m in range(8, bound + 1, 4):
            gr = power_graph(construct_group(f"Dic{m // 4}")).graph
            yield maximum_matching(gr).is_perfect(m), f"Dic{m // 4}"

    def dihedral_instances():
        for n in range(2, min(50, bound) + 1):
            gr = power_graph(construct_group(f"D{2 * n}")).graph
            got = maximum_matching(gr).size
            yield got < n, f"D{2 * n}: matching size {got}"

    def odd_instances():
        for m in range(1, min(63, bound) + 1, 2):
            for g in catalog_for_order(m).groups:
                npm = near_perfect_matching_odd(g)
                gr = power_graph(g).graph
                try:
                    npm.validate(gr)
                except ValueError as exc:
                    yield False, f"{g.label}: {exc}"
                    continue
                ok = npm.is_near_perfect(m) and 0 not in npm.covered
                if ok and m > 1:
                    w = embeds(apex_one_factor((m - 1) // 2), g)
                    ok = w is not None
                yield ok, g.label

    def engine_instances():
        for m in range(1, 15):
            for g in catalog_for_order(m).groups:
                gr = power_graph(g).graph
                a = maximum_matching(gr).size
                b = maximum_matching_bruteforce(gr).size
                yield a == b, f"{g.label}: blossom={a}, brute={b}"
        rng = random.Random(1105)
        for trial in range(100):
            n = rng.randrange(1, 15)
            p = rng.choice((0.15, 0.35, 0.6, 0.85))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p]
            gr = SimpleGraph(n, edges)
            a = maximum_matching(gr).size
            b = maximum_matching_bruteforce(gr).size
            yield a == b, f"random trial {trial}: blossom={a}, brute={b}"

    claims = (
        _claim("matching-cyclic-dicyclic-perfect",
               f"cyclic and dicyclic power graphs have perfect matchings, "
               f"orders <= {bound}",
               perfect_instances()),
        _claim("matching-dihedral-none",
               f"dihedral power graphs never reach a perfect matching, "
               f"half-order 2 <= n <= {min(50, bound)}",
               dihedral_instances()),
        _claim("matching-odd-near-perfect",
               f"odd-order groups admit the inverse-pairing near-perfect "
               f"matching and the apex embedding, orders <= {min(63, bound)}",
               odd_instances()),
        _claim("matching-engines-agree",
               "blossom and brute-force engines agree on catalog power "
               "graphs and 100 seeded random graphs, n <= 14",
               engine_instances()),
    )
    return VerificationReport("matching", claims)


# ── thm44 ────────────────────────────────────────────────────────────────────

def suite_thm44(max_n: int | None = None) -> VerificationReport:
    bound = max_n or 64

    def equivalence_instances():
        for m in range(2, bound + 1, 2):
            for g in catalog_for_order(m).groups:
                # the certificate is checked again from the report alone: a
                # "yes" cover must rebuild the reported perfect matching, and
                # a "no" barrier must leave too many odd components
                try:
                    report = check_theorem44(g)
                    if report.optimal:
                        ok = matching_from_path_cover(
                            g, ClassEdges(g), report.cover) == report.matching
                    else:
                        ok = barrier_surplus(g, report.barrier) > 0
                except (ValueError, AssertionError) as exc:
                    yield False, f"{g.label}: {exc}"
                else:
                    kind = "cover" if report.optimal else "barrier"
                    yield ok, f"{g.label}: the {kind} does not check"

    claims = (
        _claim("thm44-equivalence",
               f"every even-order group <= {bound} gets a checked certificate: "
               f"a yes carries an inverse-closed path cover that rebuilds its "
               f"perfect matching, a no a barrier S, a union of cyclic "
               f"classes, whose removal leaves more than |S| odd components",
               equivalence_instances()),
    )
    return VerificationReport("thm44", claims)


# ── degrees ──────────────────────────────────────────────────────────────────

def suite_degrees(max_n: int | None = None) -> VerificationReport:
    bound = max_n or 64

    def degree_instances():
        for m in range(2, bound + 1):
            for g in catalog_for_order(m).groups:
                got = max_nonidentity_degree(g).holds
                expected = has_universal_nonidentity(g)
                yield got == expected, f"{g.label}: degree test {got}, closed form {expected}"

    claims = (
        _claim("degrees-universal-vertex",
               f"a non-identity vertex of degree |G|-1 exists iff the group "
               f"is cyclic or generalized quaternion, orders 2..{bound}",
               degree_instances()),
    )
    return VerificationReport("degrees", claims)


_SUITES = {
    "chi": suite_chi,
    "theta-kn": suite_theta_kn,
    "kst": suite_kst,
    "matching": suite_matching,
    "thm44": suite_thm44,
    "degrees": suite_degrees,
}


def verify_suite(name: str, max_n: int | None = None,
                 progress=None) -> VerificationReport:
    """Run one named suite (or 'all') and return its report; max_n=None
    keeps each suite's default bound."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    if max_n is not None and max_n < 1:
        raise ValueError(f"sweep bound must be >= 1, got {max_n}")
    stream = progress if progress is not None else sys.stderr
    if name == "all":
        claims = [c for sub in _SUITES
                  for c in verify_suite(sub, max_n, progress).claims]
        return VerificationReport("all", tuple(claims))
    start = time.monotonic()
    report = _SUITES[name](max_n)
    print(f"# suite {name}: {len(report.claims)} claims in "
          f"{time.monotonic() - start:.2f}s", file=stream)
    return report
