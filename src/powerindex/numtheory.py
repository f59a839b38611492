"""Integer arithmetic for power-graph computations.

Covers factorization by trial division, the Euler totient, the totient
chain sum chi, the smallest prime power rho, the prime-power and
twice-an-odd-prime predicates, and the closed forms they give for
patterns: the power index of K_n (``theta_complete``), when it is n + 1,
and the totient criterion for K_{s,t}.  chi(n) sums phi over the maximal
divisor chain of n obtained by repeatedly removing the least prime
factor; it equals the clique number of the power graph of the cyclic
group of order n, which is what makes it worth a name here.
"""

from __future__ import annotations

from math import isqrt

# Trial division answers below this in under a second, while a 19-digit
# prime ran past 20 s, so it divides only up to the bound's square root.
FACTOR_BOUND = 10**13


def _require_positive(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"expected a positive integer, got {n!r}")


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization ((p1, r1), (p2, r2), ...) with p1 < p2 < ..., by
    trial division up to r = isqrt(``FACTOR_BOUND``), about 0.1 s for a
    12-digit prime.  A part left over is prime if below (r + 1)^2, so each
    n below that is factored; an n leaving a larger part raises ValueError."""
    _require_positive(n)
    factors = []
    m, d = n, 2
    stop = isqrt(min(m, FACTOR_BOUND))
    while d <= stop:
        if m % d == 0:
            r = 0
            while m % d == 0:
                m //= d
                r += 1
            factors.append((d, r))
            stop = isqrt(min(m, FACTOR_BOUND))
        d += 1 if d == 2 else 2
    if m >= (top := isqrt(FACTOR_BOUND) + 1) ** 2:
        raise ValueError(f"cannot factor {n}: trial division leaves {m}, not below {top}^2")
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def totient(n: int) -> int:
    """Euler totient phi(n); phi(1) = 1."""
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def chi(n: int) -> int:
    """Totient sum over the maximal divisor chain of n, read from one
    factorization.  The chain removes the least prime factor at each step,
    so read from 1 upwards it multiplies in the primes from the largest
    down: phi gains a factor p - 1 at a new prime and p at a repeated one.

    chi(1) == 1 by convention: the chain collapses to the single term phi(1).
    """
    total = phi = 1
    for p, r in reversed(factorize(n)):
        phi *= p - 1
        total += phi
        for _ in range(r - 1):
            phi *= p
            total += phi
    return total


def chi_table(limit: int) -> list[int]:
    """chi(n) for 0 <= n <= limit via a least-prime-factor sieve.

    Independent of chi()'s factorization path; index 0 holds 0.  Intended
    for the large verification sweeps.
    """
    _require_positive(limit)
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if spf[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    table = [0] * (limit + 1)
    if limit >= 1:
        table[1] = 1
    for n in range(2, limit + 1):
        table[n] = phi[n] + table[n // spf[n]]
    return table


def is_prime_power(n: int) -> bool:
    """True iff n = p^k with p prime and k >= 1; false for n = 1."""
    return len(factorize(n)) == 1


def rho(n: int) -> int:
    """Smallest prime power q >= n."""
    _require_positive(n)  # max(n, 2) below would hide n < 1 from factorize
    q = max(n, 2)
    while not is_prime_power(q):
        q += 1
    return q


def is_twice_odd_prime(n: int) -> bool:
    """True iff n = 2p with p an odd prime."""
    f = factorize(n)
    return len(f) == 2 and f[0] == (2, 1) and f[1][1] == 1


# ── closed forms for complete and complete bipartite patterns ────────────────

def theta_complete(n: int) -> int:
    """Power index of the complete graph on n vertices: the least k whose
    cyclic power graph holds a k-clique of size n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = n
    while chi(k) < n:
        k += 1
    return k


def theta_kn_equals_nplus1(n: int) -> bool:
    """Whether the complete graph on n vertices has power index n + 1.

    Defined for n that is not a prime power; holds exactly when n + 1 is a
    prime power or twice an odd prime.  Verify's theta-kn-plus-one claim
    checks the closed form against the scanning definition.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if is_prime_power(n):
        raise ValueError(f"{n} is a prime power; the criterion excludes it")
    return is_prime_power(n + 1) or is_twice_odd_prime(n + 1)


def is_kst_power_critical(s: int, t: int) -> bool:
    """Totient criterion for the complete bipartite graph on s + t vertices."""
    if not 2 <= s <= t:
        raise ValueError("requires 2 <= s <= t (stars are always critical)")
    return totient(s + t) >= s - 1
