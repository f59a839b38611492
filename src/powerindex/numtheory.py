"""Integer arithmetic for power-graph computations.

Covers factorization by trial division, the Euler totient, the totient
chain sum chi, the smallest prime power rho, and order-classification
flags.  chi(n) sums phi over the maximal divisor chain of n obtained by
repeatedly removing the least prime factor; it equals the clique number
of the power graph of the cyclic group of order n, which is what makes
it worth a name here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Factorization:
    """Ordered prime factorization: ((p1, r1), (p2, r2), ...) with p1 < p2 < ..."""

    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


@dataclass(frozen=True)
class OrderClass:
    """Classification flags for a group order n."""

    is_prime_power: bool
    is_twice_odd_prime: bool


def _require_positive(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"expected a positive integer, got {n!r}")


def factorize(n: int) -> Factorization:
    """Prime factorization by trial division; fine for inputs up to ~10^7."""
    _require_positive(n)
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            r = 0
            while n % d == 0:
                n //= d
                r += 1
            factors.append((d, r))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return Factorization(tuple(factors))


def totient(n: int) -> int:
    """Euler totient phi(n); phi(1) = 1."""
    _require_positive(n)
    result = n
    for p, _ in factorize(n).factors:
        result -= result // p
    return result


_chi_memo: dict[int, int] = {1: 1}


def chi(n: int) -> int:
    """Totient sum over the maximal divisor chain of n, by the recursion
    chi(n) = phi(n) + chi(n / p) with p the least prime factor of n,
    memoized.

    chi(1) == 1 by convention: the chain collapses to the single term phi(1).
    """
    _require_positive(n)
    todo = []
    while n not in _chi_memo:
        todo.append(n)
        n //= factorize(n).factors[0][0]
    value = _chi_memo[n]
    for m in reversed(todo):
        value += totient(m)
        _chi_memo[m] = value
    return value


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
    _require_positive(n)
    return len(factorize(n).factors) == 1


def rho(n: int) -> int:
    """Smallest prime power q >= n."""
    _require_positive(n)
    q = max(n, 2)
    while not is_prime_power(q):
        q += 1
    return q


def classify_order(n: int) -> OrderClass:
    """The two flags the closed-form criteria care about.

    n = 1 reports is_prime_power = False.
    """
    _require_positive(n)
    f = factorize(n)
    prime_power = len(f.factors) == 1
    twice_odd_prime = (
        len(f.factors) == 2 and f.factors[0] == (2, 1) and f.factors[1][1] == 1
    )
    return OrderClass(prime_power, twice_odd_prime)
