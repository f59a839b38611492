"""Arithmetic layer: factorization, totient, chi, rho, classification."""

from __future__ import annotations

import math

import pytest

from powerindex import numtheory as nt

from oracles import chi_chain_brute, is_prime, is_prime_power_brute, phi_brute, rho_brute

# Values worked out by hand or with the brute oracles, frozen here.
CHI_KNOWN = {
    1: 1,
    2: 2,
    6: 5,       # phi(6)+phi(3)+phi(1) = 2+2+1
    12: 9,      # chain 12,6,3,1 -> 4+2+2+1
    36: 27,     # chain 36,18,9,3,1 -> 12+6+6+2+1
    93: 91,     # chain 93,31,1 -> 60+30+1
    100: 85,    # chain 100,50,25,5,1 -> 40+20+20+4+1
}

RHO_KNOWN = {1: 2, 2: 2, 8: 8, 14: 16, 34: 37, 91: 97, 200: 211}


def test_factorize_reconstructs():
    for n in range(1, 2000):
        f = nt.factorize(n)
        assert math.prod(p**r for p, r in f) == n
        assert [p for p, _ in f] == sorted({p for p, _ in f})
        assert all(r >= 1 for _, r in f)
    # a tuple of (prime, exponent) pairs, which no caller can change
    assert nt.factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert type(f) is tuple and all(type(pair) is tuple for pair in f)
    with pytest.raises(TypeError):
        f[0] = (2, 1)


def test_factorize_rejects_nonpositive():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            nt.factorize(bad)
    with pytest.raises(ValueError):
        nt.chi(0)


def test_totient_against_gcd_count():
    for n in range(1, 300):
        assert nt.totient(n) == phi_brute(n), n


def test_totient_known():
    assert nt.totient(1) == 1
    assert nt.totient(12) == 4
    for p in (2, 3, 5, 7, 97, 991):
        assert nt.totient(p) == p - 1


def test_chi_known_values():
    for n, expected in CHI_KNOWN.items():
        assert nt.chi(n) == expected, n


def test_chi_prime_powers():
    for q in (2, 3, 4, 8, 9, 16, 27, 125, 243, 1024):
        assert nt.chi(q) == q


def test_chi_against_brute_chain():
    for n in range(1, 300):
        assert nt.chi(n) == chi_chain_brute(n), n


def test_chi_table_matches_chi():
    limit = 10**5
    table = nt.chi_table(limit)
    for n in range(1, limit + 1):
        assert table[n] == nt.chi(n), n


def test_chi_past_the_sieve():
    # exact values where no table reaches: a 12-digit prime, twice it, and
    # a product p*q of primes p < q, whose chain is pq, q, 1
    big = 999999999989
    assert nt.factorize(big) == ((big, 1),)
    assert nt.chi(big) == big
    assert nt.chi(2 * big) == 2 * big - 1
    p, q = 1000003, big
    assert nt.factorize(p * q) == ((p, 1), (q, 1))
    assert nt.chi(p * q) == p * (q - 1) + 1


def test_factorize_stops_at_the_bound():
    # trial division runs to 3162277, so a part left over is prime below
    # 3162278^2: every n below that is factored, and a larger n when the
    # part left is below it
    assert nt.FACTOR_BOUND == 10**13
    assert nt.factorize(10**13) == ((2, 13), (5, 13))
    assert nt.factorize(2 * 9999999999971) == ((2, 1), (9999999999971, 1))
    assert nt.factorize(10000000000037) == ((10000000000037, 1),)
    assert nt.factorize(3 * 10000000000037) == ((3, 1), (10000000000037, 1))
    # the primes on either side of 3162278^2 = 10000002149284
    assert nt.factorize(10000002149227) == ((10000002149227, 1),)
    for n in (10000002149323, 3 * 10000002149323, 10**18 + 3):
        with pytest.raises(ValueError, match="not below 3162278\\^2"):
            nt.factorize(n)


def test_chi_recursion_bound_and_near_miss():
    # recursion, the <= n bound with its equality case, and the n-1 case
    for n in range(2, 2000):
        p = nt.factorize(n)[0][0]
        assert nt.chi(n) == nt.totient(n) + nt.chi(n // p)
        assert nt.chi(n) <= n
        assert (nt.chi(n) == n) == nt.is_prime_power(n)
        assert (nt.chi(n) == n - 1) == nt.is_twice_odd_prime(n)


def test_chi_one_convention():
    # chain collapses to phi(1); 1 is deliberately not a prime power, so the
    # equality-iff-prime-power reading starts at n = 2
    assert nt.chi(1) == 1
    assert not nt.is_prime_power(1)


def test_rho_known_and_brute():
    for n, expected in RHO_KNOWN.items():
        assert nt.rho(n) == expected, n
    for n in range(1, 500):
        assert nt.rho(n) == rho_brute(n), n


def test_rho_window_has_no_prime_powers():
    for n in range(1, 500):
        q = nt.rho(n)
        assert q >= n
        assert nt.is_prime_power(q)
        for m in range(n, q):
            assert not nt.is_prime_power(m), (n, m)


def test_is_prime_power_against_brute():
    for n in range(1, 2000):
        assert nt.is_prime_power(n) == is_prime_power_brute(n), n


def test_order_predicates():
    assert nt.is_twice_odd_prime(6) and not nt.is_prime_power(6)
    assert nt.is_prime_power(16)
    assert not nt.is_prime_power(12) and not nt.is_twice_odd_prime(12)
    assert not nt.is_prime_power(1) and not nt.is_twice_odd_prime(1)
    assert nt.is_prime_power(4)
    assert not nt.is_twice_odd_prime(4)  # 2*2 is not twice an odd prime
    assert nt.is_twice_odd_prime(94)
    with pytest.raises(ValueError):
        nt.is_twice_odd_prime(0)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)
    assert is_prime(7919)
    assert not is_prime(7917)
