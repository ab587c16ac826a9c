import sys
import threading
import time
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmvol import arith
from hmvol.arith import (bernoulli, bernoulli_poly, factor, is_prime, is_squarefree, kronecker,
                         kronecker_prime, legendre_symbol)
from hmvol.quadfield import make_field
from bernoulli_reference import bernoulli_numbers
import factor_reference

FUNDAMENTAL = [-3, -4, -7, -8, -11, -15, -20, -23, -24, -31, -35, -39, -43, -47, -51, -52]


def brute_legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if a in {x * x % p for x in range(1, p)} else -1


def test_kronecker_examples():
    assert kronecker(-3, 3) == 0
    assert kronecker(-3, 2) == -1
    assert kronecker(-7, 2) == 1
    assert kronecker(-3, 5) == -1


def test_kronecker_at_two_matches_minimal_polynomial_splitting():
    # (-3/2): eps has minimal polynomial x^2 - x + 1, irreducible mod 2 -> inert
    roots = [x for x in range(2) if (x * x - x + 1) % 2 == 0]
    assert not roots and kronecker(-3, 2) == -1
    # (-7/2): x^2 - x + 2 has the root 0 mod 2 -> split
    roots = [x for x in range(2) if (x * x - x + 2) % 2 == 0]
    assert roots and kronecker(-7, 2) == 1
    # every field with d < 200: x^2 - trace_eps x + norm_eps has 2, 1 or 0
    # roots mod 2 as 2 splits, ramifies or is inert
    for d in range(1, 200, 2):
        if is_squarefree(d):
            F = make_field(d)
            roots = sum((x * x - F.trace_eps * x + F.norm_eps) % 2 == 0 for x in range(2))
            assert kronecker_prime(F.D, 2) == kronecker(F.D, 2) == roots - 1, d


def test_kronecker_against_brute_quadratic_residues():
    for D in FUNDAMENTAL:
        for p in [3, 5, 7, 11, 13, 17, 19, 23]:
            assert kronecker(D, p) == brute_legendre(D, p), (D, p)


@settings(max_examples=200)
@given(st.sampled_from(FUNDAMENTAL), st.integers(1, 400), st.integers(1, 400))
def test_kronecker_completely_multiplicative(D, m1, m2):
    assert kronecker(D, m1 * m2) == kronecker(D, m1) * kronecker(D, m2)


def test_kronecker_zero_iff_divides():
    primes = [p for p in range(2, 101) if all(p % q for q in range(2, p))]
    for D in FUNDAMENTAL:
        for p in primes:
            assert (kronecker(D, p) == 0) == ((-D) % p == 0), (D, p)


def test_legendre_symbol_matches_brute():
    for p in [3, 5, 7, 11, 13]:
        for a in range(-10, 20):
            assert legendre_symbol(a, p) == brute_legendre(a, p)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_recurrence_self_consistency():
    for k in range(1, 25):
        assert sum(comb(k + 1, j) * bernoulli(j) for j in range(k + 1)) == 0


def test_bernoulli_from_tangent_numbers_matches_the_recurrence(monkeypatch):
    want = bernoulli_numbers(300)
    # from a cold table: a read past the table rebuilds it to at least twice
    # its length, so B_0..B_300 in rising order take 8 builds (up to B_2,
    # B_6, ..., B_510); then a cold B_300 builds exactly B_0..B_300
    builds = []
    tangent_numbers = arith._tangent_numbers
    monkeypatch.setattr(arith, "_tangent_numbers", lambda n: builds.append(n) or tangent_numbers(n))
    monkeypatch.setattr(arith, "_BERNOULLI", (Fraction(1),))
    assert [bernoulli(k) for k in range(301)] == want
    assert len(builds) <= 10
    monkeypatch.setattr(arith, "_BERNOULLI", (Fraction(1),))
    assert bernoulli(300) == want[300]
    assert arith._BERNOULLI == tuple(want)


def test_bernoulli_poly_examples():
    assert bernoulli_poly(1, Fraction(1, 4)) == Fraction(-1, 4)
    assert bernoulli_poly(3, Fraction(1, 3)) == Fraction(1, 27)
    for k in range(10):
        assert bernoulli_poly(k, 0) == bernoulli(k)
    with pytest.raises(ValueError):
        bernoulli_poly(-1, 0)


@settings(max_examples=100)
@given(st.integers(1, 12),
       st.fractions(min_value=-4, max_value=4, max_denominator=40))
def test_bernoulli_poly_difference_identity(k, x):
    assert bernoulli_poly(k, x + 1) - bernoulli_poly(k, x) == k * x ** (k - 1)


def test_factor_examples():
    assert factor(15) == ((3, 1), (5, 1))
    assert factor(1) == ()
    assert factor(44) == ((2, 2), (11, 1))
    # past the trial bound: rho may split off a composite, which is split again
    assert factor(1009**3) == ((1009, 3),)
    assert factor(1009 * 1013 * 1019 * 2) == ((2, 1), (1009, 1), (1013, 1), (1019, 1))
    assert factor(1013**2 * (2**31 - 1)) == ((1013, 2), (2**31 - 1, 1))
    with pytest.raises(ValueError):
        factor(0)


def test_factor_roundtrip_and_order():
    for n in range(1, 600):
        pairs = factor(n)
        assert prod(p**e for p, e in pairs) == n
        primes = [p for p, _ in pairs]
        assert primes == sorted(set(primes)) and all(e >= 1 for _, e in pairs)
        assert all(is_prime(p) for p in primes)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**7 - 1))
def test_factor_matches_the_trial_division_reference(n):
    assert factor(n) == factor_reference.factor(n)


def _prime_at_most(n):
    while not is_prime(n):
        n -= 1
    return n


@settings(max_examples=40, deadline=None)
@given(*[st.integers(2, 2**32 - 1).map(_prime_at_most)] * 2)
def test_factor_splits_products_of_two_primes(p, q):
    # past the trial bound the cofactor is split by Brent's rho
    assert factor(p * q) == (((p, 2),) if p == q else ((min(p, q), 1), (max(p, q), 1)))


def test_factor_splits_a_62_bit_semiprime_promptly():
    # trial division to sqrt(n) took 270 s here
    start = time.monotonic()
    assert factor((2**31 - 1) * (2**31 - 19)) == ((2**31 - 19, 1), (2**31 - 1, 1))
    assert time.monotonic() - start < 5


def test_every_conductor_is_factored_by_trial_division(monkeypatch):
    # the volume path factors f <= 3188 (d < 800), which must cost no more
    # than trial division did: rho is never reached there
    def refuse(n):
        raise AssertionError(f"rho reached for {n}")
    monkeypatch.setattr(arith, "_rho", refuse)
    for n in range(1, 3189):
        assert factor(n) == factor_reference.factor(n), n


def test_is_prime_agrees_with_trial_division():
    for n in range(-2, 10**5):
        assert is_prime(n) == (n >= 2 and all(n % p for p in range(2, int(n**0.5) + 1))), n


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the first 4 and the first 9 prime bases
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and not is_prime(2**67 - 1) and not is_prime(2**79 - 1)


def test_is_prime_refuses_numbers_past_the_exact_range():
    assert not is_prime(arith._MR_BOUND - 1)
    with pytest.raises(ValueError, match="too large"):
        is_prime(arith._MR_BOUND)


def test_bernoulli_memo_safe_under_concurrent_readers(monkeypatch):
    # eight threads fill a cold memo at once, switching every microsecond;
    # a table extended in place by two threads holds duplicate entries
    want = [bernoulli(k) for k in range(61)]
    monkeypatch.setattr(arith, "_BERNOULLI", (Fraction(1),))
    results = []
    threads = [threading.Thread(target=lambda: results.append(bernoulli(60)))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [want[60]] * 8
    assert [bernoulli(k) for k in range(61)] == want


def test_is_squarefree_agrees_with_factor():
    for n in range(1, 5000):
        assert is_squarefree(n) == all(e == 1 for _, e in factor(n)), n


def test_is_squarefree_decides_cofactors_past_the_cube_root():
    # primes above (2^64)^(1/3), so the trial division never reaches them
    p, q = 2**31 - 1, 2**32 - 5
    assert is_squarefree(p * q) and is_squarefree(2**61 - 1)
    assert not is_squarefree(p * p) and not is_squarefree(3 * p * p)
    assert not is_squarefree(2**64)
    for n in (0, 2**64 + 1):
        with pytest.raises(ValueError, match="2\\^64"):
            is_squarefree(n)
