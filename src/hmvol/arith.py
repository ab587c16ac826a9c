"""Exact integer and rational arithmetic: factorization, Kronecker symbols,
Bernoulli numbers and polynomials.

Everything is pure Python over ``int`` and ``fractions.Fraction``, so all
values are arbitrary precision and all equalities are exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb, gcd, isqrt, prod


# trial division up to this bound factors every n < 1000^2 alone, every
# conductor of the volume path (f <= 3188) among them
_TRIAL_BOUND = 1000


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of a positive integer, primes increasing:
    trial division up to _TRIAL_BOUND, then is_prime and Brent's rho on what
    is left (a cofactor past is_prime's limit is refused with ValueError)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need a positive integer")
    pairs, p = [], 2
    while p * p <= n and p < _TRIAL_BOUND:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            pairs.append((p, e))
        p += 1 if p == 2 else 2
    if p * p > n:  # what is left is 1 or a prime
        return tuple(pairs + [(n, 1)] if n > 1 else pairs)
    rest, primes = [n], []
    while rest:  # every prime factor of what is left exceeds the bound
        m = rest.pop()
        if p * p > m or is_prime(m):
            primes.append(m)
        else:
            q = _rho(m)
            rest += [q, m // q]
    return tuple(pairs) + tuple((q, primes.count(q)) for q in sorted(set(primes)))


def _rho(n: int) -> int:
    """A proper factor of the odd composite n, by Brent's variant of Pollard's
    rho (Brent, BIT 20, 1980): f(y) = y^2 + c mod n from y = 2, the
    differences multiplied in batches of 128 before each gcd."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g, k = gcd(q, n), k + 128
            r *= 2
        if g == n:  # the batch overshot: step again from its start, one gcd a step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def ratio(num: int, den: int) -> Fraction:
    """num / den (both nonzero) as a Fraction, the power of 2 they share shifted
    out first: the gcd that normalizes a Fraction costs the product of both
    sizes, and a product of factorials over a power of 2 shares thousands."""
    t = min((num & -num).bit_length(), (den & -den).bit_length()) - 1
    return Fraction(num >> t, den >> t)


def product(xs: list[int]) -> int:
    """prod(xs), halves first, so that large factors are multiplied in pairs
    of like size (math.prod adds one factor at a time)."""
    return prod(xs) if len(xs) < 8 else product(xs[:len(xs) // 2]) * product(xs[len(xs) // 2:])


def is_squarefree(n: int) -> bool:
    """Exact for 1 <= n <= 2^64, else ValueError.  Once the primes p, p^3 <= n, are
    divided out, what is left has at most two prime factors: squarefree unless a square."""
    if not 1 <= n <= 2**64:
        raise ValueError(f"squarefree test needs 1 <= n <= 2^64, got {n}")
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1 if p == 2 else 2
    return n == 1 or isqrt(n) ** 2 != n


# Miller-Rabin to the first 13 prime bases is exact below _MR_BOUND
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n at or above _MR_BOUND is refused with
    ValueError rather than answered by a probable-prime test."""
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large for an exact primality test (limit {_MR_BOUND})")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41, so none up to sqrt(n)
        return True
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion; p is
    not checked (the callers pass primes of `factor` or of the field)."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def kronecker_prime(D: int, p: int) -> int:
    """Kronecker symbol (D/p) at a prime p: 0 when p divides D, the mod-8 rule
    at 2, and Euler's criterion (legendre_symbol) at an odd p."""
    if p != 2:
        return legendre_symbol(D, p)
    return 0 if D % 2 == 0 else 1 if D % 8 in (1, 7) else -1


def kronecker(D: int, m: int) -> int:
    """Kronecker symbol (D/m) for a fundamental discriminant D and m >= 1:
    completely multiplicative in m, kronecker_prime at each prime.  D is not
    checked: it is the discriminant of a field that make_field built; `factor`
    refuses m < 1."""
    return prod(kronecker_prime(D, p) ** e for p, e in factor(m))


# Bernoulli numbers, B1 = -1/2 convention.  A longer table replaces the memo
# whole and is never changed after, so a caller never reads a half-built
# one, with or without threads.
_BERNOULLI: tuple[Fraction, ...] = (Fraction(1),)


def _tangent_numbers(n: int) -> list[int]:
    """The tangent numbers T_j = tan^(2j-1)(0), j = 1..n, at T[j], by the
    integer recurrence of Brent and Harvey ("Fast computation of Bernoulli,
    Tangent and Secant numbers", 2013), in place in one list."""
    T = [0, 1] + [0] * (n - 1)
    for j in range(2, n + 1):
        T[j] = (j - 1) * T[j - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            T[j] = (j - i) * T[j - 1] + (j - i + 2) * T[j]
    return T


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, exact: B_1 = -1/2, B_k = 0 for odd k >= 3, and
    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)) from the tangent numbers T_j.
    A k past the table rebuilds it up to max(k, twice its length), so reading
    B_0..B_k in rising order rebuilds it O(log k) times."""
    global _BERNOULLI
    if k < 0:
        raise ValueError("bernoulli index must be nonnegative")
    table = _BERNOULLI
    if k >= len(table):
        top = max(k, 2 * len(table))
        T = _tangent_numbers(top // 2)
        table = [Fraction(1), Fraction(-1, 2)]
        for i in range(2, top + 1):
            j = i // 2
            table.append(Fraction(0) if i % 2 else
                         Fraction((-1) ** (j - 1) * 2 * j * T[j], 4**j * (4**j - 1)))
        _BERNOULLI = table = tuple(table)
    return table[k]


def bernoulli_poly(k: int, x) -> Fraction:
    """Bernoulli polynomial B_k(x) = sum_j C(k,j) B_j x^(k-j) at a rational x."""
    if k < 0:
        raise ValueError("bernoulli_poly index must be nonnegative")
    x = Fraction(x)
    return sum((comb(k, j) * bernoulli(j) * x ** (k - j) for j in range(k + 1)), Fraction(0))
