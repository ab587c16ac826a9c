"""The trial division `hmvol.arith.factor` replaced, kept as a test
reference: every candidate up to sqrt(n), so a 62-bit semiprime takes
minutes.  The package trial-divides only up to a small bound and splits what
is left with Brent's rho.
"""

from __future__ import annotations


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n >= 1, primes increasing."""
    pairs, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            pairs.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)
