"""The imaginary quadratic field Q(sqrt(-d)) for odd squarefree d: discriminant,
ring generator, conductor, and the splitting behaviour of rational primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt

from .arith import is_squarefree, kronecker, kronecker_prime


@dataclass(frozen=True)
class FieldData:
    """Invariants of Q(sqrt(-d)): minimal polynomial of eps is
    x^2 - trace_eps*x + norm_eps, of discriminant D.  The ring O = Z + Z.eps has
    eps = (1 + sqrt(-d))/2 (trace_eps = 1) when d = 3 (mod 4) and eps = sqrt(-d)
    (trace_eps = 0) when d = 1 (mod 4)."""

    d: int
    D: int
    f: int  # conductor, |D|
    trace_eps: int
    norm_eps: int


def make_field(d: int) -> FieldData:
    """Build FieldData for odd squarefree d >= 1; anything else is rejected."""
    if d < 1 or d % 2 == 0 or not is_squarefree(d):
        raise ValueError(f"d must be a positive odd squarefree integer, got {d}")
    if d % 4 == 3:
        return FieldData(d=d, D=-d, f=d, trace_eps=1, norm_eps=(1 + d) // 4)
    return FieldData(d=d, D=-4 * d, f=4 * d, trace_eps=0, norm_eps=d)


@cache
def chi(field: FieldData, m: int) -> int:
    """The quadratic character chi_D(m), i.e. the Kronecker symbol (D/m).  At a
    prime p it gives the behaviour of p: 0 ramified, 1 split, -1 inert.
    Memoized on (field, m): the volume path asks for the same few primes of
    every field again and again."""
    return kronecker(field.D, m)


@cache
def character(field: FieldData) -> tuple[int, ...]:
    """chi_D(a) for a = 0..f-1.  chi_D is periodic mod f = |D| and chi_D(0) = 0,
    so chi_D(m) = character(field)[m % f] for every m >= 1.  chi_D is completely
    multiplicative, so a smallest-prime-factor sieve reduces it to its values
    at the primes below f (kronecker_prime)."""
    f, D = field.f, field.D
    # spf[a] is the least prime factor of a composite a, 0 for a prime: the
    # multiples of q from q^2 on are marked by every q <= sqrt(f), the larger
    # q first, so the least divisor of a with square <= a, a prime, marks last
    spf = [0] * f
    for q in range(isqrt(f - 1), 1, -1):
        spf[q * q::q] = [q] * len(range(q * q, f, q))
    table = [0, 1] + [0] * (f - 2)
    for a in range(2, f):
        q = spf[a]
        table[a] = table[q] * table[a // q] if q else kronecker_prime(D, a)
    return tuple(table)
