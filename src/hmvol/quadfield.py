"""The imaginary quadratic field Q(sqrt(-d)) for odd squarefree d: discriminant,
ring generator, conductor, and the splitting behaviour of rational primes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache

from .arith import is_prime, is_squarefree, kronecker


class EpsKind(enum.Enum):
    # eps = (1 + sqrt(-d))/2, ring O = Z + Z.eps, when d = 3 (mod 4)
    HALF_INTEGRAL = "half-integral"
    # eps = sqrt(-d), when d = 1 (mod 4)
    INTEGRAL = "integral"


class PrimeClass(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class FieldData:
    """Invariants of Q(sqrt(-d)): minimal polynomial of eps is
    x^2 - trace_eps*x + norm_eps, of discriminant D."""

    d: int
    D: int
    f: int  # conductor, |D|
    eps_kind: EpsKind
    trace_eps: int
    norm_eps: int


def make_field(d: int) -> FieldData:
    """Build FieldData for odd squarefree d >= 1; anything else is rejected."""
    if d < 1 or d % 2 == 0:
        raise ValueError(f"d must be a positive odd integer, got {d}")
    if not is_squarefree(d):
        raise ValueError(f"d must be squarefree, got {d}")
    if d % 4 == 3:
        return FieldData(d=d, D=-d, f=d, eps_kind=EpsKind.HALF_INTEGRAL,
                         trace_eps=1, norm_eps=(1 + d) // 4)
    return FieldData(d=d, D=-4 * d, f=4 * d, eps_kind=EpsKind.INTEGRAL,
                     trace_eps=0, norm_eps=d)


def classify_prime(field: FieldData, p: int) -> PrimeClass:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    chi = kronecker(field.D, p)
    if chi == 0:
        return PrimeClass.RAMIFIED
    return PrimeClass.SPLIT if chi == 1 else PrimeClass.INERT


def chi(field: FieldData, m: int) -> int:
    """The quadratic character chi_D(m), i.e. the Kronecker symbol (D/m)."""
    return kronecker(field.D, m)


@cache
def character(field: FieldData) -> tuple[int, ...]:
    """chi_D(a) for a = 0..f-1.  chi_D is periodic mod f = |D| and chi_D(0) = 0,
    so chi_D(m) = character(field)[m % f] for every m >= 1."""
    return (0,) + tuple(kronecker(field.D, a) for a in range(1, field.f))
