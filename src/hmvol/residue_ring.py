"""The finite quotients O_K/p^N O_K as parameters of the enumeration oracle.

An element a + b*eps is a pair of coordinates in Z/p^N; the only arithmetic on
them is :mod:`hmvol.group_enum`'s, with eps^2 = trace_eps * eps - norm_eps.
It reads a ring through the tables of Z/p^N and of the norm, lists of Python
ints, and holds no element or matrix.
A ring is a frozen, hashable record, so it can key a memo table.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

from .arith import is_prime
from .quadfield import FieldData


@dataclasses.dataclass(frozen=True)
class ResidueRing:
    """O_K/p^N O_K for a prime p and N >= 1: the field, p, N, the modulus p^N
    and the coefficients of eps^2 = trace_eps * eps - norm_eps reduced mod p^N.
    Equality and hash are on (field, p, N).  The modulus and the coefficients are
    worked out the first time they are read, so a ring too large to count is
    refused on its exponent before p^N is ever formed."""

    field: FieldData
    p: int
    exponent: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.exponent < 1:
            raise ValueError("exponent must be >= 1")

    @cached_property
    def modulus(self) -> int:
        return self.p**self.exponent

    @cached_property
    def trace_eps(self) -> int:
        return self.field.trace_eps % self.modulus

    @cached_property
    def norm_eps(self) -> int:
        return self.field.norm_eps % self.modulus

    def __repr__(self):
        return f"ResidueRing(d={self.field.d}, p={self.p}, N={self.exponent})"
