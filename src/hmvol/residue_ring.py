"""The finite quotients O_K/p^N O_K as parameters of the enumeration oracle.

An element a + b*eps is a pair of coordinates in Z/p^N; the only arithmetic on
them is :mod:`hmvol.group_enum`'s, which stores rows as coordinate planes
(a_0, b_0, a_1, b_1, ...), checks pairings as float32 matmuls against
Z/m-bilinear form matrices, exact while 2w m^2 < 2^22, and computes
cofactors, determinants and norms in int64.
"""

from __future__ import annotations

from .quadfield import FieldData


class ResidueRing:
    """O_K/p^N O_K: the field, p, N, the modulus p^N and the coefficients of
    eps^2 = trace_eps * eps - norm_eps reduced mod p^N."""

    def __init__(self, field: FieldData, p: int, exponent: int):
        if exponent < 1:
            raise ValueError("exponent must be >= 1")
        self.field = field
        self.p = p
        self.exponent = exponent
        self.modulus = p**exponent
        self.trace_eps = field.trace_eps % self.modulus
        self.norm_eps = field.norm_eps % self.modulus

    def __repr__(self):
        return f"ResidueRing(d={self.field.d}, p={self.p}, N={self.exponent})"
