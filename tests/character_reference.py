"""The character table `hmvol.quadfield.character` replaced, kept as a test
reference: each a < f is trial-divided for its least prime factor, and each
prime's value is a Kronecker symbol, which factors the prime again.
"""

from __future__ import annotations

from math import isqrt

from hmvol.arith import kronecker
from hmvol.quadfield import FieldData


def character(field: FieldData) -> tuple[int, ...]:
    table = [0, 1]
    for a in range(2, field.f):
        p = next((q for q in range(2, isqrt(a) + 1) if a % q == 0), a)
        table.append(kronecker(field.D, a) if p == a else table[p] * table[a // p])
    return tuple(table)
