"""The Bernoulli recurrence `hmvol.arith.bernoulli` replaced, kept as a test
reference: sum_(i <= j) C(j + 1, i) B_i = 0 solved for B_j, one `Fraction`
sum of j terms per number, so B_0..B_k costs O(k^2) rational operations.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def bernoulli_numbers(k: int) -> list[Fraction]:
    """B_0..B_k, B_1 = -1/2."""
    table = [Fraction(1)]
    for j in range(1, k + 1):
        acc = sum(comb(j + 1, i) * table[i] for i in range(j))
        table.append(Fraction(-acc, j + 1))
    return table
