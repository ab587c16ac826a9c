"""The fixed-point power sum of `hmvol.special_values` with a fresh n**e for
each tail exponent, kept as a test reference for the package's, which builds
each tail point's n^e from the previous exponent with one product.  Both floor
every term the same way, so they must agree exactly, value and bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from hmvol.special_values import _EM_TERMS, _FIXED_BITS, SpecialValue, _em_constants


def power_sum(s: int, weights: tuple[int, ...], M: int) -> SpecialValue:
    """sum_(n >= 1) w(n) n^-s for w(n) = weights[n mod f] in {-1, 0, 1},
    truncated at M f, with its remainder bound, in units of 2^-256."""
    coeffs, tail = _em_constants(s)
    f, one = len(weights), 1 << _FIXED_BITS
    head = sum(w * (one // m**s) for m in range(1, M * f + 1) if (w := weights[m % f]))
    points = [(w, M * f + a) for a in range(1, f + 1) if (w := weights[a % f])]
    sums = []  # T_e = sum_a w(a) floor(2^256 y^e)
    for e in (s - 1, s) + tuple(range(s + 1, s + 2 * _EM_TERMS, 2)):
        num = one * f**e
        sums.append(sum(w * (num // n**e) for w, n in points))
    last = s + 2 * _EM_TERMS
    rest = -sum(-one * f**last // n**last for _, n in points)  # sum_a y^last, rounded up
    scale = f**s
    tail_sum = (Fraction(sums[0], s - 1) + Fraction(sums[1], 2)
                + sum(c * t for c, t in zip(coeffs, sums[2:])))
    value = head + tail_sum.numerator // (tail_sum.denominator * scale)
    floors = (M + 2 + ceil(sum(map(abs, coeffs)))) * len(points) + 1
    return SpecialValue(Fraction(value, one), (tail * -(-rest // scale) + floors) / one)
