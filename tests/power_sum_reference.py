"""The fixed-point power sum of `hmvol.special_values` with fresh powers
n**e, kept as a test reference for the package's, which builds each tail
point's polynomial by Horner in n.  Both floor each tail point's polynomial
once, over the same common denominator, so they must agree exactly, value and
bound.
"""

from __future__ import annotations

from fractions import Fraction

from hmvol.special_values import _EM_TERMS, _FIXED_BITS, SpecialValue, _em_constants


def power_sum(s: int, weights: tuple[int, ...], M: int) -> SpecialValue:
    """sum_(n >= 1) w(n) n^-s for w(n) = weights[n mod f] in {-1, 0, 1},
    truncated at M f, with its remainder bound, in units of 2^-256."""
    terms, den, tail = _em_constants(s)
    f, one = len(weights), 1 << _FIXED_BITS
    head = sum(w * (one // m**s) for m in range(1, M * f + 1) if (w := weights[m % f]))
    points = [(w, M * f + a) for a in range(1, f + 1) if (w := weights[a % f])]
    top = terms[-1][0]
    # per point floor(2^256 den sum_e c_e y^e), y = f/n, over the one power n**top
    tail_sum = sum(w * (sum(one * c * f**e * n ** (top - e) for e, c in terms) // n**top)
                   for w, n in points)
    last = s + 2 * _EM_TERMS
    rest = -sum(-one * f**last // n**last for _, n in points)  # sum_a y^last, rounded up
    scale = f**s
    value = head + tail_sum // (den * scale)
    floors = (M + 1) * len(points) + 1
    return SpecialValue(Fraction(value, one), (tail * -(-rest // scale) + floors) / one)
