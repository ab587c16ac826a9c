"""Factored symbolic volumes: rational coefficient, a square-tracked sqrt
factor, a rational power of |D|, an integer power of pi, and multisets of
zeta- and L-arguments.

An expression is a named tuple, equal to another when every part is.  Its
parts are given normalized: Fractions, sqrt_sq > 0, and sorted argument
tuples; the package's builders make them so, and nothing checks them again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class VolumeExpression(NamedTuple):
    coeff: Fraction = Fraction(1)
    # the product of sqrt factors, stored as its square to stay rational
    sqrt_sq: Fraction = Fraction(1)
    d_power: Fraction = Fraction(0)  # the exponent of |D|
    pi_power: int = 0
    zeta_args: tuple[int, ...] = ()
    l_args: tuple[int, ...] = ()

    def scaled(self, num, den=1) -> VolumeExpression:
        """The expression times the rational num / den, normalized once."""
        c = self.coeff
        return self._replace(coeff=Fraction(c.numerator * num, c.denominator * den))
