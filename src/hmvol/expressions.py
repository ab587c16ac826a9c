"""Factored symbolic volumes: rational coefficient, a square-tracked sqrt
factor, a rational power of |D|, an integer power of pi, and multisets of
zeta- and L-arguments.  Multiplication is componentwise and commutative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class VolumeExpression:
    coeff: Fraction = Fraction(1)
    # product of sqrt factors, stored as its square to stay rational
    sqrt_sq: Fraction = Fraction(1)
    d_power: Fraction = Fraction(0)  # exponent of |D|
    pi_power: int = 0
    zeta_args: tuple[int, ...] = field(default_factory=tuple)
    l_args: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        # the operands of a product are Fractions already; wrap only the rest
        for name in ("coeff", "sqrt_sq", "d_power"):
            value = getattr(self, name)
            if type(value) is not Fraction:
                object.__setattr__(self, name, Fraction(value))
        object.__setattr__(self, "zeta_args", tuple(sorted(self.zeta_args)))
        object.__setattr__(self, "l_args", tuple(sorted(self.l_args)))
        if self.sqrt_sq <= 0:
            raise ValueError("sqrt_sq must be positive")

    def __mul__(self, other: "VolumeExpression") -> "VolumeExpression":
        return VolumeExpression(
            coeff=self.coeff * other.coeff,
            sqrt_sq=self.sqrt_sq * other.sqrt_sq,
            d_power=self.d_power + other.d_power,
            pi_power=self.pi_power + other.pi_power,
            zeta_args=self.zeta_args + other.zeta_args,
            l_args=self.l_args + other.l_args,
        )

    def scaled(self, c) -> "VolumeExpression":
        return VolumeExpression(self.coeff * Fraction(c), self.sqrt_sq, self.d_power,
                                self.pi_power, self.zeta_args, self.l_args)

    def reciprocal(self) -> "VolumeExpression":
        """Inverse of an expression carrying no zeta/L factors."""
        if self.zeta_args or self.l_args:
            raise ValueError("cannot invert an expression with zeta/L factors")
        return VolumeExpression(coeff=1 / self.coeff, sqrt_sq=1 / self.sqrt_sq,
                                d_power=-self.d_power, pi_power=-self.pi_power)
