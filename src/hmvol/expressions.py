"""Factored symbolic volumes: rational coefficient, a square-tracked sqrt
factor, a rational power of |D|, an integer power of pi, and multisets of
zeta- and L-arguments.  Multiplication is componentwise and commutative.

An expression is an immutable value, equal to another when every part is.
The constructor checks its parts and normalizes them (Fractions, sorted
argument tuples); `of`, the products, `scaled` and `reciprocal` combine parts
that are normalized already, so they skip that.
"""

from __future__ import annotations

from fractions import Fraction

_ONE, _ZERO = Fraction(1), Fraction(0)


class VolumeExpression:
    # sqrt_sq is the product of sqrt factors, stored as its square to stay
    # rational; d_power is the exponent of |D|
    __slots__ = ("coeff", "sqrt_sq", "d_power", "pi_power", "zeta_args", "l_args")

    def __init__(self, coeff=_ONE, sqrt_sq=_ONE, d_power=_ZERO, pi_power: int = 0,
                 zeta_args=(), l_args=()):
        sqrt_sq = Fraction(sqrt_sq)
        if sqrt_sq <= 0:
            raise ValueError("sqrt_sq must be positive")
        for name, value in zip(self.__slots__, (Fraction(coeff), sqrt_sq, Fraction(d_power),
                                                pi_power, tuple(sorted(zeta_args)),
                                                tuple(sorted(l_args)))):
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, coeff: Fraction, sqrt_sq: Fraction = _ONE, d_power: Fraction = _ZERO,
           pi_power: int = 0, zeta_args: tuple[int, ...] = (),
           l_args: tuple[int, ...] = ()) -> VolumeExpression:
        """An expression from parts that are normalized already: Fractions,
        sqrt_sq > 0, and sorted argument tuples."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, (coeff, sqrt_sq, d_power, pi_power, zeta_args,
                                               l_args)):
            object.__setattr__(self, name, value)
        return self

    def _parts(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable VolumeExpression")

    def __eq__(self, other):
        if type(other) is not VolumeExpression:
            return NotImplemented
        return self._parts() == other._parts()

    def __hash__(self):
        return hash(self._parts())

    def __repr__(self):
        return "VolumeExpression({})".format(", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._parts())))

    def __mul__(self, other: VolumeExpression) -> VolumeExpression:
        return VolumeExpression.of(self.coeff * other.coeff, self.sqrt_sq * other.sqrt_sq,
                                   self.d_power + other.d_power, self.pi_power + other.pi_power,
                                   tuple(sorted(self.zeta_args + other.zeta_args)),
                                   tuple(sorted(self.l_args + other.l_args)))

    def scaled(self, num, den=1) -> VolumeExpression:
        """The expression times the rational num / den, normalized once."""
        c = self.coeff
        return VolumeExpression.of(Fraction(c.numerator * num, c.denominator * den), self.sqrt_sq,
                                   self.d_power, self.pi_power, self.zeta_args, self.l_args)

    def reciprocal(self) -> VolumeExpression:
        """Inverse of an expression carrying no zeta/L factors."""
        if self.zeta_args or self.l_args:
            raise ValueError("cannot invert an expression with zeta/L factors")
        return VolumeExpression.of(1 / self.coeff, 1 / self.sqrt_sq, -self.d_power,
                                   -self.pi_power)
