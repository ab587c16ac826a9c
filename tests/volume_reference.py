"""Volume helpers that only the tests call, kept as a test reference: the
M/L proportionality ratio, the table-vs-assembly report over a grid, and
Vol(SU(n)).  The package computes each volume on its own; these tie the
volumes of the two forms together and to the compact-group constants.

Also the local densities as chains of normalized `Fraction` products, one
factor at a time, which the package replaced by one integer numerator over
one denominator; and the volume path as it was before the package carried
its pieces as integers: the frozen-dataclass `VolumeExpression`, whose every
product re-checks and re-sorts its parts, `rationalize` over a `Fraction`
product of the exact forms, and `evaluate_numeric` with `Fraction`
tolerance shares handed to the public `zeta_numeric` and `l_numeric`.
`record` is `cli._record` on these.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, isqrt, prod

from hmvol import dyadic, expressions
from hmvol.arith import bernoulli, factor, is_prime
from hmvol.cli import _exact_str
from hmvol.lie_form import vol_max_compact
from hmvol.local_density import _alternating_args, _eps_char, special_primes, tau_p
from hmvol.quadfield import FieldData, chi, make_field
from hmvol.special_values import (TOL_FLOOR, WORK_DPS, check_tol, l_exact, l_numeric, zeta_exact,
                                  zeta_numeric)
from hmvol.volume import DiscrepancyReport, Verdict, compare_pipelines, hm_table


def hm_ratio(n: int, field: FieldData) -> Fraction:
    """Vol(second form)/Vol(first form) = tau_2(G)/tau_2(G') *
    prod_(p|d) tau_p(G)/tau_p(G') * 2^n, exact."""
    out = Fraction(2**n)
    out *= tau_p("L", n, field, 2).value / tau_p("M", n, field, 2).value
    for p, _ in factor(field.d):
        out *= tau_p("L", n, field, p).value / tau_p("M", n, field, p).value
    return out


def discrepancy_report(n_max: int, d_list, lattices=("L", "M")) -> list[DiscrepancyReport]:
    """compare_pipelines over the grid; a Mismatch is a hard failure for the
    caller."""
    fields = [make_field(d) for d in d_list]
    return [compare_pipelines(lattice, n, field)
            for lattice in lattices for n in range(1, n_max + 1) for field in fields]


def vol_su(n: int) -> expressions.VolumeExpression:
    """Vol(SU(n)) under the trace form: sqrt(n) (2pi)^((n^2+n-2)/2) / prod i!."""
    if n < 1:
        raise ValueError("n must be >= 1")
    e = (n * n + n - 2) // 2
    coeff = Fraction(2**e)
    for i in range(1, n):
        coeff /= factorial(i)
    return expressions.VolumeExpression(coeff=coeff, sqrt_sq=Fraction(n), pi_power=e)


def even_product(p: int, upto: int) -> Fraction:
    return prod((1 - Fraction(1, p ** (2 * i)) for i in range(1, upto + 1)), start=Fraction(1))


def tau_p_chain(lattice: str, n: int, field: FieldData, p: int) -> Fraction:
    """Closed-form local volume, one Fraction factor at a time."""
    assert lattice in ("L", "M") and n >= 1 and is_prime(p)
    c = chi(field, p)
    if c != 0:
        first = 1 if lattice == "M" and p == 2 else 2
        return prod((1 - Fraction(c**i, p**i) for i in range(first, first + n)),
                    start=Fraction(1))
    if p == 2:
        if lattice == "L" or n % 2 == 1:
            return Fraction(1, 2**n) * even_product(2, n // 2)
        return Fraction(1, 2**n) * even_product(2, (n - 2) // 2)
    if n % 2 == 0:
        return even_product(p, n // 2)
    eps = _eps_char(n, p, twisted=(lattice == "M"))
    return (1 - Fraction(eps, p ** ((n + 1) // 2))) * even_product(p, (n - 1) // 2)


def euler_local(field: FieldData, n: int, p: int) -> Fraction:
    """The Euler factors at p of the zeta(even)/L(odd) string 2..n+1."""
    c = chi(field, p)
    return prod((1 - Fraction(c if i % 2 else 1, p**i) for i in range(2, n + 2)),
                start=Fraction(1))


def tau_infinity(lattice: str, n: int, field: FieldData) -> expressions.VolumeExpression:
    zeta_args, l_args = _alternating_args(n)
    coeff = Fraction(1)
    for p in special_primes(lattice, field):
        coeff *= euler_local(field, n, p) / tau_p_chain(lattice, n, field, p)
    return expressions.VolumeExpression(coeff=coeff, zeta_args=zeta_args, l_args=l_args)


@dataclass(frozen=True)
class VolumeExpression:
    coeff: Fraction = Fraction(1)
    # product of sqrt factors, stored as its square to stay rational
    sqrt_sq: Fraction = Fraction(1)
    d_power: Fraction = Fraction(0)  # exponent of |D|
    pi_power: int = 0
    zeta_args: tuple[int, ...] = ()
    l_args: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("coeff", "sqrt_sq", "d_power"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
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

    def reciprocal(self) -> "VolumeExpression":
        """Inverse of an expression carrying no zeta/L factors."""
        if self.zeta_args or self.l_args:
            raise ValueError("cannot invert an expression with zeta/L factors")
        return VolumeExpression(coeff=1 / self.coeff, sqrt_sq=1 / self.sqrt_sq,
                                d_power=-self.d_power, pi_power=-self.pi_power)


def reference(expr) -> VolumeExpression:
    """A package expression as the reference dataclass."""
    return VolumeExpression(expr.coeff, expr.sqrt_sq, expr.d_power, expr.pi_power,
                            expr.zeta_args, expr.l_args)


def hm_assembled(lattice: str, n: int, field: FieldData) -> VolumeExpression:
    """The assembly as a product of dataclass expressions: the prefix from
    the compact volume, times tau_infinity from the Fraction chains."""
    twos = (lattice == "M") - (field.d % 4 == 1)
    core = VolumeExpression(coeff=factorial(n) * Fraction(2) ** (twos * n - n), sqrt_sq=n + 1,
                            d_power=Fraction(n * n + 3 * n, 4), pi_power=-n)
    return core * reference(vol_max_compact(n)).reciprocal() \
        * reference(tau_infinity(lattice, n, field))


def rationalize(expr, field: FieldData) -> Fraction:
    """Substitute the exact zeta/L forms, as a Fraction product, into the coefficient."""
    bernoulli(max(expr.zeta_args + expr.l_args, default=0))
    coeff, pi_power, d_sqrt_power = Fraction(1), 0, 0
    for form in [zeta_exact(s) for s in expr.zeta_args] + [l_exact(k, field) for k in expr.l_args]:
        coeff *= form.coeff
        pi_power += form.pi_power
        d_sqrt_power += form.d_sqrt_power
    pi_power += expr.pi_power
    d_power = expr.d_power + Fraction(d_sqrt_power, 2)
    if pi_power != 0:
        raise ArithmeticError(f"residual pi exponent {pi_power} after substitution")
    if d_power.denominator != 1:
        raise ArithmeticError(f"residual |D| exponent {d_power} is not an integer")
    num, den = expr.sqrt_sq.numerator, expr.sqrt_sq.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ArithmeticError(f"sqrt slot {expr.sqrt_sq} is not a perfect square")
    return expr.coeff * coeff * Fraction(field.f) ** int(d_power) * Fraction(rn, rd)


_ROUNDING = -(-(1 << dyadic.PREC) // 10 ** (WORK_DPS - 8))


def evaluate_numeric(expr, field: FieldData, tol=1e-12) -> tuple[Fraction, Fraction]:
    """The numeric value and its bound, each zeta/L factor evaluated by the
    public evaluators at the Fraction share tol / (8 n_special), floored at
    TOL_FLOOR."""
    tol = check_tol(tol)
    n_special = len(expr.zeta_args) + len(expr.l_args)
    tol_each = max(tol / (8 * max(1, n_special)), TOL_FLOOR)
    specials = ([zeta_numeric(s, tol_each) for s in expr.zeta_args]
                + [l_numeric(k, field, tol_each) for k in expr.l_args])
    root = dyadic.power(expr.sqrt_sq, Fraction(1, 2))
    powers = dyadic.mul(dyadic.power(field.f, expr.d_power), dyadic.pi_power(expr.pi_power))
    value = dyadic.mul(dyadic.mul(dyadic.of_fraction(expr.coeff), root), powers)
    rel = _ROUNDING
    for sv in specials:
        value = dyadic.mul(value, dyadic.of_fraction(sv.numeric))
        rel += ceil(sv.error_bound * (1 << dyadic.PREC) / sv.numeric)
    bound = dyadic.cut(abs(value[0]) * rel * 2, value[1] - dyadic.PREC, up=True)
    return dyadic.to_fraction(value), dyadic.to_fraction(bound)


def record(lattice: str, n: int, field: FieldData, pipeline: str, tol) -> dict:
    """cli._record on the reference expressions, rationalize and evaluate_numeric."""
    row = hm_table(lattice, n, field)
    table, assembled = reference(row.expr), hm_assembled(lattice, n, field)
    expr = table if pipeline == "table" else assembled
    value, verdict = rationalize(expr, field), None
    if pipeline == "both":
        verdict = (Verdict.MISMATCH if rationalize(table, field) != value
                   else Verdict.TABLE_AMBIGUOUS if row.ambiguous else Verdict.MATCH)
    numeric, bound = evaluate_numeric(expr, field, tol)
    return {"lattice": lattice, "n": n, "d": field.d, "D": field.D,
            "volume_rational": _exact_str(value), "volume_numeric": numeric,
            "volume_error_bound": bound, "coefficient": _exact_str(expr.coeff),
            "d_power": _exact_str(expr.d_power), "zeta_args": list(expr.zeta_args),
            "l_args": list(expr.l_args), "provenance": pipeline,
            "verdict": verdict.value if verdict else None}
