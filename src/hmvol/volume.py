"""Hirzebruch-Mumford volumes of the ball quotients, along two independent
pipelines: a direct transcription of the headline tables, and the assembly
n! |D|^((n^2+3n)/4) sqrt(n+1) tau_inf / ((2pi)^n Vol(K)) with (4pi)^n in the
d = 1 (mod 4) branch and an extra 2^n Killing factor for the second form.

The assembly pipeline is authoritative; table rows whose trailing product is
abbreviated without a visible L-factor (odd n >= 3 except the first form at
D = -d) are flagged TableAmbiguous when they agree and are a mismatch when not.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, factorial, isqrt

from . import dyadic
from .arith import factor
from .expressions import VolumeExpression
from .lie_form import vol_max_compact
from .local_density import tau_infinity, _alternating_args, _eps_char
from .quadfield import FieldData, chi
from .special_values import (TOL_FLOOR, WORK_DPS, SpecialValue, check_tol, l_exact, l_numeric,
                             zeta_exact, zeta_numeric)


class Verdict(enum.Enum):
    MATCH = "match"
    TABLE_AMBIGUOUS = "table-ambiguous"
    MISMATCH = "mismatch"


@dataclass(frozen=True)
class TableRow:
    expr: VolumeExpression
    ambiguous: bool


@dataclass(frozen=True)
class DiscrepancyReport:
    lattice: str
    n: int
    d: int
    table_value: Fraction
    assembled: VolumeExpression
    assembled_value: Fraction
    verdict: Verdict


@cache
def _table_prefix(n: int) -> VolumeExpression:
    """|D|^((n^2+3n)/4) prod_j j!/(2pi)^(j+1) times the zeta(even)/L(odd)
    string of the row, the part of every row that depends on n alone."""
    coeff = 1
    for j in range(1, n + 1):
        coeff *= factorial(j)
    e = n * (n + 3) // 2  # sum of (j+1)
    zargs, largs = _alternating_args(n)
    return VolumeExpression(coeff=Fraction(coeff, 2**e), pi_power=-e,
                            d_power=Fraction(n * n + 3 * n, 4), zeta_args=zargs, l_args=largs)


def _ramified_correction(n: int, field: FieldData, twisted: bool) -> Fraction:
    """prod_(p|d) (1 + eps(p) p^(-(n+1)/2)) in the odd-n table rows."""
    out = Fraction(1)
    for p, _ in factor(field.d):
        out *= 1 + Fraction(_eps_char(n, p, twisted), p ** ((n + 1) // 2))
    return out


def hm_table(lattice: str, n: int, field: FieldData) -> TableRow:
    """Transcription of the headline table row, with abbreviated trailing
    products expanded as the alternating zeta(even)/L(odd) string."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ramified_two = field.d % 4 == 1  # D = -4d
    ambiguous = False
    scale = Fraction(1)
    if n % 2 == 1:
        scale *= _ramified_correction(n, field, twisted=(lattice == "M"))
        if ramified_two:
            scale *= 1 - Fraction(1, 2 ** (n + 1))
            ambiguous = n >= 3
        elif lattice == "M":
            ambiguous = n >= 3
    if lattice == "M":
        if n % 2 == 0:
            if ramified_two:
                scale *= 2**n - 1
            else:
                c = chi(field, 2)
                scale *= 2**n * (1 - Fraction(c ** (n + 1), 2 ** (n + 1))) / (1 - Fraction(c, 2))
        else:
            scale *= 2**n
            if not ramified_two:
                c = chi(field, 2)
                scale *= (1 - Fraction(c ** (n + 1), 2 ** (n + 1))) / (1 - Fraction(c, 2))
    return TableRow(expr=_table_prefix(n).scaled(scale), ambiguous=ambiguous)


def hm_assembled(lattice: str, n: int, field: FieldData) -> VolumeExpression:
    """Assembly from local densities and the compact volume; the sqrt(n+1)
    factors cancel exactly and the second form carries the Killing ratio 2^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    expr = _assembly_prefix(n) * tau_infinity(lattice, n, field)
    # the (4pi)^n branch divides by 2^n, and the Killing ratio of M multiplies by it
    twos = (lattice == "M") - (field.d % 4 == 1)
    return expr.scaled(Fraction(2) ** (twos * n)) if twos else expr


@cache
def _assembly_prefix(n: int) -> VolumeExpression:
    """n! |D|^((n^2+3n)/4) sqrt(n+1) / ((2pi)^n Vol(K)), the part of the
    assembly that depends on n alone."""
    core = VolumeExpression(coeff=factorial(n), sqrt_sq=n + 1,
                            d_power=Fraction(n * n + 3 * n, 4))
    return (core * vol_max_compact(n).reciprocal()
            * VolumeExpression(coeff=Fraction(1, 2**n), pi_power=-n))  # (2pi)^-n


def rationalize(expr: VolumeExpression, field: FieldData) -> Fraction:
    """Substitute exact zeta/L values; the pi exponent must cancel to zero and
    the |D| exponent must land on an integer (absorbed into the coefficient),
    anything else is a fatal invariant violation."""
    coeff = expr.coeff
    pi_power = expr.pi_power
    d_sqrt_power = 0
    for s in expr.zeta_args:
        form = zeta_exact(s)
        coeff *= form.coeff
        pi_power += form.pi_power
    for k in expr.l_args:
        form = l_exact(k, field)
        coeff *= form.coeff
        pi_power += form.pi_power
        d_sqrt_power += form.d_sqrt_power
    d_power = expr.d_power + Fraction(d_sqrt_power, 2)
    if pi_power != 0:
        raise ArithmeticError(f"residual pi exponent {pi_power} after substitution")
    if d_power.denominator != 1:
        raise ArithmeticError(f"residual |D| exponent {d_power} is not an integer")
    coeff *= Fraction(field.f) ** int(d_power)
    num, den = expr.sqrt_sq.numerator, expr.sqrt_sq.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ArithmeticError(f"sqrt slot {expr.sqrt_sq} is not a perfect square")
    return coeff * Fraction(rn, rd)


def evaluate_numeric(expr: VolumeExpression, field: FieldData,
                     tol=1e-12) -> tuple[Fraction, Fraction]:
    """Numeric value of the expression with a propagated absolute error bound,
    both exact dyadic rationals.

    `tol` is checked as given, then split evenly over the zeta/L factors; each
    share, floored at the working precision, bounds that factor's truncation
    error.  The returned bound propagates what was actually computed: the
    relative bounds of the factors plus 10^(8 - WORK_DPS) for the rounding of
    the products (each cut to `dyadic.PREC` bits), doubled, rounded up.
    """
    tol = check_tol(tol)
    n_special = len(expr.zeta_args) + len(expr.l_args)
    tol_each = max(tol / (8 * max(1, n_special)), TOL_FLOOR)
    root, powers = _dyadic_scale(expr.sqrt_sq, field.f, expr.d_power, expr.pi_power)
    value = dyadic.mul(dyadic.mul(dyadic.of_fraction(expr.coeff), root), powers)
    specials = ([zeta_numeric(s, tol_each) for s in expr.zeta_args]
                + [l_numeric(k, field, tol_each) for k in expr.l_args])
    rel = _ROUNDING
    for sv in specials:
        factor, factor_rel = _dyadic_factor(sv)
        value = dyadic.mul(value, factor)
        rel += factor_rel
    bound = dyadic.cut(abs(value[0]) * rel * 2, value[1] - dyadic.PREC, up=True)
    return dyadic.to_fraction(value), dyadic.to_fraction(bound)


# relative bounds are summed in units of 2^-PREC, each term rounded up; this
# one is 10^(8 - WORK_DPS), for the rounding of the products
_ROUNDING = -(-(1 << dyadic.PREC) // 10 ** (WORK_DPS - 8))


@cache
def _dyadic_scale(sqrt_sq: Fraction, f: int, d_power: Fraction,
                  pi_power: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """sqrt(sqrt_sq), and |D|^d_power pi^pi_power, as dyadic factors: the part
    of a numeric volume that depends on (n, field) alone."""
    return (dyadic.power(sqrt_sq, Fraction(1, 2)),
            dyadic.mul(dyadic.power(f, d_power), dyadic.pi_power(pi_power)))


@cache
def _dyadic_factor(sv: SpecialValue) -> tuple[tuple[int, int], int]:
    """A special value as a dyadic factor, and its relative error bound in
    units of 2^-PREC, rounded up."""
    return (dyadic.of_fraction(sv.numeric),
            ceil(sv.error_bound * (1 << dyadic.PREC) / sv.numeric))


def compare_pipelines(lattice: str, n: int, field: FieldData) -> DiscrepancyReport:
    """Exact table-vs-assembly comparison of one case.  The assembly is
    authoritative; any table row that differs from it is a Mismatch."""
    row = hm_table(lattice, n, field)
    tv = rationalize(row.expr, field)
    assembled = hm_assembled(lattice, n, field)
    av = rationalize(assembled, field)
    if tv != av:
        verdict = Verdict.MISMATCH
    elif row.ambiguous:
        verdict = Verdict.TABLE_AMBIGUOUS
    else:
        verdict = Verdict.MATCH
    return DiscrepancyReport(lattice=lattice, n=n, d=field.d, table_value=tv,
                             assembled=assembled, assembled_value=av, verdict=verdict)

