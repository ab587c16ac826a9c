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
from .arith import bernoulli
from .expressions import VolumeExpression
from .lie_form import vol_max_compact
from .local_density import _alternating_args, _eps_char, special_primes, tau_infinity
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
    num = den = 1
    for p in special_primes("L", field):  # the primes of d, and 2 when D = -4d
        if p != 2:
            num *= p ** ((n + 1) // 2) + _eps_char(n, p, twisted)
            den *= p ** ((n + 1) // 2)
    return Fraction(num, den)


def hm_table(lattice: str, n: int, field: FieldData) -> TableRow:
    """Transcription of the headline table row, with abbreviated trailing
    products expanded as the alternating zeta(even)/L(odd) string."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ramified_two = field.d % 4 == 1  # D = -4d
    ambiguous = False
    num = den = 1  # the row's rational scale num / den, normalized once
    if n % 2 == 1:
        correction = _ramified_correction(n, field, twisted=(lattice == "M"))
        num, den = correction.numerator, correction.denominator
        if ramified_two:
            num, den = num * (2 ** (n + 1) - 1), den << (n + 1)  # 1 - 2^-(n+1)
            ambiguous = n >= 3
        elif lattice == "M":
            ambiguous = n >= 3
    if lattice == "M":
        if not ramified_two:
            # 2^n (1 - c^(n+1)/2^(n+1)) / (1 - c/2) at either parity of n
            c = chi(field, 2)
            num, den = num * (2 ** (n + 1) - c ** (n + 1)), den * (2 - c)
        elif n % 2 == 0:
            num *= 2**n - 1
        else:
            num <<= n
    return TableRow(expr=_table_prefix(n).scaled(Fraction(num, den)), ambiguous=ambiguous)


def hm_assembled(lattice: str, n: int, field: FieldData) -> VolumeExpression:
    """Assembly from local densities and the compact volume; the sqrt(n+1)
    factors cancel exactly and the second form carries the Killing ratio 2^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # the (4pi)^n branch divides by 2^n, and the Killing ratio of M multiplies by it
    twos = (lattice == "M") - (field.d % 4 == 1)
    return _assembly_prefix(n, twos) * tau_infinity(lattice, n, field)


@cache
def _assembly_prefix(n: int, twos: int) -> VolumeExpression:
    """n! |D|^((n^2+3n)/4) sqrt(n+1) 2^(twos n) / ((2pi)^n Vol(K)), the part
    of the assembly that depends on n and the power of 2 alone."""
    # the coefficient and pi power carry 2^(twos n) / (2pi)^n
    core = VolumeExpression(coeff=factorial(n) * Fraction(2) ** (twos * n - n), sqrt_sq=n + 1,
                            d_power=Fraction(n * n + 3 * n, 4), pi_power=-n)
    return core * vol_max_compact(n).reciprocal()


def rationalize(expr: VolumeExpression, field: FieldData) -> Fraction:
    """Substitute exact zeta/L values; the pi exponent must cancel to zero and
    the |D| exponent must land on an integer (absorbed into the coefficient),
    anything else is a fatal invariant violation."""
    product, pi_power, d_sqrt_power = _exact_product(expr.zeta_args, expr.l_args, field)
    pi_power += expr.pi_power
    d_power = expr.d_power + Fraction(d_sqrt_power, 2)
    if pi_power != 0:
        raise ArithmeticError(f"residual pi exponent {pi_power} after substitution")
    if d_power.denominator != 1:
        raise ArithmeticError(f"residual |D| exponent {d_power} is not an integer")
    power = _conductor_power(field.f, int(d_power))
    num, den = expr.sqrt_sq.numerator, expr.sqrt_sq.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ArithmeticError(f"sqrt slot {expr.sqrt_sq} is not a perfect square")
    # one normalization for the four factors
    return Fraction(expr.coeff.numerator * product.numerator * power.numerator * rn,
                    expr.coeff.denominator * product.denominator * power.denominator * rd)


@cache
def _exact_product(zeta_args: tuple[int, ...], l_args: tuple[int, ...],
                   field: FieldData) -> tuple[Fraction, int, int]:
    """The product of the exact zeta(s) and L(k, chi_D) forms as (coeff,
    pi power, sqrt|D| power): the table row and the assembly of both
    lattices at one (n, field) share it."""
    coeff, pi_power, d_sqrt_power = Fraction(1), 0, 0
    bernoulli(max(zeta_args + l_args, default=0))  # the table in one build, not one per form
    for form in [zeta_exact(s) for s in zeta_args] + [l_exact(k, field) for k in l_args]:
        coeff *= form.coeff
        pi_power += form.pi_power
        d_sqrt_power += form.d_sqrt_power
    return coeff, pi_power, d_sqrt_power


@cache
def _conductor_power(f: int, e: int) -> Fraction:
    """|D|^e, exactly, for an integer e of either sign."""
    return Fraction(f) ** e


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
    factors, rel = _special_factors(expr.zeta_args, expr.l_args, field, check_tol(tol))
    root, powers = _dyadic_scale(expr.sqrt_sq, field.f, expr.d_power, expr.pi_power)
    value = dyadic.mul(dyadic.mul(dyadic.of_fraction(expr.coeff), root), powers)
    for factor in factors:
        value = dyadic.mul(value, factor)
    bound = dyadic.cut(abs(value[0]) * rel * 2, value[1] - dyadic.PREC, up=True)
    return dyadic.to_fraction(value), dyadic.to_fraction(bound)


# relative bounds are summed in units of 2^-PREC, each term rounded up; this
# one is 10^(8 - WORK_DPS), for the rounding of the products
_ROUNDING = -(-(1 << dyadic.PREC) // 10 ** (WORK_DPS - 8))


@cache
def _special_factors(zeta_args: tuple[int, ...], l_args: tuple[int, ...], field: FieldData,
                     tol: Fraction) -> tuple[tuple[tuple[int, int], ...], int]:
    """The zeta/L factors of a volume as dyadic factors, each evaluated with an
    even share of tol, and the sum of their relative bounds and _ROUNDING in
    units of 2^-PREC: the part of a numeric volume that the L and M rows of
    one (n, field) share."""
    n_special = len(zeta_args) + len(l_args)
    tol_each = max(tol / (8 * max(1, n_special)), TOL_FLOOR)
    factors = ([_dyadic_factor(zeta_numeric(s, tol_each)) for s in zeta_args]
               + [_dyadic_factor(l_numeric(k, field, tol_each)) for k in l_args])
    return tuple(f for f, _ in factors), _ROUNDING + sum(rel for _, rel in factors)


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

