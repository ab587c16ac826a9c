"""Hirzebruch-Mumford volumes of the ball quotients, along two independent
pipelines: a direct transcription of the headline tables, and the assembly
n! |D|^((n^2+3n)/4) sqrt(n+1) tau_inf / ((2pi)^n Vol(K)) with (4pi)^n in the
d = 1 (mod 4) branch and an extra 2^n Killing factor for the second form.

The assembly pipeline is authoritative; table rows whose trailing product is
abbreviated without a visible L-factor (odd n >= 3 except the first form at
D = -d) are flagged TableAmbiguous and never reported as a mismatch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt
from typing import Optional

from mpmath import mp, mpf

from .arith import factor
from .expressions import VolumeExpression
from .lie_form import vol_max_compact
from .local_density import tau_p, tau_infinity, _eps_char
from .quadfield import FieldData, chi, make_field
from .special_values import (WORK_DPS, l_exact, l_numeric, zeta_exact, zeta_numeric)


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
    table_value: Optional[Fraction]
    assembled_value: Fraction
    verdict: Verdict


def _alternating_args(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (tuple(i for i in range(2, n + 2) if i % 2 == 0),
            tuple(i for i in range(3, n + 2) if i % 2 == 1))


def _table_prefix(n: int, field: FieldData) -> VolumeExpression:
    """|D|^((n^2+3n)/4) prod_j j!/(2pi)^(j+1)."""
    coeff = Fraction(1)
    for j in range(1, n + 1):
        coeff *= factorial(j)
    e = n * (n + 3) // 2  # sum of (j+1)
    return VolumeExpression(coeff=coeff / 2**e, pi_power=-e,
                            d_power=Fraction(n * n + 3 * n, 4))


def _ramified_correction(n: int, field: FieldData, twisted: bool) -> Fraction:
    """prod_(p|d) (1 + eps(p) p^(-(n+1)/2)) in the odd-n table rows."""
    out = Fraction(1)
    for p in factor(field.d).primes():
        out *= 1 + Fraction(_eps_char(n, p, twisted), p ** ((n + 1) // 2))
    return out


def hm_table(lattice: str, n: int, field: FieldData) -> TableRow:
    """Transcription of the headline table row, with abbreviated trailing
    products expanded as the alternating zeta(even)/L(odd) string."""
    if n < 1:
        raise ValueError("n must be >= 1")
    zargs, largs = _alternating_args(n)
    expr = _table_prefix(n, field) * VolumeExpression(zeta_args=zargs, l_args=largs)
    ramified_two = field.d % 4 == 1  # D = -4d
    ambiguous = False
    if n % 2 == 1:
        expr = expr.scaled(_ramified_correction(n, field, twisted=(lattice == "M")))
        if ramified_two:
            expr = expr.scaled(1 - Fraction(1, 2 ** (n + 1)))
            ambiguous = n >= 3
        elif lattice == "M":
            ambiguous = n >= 3
    if lattice == "M":
        if n % 2 == 0:
            if ramified_two:
                expr = expr.scaled(2**n - 1)
            else:
                c = chi(field, 2)
                expr = expr.scaled(2**n * (1 - Fraction(c ** (n + 1), 2 ** (n + 1)))
                                   / (1 - Fraction(c, 2)))
        else:
            expr = expr.scaled(2**n)
            if not ramified_two:
                c = chi(field, 2)
                expr = expr.scaled((1 - Fraction(c ** (n + 1), 2 ** (n + 1)))
                                   / (1 - Fraction(c, 2)))
    return TableRow(expr=expr, ambiguous=ambiguous)


def hm_assembled(lattice: str, n: int, field: FieldData) -> VolumeExpression:
    """Assembly from local densities and the compact volume; the sqrt(n+1)
    factors cancel exactly and the second form carries the Killing ratio 2^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    core = VolumeExpression(coeff=factorial(n), sqrt_sq=n + 1,
                            d_power=Fraction(n * n + 3 * n, 4))
    expr = core * tau_infinity(lattice, n, field) * vol_max_compact(n).reciprocal()
    expr = expr * VolumeExpression(coeff=Fraction(1, 2**n), pi_power=-n)  # (2pi)^-n
    if field.d % 4 == 1:
        expr = expr.scaled(Fraction(1, 2**n))  # (4pi)^n branch
    if lattice == "M":
        expr = expr.scaled(2**n)
    return expr


def hm_ratio(n: int, field: FieldData) -> Fraction:
    """Vol(second form)/Vol(first form) = tau_2(G)/tau_2(G') *
    prod_(p|d) tau_p(G)/tau_p(G') * 2^n, exact."""
    out = Fraction(2**n)
    out *= tau_p("L", n, field, 2).value / tau_p("M", n, field, 2).value
    for p in factor(field.d).primes():
        out *= tau_p("L", n, field, p).value / tau_p("M", n, field, p).value
    return out


def rationalize(expr: VolumeExpression, field: FieldData) -> Fraction:
    """Substitute exact zeta/L values; the pi exponent must cancel to zero and
    the |D| exponent must land on an integer (absorbed into the coefficient),
    anything else is a fatal invariant violation."""
    coeff = expr.coeff
    pi_power = Fraction(expr.pi_power)
    d_power = Fraction(expr.d_power)
    for s in expr.zeta_args:
        form = zeta_exact(s)
        coeff *= form.coeff
        pi_power += form.pi_power
    for k in expr.l_args:
        form = l_exact(k, field)
        coeff *= form.coeff
        pi_power += form.pi_power
        d_power += Fraction(form.d_sqrt_power, 2)
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


def evaluate_numeric(expr: VolumeExpression, field: FieldData, tol=mpf("1e-12")):
    """Numeric value of the expression with a propagated error bound."""
    with mp.workdps(WORK_DPS):
        n_special = len(expr.zeta_args) + len(expr.l_args)
        tol_each = mpf(tol) / (8 * max(1, n_special))
        value = (mpf(expr.coeff.numerator) / expr.coeff.denominator
                 * mp.sqrt(mpf(expr.sqrt_sq.numerator) / expr.sqrt_sq.denominator)
                 * mpf(field.f) ** (mpf(expr.d_power.numerator) / expr.d_power.denominator)
                 * mp.pi ** expr.pi_power)
        rel = mpf(10) ** (8 - WORK_DPS)
        for s in expr.zeta_args:
            sv = zeta_numeric(s, tol_each)
            value *= sv.numeric
            rel += sv.error_bound / sv.numeric
        for k in expr.l_args:
            sv = l_numeric(k, field, tol_each)
            value *= sv.numeric
            rel += sv.error_bound / sv.numeric
        return value, abs(value) * rel * 2


def compare_pipelines(lattice: str, n: int, field: FieldData) -> DiscrepancyReport:
    """Exact table-vs-assembly comparison of one case.  The assembly is
    authoritative; an ambiguous table row is never reported as a Mismatch."""
    row = hm_table(lattice, n, field)
    tv = rationalize(row.expr, field)
    av = rationalize(hm_assembled(lattice, n, field), field)
    if row.ambiguous:
        verdict = Verdict.TABLE_AMBIGUOUS
    elif tv == av:
        verdict = Verdict.MATCH
    else:
        verdict = Verdict.MISMATCH
    return DiscrepancyReport(lattice=lattice, n=n, d=field.d, table_value=tv,
                             assembled_value=av, verdict=verdict)


def discrepancy_report(n_max: int, d_list, lattices=("L", "M")) -> list[DiscrepancyReport]:
    """compare_pipelines over the grid; a Mismatch on an unambiguous row is a
    hard failure for the caller."""
    fields = [make_field(d) for d in d_list]
    return [compare_pipelines(lattice, n, field)
            for lattice in lattices for n in range(1, n_max + 1) for field in fields]
