"""Hirzebruch-Mumford volumes of the ball quotients, along two independent
pipelines: a direct transcription of the headline tables, and the assembly
n! |D|^((n^2+3n)/4) sqrt(n+1) tau_inf / ((2pi)^n Vol(K)) with (4pi)^n in the
d = 1 (mod 4) branch and an extra 2^n Killing factor for the second form.

The assembly pipeline is authoritative; table rows whose trailing product is
abbreviated without a visible L-factor (odd n >= 3 except the first form at
D = -d) are flagged TableAmbiguous when they agree and are a mismatch when not.

Both pipelines carry their exact pieces as integer numerators, denominators
and exponents, and make a `Fraction` only for a value they return: a row's
coefficient, its rational volume; the numeric path splits its tolerance into
integer ratios and works on dyadic integer pairs.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import factorial, isqrt

from . import dyadic
from .arith import product, ratio
from .expressions import VolumeExpression
from .lie_form import lattice_diag, vol_max_compact
from .local_density import _alternating_args, _eps_char, special_primes, tau_infinity
from .quadfield import FieldData, chi
from .special_values import TOL_FLOOR, WORK_DPS, _l, _zeta, check_tol, l_exact, zeta_exact


class Verdict(enum.Enum):
    MATCH = "match"
    TABLE_AMBIGUOUS = "table-ambiguous"
    MISMATCH = "mismatch"


# a row's expression and whether its trailing product is abbreviated
TableRow = namedtuple("TableRow", "expr ambiguous")
# one case: its table value, assembled expression and value (Fractions), and Verdict
DiscrepancyReport = namedtuple(
    "DiscrepancyReport", "lattice n d table_value assembled assembled_value verdict")


@cache
def _table_prefix(n: int) -> VolumeExpression:
    """|D|^((n^2+3n)/4) prod_j j!/(2pi)^(j+1) times the zeta(even)/L(odd)
    string of the row, the part of every row that depends on n alone."""
    e = n * (n + 3) // 2  # sum of (j+1)
    zargs, largs = _alternating_args(n)
    return VolumeExpression(ratio(product(list(map(factorial, range(1, n + 1)))), 1 << e),
                            d_power=Fraction(n * n + 3 * n, 4), pi_power=-e,
                            zeta_args=zargs, l_args=largs)


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
    lattice_diag(lattice, n)
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
    return TableRow(_table_prefix(n).scaled(num, den), ambiguous)


def hm_assembled(lattice: str, n: int, field: FieldData) -> VolumeExpression:
    """Assembly from local densities and the compact volume; the sqrt(n+1)
    factors cancel exactly and the second form carries the Killing ratio 2^n."""
    tau = tau_infinity(lattice, n, field)  # which rejects a bad lattice or n
    # the (4pi)^n branch divides by 2^n, and the Killing ratio of M multiplies by it
    twos = (lattice == "M") - (field.d % 4 == 1)
    prefix = _assembly_prefix(n, twos)
    # tau_infinity is a coefficient times the zeta/L string, which the prefix lacks
    return VolumeExpression(prefix.coeff * tau.coeff, prefix.sqrt_sq, prefix.d_power,
                            prefix.pi_power, tau.zeta_args, tau.l_args)


@cache
def _assembly_prefix(n: int, twos: int) -> VolumeExpression:
    """n! |D|^((n^2+3n)/4) sqrt(n+1) 2^(twos n) / ((2pi)^n Vol(K)), the part
    of the assembly that depends on n and the power of 2 alone."""
    vol = vol_max_compact(n)
    c, r = vol.coeff, vol.sqrt_sq
    # the coefficient and pi power carry 2^(twos n) / (2pi)^n = 1 / (2^((1 - twos) n) pi^n)
    coeff = Fraction(factorial(n) * c.denominator, c.numerator << (1 - twos) * n)
    return VolumeExpression(coeff, Fraction((n + 1) * r.denominator, r.numerator),
                            Fraction(n * n + 3 * n, 4), -n - vol.pi_power)


def rationalize(expr: VolumeExpression, field: FieldData) -> Fraction:
    """Substitute exact zeta/L values; the pi exponent must cancel to zero and
    the |D| exponent must land on an integer (absorbed into the coefficient),
    anything else is a fatal invariant violation.  The factors are multiplied
    as integers and normalized once."""
    num, den, pi_power, d_sqrt_power = _exact_product(expr.zeta_args, expr.l_args, field)
    pi_power += expr.pi_power
    if pi_power != 0:
        raise ArithmeticError(f"residual pi exponent {pi_power} after substitution")
    # the |D| exponent d_power + d_sqrt_power / 2 is e / (2 dd)
    dd = expr.d_power.denominator
    e = 2 * expr.d_power.numerator + d_sqrt_power * dd
    if e % (2 * dd):
        raise ArithmeticError(f"residual |D| exponent {Fraction(e, 2 * dd)} is not an integer")
    e //= 2 * dd
    sn, sd = expr.sqrt_sq.numerator, expr.sqrt_sq.denominator
    rn, rd = isqrt(sn), isqrt(sd)
    if rn * rn != sn or rd * rd != sd:
        raise ArithmeticError(f"sqrt slot {expr.sqrt_sq} is not a perfect square")
    num *= expr.coeff.numerator * rn * field.f ** max(e, 0)
    den *= expr.coeff.denominator * rd * field.f ** max(-e, 0)
    return Fraction(num, den)


@cache
def _exact_product(zeta_args: tuple[int, ...], l_args: tuple[int, ...],
                   field: FieldData) -> tuple[int, int, int, int]:
    """The product of the exact zeta(s) and L(k, chi_D) forms as (numerator,
    denominator, pi power, sqrt|D| power), not normalized: the table row and
    the assembly of both lattices at one (n, field) share it."""
    forms = [zeta_exact(s) for s in zeta_args] + [l_exact(k, field) for k in l_args]
    return (product([form.coeff.numerator for form in forms]),
            product([form.coeff.denominator for form in forms]),
            sum(form.pi_power for form in forms), sum(form.d_sqrt_power for form in forms))


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
    t = check_tol(tol)
    factors, rel = _special_factors(expr.zeta_args, expr.l_args, field, t.numerator, t.denominator)
    value = dyadic.of_fraction(expr.coeff)
    if expr.sqrt_sq != 1:  # a product with 1 is exact, so only another root is multiplied
        value = dyadic.mul(value, dyadic.power(expr.sqrt_sq, Fraction(1, 2)))
    d_power = expr.d_power
    value = dyadic.mul(value, _dyadic_scale(field.f, d_power.numerator, d_power.denominator,
                                            expr.pi_power))
    for factor in factors:
        value = dyadic.mul(value, factor)
    bound = dyadic.cut(abs(value[0]) * rel * 2, value[1] - dyadic.PREC, up=True)
    return dyadic.to_fraction(value), dyadic.to_fraction(bound)


# relative bounds are summed in units of 2^-PREC, each term rounded up; this
# one is 10^(8 - WORK_DPS), for the rounding of the products
_ROUNDING = -(-(1 << dyadic.PREC) // 10 ** (WORK_DPS - 8))


@cache
def _special_factors(zeta_args: tuple[int, ...], l_args: tuple[int, ...], field: FieldData,
                     tol_num: int, tol_den: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The zeta/L factors of a volume as dyadic factors, each evaluated with an
    even share of the tolerance tol_num / tol_den, which has passed check_tol,
    and the sum of their relative bounds and _ROUNDING in units of 2^-PREC:
    the part of a numeric volume that the L and M rows of one (n, field)
    share.  The share is the integer ratio num / den, floored at TOL_FLOOR."""
    num, den = tol_num, tol_den * 8 * max(1, len(zeta_args) + len(l_args))
    if num * TOL_FLOOR.denominator < TOL_FLOOR.numerator * den:
        num, den = TOL_FLOOR.numerator, TOL_FLOOR.denominator
    specials = [_zeta(s, num, den) for s in zeta_args] + [_l(k, field, num, den) for k in l_args]
    # each value to PREC bits, and its relative bound in units of 2^-PREC, rounded up
    rel = sum(-(-(sv.error_bound.numerator << dyadic.PREC) * sv.numeric.denominator
                // (sv.error_bound.denominator * sv.numeric.numerator)) for sv in specials)
    return tuple(dyadic.of_fraction(sv.numeric) for sv in specials), _ROUNDING + rel


@cache
def _dyadic_scale(f: int, d_num: int, d_den: int, pi_power: int) -> tuple[int, int]:
    """|D|^(d_num/d_den) pi^pi_power as a dyadic factor: the part of a
    numeric volume that depends on (n, field) alone."""
    return dyadic.mul(dyadic.power(f, Fraction(d_num, d_den)), dyadic.pi_power(pi_power))


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

