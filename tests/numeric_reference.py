"""The mpf evaluators that `hmvol.volume.evaluate_numeric` and
`hmvol.special_values.exact_numeric` replaced, kept as a test reference.

Both compute in mpmath at WORK_DPS, as the package did before its numerics
moved to dyadic integers; the special values they multiply are the
package's own, converted exactly.  `to_mpf` is that conversion, used by every
test that compares a package value with an mpf.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from hmvol.special_values import TOL_FLOOR, WORK_DPS, check_tol, l_numeric, zeta_numeric


def to_mpf(x) -> mpf:
    """A package value (an int or a dyadic Fraction) as the mpf of the same value."""
    x = Fraction(x)
    with mp.workprec(max(53, x.numerator.bit_length())):
        return mpf(x.numerator) / x.denominator


def exact_numeric(form, field=None) -> mpf:
    with mp.workdps(WORK_DPS):
        v = mpf(form.coeff.numerator) / form.coeff.denominator * mp.pi ** form.pi_power
        if form.d_sqrt_power:
            v *= mp.sqrt(field.f) ** form.d_sqrt_power
        return v


def evaluate_numeric(expr, field, tol=1e-12) -> tuple[mpf, mpf]:
    check_tol(tol)
    with mp.workdps(WORK_DPS):
        n_special = len(expr.zeta_args) + len(expr.l_args)
        tol_each = max(mpf(tol) / (8 * max(1, n_special)), to_mpf(TOL_FLOOR))
        value = (mpf(expr.coeff.numerator) / expr.coeff.denominator
                 * mp.sqrt(mpf(expr.sqrt_sq.numerator) / expr.sqrt_sq.denominator)
                 * mpf(field.f) ** (mpf(expr.d_power.numerator) / expr.d_power.denominator)
                 * mp.pi ** expr.pi_power)
        rel = mpf(10) ** (8 - WORK_DPS)
        # the package reads a tolerance as an int, float or Fraction
        specials = ([zeta_numeric(s, float(tol_each)) for s in expr.zeta_args]
                    + [l_numeric(k, field, float(tol_each)) for k in expr.l_args])
        for sv in specials:
            numeric = to_mpf(sv.numeric)
            value *= numeric
            rel += to_mpf(sv.error_bound) / numeric
        return value, abs(value) * rel * 2


def to_fraction(x: mpf) -> Fraction:
    """A finite mpf as the Fraction of the same value."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp
