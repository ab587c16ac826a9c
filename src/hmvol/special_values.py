"""Numeric and exact special values of zeta(s) and L(s, chi_D).

The numeric evaluators are Euler-Maclaurin sums carrying explicit remainder
bounds: with 2J correction terms the remainder after truncation at M is

    |R| <= (s)(s+1)...(s+2J) * 2.5 / ((2pi)^(2J+1) (s+2J)) * M^(-s-2J),

which follows from |periodic Bernoulli B~_(2J+1)(x)| <= 2.5 (2J+1)!/(2pi)^(2J+1)
and integrating the remainder integral.  Exact zeta(2k) comes from Bernoulli
numbers; exact L(k, chi_D) at odd k comes from generalized Bernoulli numbers
through the functional equation, and that closed form is never trusted blind:
its constant is pinned against the numeric evaluator on a fixed grid the
first time it is used, and any disagreement is a fatal error.

Working precision is WORK_DPS decimal digits (well beyond the 1e-12 scale
tolerances used anywhere in the package), so float rounding is dominated by
the stated truncation bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial
from typing import NamedTuple, Optional

from mpmath import mp, mpf

from .arith import bernoulli, bernoulli_poly, kronecker
from .quadfield import FieldData, make_field

WORK_DPS = 40
_EM_TERMS = 8  # J: number of B_(2j) correction terms


class ExactForm(NamedTuple):
    """Value coeff * pi^pi_power * sqrt(|D|)^d_sqrt_power (d_sqrt_power = 0 for zeta)."""
    coeff: Fraction
    pi_power: int
    d_sqrt_power: int


@dataclass
class SpecialValue:
    kind: str  # "zeta" or "L"
    argument: int
    numeric: mpf
    error_bound: mpf
    field: Optional[FieldData] = None
    exact: Optional[ExactForm] = None


def _rising(s: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= s + i
    return out


def _em_tail_bound(s: int, base: mpf) -> mpf:
    """Remainder bound for the Euler-Maclaurin sum truncated at offset `base`."""
    J = _EM_TERMS
    return (mpf(2.5) * _rising(s, 2 * J + 1)
            / ((2 * mp.pi) ** (2 * J + 1) * (s + 2 * J)) * base ** (-s - 2 * J))


def _check_tol(tol) -> None:
    """Reject a tolerance that no truncation can meet (<= 0) or that is not a number."""
    if not (mp.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")


def _em_cutoff(s: int, tol) -> int:
    J = _EM_TERMS
    c = 2.5 * _rising(s, 2 * J + 1) / (float(2 * mp.pi) ** (2 * J + 1) * (s + 2 * J))
    M = 2
    while c * M ** (-(s + 2 * J)) > float(tol):
        M += 1 + M // 4
    return M


def hurwitz_numeric(s: int, a, tol) -> tuple[mpf, mpf]:
    """Hurwitz zeta(s, a) for integer s >= 2 and rational 0 < a <= 1, with an
    explicit remainder bound <= tol."""
    if s < 2:
        raise ValueError("s must be >= 2")
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("a must lie in (0, 1]")
    with mp.workdps(WORK_DPS):
        M = _em_cutoff(s, tol)
        am = mpf(a.numerator) / a.denominator
        total = mp.fsum((k + am) ** (-s) for k in range(M))
        base = M + am
        total += base ** (1 - s) / (s - 1) + base ** (-s) / 2
        for j in range(1, _EM_TERMS + 1):
            B = bernoulli(2 * j)
            total += (mpf(B.numerator) / B.denominator / factorial(2 * j)
                      * _rising(s, 2 * j - 1) * base ** (-s - 2 * j + 1))
        return total, _em_tail_bound(s, base)


def zeta_numeric(s: int, tol=mpf("1e-12")) -> SpecialValue:
    """zeta(s) for integer s >= 2 by Euler-Maclaurin, remainder <= tol."""
    _check_tol(tol)
    v, bound = hurwitz_numeric(s, 1, tol)
    exact = zeta_exact(s) if s % 2 == 0 else None
    return SpecialValue(kind="zeta", argument=s, numeric=v, error_bound=bound, exact=exact)


def zeta_exact(s: int) -> ExactForm:
    """zeta(2k) = (-1)^(k+1) B_2k 2^(2k-1)/(2k)! * pi^2k; odd arguments rejected."""
    if s < 2 or s % 2 != 0:
        raise ValueError("closed form used for even arguments >= 2 only")
    k = s // 2
    coeff = Fraction((-1) ** (k + 1)) * bernoulli(s) * 2 ** (s - 1) / factorial(s)
    return ExactForm(coeff=coeff, pi_power=s, d_sqrt_power=0)


def l_numeric(k: int, field: FieldData, tol=mpf("1e-12"), method: str = "hurwitz") -> SpecialValue:
    """L(k, chi_D) = sum chi_D(m) m^-k for integer k >= 2.

    method="hurwitz" evaluates f^-k sum_a chi(a) hurwitz(k, a/f); the plain
    partial-sum mode method="partial" (tail bounded by f M^-k via Abel
    summation against the period-zero character sums) exists as a cross-check.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    _check_tol(tol)
    f = field.f
    with mp.workdps(WORK_DPS):
        if method == "hurwitz":
            values = [(a, kronecker(field.D, a)) for a in range(1, f)]
            nonzero = [(a, c) for a, c in values if c != 0]
            tol_each = mpf(tol) * f**k / (2 * max(1, len(nonzero)))
            total = mpf(0)
            bound = mpf(0)
            for a, c in nonzero:
                v, b = hurwitz_numeric(k, Fraction(a, f), tol_each)
                total += c * v
                bound += b
            scale = mpf(f) ** (-k)
            return SpecialValue("L", k, scale * total, scale * bound, field=field)
        if method == "partial":
            M = 2
            while f * float(M) ** (-k) > float(tol):
                M += 1 + M // 8
            total = mp.fsum(kronecker(field.D, m) * mpf(m) ** (-k) for m in range(1, M + 1))
            return SpecialValue("L", k, total, mpf(f) * mpf(M) ** (-k), field=field)
    raise ValueError(f"unknown method {method!r}")


def gen_bernoulli(k: int, field: FieldData) -> Fraction:
    """Generalized Bernoulli number B_(k,chi_D) = f^(k-1) sum_a chi(a) B_k(a/f)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    f = field.f
    total = Fraction(0)
    for a in range(1, f + 1):
        c = kronecker(field.D, a % f if a < f else f)  # chi(f) = 0
        if c:
            total += c * bernoulli_poly(k, Fraction(a, f))
    return Fraction(f) ** (k - 1) * total


def l_exact(k: int, field: FieldData) -> ExactForm:
    """Closed form L(k, chi_D) = (-1)^((k+1)/2) 2^(k-1) B_(k,chi)/k! * pi^k * |D|^(1/2-k)
    for odd k >= 3, with the constant pinned against the numeric oracle."""
    if k < 3 or k % 2 == 0:
        raise ValueError("closed form used for odd arguments >= 3 only")
    _pin_l_exact()
    return _l_closed_form(k, field)


def _l_closed_form(k: int, field: FieldData) -> ExactForm:
    coeff = (Fraction((-1) ** ((k + 1) // 2)) * 2 ** (k - 1)
             * gen_bernoulli(k, field) / factorial(k))
    return ExactForm(coeff=coeff, pi_power=k, d_sqrt_power=1 - 2 * k)


def exact_numeric(form: ExactForm, field: Optional[FieldData] = None) -> mpf:
    with mp.workdps(WORK_DPS):
        v = mpf(form.coeff.numerator) / form.coeff.denominator * mp.pi ** form.pi_power
        if form.d_sqrt_power:
            v *= mp.sqrt(field.f) ** form.d_sqrt_power
        return v


@cache
def _pin_l_exact() -> None:
    """One-time self-test of the L closed form against the numeric evaluator.

    A failure here is fatal by design: it would mean the functional-equation
    constant is wrong, and nothing downstream may use the closed form.  Only a
    pin that passes is cached, so a failed one is run again on the next use.
    """
    for k in (3, 5):
        for d in (1, 3, 7):
            fld = make_field(d)
            closed = exact_numeric(_l_closed_form(k, fld), fld)
            sv = l_numeric(k, fld, tol=mpf("1e-14"))
            if abs(closed - sv.numeric) > mpf("1e-10"):
                raise AssertionError(
                    f"L({k}, chi of d={d}): closed form {closed} disagrees with "
                    f"numeric oracle {sv.numeric}")
