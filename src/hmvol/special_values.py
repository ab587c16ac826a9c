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

Every value is computed once per process.  A truncated sum depends on the
tolerance only through its Euler-Maclaurin cutoff M, so the memos are keyed on
the exact inputs of the computation: (s, a, M) for a Hurwitz sum and
(k, field, M) for an L sum; tolerances that land on the same cutoff share one
sum.  The correction coefficients and the tail constant are computed once per
s and the characters chi_D(a) once per field (`quadfield.character`).
Generalized Bernoulli numbers come from integer power sums of the character,
k+1 `Fraction` terms in all, and the L closed forms are memoized on
(k, field).  The memos hold their entries for the life of the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import NamedTuple, Optional

from mpmath import mp, mpf

from .arith import bernoulli
from .quadfield import FieldData, character, make_field

WORK_DPS = 40
# Smallest accepted tolerance; a float, so the comparison does not depend on
# the mpmath precision in force at the caller.
TOL_FLOOR = mpf(10.0 ** -WORK_DPS)
_EM_TERMS = 8  # J: number of B_(2j) correction terms


class ExactForm(NamedTuple):
    """Value coeff * pi^pi_power * sqrt(|D|)^d_sqrt_power (d_sqrt_power = 0 for zeta)."""
    coeff: Fraction
    pi_power: int
    d_sqrt_power: int


@dataclass
class SpecialValue:
    numeric: mpf
    error_bound: mpf


def _rising(s: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= s + i
    return out


@cache
def _em_constants(s: int) -> tuple[tuple[mpf, ...], mpf]:
    """The correction coefficients B_2j/(2j)! (s)_(2j-1), j = 1..J, and the
    remainder-bound constant (s)_(2J+1) 2.5 / ((2pi)^(2J+1) (s+2J)), at WORK_DPS."""
    J = _EM_TERMS
    with mp.workdps(WORK_DPS):
        coeffs = []
        for j in range(1, J + 1):
            B = bernoulli(2 * j)
            coeffs.append(mpf(B.numerator) / B.denominator / factorial(2 * j)
                          * _rising(s, 2 * j - 1))
        tail = (mpf(2.5) * _rising(s, 2 * J + 1)
                / ((2 * mp.pi) ** (2 * J + 1) * (s + 2 * J)))
    return tuple(coeffs), tail


def check_tol(tol) -> None:
    """Reject a tolerance that no truncation can meet (<= 0), that is not a
    number, or that lies below the working precision, where no bound means
    anything and the Euler-Maclaurin cutoff would run to ~1e16 terms."""
    if not (mp.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")
    if tol < TOL_FLOOR:
        raise ValueError(f"tolerance {tol} is below the working precision 1e-{WORK_DPS}")


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
        return _hurwitz(s, a, _em_cutoff(s, tol))


@cache
def _hurwitz(s: int, a: Fraction, M: int) -> tuple[mpf, mpf]:
    """Euler-Maclaurin sum for zeta(s, a) truncated at M, and its remainder bound."""
    coeffs, tail = _em_constants(s)
    with mp.workdps(WORK_DPS):
        am = mpf(a.numerator) / a.denominator
        total = mp.fsum((k + am) ** (-s) for k in range(M))
        base = M + am
        total += base ** (1 - s) / (s - 1) + base ** (-s) / 2
        for j, c in enumerate(coeffs, start=1):
            total += c * base ** (-s - 2 * j + 1)
        return total, tail * base ** (-s - 2 * _EM_TERMS)


def zeta_numeric(s: int, tol=mpf("1e-12")) -> SpecialValue:
    """zeta(s) for integer s >= 2 by Euler-Maclaurin, remainder <= tol."""
    check_tol(tol)
    return SpecialValue(*hurwitz_numeric(s, 1, tol))


def zeta_exact(s: int) -> ExactForm:
    """zeta(2k) = (-1)^(k+1) B_2k 2^(2k-1)/(2k)! * pi^2k; odd arguments rejected."""
    if s < 2 or s % 2 != 0:
        raise ValueError("closed form used for even arguments >= 2 only")
    k = s // 2
    coeff = Fraction((-1) ** (k + 1)) * bernoulli(s) * 2 ** (s - 1) / factorial(s)
    return ExactForm(coeff=coeff, pi_power=s, d_sqrt_power=0)


def l_numeric(k: int, field: FieldData, tol=mpf("1e-12")) -> SpecialValue:
    """L(k, chi_D) = sum chi_D(m) m^-k for integer k >= 2, evaluated as
    f^-k sum_a chi(a) hurwitz(k, a/f)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    check_tol(tol)
    f = field.f
    with mp.workdps(WORK_DPS):
        nonzero = sum(1 for c in character(field) if c)
        tol_each = mpf(tol) * f**k / (2 * max(1, nonzero))
        return SpecialValue(*_l_hurwitz(k, field, _em_cutoff(k, tol_each)))


@cache
def _l_hurwitz(k: int, field: FieldData, M: int) -> tuple[mpf, mpf]:
    """f^-k sum_a chi(a) zeta(k, a/f) with every Hurwitz sum truncated at M,
    and the summed remainder bound."""
    f = field.f
    with mp.workdps(WORK_DPS):
        total = mpf(0)
        bound = mpf(0)
        for a, c in enumerate(character(field)):
            if c:
                v, b = _hurwitz(k, Fraction(a, f), M)
                total += c * v
                bound += b
        scale = mpf(f) ** (-k)
        return scale * total, scale * bound


def gen_bernoulli(k: int, field: FieldData) -> Fraction:
    """Generalized Bernoulli number B_(k,chi_D) = f^(k-1) sum_a chi(a) B_k(a/f).

    Expanding B_k(x) = sum_j C(k,j) B_j x^(k-j) gives
    sum_j C(k,j) B_j f^(j-1) S_(k-j) with the integer power sums
    S_m = sum_a chi(a) a^m over a = 1..f-1 (chi(f) = 0).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    f = field.f
    sums = [0] * (k + 1)
    for a, c in enumerate(character(field)):
        if c:
            power = c
            for m in range(k + 1):
                sums[m] += power
                power *= a
    total = sum(comb(k, j) * bernoulli(j) * f**j * sums[k - j] for j in range(k + 1))
    return total / f


def l_exact(k: int, field: FieldData) -> ExactForm:
    """Closed form L(k, chi_D) = (-1)^((k+1)/2) 2^(k-1) B_(k,chi)/k! * pi^k * |D|^(1/2-k)
    for odd k >= 3, with the constant pinned against the numeric oracle."""
    if k < 3 or k % 2 == 0:
        raise ValueError("closed form used for odd arguments >= 3 only")
    _pin_l_exact()
    return _l_closed_form(k, field)


@cache
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
