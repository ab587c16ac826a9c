"""Per-residue Hurwitz evaluation of zeta(s) and L(k, chi_D), kept as a test
reference for the fixed-point power sums of `hmvol.special_values`.

L(k, chi_D) = f^-k sum_a chi(a) zeta(k, a/f), each Hurwitz zeta(k, a/f) an
Euler-Maclaurin sum in mpf arithmetic at WORK_DPS, truncated at the same
cutoff M as the package and with the same remainder bound per residue.  It
makes one mpf power per term and residue, which is what the package no longer
does.  `float_cutoff` makes the cutoff's remainder constant in floats alone;
the package reads the float of its exact constant, and both must pick the
same M.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, inf, perm, pi

from mpmath import mp, mpf

from hmvol.arith import bernoulli
from hmvol.quadfield import FieldData, character
from hmvol.special_values import _EM_TERMS, WORK_DPS, _em_cutoff, check_tol


@cache
def em_constants(s: int) -> tuple[tuple[mpf, ...], mpf]:
    """B_2j/(2j)! (s)_(2j-1), j = 1..J, and the remainder-bound constant, in mpf."""
    J = _EM_TERMS
    with mp.workdps(WORK_DPS):
        coeffs = []
        for j in range(1, J + 1):
            B = bernoulli(2 * j)
            coeffs.append(mpf(B.numerator) / B.denominator / factorial(2 * j)
                          * perm(s + 2 * j - 2, 2 * j - 1))
        tail = (mpf(2.5) * perm(s + 2 * J, 2 * J + 1)
                / ((2 * mp.pi) ** (2 * J + 1) * (s + 2 * J)))
    return tuple(coeffs), tail


def float_cutoff(s: int, num: int, den: int) -> int:
    """The cutoff M for a truncation error of at most num/den, with the
    remainder constant (s)_(2J+1) 2.5 / ((2pi)^(2J+1) (s+2J)) made in floats."""
    J = _EM_TERMS
    c = 2.5 * perm(s + 2 * J, 2 * J + 1) / ((2 * pi) ** (2 * J + 1) * (s + 2 * J))
    try:
        limit = num / den
    except OverflowError:
        limit = inf
    M = 2
    while c * M ** (-(s + 2 * J)) > limit:
        M += 1 + M // 4
    return M


@cache
def hurwitz(s: int, a: Fraction, M: int) -> tuple[mpf, mpf]:
    """Euler-Maclaurin sum for zeta(s, a) truncated at M, and its remainder bound."""
    coeffs, tail = em_constants(s)
    with mp.workdps(WORK_DPS):
        am = mpf(a.numerator) / a.denominator
        total = mp.fsum((k + am) ** (-s) for k in range(M))
        base = M + am
        total += base ** (1 - s) / (s - 1) + base ** (-s) / 2
        for j, c in enumerate(coeffs, start=1):
            total += c * base ** (-s - 2 * j + 1)
        return total, tail * base ** (-s - 2 * _EM_TERMS)


@cache
def l_hurwitz(k: int, field: FieldData, M: int) -> tuple[mpf, mpf]:
    """f^-k sum_a chi(a) zeta(k, a/f) with every Hurwitz sum truncated at M,
    and the summed remainder bound."""
    f = field.f
    with mp.workdps(WORK_DPS):
        total = mpf(0)
        bound = mpf(0)
        for a, c in enumerate(character(field)):
            if c:
                v, b = hurwitz(k, Fraction(a, f), M)
                total += c * v
                bound += b
        scale = mpf(f) ** (-k)
        return scale * total, scale * bound


def hurwitz_numeric(s: int, a, tol) -> tuple[mpf, mpf]:
    """zeta(s, a) for rational 0 < a <= 1 at the package's cutoff for tol."""
    t = Fraction(tol)
    with mp.workdps(WORK_DPS):
        return hurwitz(s, Fraction(a), _em_cutoff(s, t.numerator, t.denominator))


def zeta_numeric(s: int, tol) -> tuple[mpf, mpf]:
    check_tol(tol)
    return hurwitz_numeric(s, 1, tol)


def l_numeric(k: int, field: FieldData, tol) -> tuple[mpf, mpf]:
    """L(k, chi_D) with the package's split of tol over the residues."""
    check_tol(tol)
    nonzero = sum(1 for c in character(field) if c)
    tol_each = Fraction(tol) * field.f**k / (2 * max(1, nonzero))
    return l_hurwitz(k, field, _em_cutoff(k, tol_each.numerator, tol_each.denominator))
