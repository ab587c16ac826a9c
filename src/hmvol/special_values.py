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

Tolerances are exact down to TOL_FLOOR = 1e-40 (WORK_DPS digits); the fixed
point of 2^-256 and the PREC-bit products of `dyadic` keep every rounding far
below the stated truncation bounds.  `check_tol` checks and converts each
tolerance once per process; past it a tolerance travels as an integer ratio
num/den.  A float only picks the cutoff: that of num/den against that of the
exact remainder constant, both correctly rounded.

Each numeric value is one power sum sum_n w(n) n^-s of a weight of period f
(chi_D for L, f = |D|; 1 for zeta), in fixed point where the integer 2^256
stands for 1: exact over m = 1..M f, then the Euler-Maclaurin tail at the f
points n = M f + a.  Each point's tail polynomial in y = f/n, over one common
denominator, is one integer over n^E, built by Horner in n and floored once.
Every floor is off by under one unit and is added to the bound, whose own
power sum is rounded up.  The sum and its bound reach the caller as exact
`Fraction`s.  They depend on the tolerance only through M, so they are
memoized on (s, weights, M) as the immutable `SpecialValue` every caller
shares.  One memo per s, `_em_constants`, holds the tail's weights and the
remainder constant, which the bound and the cutoff read; chi_D(a) is made
once per field (`quadfield.character`), the exact zeta(2k) once per k, and
the L closed forms once per (k, field), from generalized Bernoulli numbers
made of integer power sums of the character over one common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, factorial, inf, lcm, perm
from operator import floordiv, mul
from typing import NamedTuple, Optional

from . import dyadic
from .arith import bernoulli
from .quadfield import FieldData, character, make_field

WORK_DPS = 40
# Smallest accepted tolerance: the float 1e-40 as an exact Fraction, made once
# so that no check converts it again.
TOL_FLOOR = Fraction(10.0 ** -WORK_DPS)
_EM_TERMS = 8  # J: number of B_(2j) correction terms
_FIXED_BITS = 256  # the power sums are integers in units of 2^-256


class ExactForm(NamedTuple):
    """Value coeff * pi^pi_power * sqrt(|D|)^d_sqrt_power (d_sqrt_power = 0 for zeta)."""
    coeff: Fraction
    pi_power: int
    d_sqrt_power: int


@dataclass(frozen=True)
class SpecialValue:
    """A numeric value and its error bound, both exact dyadic rationals.  The
    memos hand the same instance to every caller, so it is immutable."""
    numeric: Fraction
    error_bound: Fraction


@cache
def _em_constants(s: int) -> tuple[tuple[tuple[int, int], ...], int, Fraction]:
    """The Euler-Maclaurin constants of exponent s: the tail's terms (e, num_e),
    where num_e / den is the coefficient 1/(s-1), 1/2 or B_2j/(2j)! (s)_(2j-1),
    j = 1..J, of y^e; their common denominator den; and the remainder-bound
    constant (s)_(2J+1) 2.5 / ((2pi)^(2J+1) (s+2J)) cut to `dyadic.PREC` bits:
    2.5 exceeds the exact constant 2 zeta(2J+1) of the periodic Bernoulli bound
    by far more than that cut.  The rising factorial (s)_k is perm(s + k - 1, k)."""
    J = _EM_TERMS
    coeffs = [Fraction(1, s - 1), Fraction(1, 2)] + [
        bernoulli(2 * j) * Fraction(perm(s + 2 * j - 2, 2 * j - 1), factorial(2 * j))
        for j in range(1, J + 1)]
    den = lcm(*(c.denominator for c in coeffs))
    exps = (s - 1, s) + tuple(range(s + 1, s + 2 * J, 2))
    # 2.5 / 2^(2J+1) = 5 / 2^(2J+2)
    scale = Fraction(5 * perm(s + 2 * J, 2 * J + 1), 2 ** (2 * J + 2) * (s + 2 * J))
    tail = dyadic.mul(dyadic.of_fraction(scale), dyadic.pi_power(-(2 * J + 1)))
    return (tuple((e, c.numerator * (den // c.denominator)) for e, c in zip(exps, coeffs)),
            den, dyadic.to_fraction(tail))


# typed: a hit needs a tolerance of the type that passed, not merely an equal
# one (an mpf equal to an accepted float is still refused)
@lru_cache(maxsize=None, typed=True)
def check_tol(tol) -> Fraction:
    """tol (an int, float or Fraction) as an exact Fraction.  Reject a
    tolerance that no truncation can meet (<= 0), that is not one of those
    numbers, or that lies below the working precision, where no bound means
    anything and the Euler-Maclaurin cutoff would run to ~1e16 terms.  Each
    accepted tolerance is checked and converted once per process."""
    try:
        t = Fraction(tol) if isinstance(tol, (int, float, Fraction)) else None
    except (ValueError, OverflowError):
        t = None
    if t is None or t <= 0:
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")
    if t < TOL_FLOOR:
        raise ValueError(f"tolerance {tol} is below the working precision 1e-{WORK_DPS}")
    return t


def _em_cutoff(s: int, num: int, den: int) -> int:
    """The cutoff M for a truncation error of at most num/den: the float of the
    remainder constant of `_em_constants` against the float of num/den (int /
    int, and so Fraction to float, rounds correctly)."""
    c = float(_em_constants(s)[2])
    try:
        limit = num / den
    except OverflowError:  # a ratio past the float range: no term is needed
        limit = inf
    M = 2
    while c * M ** (-(s + 2 * _EM_TERMS)) > limit:
        M += 1 + M // 4
    return M


def hurwitz_numeric(s: int, a, tol) -> tuple[Fraction, Fraction]:
    """Hurwitz zeta(s, a) = q^s sum_(n = p mod q) n^-s for integer s >= 2 and
    rational 0 < a = p/q <= 1, with an explicit remainder bound <= tol."""
    t = check_tol(tol)
    if s < 2:
        raise ValueError("s must be >= 2")
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("a must lie in (0, 1]")
    q = a.denominator
    weights = tuple(int(r == a.numerator % q) for r in range(q))
    sv = _power_sum(s, weights, _em_cutoff(s, t.numerator, t.denominator))
    scale = q**s
    return sv.numeric * scale, sv.error_bound * scale


@cache
def _power_sum(s: int, weights: tuple[int, ...], M: int) -> SpecialValue:
    """sum_(n >= 1) w(n) n^-s for w(n) = weights[n mod f] in {-1, 0, 1},
    f = len(weights), truncated at M f, and its remainder bound, both summed as
    integers in units of 2^-256 and returned as Fractions.  With y = f/n,
    n = M f + a, the tail is f^-s sum_a w(a) [y^(s-1)/(s-1) + y^s/2 +
    sum_j c_j y^(s+2j-1)], the remainder at most f^-s tail sum_(w(a) != 0) y^(s+2J).
    With the bracket's coefficients c_e = num_e / den and E = s + 2J - 1, each
    tail point's bracket is A(n) / (den n^E) for the integer A(n) =
    2^256 sum_e num_e f^e n^(E-e), built by Horner in n (a step of n where the
    exponent steps by 1, of n^2 where it steps by 2) and floored once."""
    f, one = len(weights), 1 << _FIXED_BITS
    plus, minus = _residues(weights)
    head = (sum(one // (j * f + a) ** s for j in range(M) for a in plus)
            - sum(one // (j * f + a) ** s for j in range(M) for a in minus))
    ns = [M * f + a for a in plus + minus]  # the tail points, weight 1 first
    k = len(plus)
    squares = list(map(mul, ns, ns))
    terms, den, tail = _em_constants(s)
    (e, c), *steps = terms
    acc = [one * c * f**e] * len(ns)
    for e, c in steps:
        acc = map((one * c * f**e).__add__, map(mul, acc, ns if e <= s + 1 else squares))
    powers = [n**e for n in ns]  # e is now E, the last exponent
    brackets = list(map(floordiv, acc, powers))  # floor(2^256 den [...]) per point
    floor = (-one * f ** (s + 2 * _EM_TERMS)).__floordiv__
    rest = -sum(map(floor, map(mul, powers, ns)))  # sum_a y^(s+2J), rounded up
    scale = f**s
    value = head + (sum(brackets[:k]) - sum(brackets[k:])) // (den * scale)
    # M head floors and one bracket floor per point, each short by under one
    # unit (a bracket's by under 1/(den f^s)), and the division just made
    floors = (M + 1) * len(ns) + 1
    return SpecialValue(Fraction(value, one), Fraction(
        tail.numerator * -(-rest // scale) + floors * tail.denominator, tail.denominator * one))


@cache
def _residues(weights: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The residues a = 1..f of weight 1 and those of weight -1."""
    f = len(weights)
    return (tuple(a for a in range(1, f + 1) if weights[a % f] == 1),
            tuple(a for a in range(1, f + 1) if weights[a % f] == -1))


def zeta_numeric(s: int, tol=1e-12) -> SpecialValue:
    """zeta(s) for integer s >= 2 by Euler-Maclaurin, remainder <= tol."""
    t = check_tol(tol)
    if s < 2:
        raise ValueError("s must be >= 2")
    return _zeta(s, t.numerator, t.denominator)


def _zeta(s: int, num: int, den: int) -> SpecialValue:
    """zeta(s) with a remainder of at most num/den."""
    return _power_sum(s, (1,), _em_cutoff(s, num, den))


@cache
def zeta_exact(s: int) -> ExactForm:
    """zeta(2k) = (-1)^(k+1) B_2k 2^(2k-1)/(2k)! * pi^2k; odd arguments rejected."""
    if s < 2 or s % 2 != 0:
        raise ValueError("closed form used for even arguments >= 2 only")
    k = s // 2
    coeff = Fraction((-1) ** (k + 1)) * bernoulli(s) * 2 ** (s - 1) / factorial(s)
    return ExactForm(coeff=coeff, pi_power=s, d_sqrt_power=0)


def l_numeric(k: int, field: FieldData, tol=1e-12) -> SpecialValue:
    """L(k, chi_D) = sum chi_D(m) m^-k for integer k >= 2, evaluated as the power
    sum of the character with the remainder split evenly over its residues."""
    if k < 2:
        raise ValueError("k must be >= 2")
    t = check_tol(tol)
    return _l(k, field, t.numerator, t.denominator)


def _l(k: int, field: FieldData, num: int, den: int) -> SpecialValue:
    """L(k, chi_D) with a remainder of at most num/den: each residue's share,
    num f^k / (2 den #{a : chi_D(a) != 0}), picks the cutoff."""
    weights = character(field)
    plus, minus = _residues(weights)
    return _power_sum(k, weights, _em_cutoff(k, num * field.f**k,
                                             2 * den * max(1, len(plus) + len(minus))))


def gen_bernoulli(k: int, field: FieldData) -> Fraction:
    """Generalized Bernoulli number B_(k,chi_D) = f^(k-1) sum_a chi(a) B_k(a/f).

    Expanding B_k(x) = sum_j C(k,j) B_j x^(k-j) gives
    sum_j C(k,j) B_j f^(j-1) S_(k-j) with the integer power sums
    S_m = sum_a chi(a) a^m over a = 1..f-1 (chi(f) = 0).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    f = field.f
    plus, minus = _residues(character(field))  # chi(f) = 0, so a = 1..f-1
    residues, sums = plus + minus, []
    powers = [1] * len(residues)
    for _ in range(k + 1):
        sums.append(sum(powers[:len(plus)]) - sum(powers[len(plus):]))
        powers = list(map(mul, powers, residues))
    # B_j = num_j / den_j over one common denominator, so the sum is on integers
    bs = [bernoulli(j) for j in range(k + 1)]
    den = lcm(*(b.denominator for b in bs))
    total = sum(comb(k, j) * (den // b.denominator * b.numerator) * f**j * sums[k - j]
                for j, b in enumerate(bs) if b)
    return Fraction(total, den * f)


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


def exact_numeric(form: ExactForm, field: Optional[FieldData] = None) -> Fraction:
    """coeff pi^pi_power sqrt(|D|)^d_sqrt_power as a dyadic rational, every
    product cut to `dyadic.PREC` bits."""
    v = dyadic.mul(dyadic.of_fraction(form.coeff), dyadic.pi_power(form.pi_power))
    if form.d_sqrt_power:
        v = dyadic.mul(v, dyadic.power(field.f, Fraction(form.d_sqrt_power, 2)))
    return dyadic.to_fraction(v)


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
            sv = l_numeric(k, fld, tol=1e-14)
            if abs(closed - sv.numeric) > Fraction(1, 10**10):
                raise AssertionError(
                    f"L({k}, chi of d={d}): closed form {float(closed)!r} disagrees with "
                    f"numeric oracle {float(sv.numeric)!r}")
