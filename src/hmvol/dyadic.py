"""Dyadic floats: numeric values as integer pairs (m, e) standing for m 2^e.

Every product is cut to PREC significant bits.  The special values are
integers in units of 2^-256 (`special_values`), and PREC keeps 64 guard bits
beyond them.  So the prefix of an n = 90 volume (pi to a power near 4000,
|D| to a power with denominator 2) stays within about 2^-300 of its exact
relative value, while each product is one multiplication of PREC-bit
integers.  A value leaves this module as an exact dyadic `Fraction`.

`decimal_digits` writes a dyadic value as decimal digits the way mpmath does
(`mpmath.libmp.to_digits_exp`), so that output formatted from it reads as
mpmath's `nstr` of the same value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

PREC = 320


def cut(m: int, e: int, up: bool = False, prec: int = PREC) -> tuple[int, int]:
    """m 2^e with m cut to prec bits, rounded down (up with up=True)."""
    s = m.bit_length() - prec
    if s <= 0:
        return m, e
    return (-(-m >> s) if up else m >> s), e + s


def mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x y, cut to PREC bits."""
    return cut(x[0] * y[0], x[1] + y[1])


def of_fraction(q) -> tuple[int, int]:
    """The rational q (a Fraction or an int) to PREC bits, rounded down."""
    num, den = q.as_integer_ratio()
    s = PREC + den.bit_length() - num.bit_length()
    return cut((num << s) // den if s >= 0 else num // (den << -s), -s)


def to_fraction(x: tuple[int, int]) -> Fraction:
    """m 2^e as an exact Fraction."""
    m, e = x
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def power(x, p) -> tuple[int, int]:
    """x^p for rational x > 0 and p an integer or a half-integer: x^floor(p)
    exactly, times the floor of a square root for x^(1/2).  The volumes carry
    |D|^((n^2+3n)/4) and n(n+3) is even, so no exponent needs a higher root."""
    x, p = Fraction(x), Fraction(p)
    if p.denominator > 2:
        raise ValueError(f"exponent {p} is not an integer or a half-integer")
    q, r = divmod(p.numerator, p.denominator)
    out = of_fraction(x ** q)
    if r:
        s = PREC + x.denominator.bit_length()
        out = mul(out, (math.isqrt((x.numerator << 2 * s) // x.denominator), -s))
    return out


@cache
def _pi() -> tuple[int, int]:
    """pi by Machin's formula, 16 guard bits, cut to PREC bits."""
    w = PREC + 16

    def acot(x):  # atan(1/x) 2^w, each term floored
        total, power_, k, sign = 0, (1 << w) // x, 1, 1
        while power_:
            total += sign * (power_ // k)
            power_ //= x * x
            k, sign = k + 2, -sign
        return total
    return cut(16 * acot(5) - 4 * acot(239), -w)


@cache
def pi_power(k: int) -> tuple[int, int]:
    """pi^k for any integer k, by squaring with a cut after each product;
    memoized, since every volume of one n shares its power of pi."""
    x, out = _pi(), (1, 0)
    for bit in bin(abs(k))[2:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    if k < 0:
        out = cut((1 << 2 * PREC) // out[0], -2 * PREC - out[1])
    return out


@cache
def _log_mantissas(p: int) -> tuple[int, int]:
    """floor(ln 2 2^p) and floor(ln 10 2^(p-2)): ln 2 and ln 10 rounded down
    to p bits, from ln 2 = sum 1/(k 2^k) and ln 10 = 3 ln 2 + 2 atanh(1/9),
    with 40 guard bits."""
    w = p + 40
    ln2 = sum((1 << w) // (k << k) for k in range(1, w + 1))
    atanh, x, k = 0, (1 << w) // 9, 1
    while x:
        atanh += x // k
        x, k = x // 81, k + 2
    return ln2 >> 40, (3 * ln2 + 2 * atanh) >> 42


def _pow10(b: int, prec: int, up: bool) -> tuple[int, int]:
    """10^b, b >= 0, rounded to prec bits as mpmath's mpf_pow_int rounds it:
    exactly below 3b = 1000 bits, else by squaring at a working precision."""
    if 3 * b < 1000:
        return cut(5**b, b, up, prec)
    work = prec + 4 * b.bit_length() + 4
    x, out = (5, 1), (1, 0)
    while True:
        if b & 1:
            out = cut(out[0] * x[0], out[1] + x[1], up, work)
            b -= 1
            if not b:
                return cut(*out, up, prec)
        x = cut(x[0] * x[0], 2 * x[1], up, work)
        b //= 2


def _quotient(m: int, e: int, t: tuple[int, int], prec: int) -> tuple[int, int]:
    """(m 2^e) / t, rounded toward zero to prec bits."""
    k = prec + t[0].bit_length() - m.bit_length() + 1
    q = (m << k) // t[0] if k >= 0 else m // (t[0] << -k)
    return cut(q, e - t[1] - k, prec=prec)


_LOG2_10 = math.log(10, 2)


def decimal_digits(m: int, e: int, dps: int) -> tuple[str, int]:
    """The decimal digits of m 2^e > 0, rounded toward zero, and the decimal
    exponent of the first: at least dps digits, as mpmath's to_digits_exp
    computes them.  The value is first rounded toward zero to a fixed point of
    int(dps log2(10)) + 10 significant bits; past 2^3500 or below 2^-3500 it is
    first divided by a power of ten that mpmath rounds as `_pow10` does."""
    t = (m & -m).bit_length() - 1  # mpmath keeps the mantissa odd
    m, e = m >> t, e + t
    bitprec = int(dps * _LOG2_10) + 10
    exponent = 0
    if abs(e + m.bit_length()) > 3500:
        p = abs(e).bit_length() + 5
        ln2, ln10 = _log_mantissas(p)
        b = abs(e) * ln2 // (4 * ln10)  # e log10(2) at p bits, toward zero
        b = -b if e < 0 else b
        ten = _pow10(b, bitprec, False) if b >= 0 else \
            _quotient(1, 0, _pow10(-b, bitprec + 5, True), bitprec)
        (m, e), exponent = _quotient(m, e, ten, bitprec), b
    fixprec = max(bitprec - e - m.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = e + fixprec
    digits = str((m << shift if shift >= 0 else m >> -shift) * 10**fixdps >> fixprec)
    return digits, exponent + len(digits) - fixdps - 1
