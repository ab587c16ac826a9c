from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import mpf_ln2, mpf_ln10, mpf_pow_int, round_down, round_up

from hmvol import dyadic
from numeric_reference import to_fraction, to_mpf


def _raw(t) -> Fraction:
    """A raw mpf (sign, man, exp, bc) as the Fraction of the same value."""
    return to_fraction(mp.make_mpf(t))


def _relative_error(x, ref):
    with mp.workprec(600):
        return abs(to_mpf(dyadic.to_fraction(x)) / ref - 1)


@pytest.mark.parametrize("k", [-4000, -17, -1, 0, 1, 2, 17, 4000])
def test_pi_power_within_2_to_the_minus_300(k):
    with mp.workprec(600):
        assert _relative_error(dyadic.pi_power(k), mp.pi ** k) < mpf(2) ** -300, k


@pytest.mark.parametrize("x, p", [(3196, Fraction(8371, 2)), (3, Fraction(-9, 2)),
                                  (Fraction(7, 3), Fraction(-1, 2)), (6, Fraction(1, 2)),
                                  (Fraction(1, 1000), Fraction(3, 2)), (5, Fraction(7))])
def test_rational_power_within_2_to_the_minus_300(x, p):
    with mp.workprec(600):
        ref = (mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mpf(x)) \
            ** (mpf(p.numerator) / p.denominator)
        assert _relative_error(dyadic.power(x, p), ref) < mpf(2) ** -300, (x, p)


def test_power_refuses_a_root_above_the_square_root():
    # every volume exponent of |D| is n(n+3)/4 or half an integer, n(n+3) even
    for p in (Fraction(3, 4), Fraction(1, 3), Fraction(-5, 6)):
        with pytest.raises(ValueError, match="half-integer"):
            dyadic.power(3, p)


@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(-1, 3), Fraction(10**400, 7),
                               Fraction(-22, 7 * 10**500), Fraction(5, 8)])
def test_of_fraction_rounds_down_to_prec_bits(q):
    m, e = dyadic.of_fraction(q)
    assert abs(m).bit_length() == dyadic.PREC
    assert dyadic.to_fraction((m, e)) <= q < dyadic.to_fraction((m + 1, e))


def test_log_mantissas_are_mpmaths_rounded_constants():
    # the decimal exponent of a value past 2^3500 comes from ln 2 and ln 10
    # rounded down to p bits, as mpmath's mpf_ln2 and mpf_ln10 round them
    for p in range(5, 130):
        ln2, ln10 = dyadic._log_mantissas(p)
        assert _raw(mpf_ln2(p, round_down)) == Fraction(ln2, 2**p), p
        assert _raw(mpf_ln10(p, round_down)) == Fraction(ln10, 2 ** (p - 2)), p


@pytest.mark.parametrize("b", [0, 1, 2, 3, 100, 333, 334, 335, 1000, 4095, 12345, 70001])
def test_pow10_rounds_as_mpmath(b):
    ten = (0, 5, 1, 3)  # the raw mpf 10
    for prec in (26, 76, 86, 91):
        for up, rnd in ((False, round_down), (True, round_up)):
            want = _raw(mpf_pow_int(ten, b, prec, rnd))
            assert dyadic.to_fraction(dyadic._pow10(b, prec, up)) == want, (b, prec, up)
