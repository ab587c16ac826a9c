from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from hmvol import special_values
from hmvol.quadfield import make_field
from hmvol.special_values import (exact_numeric, gen_bernoulli, hurwitz_numeric,
                                  l_exact, l_numeric, zeta_exact, zeta_numeric)

F1, F3, F7, F11 = make_field(1), make_field(3), make_field(7), make_field(11)


def test_zeta_numeric_classical_values():
    with mp.workdps(40):
        for s, ref in [(2, mp.pi**2 / 6), (4, mp.pi**4 / 90), (3, mpmath.zeta(3))]:
            sv = zeta_numeric(s, mpf("1e-12"))
            assert abs(sv.numeric - ref) <= sv.error_bound
            assert sv.error_bound <= mpf("1e-12")


def test_zeta_error_bound_is_honest():
    with mp.workdps(50):
        for s in range(2, 13):
            sv = zeta_numeric(s, mpf("1e-14"))
            assert abs(sv.numeric - mpmath.zeta(s)) <= sv.error_bound


def test_hurwitz_against_mpmath():
    with mp.workdps(40):
        for s, a in [(2, Fraction(1, 3)), (5, Fraction(3, 4)), (3, Fraction(1, 7))]:
            v, b = hurwitz_numeric(s, a, mpf("1e-16"))
            ref = mpmath.zeta(s, mpf(a.numerator) / a.denominator)
            assert abs(v - ref) <= b


def test_zeta_exact_values():
    assert zeta_exact(2) == (Fraction(1, 6), 2, 0)
    assert zeta_exact(4) == (Fraction(1, 90), 4, 0)
    assert zeta_exact(6) == (Fraction(1, 945), 6, 0)
    with pytest.raises(ValueError):
        zeta_exact(3)


def test_zeta_numeric_vs_exact_even_arguments():
    for s in (2, 4, 6, 8, 10, 12):
        sv = zeta_numeric(s, mpf("1e-12"))
        assert abs(sv.numeric - exact_numeric(zeta_exact(s))) <= 2 * mpf("1e-12")


def test_l_numeric_spot_values():
    sv = l_numeric(3, F3, mpf("1e-10"))
    assert abs(sv.numeric - mpf("0.884023811750")) < mpf("1e-6")
    cat = l_numeric(2, F1, mpf("1e-10"))
    assert abs(cat.numeric - mpmath.catalan) <= cat.error_bound


def test_l_numeric_modes_agree():
    for k, field in [(3, F3), (5, F3), (2, F1), (4, F7)]:
        a = l_numeric(k, field, mpf("1e-10"), method="hurwitz")
        b = l_numeric(k, field, mpf("1e-10"), method="partial")
        assert abs(a.numeric - b.numeric) <= a.error_bound + b.error_bound


def test_gen_bernoulli_examples():
    assert gen_bernoulli(1, F1) == Fraction(-1, 2)
    assert gen_bernoulli(3, F3) == Fraction(2, 3)
    assert gen_bernoulli(2, F3) == 0


def test_gen_bernoulli_parity_vanishing():
    # chi_D is odd, so B_(k,chi) = 0 for even k
    for d in (1, 3, 7, 11):
        field = make_field(d)
        for k in (2, 4, 6):
            assert gen_bernoulli(k, field) == 0, (d, k)


def test_l_exact_spot_values():
    form = l_exact(3, F3)
    # (4/9) pi^3 |D|^(-5/2) = (4/81) pi^3 / sqrt(3)
    assert form.coeff * Fraction(1, 3**2) == Fraction(4, 81)
    assert (form.pi_power, form.d_sqrt_power) == (3, -5)
    with mp.workdps(40):
        assert abs(exact_numeric(form, F3) - (mpf(4) / 81) * mp.pi**3 / mp.sqrt(3)) < mpf("1e-30")
    form1 = l_exact(3, F1)
    with mp.workdps(40):
        assert abs(exact_numeric(form1, F1) - mp.pi**3 / 32) < mpf("1e-30")
    with pytest.raises(ValueError):
        l_exact(4, F3)


def test_l_exact_matches_numeric_oracle():
    for k in (3, 5, 7):
        for d in (1, 3, 7, 11):
            field = make_field(d)
            sv = l_numeric(k, field, mpf("1e-10"))
            closed = exact_numeric(l_exact(k, field), field)
            assert abs(sv.numeric - closed) <= 2 * mpf("1e-10"), (k, d)


def test_euler_product_cross_check():
    # prod_(p<=1e5) (1 - chi(p) p^-k)^-1 approximates L(k) within P^(1-k)/(k-1) tails
    P = 10**5
    flags = bytearray([1]) * (P + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(P**0.5) + 1):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
    primes = [p for p in range(P + 1) if flags[p]]
    from hmvol.arith import kronecker
    with mp.workdps(40):
        for k, field in [(3, F3), (5, F11)]:
            prod = mpf(1)
            for p in primes:
                c = kronecker(field.D, p)
                if c:
                    prod /= 1 - mpf(c) * mpf(p) ** (-k)
            sv = l_numeric(k, field, mpf("1e-14"))
            tail = 4 * mpf(P) ** (1 - k) / (k - 1)
            assert abs(prod - sv.numeric) <= tail + sv.error_bound, (k, field.d)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        zeta_numeric(1)
    with pytest.raises(ValueError):
        l_numeric(1, F3)
    with pytest.raises(ValueError):
        l_exact(2, F3)
    with pytest.raises(ValueError):
        gen_bernoulli(0, F3)
    with pytest.raises(ValueError):
        l_numeric(3, F3, method="nope")
    for tol in (0, -1, float("nan"), float("inf"), mpf("-1e-12")):
        with pytest.raises(ValueError):
            zeta_numeric(2, tol)
        for method in ("hurwitz", "partial"):
            with pytest.raises(ValueError):
                l_numeric(3, F3, tol, method=method)


def test_failed_pin_raises_again_on_every_use(monkeypatch):
    closed_form = special_values._l_closed_form
    monkeypatch.setattr(special_values, "_l_closed_form",
                        lambda k, f: closed_form(k, f)._replace(coeff=2 * closed_form(k, f).coeff))
    special_values._pin_l_exact.cache_clear()
    for _ in range(2):
        with pytest.raises(AssertionError):
            l_exact(3, F3)
    monkeypatch.undo()
    assert l_exact(3, F3) == closed_form(3, F3) == (Fraction(4, 9), 3, -5)
