from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import lcm

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, nstr

from hmvol import special_values
from hmvol.arith import bernoulli_poly, is_squarefree, kronecker
from hmvol.quadfield import character, make_field
from hmvol.special_values import (exact_numeric, gen_bernoulli, hurwitz_numeric,
                                  l_exact, l_numeric, zeta_exact, zeta_numeric)
import hurwitz_reference
from memos import clear_memos
from numeric_reference import to_mpf
from power_sum_reference import power_sum

F1, F3, F7, F11 = make_field(1), make_field(3), make_field(7), make_field(11)


def test_zeta_numeric_classical_values():
    with mp.workdps(40):
        for s, ref in [(2, mp.pi**2 / 6), (4, mp.pi**4 / 90), (3, mpmath.zeta(3))]:
            sv = zeta_numeric(s, 1e-12)
            assert abs(to_mpf(sv.numeric) - ref) <= to_mpf(sv.error_bound)
            assert to_mpf(sv.error_bound) <= mpf("1e-12")


def test_zeta_error_bound_is_honest():
    with mp.workdps(50):
        for s in range(2, 13):
            sv = zeta_numeric(s, 1e-14)
            assert abs(to_mpf(sv.numeric) - mpmath.zeta(s)) <= to_mpf(sv.error_bound)


def test_hurwitz_against_mpmath():
    with mp.workdps(40):
        for s, a in [(2, Fraction(1, 3)), (5, Fraction(3, 4)), (3, Fraction(1, 7))]:
            ref = mpmath.zeta(s, mpf(a.numerator) / a.denominator)
            for evaluate in (hurwitz_numeric, hurwitz_reference.hurwitz_numeric):
                v, b = evaluate(s, a, 1e-16)
                if evaluate is hurwitz_numeric:
                    v, b = to_mpf(v), to_mpf(b)
                assert abs(v - ref) <= b


def test_zeta_exact_values():
    assert zeta_exact(2) == (Fraction(1, 6), 2, 0)
    assert zeta_exact(4) == (Fraction(1, 90), 4, 0)
    assert zeta_exact(6) == (Fraction(1, 945), 6, 0)
    with pytest.raises(ValueError):
        zeta_exact(3)


def test_zeta_numeric_vs_exact_even_arguments():
    for s in (2, 4, 6, 8, 10, 12):
        sv = zeta_numeric(s, 1e-12)
        assert abs(to_mpf(sv.numeric - exact_numeric(zeta_exact(s)))) <= 2 * mpf("1e-12")


def test_l_numeric_spot_values():
    sv = l_numeric(3, F3, 1e-10)
    assert abs(to_mpf(sv.numeric) - mpf("0.884023811750")) < mpf("1e-6")
    cat = l_numeric(2, F1, 1e-10)
    assert abs(to_mpf(cat.numeric) - mpmath.catalan) <= to_mpf(cat.error_bound)
    # a residue's share 1e300 f^7 / ... lies past the float range: no term is needed
    loose = l_numeric(7, make_field(797), 1e300)
    assert loose.error_bound <= Fraction(1e300)


def _l_partial(k, field, tol):
    """L(k, chi_D) as the plain partial sum up to M, with its tail bounded by
    f M^-k (Abel summation against the period-zero character sums).  The sum
    runs in integers in units of 2^-256, each term floored, so M more units
    bound the rounding."""
    f = field.f
    M = 2
    while f * float(M) ** (-k) > float(tol):
        M += 1 + M // 8
    chi = [0] + [kronecker(field.D, a) for a in range(1, f)]
    one = 1 << 256
    total = sum(c * (one // m**k) for m in range(1, M + 1) if (c := chi[m % f]))
    with mp.workdps(special_values.WORK_DPS):
        return mp.ldexp(mpf(total), -256), mpf(f) * mpf(M) ** (-k) + mp.ldexp(M, -256)


def test_l_numeric_modes_agree():
    # the Hurwitz evaluation against the partial-sum reference
    for k, field in [(3, F3), (5, F3), (2, F1), (4, F7)]:
        a = l_numeric(k, field, 1e-10)
        value, bound = _l_partial(k, field, 1e-10)
        assert abs(to_mpf(a.numeric) - value) <= to_mpf(a.error_bound) + bound


def test_gen_bernoulli_examples():
    assert gen_bernoulli(1, F1) == Fraction(-1, 2)
    assert gen_bernoulli(3, F3) == Fraction(2, 3)
    assert gen_bernoulli(2, F3) == 0


@pytest.mark.parametrize("d", [1, 3, 5, 7, 15, 141])
def test_gen_bernoulli_equals_the_bernoulli_polynomial_definition(d):
    field = make_field(d)
    f = field.f
    for k in range(1, 8):
        slow = Fraction(f) ** (k - 1) * sum(
            (kronecker(field.D, a) * bernoulli_poly(k, Fraction(a, f)) for a in range(1, f)),
            Fraction(0))
        assert gen_bernoulli(k, field) == slow, (d, k)


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
        assert abs(to_mpf(exact_numeric(form, F3)) - (mpf(4) / 81) * mp.pi**3 / mp.sqrt(3)) \
            < mpf("1e-30")
    form1 = l_exact(3, F1)
    with mp.workdps(40):
        assert abs(to_mpf(exact_numeric(form1, F1)) - mp.pi**3 / 32) < mpf("1e-30")
    with pytest.raises(ValueError):
        l_exact(4, F3)


def test_l_exact_matches_numeric_oracle():
    for k in (3, 5, 7):
        for d in (1, 3, 7, 11):
            field = make_field(d)
            sv = l_numeric(k, field, 1e-10)
            closed = exact_numeric(l_exact(k, field), field)
            assert abs(to_mpf(sv.numeric - closed)) <= 2 * mpf("1e-10"), (k, d)


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
            sv = l_numeric(k, field, 1e-14)
            tail = 4 * mpf(P) ** (1 - k) / (k - 1)
            assert abs(prod - to_mpf(sv.numeric)) <= tail + to_mpf(sv.error_bound), (k, field.d)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        zeta_numeric(1)
    with pytest.raises(ValueError):
        l_numeric(1, F3)
    with pytest.raises(ValueError):
        l_exact(2, F3)
    with pytest.raises(ValueError):
        gen_bernoulli(0, F3)
    with pytest.raises(ValueError, match="s must be"):
        hurwitz_numeric(1, Fraction(1, 2), 1e-12)
    for a in (0, Fraction(-1, 3), Fraction(3, 2)):
        with pytest.raises(ValueError, match="a must lie"):
            hurwitz_numeric(2, a, 1e-12)
    # a tolerance is an int, float or Fraction: a string or an mpf is refused
    for tol in (0, -1, float("nan"), float("inf"), Fraction(-1, 10**12), "1e-12",
                mpf("1e-12")):
        with pytest.raises(ValueError):
            zeta_numeric(2, tol)
        with pytest.raises(ValueError):
            l_numeric(3, F3, tol)
        # checked before the cutoff search, which would never end at these
        with pytest.raises(ValueError):
            hurwitz_numeric(2, 1, tol)


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


def test_warm_memo_returns_the_cold_values(cold_memos):
    cases = [(3, F3, "1e-10"), (3, F3, "1e-12"), (3, F3, "1e-20"), (5, F7, "1e-14"),
             (2, F1, "1e-12"), (4, F11, "1e-20"), (3, make_field(141), "1e-12")]
    cold = []
    for k, field, tol in cases:
        cold_memos()
        sv = l_numeric(k, field, float(tol))
        z = zeta_numeric(k, float(tol))
        cold.append((sv.numeric, sv.error_bound, z.numeric, z.error_bound,
                     l_exact(3, field), gen_bernoulli(k, field)))
    cold_memos()
    for _ in range(2):
        warm = {}
        for i in reversed(range(len(cases))):
            k, field, tol = cases[i]
            sv = l_numeric(k, field, float(tol))
            z = zeta_numeric(k, float(tol))
            warm[i] = (sv.numeric, sv.error_bound, z.numeric, z.error_bound,
                       l_exact(3, field), gen_bernoulli(k, field))
            for value in (sv, z):  # every caller shares one value, so none may change it
                with pytest.raises(FrozenInstanceError):
                    value.numeric = mpf(0)
        assert [warm[i] for i in range(len(cases))] == cold


def test_memo_never_hands_back_a_looser_bound():
    for tol in ("1e-10", "1e-20"):
        assert to_mpf(l_numeric(3, F3, float(tol)).error_bound) <= mpf(tol)
        assert to_mpf(zeta_numeric(3, float(tol)).error_bound) <= mpf(tol)
        assert to_mpf(hurwitz_numeric(3, Fraction(1, 3), float(tol))[1]) <= mpf(tol)
        assert hurwitz_reference.hurwitz_numeric(3, Fraction(1, 3), float(tol))[1] <= mpf(tol)


def test_cutoff_matches_the_float_formula():
    # _em_cutoff reads the float of the exact remainder constant, which differs
    # from the constant made in floats in its last bits, so M is pinned at every
    # share the program asks for: the flat tolerance of zeta_numeric and
    # hurwitz_numeric, and that tolerance split 1/(8 #factors) over the 1..40
    # factors of a volume at n <= 40 (volume._special_factors, floored at
    # TOL_FLOOR), each also as _l's share num f^k / (2 den #residues)
    residues = [(fld.f, len(character(fld)) - character(fld).count(0))
                for fld in map(make_field, (1, 3, 7, 797))]
    for tol in (1e-10, 1e-12, 1e-20, 1e-25, 1e-30, 1e-40):
        t = special_values.check_tol(tol)
        shares = [t] + [max(t / (8 * factors), special_values.TOL_FLOOR)
                        for factors in range(1, 41)]
        for s in range(2, 61):
            for num, den in (share.as_integer_ratio() for share in shares):
                asked = [(num, den)] + [(num * f**s, 2 * den * r) for f, r in residues]
                for num_s, den_s in asked:
                    assert (special_values._em_cutoff(s, num_s, den_s)
                            == hurwitz_reference.float_cutoff(s, num_s, den_s)), (s, num_s, den_s)


@pytest.mark.parametrize("d", [1, 3, 7, 141, 199, 563, 797])
def test_power_sums_match_the_hurwitz_reference(d):
    # the fixed-point power sums against the per-residue mpf Hurwitz sums at
    # the same cutoffs: values within 1e-35 relative, bounds equal to 17 digits
    field = make_field(d)
    for tol in ("1e-10", "1e-14", "1e-30"):
        cases = [(k, lambda k, t: l_numeric(k, field, t),
                  lambda k, t: hurwitz_reference.l_numeric(k, field, t)) for k in range(2, 8)]
        if d == 1:
            cases += [(s, zeta_numeric, hurwitz_reference.zeta_numeric) for s in range(2, 14)]
        for k, evaluate, reference in cases:
            sv = evaluate(k, float(tol))
            value, bound = reference(k, float(tol))
            assert abs(to_mpf(sv.numeric) - value) <= mpf("1e-35") * abs(value), (d, k, tol)
            assert nstr(to_mpf(sv.error_bound), 17) == nstr(bound, 17), (d, k, tol)


_ODD_SQUAREFREE = [d for d in range(1, 801, 2) if is_squarefree(d)]
_ZETA_AND_HURWITZ = (
    st.just((1,)),  # zeta
    # the one-hot weight of Hurwitz zeta(s, r/q)
    st.integers(2, 12).flatmap(lambda q: st.integers(0, q - 1).map(
        lambda r: tuple(int(i == r) for i in range(q)))),
)
_WEIGHTS = st.one_of(
    # chi_D of a field of each class mod 4, so f = d and f = 4d both occur
    *[st.sampled_from([d for d in _ODD_SQUAREFREE if d % 4 == r]).map(
        lambda d: character(make_field(d))) for r in (1, 3)],
    *_ZETA_AND_HURWITZ,
)


@settings(max_examples=60, deadline=None)
@given(s=st.integers(2, 8), weights=_WEIGHTS, M=st.integers(2, 12))
def test_power_sum_matches_the_fresh_power_reference(s, weights, M):
    # each tail point's polynomial built by Horner floors exactly as the one
    # summed from fresh n**e; __wrapped__ skips the memo, so every draw is computed
    got = special_values._power_sum.__wrapped__(s, weights, M)
    want = power_sum(s, weights, M)
    assert got.numeric == want.numeric
    assert got.error_bound == want.error_bound


# _WEIGHTS with f <= 564 (d = 141), so that the exact sums stay fast
_SMALL_WEIGHTS = st.one_of(
    st.sampled_from([1, 3, 7, 29, 141]).map(lambda d: character(make_field(d))),
    *_ZETA_AND_HURWITZ,
)


@settings(max_examples=60, deadline=None)
@given(s=st.integers(2, 8), weights=_SMALL_WEIGHTS, M=st.sampled_from([2, 3, 6]))
def test_power_sum_floors_stay_within_their_allowance(s, weights, M):
    # the same truncated head and Euler-Maclaurin tail summed exactly, with no
    # floor, lies within the floor allowance the bound carries: M head floors
    # and one tail floor per point of nonzero weight, and the last division
    terms, den, _ = special_values._em_constants(s)
    f = len(weights)
    cut = M * f
    big = lcm(*range(1, cut + 1)) ** s  # every m^s, m <= M f, divides it
    head = Fraction(sum(w * (big // m**s) for m in range(1, cut + 1) if (w := weights[m % f])),
                    big)
    points = [(w, Fraction(f, cut + a)) for a in range(1, f + 1) if (w := weights[a % f])]
    tail = sum(w * Fraction(c, den) * y**e for w, y in points for e, c in terms) / f**s
    numeric = special_values._power_sum.__wrapped__(s, weights, M).numeric
    allowance = Fraction((M + 1) * len(points) + 1, 1 << special_values._FIXED_BITS)
    assert abs(head + tail - numeric) < allowance


@settings(max_examples=60, deadline=None)
@given(s=st.integers(2, 9), weights=_WEIGHTS, cutoffs=st.lists(st.integers(2, 12), min_size=2,
                                                              max_size=2, unique=True).map(sorted))
def test_no_state_of_an_earlier_cutoff_reaches_a_later_one(s, weights, cutoffs):
    # a power sum asked at M2 after one at M1 < M2 must equal the power sum at
    # M2 in a cold process: no state of the first call reaches the second
    m1, m2 = cutoffs
    clear_memos()
    cold = special_values._power_sum(s, weights, m2)
    clear_memos()
    special_values._power_sum(s, weights, m1)
    warm = special_values._power_sum(s, weights, m2)
    assert (warm.numeric, warm.error_bound) == (cold.numeric, cold.error_bound)
