import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from hmvol.arith import is_squarefree
from hmvol.group_enum import count_group, oracle_tau_p
from hmvol.local_density import _euler_local, index_u_su, special_primes, tau_infinity, tau_p
from hmvol.quadfield import chi, make_field
from hmvol.residue_ring import ResidueRing
from hmvol.volume import evaluate_numeric
from numeric_reference import to_mpf
import volume_reference

F1, F3, F5, F7 = make_field(1), make_field(3), make_field(5), make_field(7)


def test_index_examples():
    assert index_u_su(F3, 3, 1) == 6
    assert index_u_su(F3, 5, 1) == 6
    assert index_u_su(F7, 11, 1) == 10
    assert index_u_su(F3, 3, 2) == 18  # 2 p^k, ramified
    assert index_u_su(F5, 2, 3, "M") == 32
    assert index_u_su(F3, 2, 3, "M") == 24
    assert index_u_su(F7, 2, 3, "M") == 8
    # below k = 3 at 2: every unit of O/2 has norm 1, and M's index is 4
    # times L's one level down
    assert index_u_su(F5, 2, 1) == 2
    assert index_u_su(F5, 2, 1, "M") == index_u_su(F7, 2, 1, "M") == 4
    assert index_u_su(F5, 2, 2, "M") == 8


def test_tau_p_examples():
    assert tau_p("L", 2, F3, 5).value == Fraction(3024, 3125)
    assert tau_p("L", 1, F3, 3).value == Fraction(2, 3)
    assert tau_p("M", 1, F3, 3).value == Fraction(4, 3)
    assert tau_p("M", 1, F3, 2).value == Fraction(3, 2)
    assert tau_p("L", 1, F5, 2).value == Fraction(1, 2)
    assert tau_p("M", 2, F5, 2).value == Fraction(1, 4)


def test_tau_p_m_matches_l_at_generic_primes():
    for field in (F3, F5, F7):
        for p in (3, 5, 7, 11, 13):
            if field.f % p == 0:
                continue
            for n in (1, 2, 3):
                assert tau_p("M", n, field, p).value == tau_p("L", n, field, p).value


def test_special_primes():
    assert special_primes("L", F3) == (3,)
    assert special_primes("M", F3) == (2, 3)
    assert special_primes("L", F5) == (2, 5)
    assert special_primes("M", F5) == (2, 5)


def test_oracle_conformance_n1_grid():
    # closed forms equal raw counts exactly across the feasible grid
    for lattice in ("L", "M"):
        for d in (1, 3, 5, 7):
            field = make_field(d)
            for p in (3, 5, 7, 11):
                assert (oracle_tau_p(lattice, 1, field, p)
                        == tau_p(lattice, 1, field, p).value), (lattice, d, p)


def test_oracle_conformance_n2_small():
    for d in (3, 7):
        field = make_field(d)
        assert oracle_tau_p("L", 2, field, 3) == tau_p("L", 2, field, 3).value


@pytest.mark.parametrize("lattice", ["L", "M"])
def test_oracle_conformance_n3_at_p3_in_every_class(lattice):
    # p = 3 ramified (d = 3, 15), split (5, 11) and inert (1, 7); ramified p at
    # odd n >= 3 takes the _eps_char sign that the table gate cannot check
    fields = [make_field(d) for d in (3, 15, 5, 11, 1, 7)]
    assert [chi(field, 3) for field in fields] == [0, 0, 1, 1, -1, -1]
    t0 = time.monotonic()
    for field in fields:
        rep = count_group(lattice, 3, ResidueRing(field, 3, 1), "SU", budget=10**13)
        assert rep.count == tau_p(lattice, 3, field, 3).value * 3**15, (lattice, field.d)
    assert time.monotonic() - t0 < 5.0


def test_oracle_conformance_n4_at_p3():
    # n = 4 at p = 3 ramified (d = 3): the even-n ramified branch at n = 4,
    # #SU = tau_3 * 3^24; the row-by-row meter charges each count about 1.1e13
    # nodes, far past the default budget, for a search of well under a second
    field = make_field(3)
    t0 = time.monotonic()
    for lattice in ("L", "M"):
        rep = count_group(lattice, 4, ResidueRing(field, 3, 1), "SU", budget=10**14)
        assert rep.count == tau_p(lattice, 4, field, 3).value * 3**24 == 247949112960, lattice
    assert time.monotonic() - t0 < 5.0


def test_oracle_tau_2_at_n2_for_l_over_o8():
    # 2 split (d = 7), inert (3) and ramified (5): the kernel-corrected count
    # over O/8 against 2^-n prod (1 - 2^-2i) and the unramified products
    t0 = time.monotonic()
    for d, want in ((7, Fraction(21, 32)), (3, Fraction(27, 32)), (5, Fraction(3, 16))):
        field = make_field(d)
        assert oracle_tau_p("L", 2, field, 2, budget=10**11) == tau_p("L", 2, field, 2).value \
            == want, d
    assert time.monotonic() - t0 < 5.0


def test_index_matches_enumeration_n1():
    # at 2 over O/2, O/4 and O/8 too, on both kinds of 2
    for lattice in ("L", "M"):
        for d in (1, 3, 5, 7):
            field = make_field(d)
            for p, k in ((3, 1), (5, 1), (7, 1), (2, 1), (2, 2), (2, 3)):
                r = ResidueRing(field, p, k)
                u = count_group(lattice, 1, r, "U").count
                s = count_group(lattice, 1, r, "SU").count
                assert u == s * index_u_su(field, p, k, lattice), (lattice, d, p, k)


def test_tau_infinity_examples():
    e = tau_infinity("L", 1, F3)
    assert (e.coeff, e.zeta_args, e.l_args) == (Fraction(4, 3), (2,), ())
    e = tau_infinity("L", 2, F3)
    assert (e.coeff, e.zeta_args, e.l_args) == (Fraction(1), (2,), (3,))
    e = tau_infinity("L", 1, F1)
    assert (e.coeff, e.zeta_args, e.l_args) == (Fraction(3, 2), (2,), ())


def test_tau_infinity_argument_structure():
    for n in range(1, 8):
        e = tau_infinity("L", n, F7)
        assert e.zeta_args == tuple(i for i in range(2, n + 2) if i % 2 == 0)
        assert e.l_args == tuple(i for i in range(3, n + 2) if i % 2 == 1)


def test_tau_infinity_even_n_coefficient_one_for_odd_discriminant():
    # full cancellation of ramified corrections on even n when D = -d
    for d in (3, 7, 11, 15):
        field = make_field(d)
        for n in (2, 4, 6):
            assert tau_infinity("L", n, field).coeff == 1, (d, n)


def test_tau_infinity_odd_n_two_power_for_even_discriminant():
    # D = -4d rows carry 2^n (1 - 2^-(n+1)) times the odd ramified corrections
    for d in (1, 5):
        field = make_field(d)
        for n in (1, 3):
            coeff = tau_infinity("L", n, field).coeff
            base = Fraction(2**n) * (1 - Fraction(1, 2 ** (n + 1)))
            for p in [q for q in (3, 5, 7, 11, 13) if d % q == 0]:
                from hmvol.local_density import _eps_char
                base *= 1 + Fraction(_eps_char(n, p, False), p ** ((n + 1) // 2))
            assert coeff == base, (d, n)


def test_tau_infinity_numeric_matches_truncated_euler_product():
    # evaluating the symbolic tau_infinity equals 1/prod_(p<=P) tau_p numerically
    P = 10**4
    primes = _sieve(P)
    with mp.workdps(40):
        for lattice, n, field in [("L", 1, F3), ("L", 2, F3), ("M", 3, F5), ("L", 3, F7)]:
            prod = mpf(1)
            for p in primes:
                v = tau_p(lattice, n, field, p).value
                prod *= mpf(v.numerator) / v.denominator
            value, _ = evaluate_numeric(tau_infinity(lattice, n, field), field, 1e-20)
            value = to_mpf(value)
            rel = abs(value - 1 / prod) / value
            assert rel < mpf("1e-3"), (lattice, n, field.d, float(rel))


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
    return [p for p in range(limit + 1) if flags[p]]


def test_invalid_inputs():
    with pytest.raises(ValueError):
        tau_p("L", 0, F3, 5)
    with pytest.raises(ValueError):
        tau_p("Q", 1, F3, 5)
    with pytest.raises(ValueError):
        tau_p("L", 1, F3, 9)
    with pytest.raises(ValueError):
        index_u_su(F3, 3, 0)
    for p in (2, 3):
        with pytest.raises(ValueError, match="lattice"):
            index_u_su(F3, p, 1, "Q")
    with pytest.raises(ValueError, match="not prime"):
        index_u_su(F3, 9, 1)


def _assert_densities_match_the_chains(field, p):
    for lattice in ("L", "M"):
        for n in range(1, 11):
            assert (tau_p(lattice, n, field, p).value
                    == volume_reference.tau_p_chain(lattice, n, field, p)), (lattice, n, p)
            assert (Fraction(*_euler_local(field, n, p))
                    == volume_reference.euler_local(field, n, p)), (n, p)


def test_integer_densities_match_the_fraction_chains():
    # every prime class at 2 and at odd p: D = -4d ramifies 2, d = 3 (mod 8)
    # leaves it inert and d = 7 (mod 8) splits it
    classes = set()
    for d in (1, 3, 5, 7, 15, 29, 119, 141, 199):
        field = make_field(d)
        for p in (2, 3, 5, 7, 11, 13, 17, 29, 199):
            classes.add((p == 2, chi(field, p)))
            _assert_densities_match_the_chains(field, p)
    assert classes == {(two, c) for two in (True, False) for c in (-1, 0, 1)}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from([d for d in range(1, 801, 2) if is_squarefree(d)]))
def test_integer_densities_match_the_fraction_chains_on_drawn_fields(data, d):
    field = make_field(d)
    # the ramified primes of the field, 2 and a few that split or stay inert
    p = data.draw(st.sampled_from(special_primes("M", field) + (3, 5, 7, 11, 13, 101)))
    _assert_densities_match_the_chains(field, p)
