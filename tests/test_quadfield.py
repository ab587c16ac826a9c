import pytest

from hmvol.arith import factor, is_squarefree, kronecker
from hmvol.quadfield import character, chi, make_field
import character_reference

PRIMES = [p for p in range(2, 50) if all(p % q for q in range(2, p))]


def test_make_field_examples():
    # eps = (1 + sqrt(-d))/2 (trace 1) for d = 3 mod 4, sqrt(-d) (trace 0) for d = 1 mod 4
    f = make_field(3)
    assert (f.D, f.norm_eps, f.trace_eps) == (-3, 1, 1)
    f = make_field(5)
    assert (f.D, f.norm_eps, f.trace_eps) == (-20, 5, 0)
    f = make_field(15)
    assert (f.D, f.norm_eps, f.trace_eps) == (-15, 4, 1)


def test_gaussian_field_accepted():
    f = make_field(1)
    assert (f.D, f.f, f.norm_eps, f.trace_eps) == (-4, 4, 1, 0)


def test_rejects_bad_d():
    for d in [0, -3, 2, 4, 8, 9, 45, 75]:
        with pytest.raises(ValueError):
            make_field(d)


def test_conductor_is_abs_discriminant():
    for d in [1, 3, 5, 7, 11, 13, 15]:
        f = make_field(d)
        assert f.f == -f.D > 0


def test_minimal_polynomial_discriminant():
    for d in [1, 3, 5, 7, 11, 13, 15, 23, 35]:
        f = make_field(d)
        assert f.trace_eps**2 - 4 * f.norm_eps == f.D


def test_classify_examples():
    # chi_D(p): 0 ramified, 1 split, -1 inert
    assert chi(make_field(3), 3) == 0
    assert chi(make_field(3), 2) == -1
    assert chi(make_field(7), 2) == 1


def test_ramified_exactly_at_divisors_of_discriminant():
    for d in [1, 3, 5, 7, 11, 13, 15, 23]:
        field = make_field(d)
        ram = {p for p in PRIMES if chi(field, p) == 0}
        assert ram == {p for p in PRIMES if field.f % p == 0}


def test_factorization_of_d_feeds_ramified_set():
    field = make_field(15)
    assert factor(field.d) == ((3, 1), (5, 1))


@pytest.mark.parametrize("d", [1, 3, 5, 7, 15, 141])
def test_character_table_is_the_kronecker_symbol(d):
    field = make_field(d)
    table = character(field)
    assert len(table) == field.f
    for a in range(1, 3 * field.f + 1):
        assert table[a % field.f] == kronecker(field.D, a), (d, a)


def test_character_sieve_matches_the_trial_division_reference():
    # every field with d < 2000: f runs over 3..7996, both d mod 4 classes
    for d in range(1, 2000, 2):
        if is_squarefree(d):
            field = make_field(d)
            assert character(field) == character_reference.character(field), d
