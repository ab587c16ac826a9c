import dataclasses
import random
from math import gcd

import pytest

from hmvol.quadfield import make_field
from hmvol.residue_ring import ResidueRing
from scalar_ring import RingMatrix, ScalarRing, hermitian_defect

RINGS = [
    ScalarRing(make_field(3), 5, 1),
    ScalarRing(make_field(3), 3, 1),
    ScalarRing(make_field(7), 11, 1),
    ScalarRing(make_field(5), 2, 3),
    ScalarRing(make_field(3), 2, 2),
    ScalarRing(make_field(1), 2, 3),
    ScalarRing(make_field(7), 3, 2),
]


def rand_elem(R, rng):
    return R.element(rng.randrange(R.modulus), rng.randrange(R.modulus))


def rand_matrix(R, w, rng):
    return RingMatrix(R, [[rand_elem(R, rng) for _ in range(w)] for _ in range(w)])


def test_conjugation_examples():
    R = ScalarRing(make_field(3), 7, 1)
    eps = R.eps()
    assert R.conj(eps) == R.sub(R.one(), eps)  # trace 1
    assert R.norm(eps) == 1
    R5 = ScalarRing(make_field(5), 7, 1)
    assert R5.conj(R5.eps()) == R5.neg(R5.eps())
    assert R5.norm(R5.eps()) == 5


def test_ring_size():
    for R in RINGS:
        assert R.size() == R.p ** (2 * R.exponent)


def test_conj_is_involutive_ring_automorphism():
    rng = random.Random(7)
    for R in RINGS:
        for _ in range(40):
            x, y = rand_elem(R, rng), rand_elem(R, rng)
            assert R.conj(R.conj(x)) == x
            assert R.conj(R.mul(x, y)) == R.mul(R.conj(x), R.conj(y))
            assert R.conj(R.add(x, y)) == R.add(R.conj(x), R.conj(y))


def test_norm_multiplicative_and_lands_in_base_ring():
    rng = random.Random(11)
    for R in RINGS:
        for _ in range(40):
            x, y = rand_elem(R, rng), rand_elem(R, rng)
            assert R.norm(R.mul(x, y)) == R.norm(x) * R.norm(y) % R.modulus
            prod = R.mul(x, R.conj(x))
            assert prod.b == 0 and prod.a == R.norm(x)


def test_eps_satisfies_minimal_polynomial():
    for R in RINGS:
        eps = R.eps()
        lhs = R.mul(eps, eps)
        rhs = R.sub(R.mul(R.scalar(R.field.trace_eps), eps), R.scalar(R.field.norm_eps))
        assert lhs == rhs


def test_is_unit_matches_unit_norm():
    rng = random.Random(13)
    for R in RINGS:
        for _ in range(30):
            x = rand_elem(R, rng)
            assert R.is_unit(x) == (gcd(R.norm(x), R.p) == 1)


def test_det_examples():
    R = ScalarRing(make_field(3), 5, 1)
    assert RingMatrix.identity(R, 3).det() == R.one()
    x, y = R.element(2, 1), R.element(3, 4)
    assert RingMatrix.diagonal(R, [x, y]).det() == R.mul(x, y)
    eps = R.eps()
    tri = RingMatrix(R, [[eps, R.one()], [R.zero(), eps]])
    assert tri.det() == R.mul(eps, eps)


def test_det_multiplicative():
    rng = random.Random(17)
    for R in RINGS[:4]:
        for w in (2, 3):
            for _ in range(10):
                A, B = rand_matrix(R, w, rng), rand_matrix(R, w, rng)
                assert (A @ B).det() == R.mul(A.det(), B.det())


def test_hermitian_defect_identity_is_zero():
    for R in RINGS:
        for lam in [(1, -1), (1, 1, -1), (1, -2)]:
            A = RingMatrix.identity(R, len(lam))
            assert hermitian_defect(A, lam).is_zero()


def test_hermitian_defect_norm_one_scalar_is_zero():
    R = ScalarRing(make_field(3), 5, 1)
    u = next(R.element(a, b) for a in range(5) for b in range(5)
             if R.norm(R.element(a, b)) == 1 and (a, b) != (1, 0))
    A = RingMatrix.diagonal(R, [u, u, u])
    assert hermitian_defect(A, (1, 1, -1)).is_zero()


def test_hermitian_defect_generic_failure_witness():
    rng = random.Random(19)
    R = ScalarRing(make_field(3), 5, 1)
    hits = 0
    for _ in range(20):
        A = rand_matrix(R, 2, rng)
        if not hermitian_defect(A, (1, -1)).is_zero():
            hits += 1
    assert hits >= 18  # random matrices are essentially never unitary


def test_dimension_mismatch_rejected():
    R = RINGS[0]
    with pytest.raises(ValueError):
        hermitian_defect(RingMatrix.identity(R, 2), (1, 1, -1))
    with pytest.raises(ValueError):
        RingMatrix(R, [[R.one()], [R.one(), R.zero()]])


def test_residue_ring_is_a_frozen_hashable_record():
    a, b = ResidueRing(make_field(3), 5, 2), ResidueRing(make_field(3), 5, 2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ResidueRing(make_field(3), 5, 1) and a != ResidueRing(make_field(7), 5, 2)
    assert (a.modulus, a.trace_eps, a.norm_eps) == (25, 1, 1)
    assert repr(a) == "ResidueRing(d=3, p=5, N=2)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.p = 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.modulus = 5
    with pytest.raises(ValueError):
        ResidueRing(make_field(3), 5, 0)


@pytest.mark.parametrize("p", [1, 4, 9, -3])
def test_residue_ring_rejects_a_non_prime(p):
    with pytest.raises(ValueError, match="not prime"):
        ResidueRing(make_field(3), p, 1)
