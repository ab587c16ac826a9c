import random
from fractions import Fraction

import pytest

from hmvol import lie_form
from hmvol.expressions import VolumeExpression
from hmvol.lie_form import (Quad, _bareiss_det, _check_lie_member, _rational_integer, _trace,
                            build_basis, curvature_ratio, gram_det, lattice_diag, q_add, q_mul,
                            vol_max_compact, vol_su)
from hmvol.quadfield import make_field

F1, F3, F5, F7 = make_field(1), make_field(3), make_field(5), make_field(7)
ZERO = Quad(Fraction(0), Fraction(0))


def trace_form(basis, i, j):
    """B(X_i, X_j) from the dense trace of the two matrices, independent of
    gram_det's cell index."""
    return _rational_integer(_trace(basis.elements[i], basis.elements[j], basis.field.d))


def killing_det_reference(lattice, n, d):
    base = d ** ((n * (n + 3)) // 2) * (n + 1)
    if lattice == "L":
        return base * (2 ** (n * (n + 1)) if d % 4 == 1 else 1)
    return base * (2 ** (n * (n + 3)) if d % 4 == 1 else 2 ** (2 * n))


def test_basis_cardinality_and_labels():
    b = build_basis("L", 1, F3)
    assert len(b.elements) == 3 and b.labels == ("g1", "e1", "f1")
    b = build_basis("L", 2, F3)
    assert len(b.elements) == 8
    assert b.labels[:4] == ("g1", "g2", "e1,2", "f1,2")


def test_m_basis_carries_doubled_lower_entries():
    b = build_basis("M", 1, F3)
    assert b.labels == ("g1", "e'1", "f'1")
    eprime = b.elements[1]
    eps = Quad(Fraction(1, 2), Fraction(1, 2))
    assert eprime[0][1] == eps
    assert eprime[1][0] == q_mul(Quad(Fraction(2), Fraction(0)), Quad(eps.x, -eps.y), 3)


def test_gram_det_spot_values():
    assert abs(gram_det(build_basis("L", 1, F3))) == 18
    assert abs(gram_det(build_basis("L", 1, F5))) == 200
    assert abs(gram_det(build_basis("M", 1, F3))) == 72


def test_gram_entries_match_block_structure():
    b = build_basis("L", 1, F3)
    # {g1, e1, f1}: Tr(g1 g1) = -2d, e/f block [[2 norm(eps), tr(eps)], [tr(eps), 2]]
    assert trace_form(b, 0, 0) == -6
    assert trace_form(b, 1, 1) == 2
    assert trace_form(b, 1, 2) == 1
    assert trace_form(b, 2, 2) == 2


def test_gram_det_closed_form_grid():
    for lattice in ("L", "M"):
        for n in range(1, 9):
            for d in (1, 3, 5, 7, 15):
                field = make_field(d)
                assert abs(gram_det(build_basis(lattice, n, field))) == \
                    killing_det_reference(lattice, n, d), (lattice, n, d)


def test_blockwise_gram_det_equals_dense_bareiss():
    # the block product must reproduce the signed determinant of the full matrix
    for lattice in ("L", "M"):
        for n in range(1, 5):
            for d in (1, 3, 7):
                b = build_basis(lattice, n, make_field(d))
                k = len(b.elements)
                dense = [[trace_form(b, i, j) for j in range(k)] for i in range(k)]
                assert gram_det(b) == _bareiss_det(dense), (lattice, n, d)


def test_lie_check_rejects_perturbed_entry():
    n = 3
    b = build_basis("M", n, F3)
    lam = lattice_diag("M", n)
    for k in range(n):
        X = [list(r) for r in b.elements[b.labels.index(f"e'{k + 1}")]]
        _check_lie_member(X, lam)
        low = X[n][k]
        X[n][k] = Quad(low.x + 1, low.y)
        with pytest.raises(AssertionError, match="Lie condition"):
            _check_lie_member(X, lam)
        # a one-sided entry: the violated cell's transpose is zero
        X[n][k], X[k][n] = low, ZERO
        with pytest.raises(AssertionError, match="Lie condition"):
            _check_lie_member(X, lam)


def test_lie_check_rejects_nonzero_trace():
    # g1 = diag(sqrt(-d), -sqrt(-d), 0); dropping its second entry keeps the Lie
    # condition (the diagonal stays imaginary) but leaves the trace sqrt(-d)
    lam = lattice_diag("L", 2)
    X = [list(r) for r in build_basis("L", 2, F3).elements[0]]
    _check_lie_member(X, lam)
    X[1][1] = ZERO
    with pytest.raises(AssertionError, match="trace"):
        _check_lie_member(X, lam)


def test_curvature_on_basis_vectors():
    for n in (1, 2, 3):
        b = build_basis("L", n, F3)
        noncompact = [(lbl, X) for lbl, X in zip(b.labels, b.elements)
                      if lbl[0] in "ef" and "," not in lbl]
        assert len(noncompact) == 2 * n
        for lbl, X in noncompact:
            assert curvature_ratio([list(r) for r in X], F3) == -2, (n, lbl)


def test_curvature_homogeneous_of_degree_zero():
    b = build_basis("L", 2, F3)
    f2 = [list(r) for r in b.elements[-1]]
    doubled = [[Quad(2 * v.x, 2 * v.y) for v in row] for row in f2]
    assert curvature_ratio(doubled, F3) == -2


def test_curvature_on_random_integer_combinations():
    # integer combinations of e_k, f_k sweep all Z[eps]-valued top columns
    rng = random.Random(3)
    b = build_basis("L", 2, F5)
    ef = [X for lbl, X in zip(b.labels, b.elements) if lbl[0] in "ef" and "," not in lbl]
    for _ in range(10):
        acc = [[Quad(Fraction(0), Fraction(0)) for _ in range(3)] for _ in range(3)]
        for X in ef:
            c = Quad(Fraction(rng.randint(-3, 3)), Fraction(0))
            for i in range(3):
                for j in range(3):
                    acc[i][j] = q_add(acc[i][j], q_mul(c, X[i][j], 5))
        if all(v == Quad(Fraction(0), Fraction(0)) for row in acc for v in row):
            continue
        assert curvature_ratio(acc, F5) == -2


def test_curvature_on_random_integer_combinations_n6():
    rng = random.Random(6)
    n, w = 6, 7
    for lattice in ("L", "M"):
        for field in (F1, F3, F5, F7):
            b = build_basis(lattice, n, field)
            ef = [X for lbl, X in zip(b.labels, b.elements)
                  if lbl[0] in "ef" and "," not in lbl]
            assert len(ef) == 2 * n
            for _ in range(3):
                acc = [[ZERO] * w for _ in range(w)]
                while all(v == ZERO for row in acc for v in row):
                    for X in ef:
                        c = Quad(Fraction(rng.randint(-3, 3)), Fraction(0))
                        for i in range(w):
                            for j in range(w):
                                acc[i][j] = q_add(acc[i][j], q_mul(c, X[i][j], field.d))
                assert curvature_ratio(acc, field) == -2, (lattice, field.d)


def test_curvature_rejects_non_member():
    # scaling only the top entry by eps leaves the Lie algebra
    b = build_basis("L", 1, F3)
    X = [list(r) for r in b.elements[2]]
    X[0][1] = Quad(Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        curvature_ratio(X, F3)


def test_curvature_rejects_an_irrational_trace(monkeypatch):
    # no Lie-algebra input reaches the check, so perturb the trace it reads
    real_trace = lie_form._trace
    monkeypatch.setattr(lie_form, "_trace", lambda A, B, d: q_add(real_trace(A, B, d),
                                                                  Quad(Fraction(0), Fraction(1))))
    X = [list(r) for r in build_basis("L", 1, F3).elements[2]]
    with pytest.raises(AssertionError, match="not rational"):
        curvature_ratio(X, F3)


def test_curvature_rejects_zero_and_compact_directions():
    b = build_basis("L", 1, F3)
    zero = [[Quad(Fraction(0), Fraction(0))] * 2 for _ in range(2)]
    with pytest.raises(ValueError):
        curvature_ratio(zero, F3)
    g1 = [list(r) for r in b.elements[0]]
    with pytest.raises(ValueError):
        curvature_ratio(g1, F3)


def test_vol_su_examples():
    assert vol_su(1) == VolumeExpression()
    assert vol_su(2) == VolumeExpression(coeff=4, sqrt_sq=2, pi_power=2)
    assert vol_su(3) == VolumeExpression(coeff=16, sqrt_sq=3, pi_power=5)


def test_vol_max_compact_examples():
    assert vol_max_compact(1) == VolumeExpression(coeff=2, sqrt_sq=2, pi_power=1)
    assert vol_max_compact(2) == VolumeExpression(coeff=8, sqrt_sq=3, pi_power=3)
    assert vol_max_compact(3) == VolumeExpression(coeff=32, sqrt_sq=4, pi_power=6)


def test_circle_cover_ratio():
    # Vol(K)/Vol(SU(n)) = 2 pi sqrt(n^2+n)/n
    for n in range(1, 7):
        ratio = vol_max_compact(n) * vol_su(n).reciprocal()
        assert ratio == VolumeExpression(coeff=2, sqrt_sq=Fraction(n + 1, n), pi_power=1)
