import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmvol import lie_form
from hmvol.expressions import VolumeExpression
from hmvol.lie_form import (Quad, _check_lie_member, build_basis, curvature_ratio, gram_det,
                            lattice_diag, vol_max_compact)
from hmvol.quadfield import make_field
import lie_reference as ref
from lie_reference import ZERO, q_add, q_mul
from memos import clear_memos
from volume_reference import reference, vol_su

F1, F3, F5, F7 = make_field(1), make_field(3), make_field(5), make_field(7)


def trace_form(basis, i, j):
    """B(X_i, X_j) from the reference's dense Fraction trace of the two
    matrices, independent of gram_det's cell index and integer pairs."""
    return ref.rational_integer(ref.trace(basis.elements[i], basis.elements[j], basis.field.d))


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


def test_elements_equal_the_dense_reference_basis():
    # both kinds of eps: (1 + sqrt(-d))/2 at d = 3, 7, 15, 199, sqrt(-d) at 1, 5, 141
    fields = [make_field(d) for d in (1, 3, 5, 7, 15, 141, 199)]
    assert {f.trace_eps for f in fields} == {0, 1}
    for lattice in ("L", "M"):
        for n in range(1, 10):
            for field in fields:
                d = field.d
                b = build_basis(lattice, n, field)
                assert b.elements == ref.dense_basis(lattice, n, b.field), (lattice, n, d)
                # an int where the coordinate is integral, else a half; rows are
                # tuples, and the all-zero ones one shared tuple
                for X in b.elements:
                    assert type(X) is tuple and all(type(row) is tuple for row in X)
                    for c in (c for row in X for v in row for c in v):
                        assert (type(c) is int if c.denominator == 1
                                else type(c) is Fraction and c.denominator == 2), (X, c)
                zero_rows = {id(row) for X in b.elements for row in X if not any(map(any, row))}
                assert len(zero_rows) == (n > 1), (lattice, n, d)
                # each support holds exactly the nonzero cells, in half units
                for X, s in zip(b.elements, b.supports):
                    cells = {(i, j): (int(2 * v.x), int(2 * v.y)) for i, row in enumerate(X)
                             for j, v in enumerate(row) if v != ZERO}
                    assert dict(s) == cells, (lattice, n, d)


def test_gram_path_never_builds_the_dense_view():
    for lattice in ("L", "M"):
        for n in (1, 3, 6):
            for d in (1, 3, 15):
                b = build_basis(lattice, n, make_field(d))
                gram_det(b)
                assert "elements" not in vars(b), (lattice, n, d)
                # built on the first read, and not part of the basis's equality
                assert b.elements == ref.dense_basis(lattice, n, b.field), (lattice, n, d)
                assert "elements" in vars(b) and b == build_basis(lattice, n, b.field)


def test_gram_det_grid_wall_time():
    t0 = time.monotonic()
    for lattice in ("L", "M"):
        for n in range(1, 10):
            for d in (1, 3, 5, 7, 15, 167, 197):
                gram_det(build_basis(lattice, n, make_field(d)))
    assert time.monotonic() - t0 < 1.0


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
    # the block product must reproduce the signed determinant of the full
    # matrix, which has zero pivots, so the reference Bareiss searches for them
    for lattice in ("L", "M"):
        for n in range(1, 5):
            for d in (1, 3, 7):
                b = build_basis(lattice, n, make_field(d))
                k = len(b.elements)
                dense = [[trace_form(b, i, j) for j in range(k)] for i in range(k)]
                assert gram_det(b) == ref.bareiss_det(dense), (lattice, n, d)


def test_g_block_is_minus_d_times_the_cartan_matrix():
    # gram_det's Bareiss searches for no pivot: the g_k block is -d A_n, which
    # is negative definite, so every leading principal minor is nonzero
    for n in range(3, 13):
        for lattice, d in (("L", 1), ("M", 3), ("L", 7), ("M", 141)):
            b = build_basis(lattice, n, make_field(d))
            block = [[trace_form(b, i, j) for j in range(n)] for i in range(n)]
            cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
                      for i in range(n)]
            assert block == [[-d * c for c in row] for row in cartan], (lattice, n, d)
            assert all(ref.bareiss_det([row[:k] for row in block[:k]]) == (-d) ** k * (k + 1)
                       for k in range(1, n + 1))


# d = 1 and every odd squarefree d <= 200
ODD_SQUAREFREE_D = [d for d in range(1, 201, 2) if all(d % (p * p) for p in range(3, 15, 2))]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["L", "M"]), st.integers(1, 7), st.sampled_from(ODD_SQUAREFREE_D),
       st.data())
def test_kernels_match_the_dense_reference(lattice, n, d, data):
    # the blockwise determinant, with its direct 2 x 2 pair blocks, against
    # Bareiss on the full dense trace-form matrix, and the integer curvature
    # kernel against the dense Fraction reference on a drawn e_k/f_k combination
    field = make_field(d)
    b = build_basis(lattice, n, field)
    k = len(b.supports)
    dense = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):  # B is symmetric
            dense[i][j] = dense[j][i] = trace_form(b, i, j)
    assert gram_det(b) == ref.bareiss_det(dense)
    ef = [X for lbl, X in zip(b.labels, b.elements) if lbl[0] in "ef" and "," not in lbl]
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(ef), max_size=len(ef))
                       .filter(any))
    w = n + 1
    acc = [[ZERO] * w for _ in range(w)]
    for c, X in zip(coeffs, ef):
        acc = [[q_add(acc[i][j], q_mul(Quad(Fraction(c), Fraction(0)), X[i][j], d))
                for j in range(w)] for i in range(w)]
    assert curvature_ratio(acc, field) == ref.curvature_ratio(acc, field)


def test_gram_det_rejects_a_basis_out_of_build_basis_order():
    # gram_det reads its blocks off build_basis's order (the g_k, then each
    # (e, f) pair); reversed at n = 3, a pair straddles the g_k block
    b = build_basis("L", 3, F3)
    with pytest.raises(AssertionError, match="not block diagonal"):
        gram_det(dataclasses.replace(b, supports=b.supports[::-1]))


# the fields of each kind of eps: trace_eps 1 at d = 3 (mod 4), 0 at d = 1 (mod 4)
FIELDS_BY_KIND = {t: [d for d in ODD_SQUAREFREE_D if (d % 4 == 3) == t] for t in (0, 1)}


def test_a_basis_of_a_second_field_of_its_kind_equals_a_cold_one():
    # build_basis and gram_det share their d-free parts between fields of one
    # kind of eps; what a second field gets must be what it gets from cold memos
    for lattice in ("L", "M"):
        for n in range(1, 10):
            for first, second in ((3, 199), (1, 141), (199, 7), (5, 1)):
                clear_memos()
                cold = build_basis(lattice, n, make_field(second))
                clear_memos()
                before = build_basis(lattice, n, make_field(first))
                gram_det(before)
                field = make_field(second)
                b = build_basis(lattice, n, field)
                assert b.supports is before.supports, (lattice, n, first, second)
                assert b == cold and b.field is field, (lattice, n, first, second)
                assert abs(gram_det(b)) == killing_det_reference(lattice, n, second)
                assert gram_det(b) == ref.gram_det(b), (lattice, n, first, second)
                assert b.elements == ref.dense_basis(lattice, n, field)


def _perturbed(supports, data):
    """supports reversed, two elements swapped, one half unit of one entry
    flipped, or one cell dropped."""
    k = len(supports)
    kind = data.draw(st.sampled_from(["reversed", "swapped", "flipped", "dropped"]))
    if kind == "reversed":
        return supports[::-1]
    if kind == "swapped":
        i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        out = list(supports)
        out[i], out[j] = out[j], out[i]
        return tuple(out)
    t = data.draw(st.integers(0, k - 1))
    c = data.draw(st.integers(0, len(supports[t]) - 1))
    cells = list(supports[t])
    if kind == "flipped":
        cell, v = cells[c]
        v = list(v)
        v[data.draw(st.integers(0, 1))] ^= 1  # one half unit more or less
        cells[c] = (cell, tuple(v))
    else:
        del cells[c]
    return supports[:t] + (tuple(cells),) + supports[t + 1:]


def _outcome(det, basis):
    try:
        return det(basis)
    except AssertionError as e:
        return "AssertionError", str(e)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["L", "M"]), st.integers(1, 7), st.sampled_from([0, 1]), st.data())
def test_gram_det_agrees_with_the_single_pass_reference_on_perturbed_supports(
        lattice, n, trace_eps, data):
    # after a memo hit on the unperturbed supports, so a warm memo cannot change
    # a verdict: the same determinant, or the same AssertionError
    d1, d2 = data.draw(st.lists(st.sampled_from(FIELDS_BY_KIND[trace_eps]), min_size=2,
                                max_size=2, unique=True))
    for d in (d1, d2):
        b = build_basis(lattice, n, make_field(d))
        assert gram_det(b) == ref.gram_det(b)
    bad = dataclasses.replace(b, supports=_perturbed(b.supports, data))
    assert _outcome(gram_det, bad) == _outcome(ref.gram_det, bad)


def test_gram_det_rejects_a_non_integral_trace_form():
    # g1 with entries +-sqrt(-d)/2 has Tr(g1 g1) = -d/2, no rational integer
    b = build_basis("L", 1, F3)
    half_g1 = (((0, 0), (0, 1)), ((1, 1), (0, -1)))
    with pytest.raises(AssertionError, match="not a rational integer"):
        gram_det(dataclasses.replace(b, supports=(half_g1,) + b.supports[1:]))


def test_lie_check_rejects_perturbed_entry():
    n = 3
    b = build_basis("M", n, F3)
    lam = lattice_diag("M", n)
    for k in range(n):
        s = dict(b.supports[b.labels.index(f"e'{k + 1}")])
        _check_lie_member(s, lam)
        low = s[n, k]
        s[n, k] = (low[0] + 2, low[1])  # + 1, in half units
        with pytest.raises(AssertionError, match="Lie condition"):
            _check_lie_member(s, lam)
        # a one-sided entry: the violated cell's transpose is zero
        s[n, k] = low
        del s[k, n]
        with pytest.raises(AssertionError, match="Lie condition"):
            _check_lie_member(s, lam)


def test_lie_check_rejects_nonzero_trace():
    # g1 = diag(sqrt(-d), -sqrt(-d), 0); dropping its second entry keeps the Lie
    # condition (the diagonal stays imaginary) but leaves the trace sqrt(-d)
    lam = lattice_diag("L", 2)
    s = dict(build_basis("L", 2, F3).supports[0])
    _check_lie_member(s, lam)
    del s[1, 1]
    with pytest.raises(AssertionError, match="trace"):
        _check_lie_member(s, lam)


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["L", "M"]), st.integers(1, 4), st.sampled_from([1, 3, 5, 7, 15]),
       st.data())
def test_curvature_on_random_rational_combinations(lattice, n, d, data):
    # rational coefficients (denominators up to 6) give entries outside the
    # half units, so curvature_ratio must scale them to integers first
    field = make_field(d)
    b = build_basis(lattice, n, field)
    ef = [X for lbl, X in zip(b.labels, b.elements) if lbl[0] in "ef" and "," not in lbl]
    coeffs = data.draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                                min_size=len(ef), max_size=len(ef)).filter(any))
    w = n + 1
    acc = [[ZERO] * w for _ in range(w)]
    for c, X in zip(coeffs, ef):
        acc = [[q_add(acc[i][j], q_mul(Quad(c, Fraction(0)), X[i][j], d)) for j in range(w)]
               for i in range(w)]
    assert curvature_ratio(acc, field) == ref.curvature_ratio(acc, field) == -2


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["L", "M"]), st.integers(1, 9), st.sampled_from(ODD_SQUAREFREE_D),
       st.data())
def test_curvature_on_plain_dense_sums_of_the_basis(lattice, n, d, data):
    # a dense caller's idiom: x + c * X[i][j][0] over every cell of every
    # e_k/f_k, with integer or rational c, from Fraction and from int zeros
    field = make_field(d)
    b = build_basis(lattice, n, field)
    ef = [X for lbl, X in zip(b.labels, b.elements) if lbl[0] in "ef" and "," not in lbl]
    coeff = st.integers(-3, 3) | st.fractions(min_value=-4, max_value=4, max_denominator=6)
    coeffs = data.draw(st.lists(coeff, min_size=len(ef), max_size=len(ef)).filter(any))
    w = n + 1
    for zero in (Fraction(0), 0):
        acc = [[(zero, zero)] * w for _ in range(w)]
        for c, X in zip(coeffs, ef):
            for i in range(w):
                for j in range(w):
                    x, y = acc[i][j]
                    acc[i][j] = (x + c * X[i][j][0], y + c * X[i][j][1])
        quads = [[Quad(*v) for v in row] for row in acc]
        assert curvature_ratio(acc, field) == ref.curvature_ratio(quads, field) == -2, zero
    # a caller's copy of an element is its own, though the elements share rows
    k, i, j = (data.draw(st.integers(0, m - 1)) for m in (len(b.elements), w, w))
    copy = [list(r) for r in b.elements[k]]
    copy[i][j] = Quad(7, 7)
    assert b.elements == ref.dense_basis(lattice, n, field)


def test_curvature_rejects_non_member():
    # scaling only the top entry by eps leaves the Lie algebra
    b = build_basis("L", 1, F3)
    X = [list(r) for r in b.elements[2]]
    X[0][1] = Quad(Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        curvature_ratio(X, F3)


def test_curvature_rejects_an_irrational_trace(monkeypatch):
    # no Lie-algebra input reaches the check, so perturb the integer trace it reads
    real_trace = lie_form._trace
    monkeypatch.setattr(lie_form, "_trace",
                        lambda A, B, d: (lambda t: (t[0], t[1] + 1))(real_trace(A, B, d)))
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
    corner = [list(r) for r in b.elements[2]]
    corner[1][1] = Quad(Fraction(1), Fraction(0))
    with pytest.raises(ValueError, match="corner"):
        curvature_ratio(corner, F3)


def test_vol_su_examples():
    assert vol_su(1) == VolumeExpression()
    assert vol_su(2) == VolumeExpression(coeff=4, sqrt_sq=2, pi_power=2)
    assert vol_su(3) == VolumeExpression(coeff=16, sqrt_sq=3, pi_power=5)


def test_vol_max_compact_examples():
    assert vol_max_compact(1) == VolumeExpression(coeff=2, sqrt_sq=2, pi_power=1)
    assert vol_max_compact(2) == VolumeExpression(coeff=8, sqrt_sq=3, pi_power=3)
    assert vol_max_compact(3) == VolumeExpression(coeff=32, sqrt_sq=4, pi_power=6)
    with pytest.raises(ValueError):
        vol_max_compact(0)


def test_circle_cover_ratio():
    # Vol(K)/Vol(SU(n)) = 2 pi sqrt(n^2+n)/n, multiplied out by the reference expression
    for n in range(1, 7):
        ratio = reference(vol_max_compact(n)) * reference(vol_su(n)).reciprocal()
        assert ratio == reference(VolumeExpression(coeff=Fraction(2),
                                                   sqrt_sq=Fraction(n + 1, n), pi_power=1))
