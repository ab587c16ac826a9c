import functools
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmvol import group_enum
from hmvol.group_enum import (BudgetExceeded, _MAX_ROW_TABLE, _Ring, count_group, count_kernel,
                              default_budget, oracle_tau_p, stabilization_check, DEFAULT_BUDGET)
from hmvol.lie_form import lattice_diag
from hmvol.local_density import index_u_su, special_primes, tau_p
from hmvol.quadfield import chi, make_field
from hmvol.residue_ring import ResidueRing
import canonical_reference
import kernel_reference
import level_reference
import meter_reference
import values_reference
from scalar_ring import RingMatrix, ScalarRing
from stream_reference import StreamRing, canonical, complement, diag, product
from sweep_reference import (Engine, Meter, backtrack_count, blocked_count_rec, cartesian_count,
                             classes, cofactor_map, count_last_two, count_rec, divisible,
                             exact_in_float32, filter_by_row, last_forms, last_two_operands,
                             line_counts, sweep_count)

F1, F3, F5, F7 = make_field(1), make_field(3), make_field(5), make_field(7)


def ring(field, p, N=1):
    return ResidueRing(field, p, N)


# the lam of a _Ring whose tables and value counts are read, but that counts nothing
_ANY_LAM = (1,)


def test_su_counts_frozen_values():
    assert count_group("L", 1, ring(F3, 5), "SU").count == 120
    assert count_group("L", 1, ring(F7, 11), "SU").count == 1320
    assert count_group("L", 1, ring(F3, 3), "SU").count == 18


def test_cartesian_cross_check_smallest_cases():
    for field, p in [(F3, 5), (F3, 3), (F7, 3), (F5, 3)]:
        bt = count_group("L", 1, ring(field, p), "SU").count
        ct = cartesian_count("L", 1, ring(field, p), "SU")
        assert bt == ct, (field.d, p)
    # same comparison for U and for the second form
    assert (count_group("M", 1, ring(F3, 3), "U").count
            == cartesian_count("M", 1, ring(F3, 3), "U"))


def test_cartesian_cross_check_recursion():
    # n = 2 is the smallest size at which the backtracking recursion descends
    want = {("L", "U"): 648, ("L", "SU"): 216, ("M", "U"): 384, ("M", "SU"): 96}
    for (lat, group), count in want.items():
        r = ring(F3 if lat == "L" else F7, 2)
        assert count_group(lat, 2, r, group).count == count, (lat, group)
        assert cartesian_count(lat, 2, r, group) == count, (lat, group)


def test_cartesian_cross_check_two_adic():
    r = ring(F5, 2, 2)  # O/4, 16^4 matrices
    assert (count_group("L", 1, r, "SU").count
            == cartesian_count("L", 1, r, "SU"))


def test_identity_always_counted():
    for lat in ("L", "M"):
        assert count_group(lat, 1, ring(F3, 3), "SU").count >= 1


def test_su_divides_u():
    for lat in ("L", "M"):
        for field, p in [(F3, 5), (F5, 5), (F7, 2)]:
            N = 3 if p == 2 else 1
            u = count_group(lat, 1, ring(field, p, N), "U").count
            s = count_group(lat, 1, ring(field, p, N), "SU").count
            assert u % s == 0, (lat, field.d, p)
            assert u // s == index_u_su(field, p, N, lat)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.sampled_from("LM"), st.data())
def test_determinant_fiber_is_the_index(p, lattice, data):
    # count_group divides #U by #{t : N(t) lam_w = lam_w}: on L and M, at
    # split, inert and ramified p, that counted fiber is [U : SU] as
    # local_density states it, over O/2 .. O/32 and O/p, O/p^2 at odd p
    N = data.draw(st.integers(1, 5 if p == 2 else 2))
    field = data.draw(st.sampled_from(_fields_by_class(p, (1, 3, 5, 7, 11, 13, 15, 19, 23))))
    R = _Ring(ring(field, p, N), lattice_diag(lattice, 1))
    assert R.fiber(R.lam[-1]) == index_u_su(field, p, N, lattice)


def test_count_invariant_under_form_permutation():
    # reversing the diagonal form is a signed-permutation conjugation fixing it;
    # for (-1, 1) the complement line has delta = -1, not 1
    r = ring(F3, 5)
    m = r.modulus
    rows = _all_rows(m, 2).astype(np.float32)
    for lam in (lattice_diag("L", 1), (-1, 1)):
        eng = Engine(m, r.trace_eps, r.norm_eps, lam, su=True)
        cands = classes(eng, rows)
        meter, ref_meter = Meter(10**9), Meter(10**9)
        # with two classes there is no blocked level
        assert blocked_count_rec(eng, meter, [], cands) == 120, lam
        assert count_rec(eng, ref_meter, last_forms(eng, cands[-1]), [], cands,
                         np.arange(cands[-1].shape[0])) == 120, lam
        assert meter.visited == ref_meter.visited, lam


# m = p^N -> (p, N) for the moduli the kernels are checked over
_MODULI = {2: (2, 1), 4: (2, 2), 8: (2, 3), 16: (2, 4), 32: (2, 5), 3: (3, 1), 9: (3, 2),
           25: (5, 2), 5: (5, 1), 7: (7, 1), 49: (7, 2)}


@st.composite
def _kernel_cases(draw):
    m = draw(st.sampled_from(sorted(_MODULI)))
    p, N = _MODULI[m]
    R = ScalarRing(make_field(draw(st.sampled_from([1, 3, 5, 7, 11, 15, 19, 23]))), p, N)
    w = draw(st.integers(2, 4))
    lam = tuple(draw(st.lists(st.integers(-3, 3), min_size=w, max_size=w)))
    coord = st.integers(0, m - 1)
    planes = draw(st.lists(st.lists(coord, min_size=2 * w, max_size=2 * w),
                           min_size=w, max_size=w))
    return R, lam, np.array(planes, dtype=np.int64)


def _pairing(R, lam, u, v):
    """h(u, v) = sum lam_i u_i conj(v_i) in the scalar reference."""
    h = R.zero()
    for i in range(len(lam)):
        h = R.add(h, R.mul(R.scalar(lam[i]), R.mul(u[i], R.conj(v[i]))))
    return h


@settings(max_examples=300, deadline=None)
@given(_kernel_cases())
def test_plane_kernels_match_scalar_reference(case):
    # rows are a random prefix followed by u and v
    R, lam, planes = case
    w = len(lam)
    A = [[R.element(int(r[2 * i]), int(r[2 * i + 1])) for i in range(w)] for r in planes]
    h = _pairing(R, lam, A[-2], A[-1])
    det = RingMatrix(R, A).det()
    pair_zero, det_one = h == R.zero(), det == R.one()
    rows = planes.astype(np.float32)
    for su in (False, True):
        eng = Engine(R.modulus, R.trace_eps, R.norm_eps, lam, su)
        # the integer forms reproduce the scalar values exactly
        assert tuple(planes[-2] @ eng.pair_form(planes[-1]) % R.modulus) == h
        assert tuple(eng.det(list(planes))) == det
        # the float32 kernels reproduce the verdicts
        form = eng.pair_form(rows[-1]).astype(np.float32)
        kept = filter_by_row(eng, Meter(10), rows[-2:-1], form)
        assert bool(kept[0]) == pair_zero
        cof_map = cofactor_map(eng, list(rows[:-2]))
        forms = last_forms(eng, rows[-1:])
        left, right = last_two_operands(eng, cof_map, rows[-2:-1], forms)
        ok = divisible(eng, left @ right)[0]
        assert bool(ok[:2].all()) == pair_zero
        if su:
            assert bool(ok[2:].all()) == det_one
        hit = pair_zero and (det_one or not su)
        assert count_last_two(eng, Meter(10), cof_map, rows[-2:-1], forms) == hit
    # the complement line of the prefix A[:-1] is spanned by v = conj(pi * cof),
    # pi_i = prod_(j != i) lam_j: v is orthogonal to every prefix row, and
    # complement returns g = h(v, v) and delta = det [A[:-1]; v]
    cof = eng.cofactors(list(planes[:-1]))
    v = [R.conj(R.mul(R.scalar(math.prod(lam[:i] + lam[i + 1:])),
                      R.element(int(cof[2 * i]), int(cof[2 * i + 1])))) for i in range(w)]
    for row in A[:-1]:
        assert _pairing(R, lam, row, v) == R.zero()
    g, delta = eng.complement(cof)
    assert _pairing(R, lam, v, v) == R.element(int(g))
    assert RingMatrix(R, A[:-1] + [v]).det() == tuple(delta)


@st.composite
def _hermitian_forms(draw, R, r, coord=None):
    coord = st.integers(0, R.modulus - 1) if coord is None else coord
    G = [[None] * r for _ in range(r)]
    for i in range(r):
        G[i][i] = R.element(draw(coord))
        for j in range(i + 1, r):
            G[i][j] = R.element(draw(coord), draw(coord))
            G[j][i] = R.conj(G[i][j])
    return G


@st.composite
def _hermitian_cases(draw, moduli=(2, 3, 4, 5, 7, 8, 9), max_r=None):
    # by default, forms small enough that every vector can be enumerated
    m = draw(st.sampled_from(moduli))
    p, N = _MODULI[m]
    R = ScalarRing(make_field(draw(st.sampled_from([1, 3, 5, 7, 11, 15, 19, 23]))), p, N)
    r = draw(st.integers(1, max_r or (3 if m <= 3 else 2)))
    return R, draw(_hermitian_forms(R, r))


def _value_counts(R, G):
    """#{v : v G v* = g} for every g in Z/m, one vector at a time."""
    r, elems = len(G), [R.element(a, b) for a in range(R.modulus) for b in range(R.modulus)]
    counts = [0] * R.modulus
    for v in itertools.product(elems, repeat=r):
        h = R.zero()
        for i in range(r):
            for j in range(r):
                h = R.add(h, R.mul(R.mul(v[i], G[i][j]), R.conj(v[j])))
        assert h.b == 0
        counts[h.a] += 1
    return counts


@settings(max_examples=100, deadline=None)
@given(_hermitian_cases())
def test_canonical_form_keeps_the_value_counts(case):
    # canonical asserts P G P* = D itself; an isometric D represents every
    # value as often as G, and the remainder it keeps has no unit-norm vector
    R, G = case
    r, m = len(G), R.modulus
    search = level_reference.Search(ResidueRing(R.field, R.p, R.exponent), (1,) * r, False)
    planes = np.array([[tuple(x) for x in row] for row in G], dtype=np.int64)
    D, nd = canonical(search, planes[None])
    assert math.gcd(int(nd[0]), m) == 1
    want = _value_counts(R, G)
    assert search.form_dist(level_reference.search_key(D[0])) == want
    diag = [int(D[0, i, i, 0]) for i in range(r)]
    units = sum(math.gcd(g, m) == 1 for g in diag)
    assert all(math.gcd(g, m) == 1 for g in diag[:units])
    raw = [[R.element(*D[0, i, j]) for j in range(units, r)] for i in range(units, r)]
    if raw:
        counts = _value_counts(R, raw)
        assert not any(counts[g] for g in range(m) if math.gcd(g, m) == 1)


@st.composite
def _hermitian_batches(draw):
    R, G = draw(_hermitian_cases(moduli=(3, 4, 5, 8, 9, 25), max_r=3))
    # multiples of p are drawn often, so that forms without a unit-norm vector occur
    m, p = R.modulus, R.p
    coord = st.one_of(st.integers(0, m - 1), st.integers(0, m // p - 1).map(lambda x: x * p))
    return R, [G] + draw(st.lists(_hermitian_forms(R, len(G), coord), max_size=15))


@settings(max_examples=100, deadline=None)
@given(_hermitian_batches())
def test_canonical_matches_the_full_loop_reference(case):
    # the last 1 x 1 entry is copied rather than split off: the forms D, and so
    # the memo keys of a count, and N(det P) are the full loop's
    R, forms = case
    ring_ = StreamRing(ResidueRing(R.field, R.p, R.exponent), _ANY_LAM)
    G = np.array([[[tuple(x) for x in row] for row in form] for form in forms], dtype=np.int64)
    D, nd = canonical(ring_, G)
    want_D, want_nd = canonical_reference.canonical(ring_, G)
    assert (D == want_D).all() and (nd == want_nd).all()



@st.composite
def _binary_cases(draw):
    # a 2 x 2 form G whose first diagonal entry is a unit, and its canonical
    # form D, in the layout level reads: a unit entry first, then a unit or a
    # non-unit remainder; multiples of p make non-units common
    m = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 16, 25, 32)))
    p, N = _MODULI[m]
    ring_ = ResidueRing(make_field(draw(st.sampled_from([1, 3, 5, 7, 11, 15, 19, 23]))), p, N)
    R = StreamRing(ring_, _ANY_LAM)
    coord = st.one_of(st.integers(0, m - 1), st.integers(0, m // p - 1).map(lambda x: x * p))
    unit = st.integers(0, m - 1).filter(lambda x: math.gcd(x, m) == 1)
    G = np.zeros((2, 2, 2), dtype=np.int64)
    G[0, 0, 0], G[1, 1, 0], G[0, 1] = draw(unit), draw(coord), (draw(coord), draw(coord))
    G[1, 0] = R.conj(G[0, 1])
    return ring_, G, canonical(R, G[None])[0][0], (draw(unit), draw(st.integers(0, m - 1)))


@pytest.mark.parametrize("su", [False, True], ids=["U", "SU"])
@settings(max_examples=60, deadline=None)
@given(_binary_cases())
def test_binary_level_matches_the_canonical_complement(su, case):
    # a binary class reads each row's child off det D / q: per row, [rep[g]]
    # and N(det P) = scale[g] are canonical(B D B*) on complement's basis
    # (for G too, whose off-diagonal entry is not cleared), and the level is
    # the one every class used to build, summed over the sigma of the
    # reference's SU level; the package keys diag(1, g) only, so the levels
    # are compared on diag(1, D_11), which is D when D_00 = 1
    ring_, G, D, lam = case
    R = level_reference.Search(ring_, lam, su)
    for form in (G, D):
        for y in level_reference.rows(R, form):
            q, g = level_reference.short(R, form, y)
            want_q, B = complement(R, form, y)
            assert (q == want_q).all()
            A = R.arrays
            B, g = B[A.unit[q]], g[A.unit[q]]
            want, nd = canonical(R, R.matmul(R.matmul(B, form), R.star(B)))
            child = np.zeros_like(want)
            child[:, 0, 0, 0] = A.rep[g]
            assert (child == want).all() and (nd == A.scale[g]).all()
    key = (2, int(D[1, 1, 0]))
    assert _Ring(ring_, lam).level(key) == R.level(key)


@pytest.mark.parametrize("lattice, ring_, group, pin", [
    pytest.param("L", ring(F3, 5, 2), "U", (450000, 225390625, 2), id="L-1-O25-U"),
    pytest.param("M", ring(F3, 2, 5), "SU", (49152, 1209008128, 7), id="M-1-O32-SU"),
])
def test_binary_levels_keep_counts_nodes_and_keys(lattice, ring_, group, pin):
    # every level of an n = 1 count is binary
    rep = count_group(lattice, 1, ring_, group, budget=2 * 10**9)
    assert (rep.count, rep.nodes, rep.keys) == pin


def _package_count(ring_, lam, su):
    """count_group's count with the meter lifted: #U, or for SU #U over the
    determinant fiber; and the _Ring that counted it."""
    R = _Ring(ring_, lam)
    count, rest = divmod(R.count(R.top), R.fiber(R.lam[-1]) if su else 1)
    assert rest == 0
    return count, R


# (m, n) at odd p with n = 2..4 under count_group's row-table cap, less n = 4
# over O/5, whose reference search alone takes 7-11 s, plus n = 2 over O/25,
# which the cap refuses but the reference streams in about 1.5 s
_ODD_SIZES = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3), (9, 2), (25, 2)]


@st.composite
def _odd_cases(draw):
    m, n = draw(st.sampled_from(_ODD_SIZES))
    p, N = _MODULI[m]
    field = draw(st.sampled_from(_fields_by_class(p)))
    return ResidueRing(field, p, N), draw(st.sampled_from("LM")), n, draw(st.booleans())


@settings(max_examples=10, deadline=None)
@given(_odd_cases())
def test_odd_p_levels_match_the_canonical_complement(case):
    # at odd p every level reads each row's child off det D / q: per row, the
    # child diag(1, ..., 1, rep[g]) has the rank and rep[det] of the
    # reference's canonical(B D B*), a unit diagonal, and N(det P) = scale[g]
    # is the reference's times rep[g] / det D_ref; a search on the reference
    # level keeps every node total and #U, its per-row SU count by T = N(det)
    # and sigma is the package's #U over the determinant fiber, and the
    # package merges isometric keys
    ring_, lattice, n, su = case
    lam = lattice_diag(lattice, n)
    count, search = _package_count(ring_, lam, su)
    R = level_reference.Search(ring_, lam, su)
    m, A = R.m, R.arrays

    def check(D, y, q, child, ndp):
        want_q, g = level_reference.short(R, D, y)
        assert (q == want_q).all()
        g, eye = g[A.unit[q]], np.eye(D.shape[0] - 1, dtype=bool)
        diag = child[:, eye, 0]
        assert not child[:, ~eye].any() and not child[:, eye, 1].any() and A.unit[diag].all()
        det = np.ones(len(g), dtype=np.int64)
        for column in diag.T:
            det = det * column % m
        assert (A.rep[det] == A.rep[g]).all()
        assert (A.scale[g] == ndp * A.rep[g] * A.inv[det] % m).all()

    R.check = check
    assert count == R.run()
    assert search.charge(search.top) == R.charge(R.top)
    assert search.count.cache_info().currsize <= R.count.cache_info().currsize


def _hermitian_values(R, D, y):
    """y D y* for rows y (k, r, 2), as elements of Z/m."""
    return R.matmul(R.matmul(y[:, None], D), R.conj(y)[..., None, :])[:, 0, 0, 0]


@st.composite
def _diagonal_cases(draw):
    # a diagonal form, its unit entries first and then multiples of p, small
    # enough that every vector of (O/m)^r can be enumerated
    m = draw(st.sampled_from((2, 3, 4, 5, 8, 9, 16, 25, 32)))
    p, N = _MODULI[m]
    R = StreamRing(ResidueRing(make_field(draw(st.sampled_from([1, 3, 5, 7, 11, 15, 19, 23]))),
                               p, N), _ANY_LAM)
    r = draw(st.integers(1, max(k for k in (1, 2, 3) if m ** (2 * k) <= 2**20)))
    units = draw(st.integers(0, r))
    unit = st.integers(0, m - 1).filter(lambda x: math.gcd(x, m) == 1)
    nonunit = st.integers(0, m // p - 1).map(lambda x: x * p)
    d = (draw(st.lists(unit, min_size=units, max_size=units))
         + draw(st.lists(nonunit, min_size=r - units, max_size=r - units)))
    return R, d, units


@settings(max_examples=60, deadline=None)
@given(_diagonal_cases())
def test_value_counts_by_convolution_match_enumeration(case):
    # the reference dist convolves the scaled norm counts of every diagonal
    # entry, unit or not, and its rows count a level's projective rows by
    # value the same way, with non-unit norms before the first unit
    # coordinate: each equals a bincount of h(y, y) over the vectors it
    # counts, and so do the package's recurrences on diag(1, ..., 1, g)
    R, d, units = case
    D, m, ones = diag(d), R.m, all(g == 1 for g in d[:-1])
    want = sum(np.bincount(_hermitian_values(R, D, y), minlength=m)
               for y in product([[R.elems] * len(d)]))
    assert values_reference.dist(R, d) == want.tolist()
    if ones:
        assert R.dist(len(d), d[-1]) == want.tolist()
    if units:
        want = sum(np.bincount(_hermitian_values(R, D, y), minlength=m)
                   for y in level_reference.rows(R, D))
        assert values_reference.rows(R, d, units) == want.tolist()
        if ones:
            assert R.rows(len(d), d[-1]) == want.tolist()


# (n, m) at p = 2 under count_group's row-table cap, less L n = 2 over O/16
# and n = 3 over O/8, whose reference searches take up to 9 s and 40 s
_TWO_ADIC_SIZES = [(1, 2), (1, 4), (1, 8), (1, 16), (2, 2), (2, 4), (2, 8), (3, 2), (3, 4)]
# 2 ramified (d = 1 mod 4), inert (d = 3 mod 8) and split (d = 7 mod 8)
_RAMIFIED_2 = [1, 5, 13, 21]
_UNRAMIFIED_2 = [3, 7, 11, 15, 23]


@st.composite
def _two_adic_cases(draw):
    n, m = draw(st.sampled_from(_TWO_ADIC_SIZES))
    field = make_field(draw(st.sampled_from(_RAMIFIED_2 + _UNRAMIFIED_2)))
    return ResidueRing(field, *_MODULI[m]), draw(st.sampled_from("LM")), n, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(_two_adic_cases())
def test_two_adic_levels_match_the_streaming_reference(case):
    # at p = 2 every level reads its children off det D / q, and at a ramified
    # 2 counts the rows whose complement has no unit-norm vector apart, as
    # dead rows: a search on the reference level, which streams every row and
    # canonicalizes every complement, has the same node total and #U, and
    # its per-row SU count by T = N(det) and sigma is the package's #U over
    # the determinant fiber
    ring_, lattice, n, su = case
    lam = lattice_diag(lattice, n)
    count, search = _package_count(ring_, lam, su)
    ref = level_reference.Search(ring_, lam, su)
    assert count == ref.run()
    assert search.charge(search.top) == ref.charge(ref.top)


@st.composite
def _ramified_diagonals(draw):
    # a diagonal form of rank >= 3 at a ramified 2, its unit entries first and
    # then multiples of 2, with few enough projective rows to stream
    m, r = draw(st.sampled_from([(2, 3), (2, 4), (2, 5), (4, 3), (4, 4), (8, 3), (16, 3)]))
    R = StreamRing(ResidueRing(make_field(draw(st.sampled_from(_RAMIFIED_2))), *_MODULI[m]),
                   (1,) * r)
    units = draw(st.integers(1, r))
    unit = st.integers(0, m - 1).filter(lambda x: x % 2)
    nonunit = st.integers(0, m // 2 - 1).map(lambda x: 2 * x)
    d = (draw(st.lists(unit, min_size=units, max_size=units))
         + draw(st.lists(nonunit, min_size=r - units, max_size=r - units)))
    return R, d, units


@settings(max_examples=40, deadline=None)
@given(_ramified_diagonals())
def test_dead_rows_match_the_streaming_reference(case):
    # at a ramified 2 the complement of a row y has no unit-norm vector exactly
    # when every coordinate of y at a unit entry is a unit: at each unit q, the
    # rows whose canonical complement keeps a non-unit first entry are the
    # reference dead's convolution, and R.dead's on diag(1, ..., 1, g), whose
    # level counts them apart as its dead rows
    R, d, units = case
    D, m, A = diag(d), R.m, R.arrays
    want = np.zeros(m, dtype=np.int64)
    for y in level_reference.rows(R, D):
        q, B = complement(R, D, y)
        q, B = q[A.unit[q]], B[A.unit[q]]
        child, _ = canonical(R, R.matmul(R.matmul(B, D), R.star(B)))
        want += np.bincount(q[~A.unit[child[:, 0, 0, 0]]], minlength=m)
    dead = values_reference.dead(R, d, units)
    assert [dead[q] if R.unit[q] else 0 for q in range(m)] == want.tolist()
    if all(g == 1 for g in d[:-1]):
        # the classes a search meets; lams[0] = 1, so the rows of each q carry
        # the norm count of 1 / q
        assert R.dead(len(d), d[-1]) == dead
        _, billed = R.level((len(d), d[-1]))
        assert billed == sum(R.norm_count[R.inv[q]] * int(want[q]) for q in range(m))


@pytest.mark.parametrize("lattice, n, d, N, u, su, nodes", [
    ("L", 3, 1, 3, 422212465065984, 26388279066624, 18309067642503168),
    ("L", 3, 3, 3, 333976656936960, 27831388078080, 16042475961450496),
    ("L", 3, 5, 3, 422212465065984, 26388279066624, 18309067642503168),
    ("L", 3, 7, 3, 86586540687360, 21646635171840, 11556468520124416),
    ("M", 2, 1, 4, 274877906944, 4294967296, 19653787123712),
    ("M", 2, 3, 4, 231928233984, 4831838208, 16544230801408),
    ("M", 2, 5, 4, 274877906944, 4294967296, 19653787123712),
    ("M", 2, 7, 4, 25769803776, 1610612736, 9844081819648),
    ("L", 2, 5, 4, 103079215104, 3221225472, 15530618519552),
    ("L", 2, 7, 4, 22548578304, 2818572288, 10342298025984),
    ("M", 3, 5, 3, 844424930131968, 26388279066624, 16688387503161344),
    ("M", 3, 7, 3, 92358976733184, 11544872091648, 10262850140372992),
])
def test_two_adic_counts_keep_the_streamed_totals(lattice, n, d, N, u, su, nodes):
    # the counts and node totals of the levels that streamed their rows, which
    # took 0.1-40 s each: L n = 3 over O/8 and M n = 2 over O/16 on both
    # kinds of 2, L n = 2 over O/16 and M n = 3 over O/8 at d = 5 and 7
    r = ring(make_field(d), 2, N)
    got = [count_group(lattice, n, r, group, budget=10**22) for group in ("U", "SU")]
    assert [(rep.count, rep.nodes) for rep in got] == [(u, nodes), (su, nodes)]


def test_two_adic_reach_matches_tau_p(monkeypatch):
    # with the row-table cap lifted, the 2-adic densities of L (O/8) and M
    # (O/32) are counted for n = 1..6 on both kinds of 2 and equal tau_p; M
    # n = 2 over O/32 at d = 5 alone took about 2 s when the p = 2 levels of
    # rank >= 3 streamed their rows
    monkeypatch.setattr(group_enum, "_MAX_ROW_TABLE", 10**30)
    t0 = time.monotonic()
    for d in (1, 3, 5, 7, 11, 13, 15, 21, 105):
        field = make_field(d)
        for lattice in ("L", "M"):
            for n in range(1, 7):
                assert (oracle_tau_p(lattice, n, field, 2, budget=10**300)
                        == tau_p(lattice, n, field, 2).value), (d, lattice, n)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, elapsed


def test_rank_recurrence_reach_matches_tau_p(monkeypatch):
    # with the row-table cap lifted, the densities of L at n = 40 and 80 and of
    # M at n = 40 are counted at every special prime and at 2 and 3, and equal
    # tau_p; they took about 40 s in all when each level ran one r-entry
    # convolution per first unit coordinate
    monkeypatch.setattr(group_enum, "_MAX_ROW_TABLE", 10**1000)
    t0 = time.monotonic()
    for lattice, n in [("L", 40), ("L", 80), ("M", 40)]:
        for d in (3, 5, 105):
            field = make_field(d)
            for p in sorted(set(special_primes(lattice, field)) | {2, 3}):
                assert (oracle_tau_p(lattice, n, field, p, budget=10**100000)
                        == tau_p(lattice, n, field, p).value), (lattice, n, d, p)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, elapsed


@pytest.mark.parametrize("lattice, n, d, p, N", [
    ("M", 80, 3, 2, 5), ("L", 40, 5, 2, 3), ("L", 5, 3, 401, 1), ("M", 40, 7, 3, 1)])
def test_meter_matches_the_multiplicity_reference(lattice, n, d, p, N):
    # each class's total, memoized and summed once for the top class, is the
    # node total of the meter that bumped a multiplicity-scaled running total
    # on every visit of a class, on trees past the row-table cap (M n = 80
    # over O/32 meets 641 classes, and its total has 32,815 bits); the count
    # and the classes counted are the same
    t0 = time.monotonic()
    lam, r = lattice_diag(lattice, n), ring(make_field(d), p, N)
    search, ref = _Ring(r, lam), meter_reference.Search(r, lam, 10**20000)
    assert search.count(search.top) == ref.run()
    assert ((search.charge(search.top), search.count.cache_info().currsize)
            == (ref.meter.visited, ref.count.cache_info().currsize))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, elapsed


def test_budget_of_the_full_total_passes_past_the_row_table_cap(monkeypatch):
    # L n = 5 over O/401 with the cap lifted: nodes is the row table plus the
    # reference's total, a budget of nodes counts, and one less is refused
    # with the full total in the message
    monkeypatch.setattr(group_enum, "_MAX_ROW_TABLE", 10**1000)
    r, lam = ring(F3, 401), lattice_diag("L", 5)
    rep = count_group("L", 5, r, "SU", budget=10**200)
    ref = meter_reference.Search(r, lam, 10**200)
    ref.run()
    assert rep.nodes == 401**12 + ref.meter.visited
    assert count_group("L", 5, r, "SU", budget=rep.nodes).count == rep.count
    with pytest.raises(BudgetExceeded, match=f"{rep.nodes} > {rep.nodes - 1} "):
        count_group("L", 5, r, "SU", budget=rep.nodes - 1)


def test_odd_p_reach_matches_tau_p():
    # SU counts the short levels make cheap, with the budget lifted: each
    # count is tau_p p^dim exactly, and every node total is pinned
    t0 = time.monotonic()
    for lattice, n, field, p, nodes in [
            ("L", 4, F3, 3, 11468947501017), ("L", 5, F3, 3, 1956442013834001669),
            ("L", 3, F3, 5, 5104242390625), ("L", 3, F5, 5, 4938750390625),
            ("L", 3, F3, 7, 2021813694552001), ("L", 2, F5, 17, 38075711919337),
            ("M", 3, F7, 5, 5104242390625)]:
        rep = count_group(lattice, n, ring(field, p), "SU", budget=10**19)
        density = Fraction(rep.count, p ** ((n + 1) ** 2 - 1))
        assert (density, rep.nodes) == (tau_p(lattice, n, field, p).value, nodes), \
            (lattice, n, field.d, p)
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0, elapsed



def test_short_counts_stay_exact_past_int64(monkeypatch):
    # a count of short classes runs on Python ints: with the row-table cap
    # lifted, L n = 20 over O/3 and n = 14 over O/5 (near 2^700 and 2^520) are
    # tau_p p^dim exactly, where int64 value counts wrapped and tripped the
    # "missed a unit-norm row" assertion
    monkeypatch.setattr(group_enum, "_MAX_ROW_TABLE", 10**30)
    t0 = time.monotonic()
    for n, p in [(20, 3), (14, 5)]:
        rep = count_group("L", n, ring(F3, p), "SU", budget=10**300)
        assert rep.count == tau_p("L", n, F3, p).value * p ** ((n + 1) ** 2 - 1), (n, p)
        assert rep.count > 2**500
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0, elapsed


# every prime power m <= 64, as m -> (p, N)
_SMALL_MODULI = {p**N: (p, N) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                                        53, 59, 61) for N in range(1, 7) if p**N <= 64}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 3, 5, 7, 11, 15, 19, 23, 35, 39]),
       st.sampled_from(sorted(_SMALL_MODULI)))
def test_ring_tables_match_the_scalar_reference(d, m):
    # every int table of _Ring, element by element on ScalarRing, and each
    # array form and root of the streaming reference against the lists
    p, N = _SMALL_MODULI[m]
    S = ScalarRing(make_field(d), p, N)
    R = StreamRing(ResidueRing(S.field, S.p, S.exponent), _ANY_LAM)
    elems = [S.element(a, b) for a in range(m) for b in range(m)]
    unit = [math.gcd(g, p) == 1 for g in range(m)]
    norm_count = [sum(S.norm(x) == g for x in elems) for g in range(m)]
    unit_norms = sorted({S.norm(x) for x in elems if S.is_unit(x)})
    rep = [min(g * u % m for u in unit_norms) if unit[g] else g for g in range(m)]
    assert R.unit == unit
    assert R.inv == [next((x for x in range(m) if g * x % m == 1), 0) for g in range(m)]
    assert R.norm_count == norm_count
    assert R.unit_count == [c if u else 0 for u, c in zip(unit, norm_count)]
    assert R.nonunit_count == [0 if u else c for u, c in zip(unit, norm_count)]
    assert R.rep == rep
    assert R.scale == [next(u for u in unit_norms if g * u % m == rep[g]) if unit[g] else 1
                       for g in range(m)]
    for name in ("unit", "inv", "norm_count", "rep", "scale"):
        assert getattr(R.arrays, name).tolist() == getattr(R, name), name
    assert all(S.norm(S.element(*R.root[g])) == g for g in range(m) if norm_count[g])


def _convolved(R, d, counts):
    """The ways sum_i d_i g_i takes each value, g_i taking the value g in
    counts[i][g] ways, from _Ring's two-list steps."""
    return functools.reduce(R.convolve, [R.scaled(c, di) for di, c in zip(d, counts)])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_SMALL_MODULI)), st.integers(1, 5), st.data())
def test_rank_recurrences_match_the_convolution_reference(m, r, data):
    # on diag(1, ..., 1, g), at both kinds of 2 and at split, inert and
    # ramified odd p, the recurrences on rank count the vectors, the
    # projective rows and the dead rows by value as the r-entry convolutions
    # of the reference do
    p, N = _SMALL_MODULI[m]
    field = data.draw(st.sampled_from(_fields_by_class(p, (1, 3, 5, 7, 11, 13, 15, 19, 23))))
    R = _Ring(ring(field, p, N), _ANY_LAM)
    g = data.draw(st.integers(0, m - 1))
    d, units = (1,) * (r - 1) + (g,), r - 1 + R.unit[g]
    assert R.dist(r, g) == values_reference.dist(R, d)
    assert R.rows(r, g) == (values_reference.rows(R, d, units) or [0] * m)
    if r >= 2:
        assert R.dead(r, g) == values_reference.dead(R, d, units)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_SMALL_MODULI)), st.data())
def test_value_convolution_matches_the_numpy_reference(m, data):
    # on counts small enough for the float64 bincount, the exact scaling and
    # convolution on Python ints equal the numpy ones they replaced
    R = _Ring(ring(F3, *_SMALL_MODULI[m]), _ANY_LAM)
    d = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3))
    counts = data.draw(st.lists(st.lists(st.integers(0, 255), min_size=m, max_size=m),
                                min_size=len(d), max_size=len(d)))
    assert _convolved(R, d, counts) == values_reference.values(m, d, counts).tolist()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([m for m in sorted(_SMALL_MODULI) if m <= 16]), st.data())
def test_value_convolution_is_exact_past_int64(m, data):
    # counts of 2^40 and more: every value past 2^63 equals the sum over
    # every (g_1, ..., g_r) of the product of its counts
    R = _Ring(ring(F3, *_SMALL_MODULI[m]), _ANY_LAM)
    d = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=3))
    count = st.lists(st.one_of(st.just(0), st.integers(2**40, 2**80)),
                     min_size=m, max_size=m).filter(any)
    counts = data.draw(st.lists(count, min_size=len(d), max_size=len(d)))
    want = [0] * m
    for g in itertools.product(range(m), repeat=len(d)):
        want[sum(di * gi for di, gi in zip(d, g)) % m] += math.prod(
            c[gi] for c, gi in zip(counts, g))
    assert _convolved(R, d, counts) == want
    assert max(want) > 2**63


def _fields_by_class(p, candidates=(1, 3, 5, 7, 11, 13, 15)):
    """One field per behaviour of p (split, inert, ramified) that occurs among
    Q(sqrt(-d)), d in candidates."""
    found = {}
    for d in candidates:
        found.setdefault(chi(make_field(d), p), make_field(d))
    return [found[c] for c in (1, -1, 0) if c in found]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
def test_line_counts_match_enumeration(m):
    # for every g in Z/m and delta in O/m: the c in O/m with N(c) g = lam_w
    # (U), and of those the c with c delta = 1 (SU), counted one by one
    p, N = _MODULI[m]
    for field in _fields_by_class(p):
        R = ScalarRing(field, p, N)
        elems = [R.element(a, b) for a in range(m) for b in range(m)]
        inverse = {}
        for c in elems:
            for x in elems:
                if R.mul(c, x) == R.one():
                    inverse[x] = c
        for lattice in ("L", "M"):
            lam = lattice_diag(lattice, 1)
            hits = [[c for c in elems if (R.norm(c) * g - lam[-1]) % m == 0] for g in range(m)]
            g = np.repeat(np.arange(m), m * m)
            delta = np.array([tuple(x) for x in elems] * m)
            for su in (False, True):
                eng = Engine(m, R.trace_eps, R.norm_eps, lam, su)
                got = np.asarray(line_counts(eng, g, delta), dtype=np.int64).reshape(m, m * m)
                for gi in range(m):
                    want = [len(hits[gi]) if not su else int(inverse.get(x) in hits[gi])
                            for x in elems]
                    assert got[gi].tolist() == want, (field.d, lattice, su, gi)


def _prefix_cofactors(eng, Z, iz, X):
    """Last-row cofactors of the prefixes [X_i] (Z None) or [Z_(iz_i), X_i]."""
    if Z is None:
        return X @ cofactor_map(eng, []) % eng.m
    return np.einsum("pk,pkc->pc", X, cofactor_map(eng, [Z[:, None, :]])[iz]) % eng.m


def _all_rows(m, w):
    idx = np.arange(m**(2 * w), dtype=np.int64)
    return np.stack([(idx // m**k) % m for k in range(2 * w)], axis=1)


def _every_valid_pair(eng, rows):
    """Every prefix [z, x] with h(z, z) = lam_1, h(x, x) = lam_2, h(x, z) = 0,
    in blocks of first rows z."""
    C0, C1 = classes(eng, rows)[:2]
    for lo in range(0, C0.shape[0], 256):
        blk = C0[lo:lo + 256]
        h = (C1 @ np.moveaxis(eng.pair_form(blk), 0, 1).reshape(C1.shape[1], -1)) % eng.m
        ix, iz = np.nonzero((h[:, 0::2] == 0) & (h[:, 1::2] == 0))
        yield blk, iz, C1[ix]


def _sampled_valid_pairs(eng, rng, n_first=400, per_first=64):
    """Valid prefixes [z, x] in one block: random z of norm lam_1, and
    x = y - h(y, z) z / lam_1 for random y, kept when h(x, x) = lam_2."""
    m, t, nu = eng.m, eng.t, eng.nu
    Y = rng.integers(0, m, (200 * m, 2 * eng.w))
    Z = Y[eng.selfnorm(Y) == eng.lam[0]][:n_first]
    Y = rng.integers(0, m, (Z.shape[0], per_first, 2 * eng.w))
    s = np.einsum("zyk,zkc->zyc", Y, eng.pair_form(Z))[:, :, None, :] * pow(eng.lam[0], -1, m)
    z = Z.reshape(Z.shape[0], 1, eng.w, 2)
    sz = np.stack([s[..., 0] * z[..., 0] - nu * s[..., 1] * z[..., 1],
                   s[..., 0] * z[..., 1] + s[..., 1] * z[..., 0] + t * s[..., 1] * z[..., 1]],
                  axis=-1)
    X = (Y - sz.reshape(Y.shape)) % m
    assert not (np.einsum("zyk,zkc->zyc", X, eng.pair_form(Z)) % m).any()
    iz, iy = np.nonzero(eng.selfnorm(X) == eng.lam[1])
    yield Z, iz, X[iz, iy]


@pytest.mark.parametrize("lattice", ["L", "M"])
@pytest.mark.parametrize("m", [3, 5, 8, 16, 25])
def test_complement_identity_on_valid_prefixes(lattice, m):
    # By Cauchy-Binet sum pi_i N(cof_i) = det(R Lam R*) = 1 on every valid
    # prefix R of L and M, so delta = det [R; v] = 1 and g = h(v, v) = det Lam = lam_w.
    # Every prefix is checked for n = 1, and for n = 2 over O/3 and O/5;
    # over O/8, O/16 and O/25 (16.7M and more rows of width 3) n = 2 is sampled.
    p, N = _MODULI[m]
    rng = np.random.default_rng(m)
    for field in _fields_by_class(p):
        r = ring(field, p, N)
        for n in (1, 2):
            eng = Engine(m, r.trace_eps, r.norm_eps, lattice_diag(lattice, n), su=True)
            if n == 1:
                blocks = [(None, None, classes(eng, _all_rows(m, 2))[0])]
            elif m in (3, 5):
                blocks = _every_valid_pair(eng, _all_rows(m, 3))
            else:
                blocks = _sampled_valid_pairs(eng, rng)
            checked = 0
            for Z, iz, X in blocks:
                g, delta = eng.complement(_prefix_cofactors(eng, Z, iz, X))
                assert (g == eng.lam[-1]).all(), (field.d, n)
                assert (delta == [1 % m, 0]).all(), (field.d, n)
                checked += X.shape[0]
            assert checked > 0, (field.d, n)


# n = 2 over O/7, O/8, O/9 and O/16 and n = 3 over O/4 need more than the
# default budget; n = 3 over O/2 is the only size whose blocked levels recurse,
# checked against the reference's row-by-row filters
_SWEEP_GRID = [(lattice, n, m, field.d, group)
               for n, moduli in ((1, (2, 4, 8, 16, 3, 9, 5, 7)), (2, (2, 3, 4, 5)), (3, (2,)))
               for m in moduli for field in _fields_by_class(_MODULI[m][0])
               for lattice in ("L", "M") for group in ("U", "SU")]


@pytest.mark.parametrize("lattice, n, m, d, group", _SWEEP_GRID)
def test_backtrack_matches_sweep_reference(lattice, n, m, d, group):
    r = ring(make_field(d), *_MODULI[m])
    rep = count_group(lattice, n, r, group)
    assert (rep.count, rep.nodes) == sweep_count(lattice, n, r, group)
    with pytest.raises(BudgetExceeded, match=str(rep.nodes - 1)):
        count_group(lattice, n, r, group, budget=rep.nodes - 1)


@pytest.mark.parametrize("lattice, n, m, d, group", _SWEEP_GRID)
def test_search_matches_backtrack_reference(lattice, n, m, d, group):
    # the class recursion keeps the blocked backtrack's counts, node totals and refusals
    r = ring(make_field(d), *_MODULI[m])
    rep = count_group(lattice, n, r, group)
    assert (rep.count, rep.nodes) == backtrack_count(lattice, n, r, group)
    with pytest.raises(BudgetExceeded, match=str(rep.nodes - 1)):
        count_group(lattice, n, r, group, budget=rep.nodes - 1)


def test_odd_n_three_counts_over_o3():
    # n = 3 at p = 3 (ramified for d = 3): #SU = tau_3 * 3^dim, dim = 15, where
    # the backtrack took about 30 s per count
    t0 = time.monotonic()
    dim = 15
    counts = {}
    for lattice in ("L", "M"):
        rep = count_group(lattice, 3, ring(F3, 3), "SU")
        assert rep.count == tau_p(lattice, 3, F3, 3).value * 3**dim, lattice
        counts[lattice] = rep.count
    elapsed = time.monotonic() - t0
    assert counts == {"L": 14171760, "M": 11337408}
    assert count_group("L", 3, ring(F3, 3), "SU").nodes == 655450461
    assert elapsed < 5.0, elapsed


@pytest.mark.parametrize("lattice, n, ring_, keys, nodes", [
    pytest.param("L", 2, ring(F3, 5), 3, 65220625, id="2-5-3"),
    pytest.param("L", 3, ring(F3, 3), 4, 655450461, id="3-3-4"),
    pytest.param("M", 1, ring(make_field(111), 2, 3), 3, 167936, id="M-1-O8-5"),
    pytest.param("M", 1, ring(make_field(111), 2, 4), 5, 10551296, id="M-1-O16-9"),
    pytest.param("L", 4, ring(F3, 3), 5, 11468947501017, id="L-4-O3-7"),
])
def test_complement_classes_counted(lattice, n, ring_, keys, nodes):
    # every first row of L over O/5 (3,150 of them at n = 2) falls into one
    # complement class; keys counts the classes evaluated (an id's last
    # number is the keys pin of the count when the case was added).
    # The top form is diag(lam) as it stands: over O/5 that is diag(1, 1, -1),
    # not its canonical form I, and the 2-adic M pins end in the non-unit -2
    rep = count_group(lattice, n, ring_, "SU", budget=10**14)
    assert (rep.keys, rep.nodes) == (keys, nodes)


@pytest.mark.parametrize("p, N, w", [(73, 1, 2), (2, 6, 2), (7, 2, 2)]
                         + [(2, 1, w) for w in range(1, 13)])
def test_packed_product_matches_scalar_reference(p, N, w):
    # the largest moduli the row-table cap allows at w = 2 (m = 73, 64, 49), and
    # every width up to the widest it allows (m = 2, w = 12)
    m = p**N
    assert m ** (2 * w) <= _MAX_ROW_TABLE
    rng = np.random.default_rng(1000 * m + w)
    for d in (199, 197):  # eps^2 = eps - 50 and eps^2 = -197
        S = ScalarRing(make_field(d), p, N)
        R = StreamRing(ResidueRing(S.field, p, N), _ANY_LAM)
        X, Y = rng.integers(0, m, size=(2, 3, w, w, 2))
        v = rng.integers(0, m, size=(3, 1, w, 2))

        def ref(A):
            return RingMatrix(S, [[S.element(*e) for e in row] for row in A.tolist()])

        XY, vX, Xv = R.matmul(X, Y), R.matmul(v, X), R.matmul(X, R.star(v))
        XoY, Xc = R.mul(X, Y), R.conj(X)
        for k in range(3):
            assert ref(XY[k]) == ref(X[k]) @ ref(Y[k])
            assert ref(vX[k]) == ref(v[k]) @ ref(X[k])
            assert ref(Xv[k]) == ref(X[k]) @ ref(v[k]).conj_transpose()
            x, y = ref(X[k]).rows, ref(Y[k]).rows
            assert ref(XoY[k]).rows == tuple(tuple(S.mul(a, b) for a, b in zip(r1, r2))
                                             for r1, r2 in zip(x, y))
            assert ref(Xc[k]).rows == tuple(tuple(S.conj(a) for a in row) for row in x)


def test_packed_product_refuses_a_modulus_past_the_cap():
    # 2 r (m - 1)^2 < 2^20 holds for r = 1 and fails for r = 2 at m = 521
    R = StreamRing(ResidueRing(F3, 521, 1), _ANY_LAM)
    ones = np.ones((1, 2, 2, 2), dtype=np.int64)
    assert R.matmul(ones[:, :, :1], ones[:, :1]).shape == (1, 2, 2, 2)
    with pytest.raises(AssertionError, match="packed product overflows"):
        R.matmul(ones, ones)


@pytest.mark.parametrize("w", [2, 3, 4, 5])
def test_row_table_cap_keeps_float32_exact(w):
    m = 2
    while (m + 1) ** (2 * w) <= _MAX_ROW_TABLE:
        m += 1
    assert exact_in_float32(w, m), (w, m)
    assert not exact_in_float32(w, 2**11)


def test_divisibility_test_exact_below_bound():
    H = np.arange(2**22, dtype=np.float32)
    for m in _MODULI:
        eng = Engine(m, 0, 0, (1, 1), su=False)
        assert np.array_equal(divisible(eng, H), np.arange(2**22) % m == 0), m


def _enumerated_kernel(lattice, n, level=None, field=None):
    """The reference count of the reduction-kernel system: every assignment of
    the free entries is enumerated and the full system verified."""
    level = {"L": 2, "M": 4}[lattice] if level is None else level
    field = make_field(5) if field is None else field
    lam = lattice_diag(lattice, n)
    ring = ResidueRing(field, 2, level.bit_length() - 1)
    m, t = ring.modulus, ring.trace_eps
    q = m * m
    w = n + 1
    # Free entries: the upper triangle and the first n diagonal entries; the
    # lower triangle is forced by the pairing equations (unit lam_i on the
    # rows doing the forcing), the last diagonal entry by the trace.
    free = [(i, i) for i in range(n)] + [(i, j) for i in range(w) for j in range(i + 1, w)]
    n_free = len(free)
    idx = np.arange(q**n_free, dtype=np.int64)
    # Entries are coordinate-plane pairs (a, b) for a + b*eps, reduced mod m
    # only where tested: every step is Z-linear, so residues are unaffected,
    # and the few sums and products of coordinates below 4 stay far inside int16.
    entries = {pos: (((idx // m**(2 * s)) % m).astype(np.int16),
                     ((idx // m**(2 * s + 1)) % m).astype(np.int16))
               for s, pos in enumerate(free)}

    def conj(x):
        return x[0] + t * x[1], -x[1]

    def add(x, y):
        return x[0] + y[0], x[1] + y[1]

    def smul(c, x):
        return c * x[0], c * x[1]

    def is_zero(x):
        return (x[0] % m == 0) & (x[1] % m == 0)

    for i in range(w):
        for j in range(i + 1, w):
            # the (i, j) equation forces b_ji = -conj(lam_j b_ij), using lam_i = 1 for i < j
            entries[(j, i)] = smul(-1, conj(smul(lam[j], entries[(i, j)])))
    acc = entries[(0, 0)]
    for i in range(1, n):
        acc = add(acc, entries[(i, i)])
    entries[(w - 1, w - 1)] = smul(-1, acc)
    ok = np.ones(idx.shape[0], dtype=bool)
    # Verify the full system -B.Lam = Lam.conj(B)' and Tr B = 0.
    for i in range(w):
        for j in range(w):
            ok &= is_zero(add(smul(lam[j], entries[(i, j)]), smul(lam[i], conj(entries[(j, i)]))))
    tr = entries[(0, 0)]
    for i in range(1, w):
        tr = add(tr, entries[(i, i)])
    ok &= is_zero(tr)
    return int(ok.sum())


_KERNEL_FIELDS = [1, 3, 5, 7, 13, 15]  # 2 ramified (d = 1 mod 4), inert and split


@pytest.mark.parametrize("lattice", ["L", "M"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", _KERNEL_FIELDS)
def test_kernel_elimination_equals_enumeration(lattice, n, d):
    field = make_field(d)
    assert count_kernel(lattice, n, field=field) == _enumerated_kernel(lattice, n, field=field)


@pytest.mark.parametrize("d", _KERNEL_FIELDS)
def test_kernel_elimination_equals_enumeration_at_either_level(d):
    # each lattice's kernel is taken at its own level: O/2 for L, O/4 for M
    field = make_field(d)
    for lattice, level in (("L", 2), ("M", 4)):
        assert (count_kernel(lattice, 1, field=field)
                == _enumerated_kernel(lattice, 1, level, field)), lattice


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_closed_forms(n):
    for d in (1, 5, 13):
        field = make_field(d)
        assert count_kernel("L", n, field=field) == 2**(n * n + 3 * n), d
        assert count_kernel("M", n, field=field) == 2**(2 * n * n + 5 * n), d


@pytest.mark.parametrize("d", [1, 3, 5, 7, 11, 13, 15, 21, 105])
def test_kernel_elimination_equals_the_full_scan_reference(d):
    # the reference builds and eliminates the whole system, not its blocks
    field = make_field(d)
    for n in range(1, 13):
        for lattice in ("L", "M"):
            assert (count_kernel(lattice, n, field=field)
                    == kernel_reference.count_kernel(lattice, n, field=field)), (lattice, n)


def test_kernel_closed_forms_at_n80_in_time():
    # the whole-system full-scan elimination took about 16 s for M at n = 80,
    # and the indexed one about 0.8 s at n = 320
    t0 = time.monotonic()
    for n in (80, 320):
        assert count_kernel("L", n) == 2**(n * n + 3 * n), n
        assert count_kernel("M", n) == 2**(2 * n * n + 5 * n), n
    assert time.monotonic() - t0 < 2.0


def test_kernel_counts():
    assert count_kernel("L", 1) == 2**4
    assert count_kernel("M", 1) == 2**7
    assert count_kernel("L", 2) == 2**10
    assert count_kernel("M", 2) == 2**18
    # unramified fields linearize to a smaller kernel
    assert count_kernel("L", 1, field=F3) == 2**3
    assert count_kernel("M", 1, field=F3) == 2**6


def test_kernel_count_independent_of_ramified_field():
    assert count_kernel("L", 2, field=F5) == count_kernel("L", 2, field=make_field(13))
    assert count_kernel("M", 1, field=F1) == count_kernel("M", 1, field=F5)


def test_oracle_tau_p_spot_values():
    assert oracle_tau_p("L", 1, F3, 5) == Fraction(24, 25)
    assert oracle_tau_p("L", 1, F3, 3) == Fraction(2, 3)
    assert oracle_tau_p("L", 1, F5, 2) == Fraction(1, 2)
    assert oracle_tau_p("L", 1, F3, 2) == Fraction(3, 4)


def test_stabilization_examples():
    assert stabilization_check("L", 1, F3, 5, 1)
    assert stabilization_check("L", 1, F3, 3, 1)
    with pytest.raises(ValueError):
        stabilization_check("L", 1, F3, 3, 0)


@pytest.mark.parametrize("lattice, n, d, p, level", [
    *[("L", 1, d, 2, 3) for d in (3, 5, 7)],   # O/8 -> O/16
    *[("M", 1, d, 2, 5) for d in (3, 5, 7)],   # O/32 -> O/64
    ("L", 2, 3, 3, 1), ("M", 2, 15, 3, 1),     # O/3 -> O/9
    ("L", 2, 7, 2, 3),                         # O/8 -> O/16
])
def test_su_counts_stabilize(lattice, n, d, p, level):
    # Hensel stabilization in SU form, #SU(O/p^(N+1)) = p^dim #SU(O/p^N) with
    # dim = (n+1)^2 - 1, from the level where the 2-adic densities are read
    # off; U need not stabilize from O/2 at a 2-ramified field (d = 5)
    t0 = time.monotonic()
    r_lo, r_hi = ring(make_field(d), p, level), ring(make_field(d), p, level + 1)
    lo = count_group(lattice, n, r_lo, "SU", budget=10**20)
    hi = count_group(lattice, n, r_hi, "SU", budget=10**20)
    assert lo.count > 0
    assert hi.count == p ** ((n + 1) ** 2 - 1) * lo.count
    assert time.monotonic() - t0 < 5.0


@pytest.mark.parametrize("p", [1, 4, 9])
def test_stabilization_rejects_a_non_prime(p):
    with pytest.raises(ValueError, match="not prime"):
        stabilization_check("L", 1, F3, p, 1)


@pytest.mark.parametrize("p", [1, 4, 9])
def test_oracle_tau_p_rejects_a_non_prime(p):
    with pytest.raises(ValueError, match="not prime"):
        oracle_tau_p("L", 1, F3, p)


def test_budget_refusal_is_not_zero():
    with pytest.raises(BudgetExceeded):
        count_group("L", 1, ring(F3, 5), "SU", budget=50)
    # the kernel is counted by elimination and has no budget
    assert count_kernel("M", 3) == 2**33


def test_budget_of_exactly_the_node_total_suffices():
    for lat, n, r, group in [("L", 2, ring(F3, 3), "SU"), ("M", 2, ring(F7, 3), "U"),
                             ("L", 1, ring(F3, 5), "SU")]:
        rep = count_group(lat, n, r, group)
        assert count_group(lat, n, r, group, budget=rep.nodes).count == rep.count
        with pytest.raises(BudgetExceeded):
            count_group(lat, n, r, group, budget=rep.nodes - 1)


@pytest.mark.parametrize("r, group, table, total, count", [
    pytest.param(ring(F3, 5), "SU", 625, 15025, 120, id="O5-SU"),
    pytest.param(ring(F3, 5, 2), "U", 390625, 225390625, 450000, id="O25-U"),
])
def test_budget_is_checked_at_the_row_table_then_at_the_full_total(monkeypatch, r, group,
                                                                   table, total, count):
    # L n = 1 at d = 3: a budget under the row table refuses before any _Ring
    # is built; one that covers it but not the full total refuses with that
    # total; the full total counts
    with monkeypatch.context() as patch:
        def unbuilt(*args):
            raise AssertionError("_Ring built for a refused row table")
        patch.setattr(group_enum, "_Ring", unbuilt)
        with pytest.raises(BudgetExceeded, match=f": {table} > {table - 1} visited"):
            count_group("L", 1, r, group, budget=table - 1)
    with pytest.raises(BudgetExceeded, match=f": {total} > {table} visited"):
        count_group("L", 1, r, group, budget=table)
    rep = count_group("L", 1, r, group, budget=total)
    assert (rep.count, rep.nodes) == (count, total)


@pytest.mark.parametrize("d, count", [(3, 450000), (11, 300000)])
def test_last_stage_node_total_over_o25(d, count):
    # 5 is inert for d = 3 and split for d = 11; the 15000 x 15000 last-stage
    # sweep over O/25 visits the same number of cells either way
    rep = count_group("L", 1, ring(make_field(d), 5, 2), "U")
    assert (rep.count, rep.nodes) == (count, 225390625)


def test_default_budget_env_override(monkeypatch):
    monkeypatch.setenv("HMVOL_BUDGET", "2.5e9")
    assert default_budget() == 2_500_000_000
    monkeypatch.delenv("HMVOL_BUDGET")
    assert default_budget() == DEFAULT_BUDGET


def test_negative_budget_is_rejected(monkeypatch):
    # a negative budget is invalid input, not an inconclusive count
    with pytest.raises(ValueError, match="budget"):
        count_group("L", 1, ring(F3, 5), "SU", budget=-7)
    monkeypatch.setenv("HMVOL_BUDGET", "-1")
    with pytest.raises(ValueError, match="HMVOL_BUDGET"):
        default_budget()


def test_m_lattice_two_adic_counts_at_level_three():
    # closed-form #SU(M, O/8) = 2^(3((n+1)^2-1)) prod_(i=1..n) (1 - chi(2)^i 2^-i) for odd D
    assert count_group("M", 1, ring(F3, 2, 3), "SU").count == 768
    assert count_group("M", 1, ring(F7, 2, 3), "SU").count == 256


@pytest.mark.parametrize("d", [3, 11])
def test_m_lattice_n2_counts_over_o16(d):
    # 2 inert: every level reads its children off det D / q, the last entry of
    # each a non-unit; U stabilizes from O/8 to O/16
    t0 = time.monotonic()
    r = ring(make_field(d), 2, 4)
    u = count_group("M", 2, r, "U", budget=10**17)
    su = count_group("M", 2, r, "SU", budget=10**17)
    assert (u.count, su.count) == (231928233984, 4831838208)
    assert u.nodes == su.nodes == 16544230801408
    assert time.monotonic() - t0 < 5.0


def test_invalid_arguments():
    with pytest.raises(ValueError):
        count_group("X", 1, ring(F3, 5))
    with pytest.raises(ValueError):
        count_group("L", 0, ring(F3, 5))
    with pytest.raises(ValueError):
        count_group("L", 1, ring(F3, 5), group="PSU")
    with pytest.raises(ValueError):
        oracle_tau_p("L", 1, F3, 6)


def test_m_lattice_full_two_adic_oracle():
    # the O/32 counts visit 1,074,790,400 (d = 5) and 1,209,008,128 (d = 3)
    # nodes, more than the default budget
    for field in (F5, F3):
        assert oracle_tau_p("M", 1, field, 2, budget=2 * 10**9) == tau_p("M", 1, field, 2).value
    with pytest.raises(BudgetExceeded):
        oracle_tau_p("M", 1, F5, 2, budget=DEFAULT_BUDGET)
