from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmvol.group_enum import (BudgetExceeded, _Engine, _Meter, _MAX_ROW_TABLE, _cofactor_map,
                              _count_last_two, _count_rec, _divisible, _exact_in_float32,
                              _filter_by_row, _last_forms, _last_two_operands, count_group,
                              count_kernel, default_budget, oracle_tau_p,
                              stabilization_check, DEFAULT_BUDGET)
from hmvol.lie_form import lattice_diag
from hmvol.local_density import index_u_su, tau_p
from hmvol.quadfield import make_field
from hmvol.residue_ring import ResidueRing, RingMatrix

F1, F3, F5, F7 = make_field(1), make_field(3), make_field(5), make_field(7)


def ring(field, p, N=1):
    return ResidueRing(field, p, N)


def test_su_counts_frozen_values():
    assert count_group("L", 1, ring(F3, 5), "SU").count == 120
    assert count_group("L", 1, ring(F7, 11), "SU").count == 1320
    assert count_group("L", 1, ring(F3, 3), "SU").count == 18


def test_cartesian_cross_check_smallest_cases():
    for field, p in [(F3, 5), (F3, 3), (F7, 3), (F5, 3)]:
        bt = count_group("L", 1, ring(field, p), "SU").count
        ct = count_group("L", 1, ring(field, p), "SU", mode="cartesian").count
        assert bt == ct, (field.d, p)
    # same comparison for U and for the second form
    assert (count_group("M", 1, ring(F3, 3), "U").count
            == count_group("M", 1, ring(F3, 3), "U", mode="cartesian").count)


def test_cartesian_cross_check_recursion():
    # n = 2 is the smallest size at which the backtracking recursion descends
    want = {("L", "U"): 648, ("L", "SU"): 216, ("M", "U"): 384, ("M", "SU"): 96}
    for (lat, group), count in want.items():
        r = ring(F3 if lat == "L" else F7, 2)
        assert count_group(lat, 2, r, group).count == count, (lat, group)
        assert count_group(lat, 2, r, group, mode="cartesian").count == count, (lat, group)


def test_cartesian_cross_check_two_adic():
    r = ring(F5, 2, 2)  # O/4, 16^4 matrices
    assert (count_group("L", 1, r, "SU").count
            == count_group("L", 1, r, "SU", mode="cartesian").count)


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


def test_count_invariant_under_form_permutation():
    # reversing the diagonal form is a signed-permutation conjugation fixing it
    r = ring(F3, 5)
    eng_fwd = _Engine(r.modulus, r.trace_eps, r.norm_eps, lattice_diag("L", 1), su=True)
    eng_rev = _Engine(r.modulus, r.trace_eps, r.norm_eps, (-1, 1), su=True)
    counts = []
    for eng in (eng_fwd, eng_rev):
        m = r.modulus
        idx = np.arange(m**4, dtype=np.int64)
        rows = np.stack([(idx // m**k) % m for k in range(4)], axis=1).astype(np.float32)
        norms = eng.selfnorm(rows)
        cands = [rows[norms == eng.lam[k]] for k in range(2)]
        last = _last_forms(eng, cands[-1])
        counts.append(_count_rec(eng, _Meter(10**9), last, [], cands,
                                 np.arange(cands[-1].shape[0])))
    assert counts[0] == counts[1] == 120


# m = p^N -> (p, N) for the moduli the kernels are checked over
_MODULI = {2: (2, 1), 4: (2, 2), 8: (2, 3), 32: (2, 5), 3: (3, 1), 9: (3, 2),
           25: (5, 2), 5: (5, 1), 7: (7, 1), 49: (7, 2)}


@st.composite
def _kernel_cases(draw):
    m = draw(st.sampled_from(sorted(_MODULI)))
    p, N = _MODULI[m]
    R = ResidueRing(make_field(draw(st.sampled_from([1, 3, 5, 7, 11, 15, 19, 23]))), p, N)
    w = draw(st.integers(2, 4))
    lam = tuple(draw(st.lists(st.integers(-3, 3), min_size=w, max_size=w)))
    coord = st.integers(0, m - 1)
    planes = draw(st.lists(st.lists(coord, min_size=2 * w, max_size=2 * w),
                           min_size=w, max_size=w))
    return R, lam, np.array(planes, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_kernel_cases())
def test_plane_kernels_match_scalar_reference(case):
    # rows are a random prefix followed by u and v
    R, lam, planes = case
    w = len(lam)
    A = [[R.element(int(r[2 * i]), int(r[2 * i + 1])) for i in range(w)] for r in planes]
    u, v = A[-2], A[-1]
    h = R.zero()
    for i in range(w):
        h = R.add(h, R.mul(R.scalar(lam[i]), R.mul(u[i], R.conj(v[i]))))
    det = RingMatrix(R, A).det()
    pair_zero, det_one = h == R.zero(), det == R.one()
    rows = planes.astype(np.float32)
    for su in (False, True):
        eng = _Engine(R.modulus, R.trace_eps, R.norm_eps, lam, su)
        # the integer forms reproduce the scalar values exactly
        assert tuple(planes[-2] @ eng.pair_form(planes[-1]) % R.modulus) == h
        assert tuple(eng.det(list(planes))) == det
        # the float32 kernels reproduce the verdicts
        form = eng.pair_form(rows[-1]).astype(np.float32)
        kept = _filter_by_row(eng, _Meter(10), rows[-2:-1], form)
        assert bool(kept[0]) == pair_zero
        cof_map = _cofactor_map(eng, list(rows[:-2]))
        forms = _last_forms(eng, rows[-1:])
        left, right = _last_two_operands(eng, cof_map, rows[-2:-1], forms)
        ok = _divisible(eng, left @ right)[0]
        assert bool(ok[:2].all()) == pair_zero
        if su:
            assert bool(ok[2:].all()) == det_one
        hit = pair_zero and (det_one or not su)
        assert _count_last_two(eng, _Meter(10), cof_map, rows[-2:-1], forms) == hit


@pytest.mark.parametrize("w", [2, 3, 4, 5])
def test_row_table_cap_keeps_float32_exact(w):
    m = 2
    while (m + 1) ** (2 * w) <= _MAX_ROW_TABLE:
        m += 1
    assert _exact_in_float32(w, m), (w, m)
    assert not _exact_in_float32(w, 2**11)


def test_divisibility_test_exact_below_bound():
    H = np.arange(2**22, dtype=np.float32)
    for m in _MODULI:
        eng = _Engine(m, 0, 0, (1, 1), su=False)
        assert np.array_equal(_divisible(eng, H), np.arange(2**22) % m == 0), m


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
    field = make_field(d)
    for lattice in ("L", "M"):
        for level in (2, 4):
            assert (count_kernel(lattice, 1, level, field)
                    == _enumerated_kernel(lattice, 1, level, field)), (lattice, level)


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_closed_forms(n):
    for d in (1, 5, 13):
        field = make_field(d)
        assert count_kernel("L", n, field=field) == 2**(n * n + 3 * n), d
        assert count_kernel("M", n, field=field) == 2**(2 * n * n + 5 * n), d


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


@pytest.mark.parametrize("p", [1, 4, 9])
def test_stabilization_rejects_a_non_prime(p):
    with pytest.raises(ValueError, match="not prime"):
        stabilization_check("L", 1, F3, p, 1)


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


def test_default_budget_env_override(monkeypatch):
    monkeypatch.setenv("HMVOL_BUDGET", "2.5e9")
    assert default_budget() == 2_500_000_000
    monkeypatch.delenv("HMVOL_BUDGET")
    assert default_budget() == DEFAULT_BUDGET


def test_m_lattice_two_adic_counts_at_level_three():
    # closed-form #SU(M, O/8) = 2^(3((n+1)^2-1)) prod_(i=1..n) (1 - chi(2)^i 2^-i) for odd D
    assert count_group("M", 1, ring(F3, 2, 3), "SU").count == 768
    assert count_group("M", 1, ring(F7, 2, 3), "SU").count == 256


def test_invalid_arguments():
    with pytest.raises(ValueError):
        count_group("X", 1, ring(F3, 5))
    with pytest.raises(ValueError):
        count_group("L", 0, ring(F3, 5))
    with pytest.raises(ValueError):
        count_group("L", 1, ring(F3, 5), group="PSU")
    with pytest.raises(ValueError):
        oracle_tau_p("L", 1, F3, 6)


_GATED = default_budget() <= DEFAULT_BUDGET


@pytest.mark.slow
@pytest.mark.skipif(_GATED, reason="needs HMVOL_BUDGET > 1e9 (full O/32 sweep)")
def test_m_lattice_full_two_adic_oracle():
    assert oracle_tau_p("M", 1, F5, 2) == tau_p("M", 1, F5, 2).value
    assert oracle_tau_p("M", 1, F3, 2) == tau_p("M", 1, F3, 2).value
