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


def test_budget_refusal_is_not_zero():
    with pytest.raises(BudgetExceeded):
        count_group("L", 1, ring(F3, 5), "SU", budget=50)
    with pytest.raises(BudgetExceeded):
        count_kernel("M", 3, budget=10**6)


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
