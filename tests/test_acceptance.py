"""Acceptance suite: each test enforces one numbered criterion at its stated
tolerance and prints a single PASS/FAIL line.  Everything here is exact
arithmetic except the special-value comparisons, whose tolerances are pinned
in the assertions.
"""

import time
from fractions import Fraction

from mpmath import mp, mpf

from hmvol.arith import kronecker
from hmvol.group_enum import count_group, count_kernel, oracle_tau_p, stabilization_check
from hmvol.lie_form import build_basis, curvature_ratio, gram_det
from hmvol.local_density import index_u_su, tau_p
from hmvol.quadfield import make_field
from hmvol.residue_ring import ResidueRing
from hmvol.special_values import exact_numeric, l_exact, l_numeric, zeta_exact, zeta_numeric
from hmvol.volume import (Verdict, discrepancy_report, hm_assembled, hm_ratio, rationalize)

GRID_D = (1, 3, 5, 7, 11, 13, 15)


def _report(num, ok, msg):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {msg}")
    assert ok, f"criterion {num}: {msg}"


def test_criterion_1_oracle_conformance_odd_p():
    dim = 3  # (n+1)^2 - 1 at n=1
    worst = 0.0
    for lattice in ("L", "M"):
        for d in (1, 3, 5, 7):
            field = make_field(d)
            for p in (3, 5, 7, 11):
                rep = count_group(lattice, 1, ResidueRing(field, p, 1), "SU")
                formula = tau_p(lattice, 1, field, p).value * p**dim
                assert formula.denominator == 1
                assert rep.count == formula.numerator, (lattice, d, p)
                worst = max(worst, rep.elapsed)
    spots = {
        (3, 5): count_group("L", 1, ResidueRing(make_field(3), 5, 1), "SU").count,
        (7, 11): count_group("L", 1, ResidueRing(make_field(7), 11, 1), "SU").count,
        (3, 3): count_group("L", 1, ResidueRing(make_field(3), 3, 1), "SU").count,
    }
    assert spots == {(3, 5): 120, (7, 11): 1320, (3, 3): 18}
    assert worst < 5.0
    _report(1, True, f"32 odd-p SU counts equal formula * p^3 exactly; spot values "
                     f"120/1320/18; slowest case {worst:.2f}s < 5s")


def test_criterion_2_oracle_conformance_n2():
    t0 = time.monotonic()
    field = make_field(3)
    c3 = count_group("L", 2, ResidueRing(field, 3, 1), "SU").count
    c5 = count_group("L", 2, ResidueRing(field, 5, 1), "SU").count
    elapsed = time.monotonic() - t0
    assert c3 == Fraction(8, 9) * 3**8 == 5832
    assert c5 == Fraction(3024, 3125) * 5**8 == 378000
    assert elapsed < 60.0
    _report(2, True, f"n=2 backtracking counts 5832 (p=3) and 378000 (p=5) exact "
                     f"in {elapsed:.1f}s < 60s")


def test_criterion_3_two_adic_oracle_and_kernels():
    assert oracle_tau_p("L", 1, make_field(5), 2) == Fraction(1, 2)
    kernels = {(lat, n): count_kernel(lat, n) for lat in ("L", "M") for n in (1, 2)}
    assert kernels == {("L", 1): 2**4, ("L", 2): 2**10, ("M", 1): 2**7, ("M", 2): 2**18}
    _report(3, True, "kernel-corrected count over O/8 gives tau_2 = 1/2 (L, d=5); "
                     "kernel counts 2^(n^2+3n) and 2^(2n^2+5n) at n in {1,2}")


def test_criterion_4_index_formulas():
    for lattice in ("L", "M"):
        for d in (1, 3, 5, 7):
            field = make_field(d)
            for p in (3, 5, 7, 11):
                r = ResidueRing(field, p, 1)
                u = count_group(lattice, 1, r, "U").count
                s = count_group(lattice, 1, r, "SU").count
                chi = kronecker(field.D, p)
                want = 2 * p if chi == 0 else p - chi
                assert u == s * want == s * index_u_su(field, p, 1, lattice), (lattice, d, p)
    # 2-adic M index, checked at level k = 3 where the closed form applies
    for d in (1, 3, 5, 7):
        field = make_field(d)
        r = ResidueRing(field, 2, 3)
        u = count_group("M", 1, r, "U").count
        s = count_group("M", 1, r, "SU").count
        assert u == s * index_u_su(field, 2, 3, "M"), d
    _report(4, True, "enumerated [U:SU] equals 2p / p(1 - chi/p) at n=1 on the full "
                     "grid, and the 2-adic M index matches at level k=3")


def test_criterion_5_stabilization():
    for p in (3, 5):
        for d in (3, 7):
            field = make_field(d)
            lo = count_group("L", 1, ResidueRing(field, p, 1), "U").count
            hi = count_group("L", 1, ResidueRing(field, p, 2), "U").count
            assert hi == p**4 * lo, (p, d)
            assert stabilization_check("L", 1, field, p, 1)
    _report(5, True, "#U(O/p^2) = p^4 #U(O/p) exactly for p in {3,5}, d in {3,7}")


def test_criterion_6_killing_determinants():
    t0 = time.monotonic()
    checked = 0
    for lattice in ("L", "M"):
        for n in range(1, 7):
            for d in GRID_D:
                field = make_field(d)
                got = abs(gram_det(build_basis(lattice, n, field)))
                want = d ** ((n * (n + 3)) // 2) * (n + 1)
                if lattice == "L":
                    want *= 2 ** (n * (n + 1)) if d % 4 == 1 else 1
                else:
                    want *= 2 ** (n * (n + 3)) if d % 4 == 1 else 2 ** (2 * n)
                assert got == want, (lattice, n, d)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(6, True, f"{checked} Gram determinants match the closed forms exactly "
                     f"in {elapsed:.1f}s < 10s")


def test_criterion_7_curvature():
    field = make_field(3)
    checked = 0
    for n in range(1, 5):
        basis = build_basis("L", n, field)
        for label, X in zip(basis.labels, basis.elements):
            if label[0] in "ef" and "," not in label:
                assert curvature_ratio([list(r) for r in X], field) == Fraction(-2)
                checked += 1
    assert checked == 2 * (1 + 2 + 3 + 4)
    _report(7, True, f"curvature ratio is exactly -2 on all {checked} e_k, f_k, n <= 4")


def test_criterion_8_special_values():
    with mp.workdps(40):
        for s in (2, 4, 6, 8, 10, 12):
            sv = zeta_numeric(s, mpf("1e-12"))
            assert abs(sv.numeric - exact_numeric(zeta_exact(s))) <= mpf("2e-12"), s
        for k in (3, 5, 7):
            for d in (1, 3, 7, 11):
                field = make_field(d)
                sv = l_numeric(k, field, mpf("1e-10"))
                assert abs(sv.numeric - exact_numeric(l_exact(k, field), field)) \
                    <= mpf("2e-10"), (k, d)
        spot = l_numeric(3, make_field(3), mpf("1e-10"))
        assert abs(spot.numeric - mpf("0.884024")) <= mpf("1e-5")
        # Euler product over p <= 1e5 within its truncation bound
        P = 10**5
        flags = bytearray([1]) * (P + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, int(P**0.5) + 1):
            if flags[p]:
                flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
        field = make_field(3)
        prod = mpf(1)
        for p in (q for q in range(P + 1) if flags[q]):
            c = kronecker(field.D, p)
            if c:
                prod /= 1 - mpf(c) * mpf(p) ** (-3)
        sv = l_numeric(3, field, mpf("1e-14"))
        assert abs(prod - sv.numeric) <= 4 * mpf(P) ** (-2) / 2 + sv.error_bound
    _report(8, True, "zeta within 2e-12 of exact (even s <= 12); L within 2e-10 of "
                     "exact (k in {3,5,7}, d in {1,3,7,11}); L(3,chi_-3) = 0.884024 "
                     "+- 1e-5; Euler product within its truncation bound")


def test_criterion_9_end_to_end_rationality():
    for lattice in ("L", "M"):
        for d in GRID_D:
            field = make_field(d)
            for n in range(1, 7):
                v = rationalize(hm_assembled(lattice, n, field), field)
                assert isinstance(v, Fraction) and v > 0, (lattice, n, d)
    spots = (rationalize(hm_assembled("L", 1, make_field(3)), make_field(3)),
             rationalize(hm_assembled("L", 1, make_field(1)), make_field(1)),
             rationalize(hm_assembled("M", 1, make_field(3)), make_field(3)))
    assert spots == (Fraction(1, 6), Fraction(1, 8), Fraction(1, 12))
    _report(9, True, "pi and |D| exponents cancel on the whole grid (n <= 6, 7 fields, "
                     "both lattices); spot volumes 1/6, 1/8, 1/12")


def test_criterion_10_pipeline_agreement_and_ratio():
    reps = discrepancy_report(6, GRID_D)
    assert all(r.verdict is not Verdict.MISMATCH for r in reps)
    for r in reps:
        if not (r.lattice == "M" and r.n % 2 == 1 and r.n >= 3) and \
           not (r.n % 2 == 1 and r.n >= 3 and r.d % 4 == 1):
            assert r.verdict is Verdict.MATCH, (r.lattice, r.n, r.d)
    flagged = [r for r in reps if r.verdict is Verdict.TABLE_AMBIGUOUS]
    assert flagged and all(r.n % 2 == 1 and r.n >= 3 for r in flagged)
    for d in GRID_D:
        field = make_field(d)
        for n in range(1, 7):
            assert (rationalize(hm_assembled("M", n, field), field)
                    == rationalize(hm_assembled("L", n, field), field) * hm_ratio(n, field))
    assert hm_ratio(2, make_field(3)) == 3
    for d in (1, 5, 13):
        for n in (2, 4, 6):
            assert hm_ratio(n, make_field(d)) == 2**n - 1
    _report(10, True, "table equals assembly on every unambiguous row; ambiguous rows "
                      "flagged only; Vol(M) = Vol(L) * ratio on the full grid with "
                      "ratio(2,3) = 3 and ratio(even n, d=1 mod 4) = 2^n - 1")
