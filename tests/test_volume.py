from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, nstr

from hmvol import arith, volume
from hmvol.arith import is_squarefree
from hmvol.cli import _record, main
from hmvol.expressions import VolumeExpression
from hmvol.lie_form import vol_max_compact
from hmvol.local_density import tau_infinity
from hmvol.quadfield import make_field
from hmvol.special_values import l_exact
from hmvol.volume import (Verdict, compare_pipelines, evaluate_numeric, hm_assembled, hm_table,
                          rationalize)
import numeric_reference
from numeric_reference import to_mpf
import volume_reference
from volume_reference import discrepancy_report, hm_ratio

F1, F3, F5, F7 = make_field(1), make_field(3), make_field(5), make_field(7)
GRID_D = (1, 3, 5, 7, 11, 13, 15)


def test_expression_algebra():
    # the products and inverses of the reference expression, which the
    # assembly reference multiplies out
    Expr = volume_reference.VolumeExpression
    a = Expr(coeff=Fraction(2, 3), pi_power=2, zeta_args=(4, 2))
    b = Expr(coeff=Fraction(3), d_power=Fraction(1, 2), l_args=(3,))
    assert a * b == b * a
    assert (a * b).zeta_args == (2, 4)
    c = Expr(coeff=Fraction(5, 2), sqrt_sq=3, pi_power=-2)
    assert c * c.reciprocal() == Expr()
    with pytest.raises(ValueError):
        a.reciprocal()


@pytest.mark.parametrize("lattice, n", [("Q", 1), ("L", 0), ("M", 0)])
def test_volume_functions_reject_a_bad_lattice_or_n(lattice, n):
    for build in (hm_table, hm_assembled, compare_pipelines):
        with pytest.raises(ValueError, match="lattice must be|n must be"):
            build(lattice, n, F3)


def test_spot_volumes():
    assert rationalize(hm_assembled("L", 1, F3), F3) == Fraction(1, 6)
    assert rationalize(hm_assembled("L", 1, F1), F1) == Fraction(1, 8)
    assert rationalize(hm_assembled("M", 1, F3), F3) == Fraction(1, 12)


def test_table_examples():
    row = hm_table("L", 1, F3)
    # |D|^1 * (4/3) * 1!/(2pi)^2 * zeta(2)
    assert row.expr.d_power == 1
    assert row.expr.coeff == Fraction(4, 3) / 4
    assert row.expr.pi_power == -2
    assert (row.expr.zeta_args, row.expr.l_args) == ((2,), ())
    assert not row.ambiguous

    rowM = hm_table("M", 2, F5)
    rowL = hm_table("L", 2, F5)
    assert rowM.expr == rowL.expr.scaled(2**2 - 1)

    rowL23 = hm_table("L", 2, F3)
    assert rowL23.expr.d_power == Fraction(5, 2)
    assert (rowL23.expr.zeta_args, rowL23.expr.l_args) == ((2,), (3,))


def test_pipeline_agreement_spot():
    for lattice, n, field in [("L", 1, F3), ("L", 2, F3), ("M", 1, F3), ("M", 2, F7)]:
        assert (rationalize(hm_table(lattice, n, field).expr, field)
                == rationalize(hm_assembled(lattice, n, field), field))


def test_derived_volume_values():
    assert rationalize(hm_assembled("L", 2, F3), F3) == Fraction(1, 216)
    assert rationalize(hm_assembled("M", 2, F3), F3) == Fraction(1, 72)
    assert rationalize(hm_assembled("L", 1, F7), F7) == Fraction(1, 3)


@pytest.mark.parametrize("d", [1, 3, 5, 7, 11, 13, 15, 19, 23])
def test_l_at_n2_matches_published_picard_volumes(d):
    """External anchors for L at n = 2, where SU(L) and PU(2, 1; O_K) have the
    same quotient and chi = 3 Vol_HM.  The published values were recalled, not
    derived in this repo, which cannot re-derive them:
    - d = 3: chi = 1/72, the Eisenstein-Picard group (Parker, Duke Math. J. 94,
      1998; pinned in test_derived_volume_values);
    - d = 1: chi = 1/32, so Vol_HM = 1/96, the Gauss-Picard group (Falbel,
      Francsics and Parker, Math. Ann. 349, 2011);
    - every d: chi = |D|^(5/2) L(3, chi_D) / (32 pi^3) (Holzapfel, Ball and
      Surface Arithmetics, 1998), which is l_exact(3).coeff / 32 exactly,
      since l_exact(3) = coeff pi^3 |D|^(-5/2)."""
    field = make_field(d)
    vol = rationalize(hm_assembled("L", 2, field), field)
    if d == 1:
        assert vol == Fraction(1, 96)
    assert 3 * vol == l_exact(3, field).coeff / 32


def test_hm_ratio_examples():
    assert hm_ratio(1, F3) == Fraction(1, 2)
    assert hm_ratio(2, F3) == 3
    for d in (1, 5, 13):
        field = make_field(d)
        for n in (2, 4):
            assert hm_ratio(n, field) == 2**n - 1, (n, d)


def test_ratio_identity_on_grid():
    for d in GRID_D:
        field = make_field(d)
        for n in range(1, 7):
            lhs = rationalize(hm_assembled("M", n, field), field)
            rhs = rationalize(hm_assembled("L", n, field), field) * hm_ratio(n, field)
            assert lhs == rhs, (n, d)


def test_rationality_on_grid():
    # pi and |D| exponents cancel across the whole grid: a deep end-to-end check
    for lattice in ("L", "M"):
        for d in GRID_D:
            field = make_field(d)
            for n in range(1, 7):
                v = rationalize(hm_assembled(lattice, n, field), field)
                assert isinstance(v, Fraction) and v > 0


def test_rationalize_rejects_unbalanced_expressions():
    with pytest.raises(ArithmeticError):
        rationalize(VolumeExpression(pi_power=1), F3)
    with pytest.raises(ArithmeticError):
        rationalize(VolumeExpression(d_power=Fraction(1, 2)), F3)
    with pytest.raises(ArithmeticError):
        rationalize(VolumeExpression(sqrt_sq=2), F3)


def test_evaluate_numeric_consistent_with_rationalize():
    for lattice, n, field in [("L", 1, F3), ("L", 2, F3), ("M", 3, F5), ("L", 4, F7)]:
        expr = hm_assembled(lattice, n, field)
        exact = rationalize(expr, field)
        value, bound = evaluate_numeric(expr, field, 1e-12)
        assert abs(to_mpf(value) - mpf(exact.numerator) / exact.denominator) \
            <= to_mpf(bound) + mpf("1e-12")


def test_evaluate_numeric_is_multiplicative():
    a = hm_assembled("L", 1, F3)
    b = hm_assembled("L", 2, F3)
    va, _ = evaluate_numeric(a, F3, 1e-14)
    vb, _ = evaluate_numeric(b, F3, 1e-14)
    vab, _ = evaluate_numeric(volume_reference.reference(a) * volume_reference.reference(b), F3,
                              1e-14)
    assert abs(to_mpf(vab - va * vb)) < mpf("1e-12")


def test_discrepancy_report_verdicts():
    reps = discrepancy_report(3, [1, 3])
    by_case = {(r.lattice, r.n, r.d): r for r in reps}
    assert by_case[("L", 1, 3)].verdict is Verdict.MATCH
    assert by_case[("L", 2, 3)].verdict is Verdict.MATCH
    # odd n >= 3 rows with no printed L factor are flagged, never mismatched
    assert by_case[("L", 3, 1)].verdict is Verdict.TABLE_AMBIGUOUS
    assert by_case[("M", 3, 1)].verdict is Verdict.TABLE_AMBIGUOUS
    assert by_case[("M", 3, 3)].verdict is Verdict.TABLE_AMBIGUOUS
    assert by_case[("L", 3, 3)].verdict is Verdict.MATCH  # -d row prints L(3)
    assert all(r.verdict is not Verdict.MISMATCH for r in reps)


def test_discrepancy_report_has_no_size_cap():
    reps = discrepancy_report(9, [3])
    assert [(r.lattice, r.n) for r in reps] == [(lat, n) for lat in "LM" for n in range(1, 10)]
    assert all(r.verdict is not Verdict.MISMATCH for r in reps)


def test_discrepancy_report_expanded_tables_agree_even_when_flagged():
    for r in discrepancy_report(5, [1, 3, 5, 7]):
        assert r.table_value == r.assembled_value
    # the flagged rows (odd n >= 3) over the odd squarefree d < 200, where
    # both ramified-2 and odd ramified primes vary
    fields = [make_field(d) for d in range(1, 200, 2) if is_squarefree(d)]
    flagged = 0
    for lattice in "LM":
        for n in (3, 5, 7, 9):
            for field in fields:
                if hm_table(lattice, n, field).ambiguous:
                    r = compare_pipelines(lattice, n, field)
                    assert r.verdict is Verdict.TABLE_AMBIGUOUS, (lattice, n, field.d)
                    flagged += 1
    assert flagged == 4 * (len(fields) + sum(f.d % 4 == 1 for f in fields))


def test_an_ambiguous_row_that_differs_is_a_mismatch(monkeypatch, capsys):
    assert hm_table("M", 3, F3).ambiguous
    assert compare_pipelines("M", 3, F3).verdict is Verdict.TABLE_AMBIGUOUS
    correction = volume._ramified_correction
    monkeypatch.setattr(volume, "_ramified_correction",
                        lambda n, field, twisted: 2 * correction(n, field, twisted))
    r = compare_pipelines("M", 3, F3)
    assert r.verdict is Verdict.MISMATCH and r.table_value == 2 * r.assembled_value
    assert main(["table", "--lattice", "M", "--n-range", "3..3", "--d-list", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].endswith(",mismatch")
    assert captured.err == "hmvol: pipelines disagree on 1 of 1 records\n"


def test_positivity_and_growth_trend():
    # volumes are positive and the growth ratios increase monotonically; for
    # |D| > 4 pi^2 the values themselves blow up immediately
    for d in (3, 5, 43):
        field = make_field(d)
        vals = [rationalize(hm_assembled("L", n, field), field) for n in range(1, 8)]
        assert all(v > 0 for v in vals)
        ratios = [vals[i + 1] / vals[i] for i in range(len(vals) - 1)]
        assert all(ratios[i + 1] > ratios[i] for i in range(len(ratios) - 1)), d
    field = make_field(43)
    vals = [rationalize(hm_assembled("L", n, field), field) for n in range(1, 6)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("tol", ["1e-3", "1e-12", "1e-39"])
def test_numeric_volume_lies_within_its_bound(tol):
    for lattice in "LM":
        for n in (1, 2, 3, 5):
            for field in (F1, F3, F7):
                expr = hm_assembled(lattice, n, field)
                value, bound = evaluate_numeric(expr, field, float(tol))
                exact = rationalize(expr, field)
                with mp.workdps(60):
                    assert abs(to_mpf(value) - mpf(exact.numerator) / exact.denominator) \
                        <= to_mpf(bound), (lattice, n, field.d)


@pytest.mark.parametrize("tol", ["1e-12", "1e-20", "1e-39"])
def test_evaluate_numeric_matches_the_mpf_reference(tol):
    # the dyadic evaluation against the mpf one it replaced, on the same special
    # values: values within 1e-35 relative, bounds equal to 17 digits
    cases = [(lattice, n, d) for lattice in "LM" for n in range(1, 6)
             for d in (1, 3, 7, 15, 141, 799)]
    cases += [(lattice, n, 3) for lattice in "LM" for n in (20, 40, 90)]
    for lattice, n, d in cases:
        field = make_field(d)
        exprs = [hm_assembled(lattice, n, field), hm_table(lattice, n, field).expr]
        if n in (2, 3):  # an expression with a square root: sqrt(3), sqrt(4)
            exprs.append(vol_max_compact(n))
        for expr in exprs:
            value, bound = evaluate_numeric(expr, field, float(tol))
            ref_value, ref_bound = numeric_reference.evaluate_numeric(expr, field, float(tol))
            with mp.workdps(60):
                assert abs(to_mpf(value) - ref_value) <= mpf("1e-35") * abs(ref_value), \
                    (lattice, n, d)
            assert nstr(to_mpf(bound), 17) == nstr(ref_bound, 17), (lattice, n, d)


def test_every_volume_exponent_of_d_needs_at_most_a_square_root():
    # dyadic.power takes square roots only: d_power = n(n+3)/4, and n(n+3) is even
    golden_d = (1, 3, 5, 7, 15, 29, 119, 141, 199, 797, 2**61 - 1)
    for d in golden_d:
        field = make_field(d)
        for lattice in "LM":
            for n in range(1, 201 if d == 3 else 31):
                assert hm_table(lattice, n, field).expr.d_power.denominator <= 2, (lattice, n, d)
                assert hm_assembled(lattice, n, field).d_power.denominator <= 2, (lattice, n, d)


def test_evaluate_numeric_checks_the_tolerance_it_was_given():
    expr = hm_assembled("L", 5, F3)
    for tol in (1e-39, 1e-40):
        evaluate_numeric(expr, F3, tol)
    with pytest.raises(ValueError, match="9e-41"):
        evaluate_numeric(expr, F3, 9e-41)


def test_evaluate_numeric_checks_the_tolerance_once(monkeypatch, cold_memos):
    # the factors are keyed on the checked ratio, not the tolerance as given:
    # one check per call, and 1e-13 and its exact Fraction share one entry
    checked, original = [], volume.check_tol

    def check_tol(tol):
        checked.append(tol)
        return original(tol)

    monkeypatch.setattr(volume, "check_tol", check_tol)
    expr = hm_assembled("L", 5, F3)
    first = evaluate_numeric(expr, F3, 1e-13)
    assert checked == [1e-13]
    assert evaluate_numeric(expr, F3, Fraction(1e-13)) == first
    assert volume._special_factors.cache_info().currsize == 1


def test_memoized_products_match_the_fraction_chains():
    # tau_inf from integer densities, and rationalize from the memoized zeta/L
    # products and powers of |D|, against the one-factor-at-a-time chains
    for d in (1, 3, 5, 7, 29, 119, 141, 199):
        field = make_field(d)
        for lattice in ("L", "M"):
            for n in range(1, 11):
                assert (tau_infinity(lattice, n, field)
                        == volume_reference.tau_infinity(lattice, n, field)), (lattice, n, d)
                for expr in (hm_assembled(lattice, n, field), hm_table(lattice, n, field).expr):
                    assert (rationalize(expr, field)
                            == volume_reference.rationalize(expr, field)), (lattice, n, d)


def test_a_cold_compute_at_n60_doubles_the_bernoulli_table_5_times(capsys, cold_memos, monkeypatch):
    # each rebuild at least doubles the table, so a cold compute at n = 60,
    # which reads B_k up to B_61 in rising order, builds it 5 times (up to
    # B_2, B_6, B_14, B_30, B_62), where a rebuild up to each k would make 31
    calls = []
    tangent_numbers = arith._tangent_numbers
    monkeypatch.setattr(arith, "_tangent_numbers", lambda n: calls.append(n) or tangent_numbers(n))
    assert main(["compute", "--lattice", "L", "--n", "60", "--d", "3"]) == 0
    assert calls == [1, 3, 7, 15, 31]
    assert len(arith._BERNOULLI) == 63
    capsys.readouterr()


def test_a_cold_compute_at_n2_doubles_the_bernoulli_table_4_times(capsys, cold_memos, monkeypatch):
    # the B_2j of the Euler-Maclaurin corrections, read in rising order, build
    # the table 4 times (up to B_2, B_6, B_14, B_30), where a rebuild up to
    # each k would make 8 (up to B_3, B_4, ..., B_16)
    calls = []
    tangent_numbers = arith._tangent_numbers
    monkeypatch.setattr(arith, "_tangent_numbers", lambda n: calls.append(n) or tangent_numbers(n))
    assert main(["compute", "--lattice", "L", "--n", "2", "--d", "3"]) == 0
    assert calls == [1, 3, 7, 15]
    capsys.readouterr()


# the odd squarefree d < 800 and the fields of the goldens (797 among them)
_FIELDS = st.sampled_from(sorted({d for d in range(1, 800, 2) if is_squarefree(d)}
                                 | {1, 3, 5, 7, 29, 119, 141, 199, 797}))


@settings(max_examples=60, deadline=None)
@given(lattice=st.sampled_from("LM"), n=st.integers(1, 12), d=_FIELDS,
       tol=st.sampled_from([1e-10, 1e-12, 1e-20, 1e-30]),
       pipeline=st.sampled_from(["table", "assembled", "both"]))
def test_records_match_the_fraction_reference(lattice, n, d, tol, pipeline):
    # every field of a record built on integers equals the one built on the
    # dataclass expressions, the Fraction product and the Fraction shares
    field = make_field(d)
    assert _record(lattice, n, field, pipeline, tol) == \
        volume_reference.record(lattice, n, field, pipeline, tol)
