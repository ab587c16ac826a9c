from fractions import Fraction

import pytest
from mpmath import mpf

from hmvol.expressions import VolumeExpression
from hmvol.quadfield import make_field
from hmvol.volume import (Verdict, discrepancy_report, evaluate_numeric,
                          hm_assembled, hm_ratio, hm_table, rationalize)

F1, F3, F5, F7 = make_field(1), make_field(3), make_field(5), make_field(7)
GRID_D = (1, 3, 5, 7, 11, 13, 15)


def test_expression_algebra():
    a = VolumeExpression(coeff=Fraction(2, 3), pi_power=2, zeta_args=(4, 2))
    b = VolumeExpression(coeff=Fraction(3), d_power=Fraction(1, 2), l_args=(3,))
    assert a * b == b * a
    assert (a * b).zeta_args == (2, 4)
    c = VolumeExpression(coeff=Fraction(5, 2), sqrt_sq=3, pi_power=-2)
    assert c * c.reciprocal() == VolumeExpression()
    with pytest.raises(ValueError):
        a.reciprocal()


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
        value, bound = evaluate_numeric(expr, field, mpf("1e-12"))
        assert abs(value - mpf(exact.numerator) / exact.denominator) <= bound + mpf("1e-12")


def test_evaluate_numeric_is_multiplicative():
    a = hm_assembled("L", 1, F3)
    b = hm_assembled("L", 2, F3)
    va, _ = evaluate_numeric(a, F3, mpf("1e-14"))
    vb, _ = evaluate_numeric(b, F3, mpf("1e-14"))
    vab, _ = evaluate_numeric(a * b, F3, mpf("1e-14"))
    assert abs(vab - va * vb) < mpf("1e-12")


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
