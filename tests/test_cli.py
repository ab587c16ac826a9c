import csv
import json
from fractions import Fraction

import pytest

from hmvol import special_values
from hmvol.cli import main
from hmvol.volume import discrepancy_report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_json_roundtrip(capsys):
    code, out, _ = run(capsys, "compute", "--lattice", "L", "--n", "1", "--d", "3",
                       "--format", "json")
    assert code == 0
    recs = json.loads(out)
    assert recs[0]["volume_rational"] == "1/6"
    v = Fraction(recs[0]["volume_rational"])
    assert abs(float(v) - recs[0]["volume_numeric"]) < 1e-10


def test_compute_m_lattice(capsys):
    code, out, _ = run(capsys, "compute", "--lattice", "M", "--n", "1", "--d", "3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["volume_rational"] == "1/12"


def test_compute_rejects_even_d(capsys):
    code, out, err = run(capsys, "compute", "--lattice", "L", "--n", "1", "--d", "4")
    assert code == 2
    assert out == "" and "squarefree" in err


def test_compute_rejects_bad_n(capsys):
    code, _, _ = run(capsys, "compute", "--lattice", "L", "--n", "0", "--d", "3")
    assert code == 2


def test_compute_both_pipelines_match(capsys):
    code, out, _ = run(capsys, "compute", "--lattice", "both", "--n", "2", "--d", "3",
                       "--pipeline", "both", "--format", "json")
    assert code == 0
    recs = json.loads(out)
    assert {r["verdict"] for r in recs} == {"match"}
    assert [r["volume_rational"] for r in recs] == ["1/216", "1/72"]


def test_table_csv_schema_and_rows(tmp_path, capsys):
    out_path = tmp_path / "vol.csv"
    code, _, _ = run(capsys, "table", "--lattice", "both", "--n-range", "1..3",
                     "--d-list", "3,7", "--format", "csv", "--out", str(out_path))
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lattice", "n", "d", "D", "volume_rational", "volume_numeric",
                       "zeta_args", "l_args", "pipeline_agreement"]
    assert len(rows) == 13  # header + 2 lattices x 3 n x 2 d
    data = {(r[0], r[1], r[2]): r for r in rows[1:]}
    assert data[("L", "1", "3")][4] == "1/6"
    assert data[("M", "1", "3")][4] == "1/12"
    assert all(r[8] in ("match", "table-ambiguous") for r in rows[1:])


def test_table_verdicts_equal_discrepancy_report(capsys):
    code, out, _ = run(capsys, "table", "--lattice", "both", "--n-range", "1..4",
                       "--d-list", "1,3,5,7", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert [(r[0], int(r[1]), int(r[2]), Fraction(r[4]), r[8]) for r in rows] == \
        [(c.lattice, c.n, c.d, c.assembled_value, c.verdict.value)
         for c in discrepancy_report(4, [1, 3, 5, 7])]


def test_table_rejects_unwritable_path(capsys):
    code, _, err = run(capsys, "table", "--lattice", "L", "--n-range", "1..2",
                       "--d-list", "3", "--format", "csv",
                       "--out", "/nonexistent-dir/x.csv")
    assert code == 2 and "cannot write" in err


def test_table_rejects_bad_range(capsys):
    assert run(capsys, "table", "--lattice", "L", "--n-range", "3..1",
               "--d-list", "3", "--format", "csv")[0] == 2
    assert run(capsys, "table", "--lattice", "L", "--n-range", "x..y",
               "--d-list", "3", "--format", "csv")[0] == 2


def test_verify_su_count(capsys):
    code, out, _ = run(capsys, "verify", "--oracle", "su-count", "--lattice", "L",
                       "--n", "1", "--d", "3", "--p", "5")
    assert code == 0
    assert "oracle 120" in out and "Match" in out


def test_verify_kernel(capsys):
    code, out, _ = run(capsys, "verify", "--oracle", "kernel", "--lattice", "M", "--n", "1")
    assert code == 0
    assert "128" in out


def test_verify_tau_p(capsys):
    code, out, _ = run(capsys, "verify", "--oracle", "tau-p", "--lattice", "M",
                       "--n", "1", "--d", "3", "--p", "3")
    assert code == 0
    assert "4/3" in out


def test_verify_stabilization(capsys):
    code, out, _ = run(capsys, "verify", "--oracle", "stabilization", "--lattice", "L",
                       "--n", "1", "--d", "3", "--p", "3", "--level", "1")
    assert code == 0 and "holds" in out


def test_verify_budget_exceeded_is_exit_four(capsys):
    code, _, err = run(capsys, "verify", "--oracle", "tau-p", "--lattice", "M",
                       "--n", "1", "--d", "5", "--p", "2", "--budget", "1000000")
    assert code == 4 and "budget" in err.lower()


def test_verify_budget_of_exactly_the_node_total_suffices(capsys):
    # 65220625 nodes: L, n = 2, SU over O/5
    argv = ["verify", "--oracle", "su-count", "--lattice", "L", "--n", "2", "--d", "3",
            "--p", "5", "--budget"]
    code, out, _ = run(capsys, *argv, "65220625")
    assert code == 0 and "oracle 378000" in out and "Match" in out
    code, _, err = run(capsys, *argv, "65220624")
    assert code == 4 and "65220624" in err


def test_verify_missing_p(capsys):
    assert run(capsys, "verify", "--oracle", "su-count", "--lattice", "L",
               "--n", "1", "--d", "3")[0] == 2


def test_lvalue_zeta(capsys):
    code, out, _ = run(capsys, "lvalue", "--kind", "zeta", "--k", "2", "--tol", "1e-12")
    assert code == 0
    assert "1.64493406684" in out and "1/6" in out


def test_lvalue_l(capsys):
    code, out, _ = run(capsys, "lvalue", "--kind", "L", "--k", "3", "--d", "3",
                       "--tol", "1e-10")
    assert code == 0
    assert "0.884023" in out and "pi^3" in out


def test_lvalue_requires_d_for_l(capsys):
    assert run(capsys, "lvalue", "--kind", "L", "--k", "3")[0] == 2


def test_json_stdout_is_pure(capsys):
    _, out, _ = run(capsys, "compute", "--lattice", "L", "--n", "1", "--d", "7",
                    "--format", "json")
    json.loads(out)  # no interleaved logging


def test_csv_stdout_is_pure(capsys):
    _, out, _ = run(capsys, "compute", "--lattice", "L", "--n", "1", "--d", "3",
                    "--format", "csv")
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][0] == "lattice" and rows[1][4] == "1/6"


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
@pytest.mark.parametrize("argv", [
    ["lvalue", "--kind", "zeta", "--k", "3"],
    ["lvalue", "--kind", "L", "--k", "3", "--d", "3"],
    ["compute", "--lattice", "L", "--n", "2", "--d", "3"],
    ["table", "--lattice", "L", "--n-range", "1..2", "--d-list", "3", "--format", "csv"],
])
def test_non_positive_or_nan_tolerance_is_exit_two(capsys, monkeypatch, argv, tol):
    cutoff = special_values._em_cutoff

    def checked_cutoff(s, tol):
        if not tol > 0:
            pytest.fail(f"a summation loop started with tolerance {tol}")
        return cutoff(s, tol)
    monkeypatch.setattr(special_values, "_em_cutoff", checked_cutoff)
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 2 and out == "" and "tolerance" in err
