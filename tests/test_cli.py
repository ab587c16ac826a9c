import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmvol
from hmvol import cli, special_values, volume
from hmvol.cli import main
from hmvol.quadfield import make_field
from hmvol.special_values import WORK_DPS, ExactForm
from hmvol.volume import discrepancy_report, hm_assembled, rationalize


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


def test_compute_reports_error_bound(capsys):
    code, out, _ = run(capsys, "compute", "--lattice", "both", "--n", "2", "--d", "3",
                       "--format", "json", "--tol", "1e-10")
    assert code == 0
    assert all(0 < r["volume_error_bound"] < 1e-10 for r in json.loads(out))
    code, out, _ = run(capsys, "compute", "--lattice", "L", "--n", "1", "--d", "3")
    assert code == 0 and "+/- " in out


def _unlimited_fraction(text: str) -> Fraction:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(text)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("lattice, n", [("both", 90), ("L", 150)])
def test_compute_volumes_beyond_the_int_str_digit_limit(capsys, lattice, n):
    # from n = 90 on the volume coefficients have more than 4300 digits
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "compute", "--lattice", lattice, "--n", str(n), "--d", "3",
                         "--format", "json")
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    field = make_field(3)
    recs = json.loads(out)
    assert [r["lattice"] for r in recs] == (["L", "M"] if lattice == "both" else [lattice])
    for r in recs:
        digits = max(len(part) for key in ("coefficient", "volume_rational")
                     for part in r[key].split("/"))
        assert digits > sys.int_info.default_max_str_digits
        assert _unlimited_fraction(r["volume_rational"]) == \
            rationalize(hm_assembled(r["lattice"], n, field), field)


def test_table_row_beyond_the_int_str_digit_limit(capsys):
    code, out, err = run(capsys, "table", "--lattice", "L", "--n-range", "90..90",
                         "--d-list", "3")
    assert code == 0, err
    (row,) = csv.DictReader(io.StringIO(out))
    field = make_field(3)
    assert (row["n"], row["pipeline_agreement"]) == ("90", "match")
    assert _unlimited_fraction(row["volume_rational"]) == \
        rationalize(hm_assembled("L", 90, field), field)


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


@pytest.mark.parametrize("unbuffered", [False, True])
def test_table_into_a_closed_pipe_is_exit_two(unbuffered):
    src = os.path.dirname(os.path.dirname(hmvol.__file__))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    # buffered, the one-row table reaches the pipe only when stdout is flushed
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "hmvol", "table", "--lattice", "L",
                             "--n-range", "1..1", "--d-list", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # the child is still importing when its reader goes away
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in err.decode() and err.decode().startswith("hmvol: ")


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


@pytest.mark.parametrize("lattice, n, want", [("M", 3, 2**33), ("L", 6, 2**54)])
def test_verify_kernel_needs_no_budget(capsys, lattice, n, want):
    code, out, err = run(capsys, "verify", "--oracle", "kernel", "--lattice", lattice,
                         "--n", str(n), "--budget", "100000000000")
    assert code == 0 and f"oracle {want}" in out and "Match" in out and err == ""


def test_verify_tau_p(capsys):
    code, out, _ = run(capsys, "verify", "--oracle", "tau-p", "--lattice", "M",
                       "--n", "1", "--d", "3", "--p", "3")
    assert code == 0
    assert "4/3" in out


def test_verify_stabilization(capsys):
    code, out, _ = run(capsys, "verify", "--oracle", "stabilization", "--lattice", "L",
                       "--n", "1", "--d", "3", "--p", "3", "--level", "1")
    assert code == 0 and "holds" in out


@pytest.mark.parametrize("p", ["1", "4", "9"])
def test_verify_stabilization_rejects_a_non_prime(capsys, p):
    code, out, err = run(capsys, "verify", "--oracle", "stabilization", "--lattice", "L",
                         "--n", "1", "--d", "3", "--p", p)
    assert code == 2 and out == "" and "not prime" in err


@pytest.mark.parametrize("level", ["0", "-1"])
@pytest.mark.parametrize("oracle", ["su-count", "stabilization"])
def test_verify_level_below_one_is_exit_two(capsys, oracle, level):
    code, out, err = run(capsys, "verify", "--oracle", oracle, "--lattice", "L", "--n", "1",
                         "--d", "3", "--p", "3", "--level", level)
    assert code == 2 and out == "" and err.startswith("hmvol: ")


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


@pytest.mark.parametrize("p", ["1", "4", "9", "25"])
def test_verify_su_count_refuses_a_non_prime_before_counting(capsys, monkeypatch, p):
    def count_group(*args, **kwargs):
        pytest.fail(f"counted over O/{p}")
    monkeypatch.setattr(cli, "count_group", count_group)
    code, out, err = run(capsys, "verify", "--oracle", "su-count", "--lattice", "L",
                         "--n", "1", "--d", "3", "--p", p)
    assert code == 2 and out == "" and "not prime" in err


def test_verify_missing_p(capsys):
    assert run(capsys, "verify", "--oracle", "su-count", "--lattice", "L",
               "--n", "1", "--d", "3")[0] == 2


def test_verify_stabilization_missing_p(capsys):
    code, out, err = run(capsys, "verify", "--oracle", "stabilization", "--lattice", "L",
                         "--n", "1", "--d", "3")
    assert code == 2 and out == "" and "--p" in err


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


@pytest.mark.parametrize("argv", [
    ["lvalue", "--kind", "zeta", "--k", "2"],
    ["lvalue", "--kind", "L", "--k", "3", "--d", "3"],
    ["compute", "--lattice", "L", "--n", "2", "--d", "3"],
])
def test_tolerance_below_working_precision_is_exit_two(capsys, monkeypatch, argv):
    cutoff = special_values._em_cutoff

    def checked_cutoff(s, tol):
        if tol < 10.0 ** -WORK_DPS:
            pytest.fail(f"a summation loop started with tolerance {tol}")
        return cutoff(s, tol)
    monkeypatch.setattr(special_values, "_em_cutoff", checked_cutoff)
    code, out, err = run(capsys, *argv, "--tol", "1e-300")
    assert code == 2 and out == "" and "working precision" in err


@pytest.mark.parametrize("tol", ["1e-10", "1e-12"])
@pytest.mark.parametrize("argv", [
    ["lvalue", "--kind", "zeta", "--k", "3"],
    ["lvalue", "--kind", "L", "--k", "3", "--d", "3"],
    ["compute", "--lattice", "both", "--n", "3", "--d", "7"],
])
def test_working_tolerances_stay_accepted(capsys, argv, tol):
    assert run(capsys, *argv, "--tol", tol)[0] == 0


@pytest.mark.parametrize("tol", ["1e-39", "1e-40"])
@pytest.mark.parametrize("argv", [
    ["compute", "--lattice", "L", "--n", "2", "--d", "3"],
    ["compute", "--lattice", "both", "--n", "5", "--d", "7", "--format", "json"],
    ["table", "--lattice", "both", "--n-range", "1..3", "--d-list", "3,5", "--format", "csv"],
])
def test_tolerance_at_the_working_precision_is_accepted(capsys, argv, tol):
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("argv", [
    ["compute", "--lattice", "L", "--n", "2", "--d", "3"],
    ["table", "--lattice", "L", "--n-range", "1..2", "--d-list", "3", "--format", "csv"],
    ["lvalue", "--kind", "L", "--k", "3", "--d", "3"],
])
def test_tolerance_below_the_floor_is_quoted_as_given(capsys, argv):
    code, out, err = run(capsys, *argv, "--tol", "9e-41")
    assert code == 2 and out == "" and "tolerance 9e-41 is below" in err


def test_compute_json_same_from_cold_and_warm_memos(capsys, cold_memos):
    argv = ["compute", "--lattice", "both", "--n", "5", "--d", "7", "--pipeline", "both",
            "--format", "json"]
    cold = run(capsys, *argv)
    run(capsys, "table", "--lattice", "both", "--n-range", "1..5", "--d-list", "1,3,7",
        "--tol", "1e-10")
    assert run(capsys, *argv) == cold
    assert cold[0] == 0


def _one_line_failure(out, err):
    return out == "" and err.startswith("hmvol: invariant violated") and err.count("\n") == 1


@pytest.mark.parametrize("pipeline", ["assembled", "both"])
def test_rationalize_invariant_violation_is_exit_three(capsys, monkeypatch, pipeline):
    monkeypatch.setattr(volume, "zeta_exact", lambda s: ExactForm(Fraction(1), s + 1, 0))
    code, out, err = run(capsys, "compute", "--lattice", "L", "--n", "1", "--d", "3",
                         "--pipeline", pipeline, "--format", "json")
    assert code == 3 and _one_line_failure(out, err) and "pi exponent" in err


def test_failed_l_pin_is_exit_three(capsys, monkeypatch, cold_memos):
    closed_form = special_values._l_closed_form
    monkeypatch.setattr(special_values, "_l_closed_form",
                        lambda k, f: closed_form(k, f)._replace(coeff=2 * closed_form(k, f).coeff))
    for argv in (["compute", "--lattice", "L", "--n", "2", "--d", "3", "--format", "json"],
                 ["table", "--lattice", "M", "--n-range", "2..2", "--d-list", "7"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and _one_line_failure(out, err) and "closed form" in err
    code, out, err = run(capsys, "lvalue", "--kind", "L", "--k", "3", "--d", "3")
    assert code == 3 and _one_line_failure(out, err) and "AssertionError" in err


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["compute", "table", "lvalue"]))
    n, d = draw(st.integers(0, 6)), str(draw(st.integers(-3, 60)))
    lattice = draw(st.sampled_from(["L", "M", "both"]))
    if command == "compute":
        argv = ["compute", "--lattice", lattice, "--n", str(n), "--d", d,
                "--pipeline", draw(st.sampled_from(["table", "assembled", "both"])),
                "--format", draw(st.sampled_from(["text", "json", "csv"]))]
    elif command == "table":
        argv = ["table", "--lattice", lattice, "--n-range", f"{draw(st.integers(0, 6))}..{n}",
                "--d-list", d]
    else:
        argv = ["lvalue", "--kind", draw(st.sampled_from(["zeta", "L"])), "--k", str(n),
                "--d", d]
    tol = draw(st.sampled_from(["0", "-1", "nan", "1e-300", "9e-41", "1e-39", "1e-12",
                                "1e-3"]))
    return argv + ["--tol", tol]


@settings(max_examples=40, deadline=None)
@given(_argv())
def test_main_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith("hmvol: ")


@st.composite
def _verify_argv(draw):
    argv = ["verify", "--oracle", draw(st.sampled_from(["su-count", "tau-p", "kernel",
                                                        "stabilization"])),
            "--lattice", draw(st.sampled_from(["L", "M"])), "--n", str(draw(st.integers(0, 8))),
            # every example carries a small budget, so each run is bounded in time
            "--budget", str(draw(st.integers(0, 10**6)))]
    for flag, values in (("--d", [None, 1, 3, 4, 5, 7]), ("--p", [None, 1, 2, 3, 4, 5, 9]),
                         ("--level", [None, -1, 0, 1, 2])):
        value = draw(st.sampled_from(values))
        if value is not None:
            argv += [flag, str(value)]
    return argv


@settings(max_examples=60, deadline=None)
@given(_verify_argv())
def test_verify_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith("hmvol: ")
