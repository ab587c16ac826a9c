import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hmvol
from hmvol import arith, cli, quadfield, special_values, volume
from hmvol.cli import main
from hmvol.quadfield import make_field
from hmvol.special_values import WORK_DPS, ExactForm
from hmvol.volume import hm_assembled, rationalize
from argparse_reference import build_parser
from numeric_reference import to_fraction, to_mpf
from volume_reference import discrepancy_report


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


def _strict_json(text: str):
    """Parse RFC 8259 JSON only (no NaN/Infinity), numbers as mpmath values."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject, parse_float=mpmath.mpf)


@pytest.mark.parametrize("n", [38, 39, 45])
def test_compute_json_beyond_the_float_range(capsys, n):
    # the volume passes 1.8e308 at n = 39 and its error bound at n = 40
    code, out, err = run(capsys, "compute", "--lattice", "both", "--n", str(n), "--d", "3",
                         "--format", "json")
    assert code == 0, err
    field = make_field(3)
    for r in _strict_json(out):
        value, bound = volume.evaluate_numeric(hm_assembled(r["lattice"], n, field), field, 1e-12)
        assert mpmath.isfinite(r["volume_numeric"]) and mpmath.isfinite(r["volume_error_bound"])
        value, bound = to_mpf(value), to_mpf(bound)
        assert abs(r["volume_numeric"] - value) <= r["volume_error_bound"]
        assert abs(r["volume_error_bound"] - bound) <= bound * mpmath.mpf("1e-15")
    code, out, err = run(capsys, "compute", "--lattice", "both", "--n", str(n), "--d", "3",
                         "--format", "csv")
    assert code == 0, err
    for row in csv.DictReader(io.StringIO(out)):
        assert mpmath.isfinite(mpmath.mpf(row["volume_numeric"])), row["volume_numeric"]
    code, out, err = run(capsys, "compute", "--lattice", "L", "--n", str(n), "--d", "3")
    assert code == 0 and "inf" not in out, out


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_json_refuses_a_non_finite_value(value):
    # numeric values are Fractions, always finite, and written past the float
    # range; a non-finite float that reaches the writer is refused
    big = mpmath.mpf("1e400")
    assert _strict_json(cli._json_dumps([{"x": to_fraction(big)}]))[0]["x"] == big
    with pytest.raises(ValueError, match="JSON"):
        cli._json_dumps([{"x": value}])


def _digit_cases(n_exp):
    """mpf values up to 2^(+-n_exp): random binary mantissas of 1..400 bits, and
    decimal strings ending in 5, ...9995 or zeros, parsed at 24..256 bits."""
    def exact(bits, man, e2, sign):
        with mpmath.mp.workprec(400):
            return mpmath.mpf((sign * (man % 2**bits | 1), e2 - bits))

    def parse(lead, body, tail, e10, prec):
        with mpmath.mp.workprec(prec):
            return mpmath.mpf(f"{lead}.{body}{tail}e{e10}")
    decimal = st.builds(parse, st.integers(1, 9), st.text("0123456789", max_size=20),
                        st.sampled_from(["", "5", "49", "95", "9995", "99995", "999999", "0000",
                                         "00005", "50000001"]),
                        st.integers(-n_exp * 3 // 10, n_exp * 3 // 10),
                        st.sampled_from([24, 53, 113, 136, 256]))
    binary = st.builds(exact, st.integers(1, 400), st.integers(1, 2**400),
                       st.integers(-n_exp, n_exp), st.sampled_from([1, -1]))
    return st.one_of(binary, decimal)


def _check_digits(x):
    v = to_fraction(x)
    for n in (2, 10, 12, 13, 17):
        assert cli._digits(v, n) == mpmath.nstr(x, n), (x, n)


@settings(max_examples=300, deadline=None)
@given(_digit_cases(1329))  # 1e-400 to 1e400
@example(mpmath.mpf(100))
@example(mpmath.mpf("3.9e-5"))
@example(mpmath.mpf("0.99995"))
@example(mpmath.mpf("9.99999999999999995"))
@example(mpmath.mpf("1.35"))
@example(mpmath.mpf(-0.125))
@example(mpmath.mpf(0))
def test_digits_write_a_value_as_nstr_does(x):
    _check_digits(x)


@settings(max_examples=100, deadline=None)
@given(_digit_cases(70000))  # past 2^+-3500 nstr first divides by a power of ten
def test_digits_write_a_huge_or_tiny_value_as_nstr_does(x):
    _check_digits(x)


def _child_env():
    """The environment of a child interpreter that imports this hmvol."""
    src = os.path.dirname(os.path.dirname(hmvol.__file__))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def test_the_package_runs_without_mpmath():
    # start-up costs what the package imports; mpmath is only a test reference,
    # and so is argparse, which the option table replaced, and numpy, which
    # only the streaming test references use (the L n = 3 density at a ramified
    # 2 is the oracle's widest level there); pytest or hypothesis may have
    # imported them here, so every command runs in a fresh interpreter
    script = """if True:
        import sys
        import hmvol, hmvol.cli
        from hmvol.quadfield import make_field
        from hmvol.special_values import l_exact
        l_exact(3, make_field(3))
        verify = ["verify", "--lattice", "L", "--n", "1", "--d", "3"]
        for argv in (verify + ["--oracle", "su-count", "--p", "5"],
                     verify + ["--oracle", "stabilization", "--p", "3"],
                     ["verify", "--oracle", "tau-p", "--lattice", "L", "--n", "1",
                      "--d", "5", "--p", "2"],
                     ["verify", "--oracle", "tau-p", "--lattice", "L", "--n", "3",
                      "--d", "5", "--p", "2", "--budget", "20000000000000000"],
                     ["verify", "--oracle", "kernel", "--lattice", "M", "--n", "2"],
                     ["table", "--lattice", "both", "--n-range", "1..3", "--d-list", "3,7"],
                     ["compute", "--lattice", "both", "--n", "5", "--d", "141",
                      "--format", "json"],
                     ["lvalue", "--kind", "L", "--k", "5", "--d", "15"]):
            assert hmvol.cli.main(argv) == 0, argv
        assert "mpmath" not in sys.modules, "mpmath was imported"
        assert "argparse" not in sys.modules, "argparse was imported"
        assert "numpy" not in sys.modules, "numpy was imported"
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_importing_the_package_loads_no_module():
    # hmvol re-exports nothing: each caller imports the modules it uses
    script = """if True:
        import sys
        import hmvol
        loaded = sorted(m for m in sys.modules if m.startswith("hmvol."))
        assert not loaded, loaded
        assert "numpy" not in sys.modules, "numpy was imported"
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


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


def test_compute_checks_d_once(capsys, monkeypatch, cold_memos):
    # d = 2^61 - 1 is checked squarefree by make_field, where the field is
    # built; no later step (the character at the field's primes) tests it again
    calls = []

    def counting(n, original=arith.is_squarefree):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(arith, "is_squarefree", counting)
    monkeypatch.setattr(quadfield, "is_squarefree", counting)
    code, _, _ = run(capsys, "compute", "--lattice", "both", "--n", "1", "--d",
                     "2305843009213693951")
    assert code == 0 and calls == [2305843009213693951]


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


def test_failed_table_leaves_no_file(tmp_path, capsys):
    out_path = tmp_path / "vol.csv"
    code, out, err = run(capsys, "table", "--lattice", "L", "--n-range", "1..2",
                         "--d-list", "3", "--out", str(out_path), "--tol", "0")
    assert code == 2 and out == "" and "tolerance" in err
    assert not out_path.exists()


@pytest.mark.parametrize("lattice, n, d", [("L", 3, 7), ("M", 3, 7), ("M", 2, 5)])
def test_compute_csv_row_equals_the_table_row(capsys, lattice, n, d):
    code, out, _ = run(capsys, "compute", "--lattice", lattice, "--n", str(n), "--d", str(d),
                       "--pipeline", "both", "--format", "csv")
    assert code == 0
    computed = list(csv.reader(io.StringIO(out, newline="")))
    code, out, _ = run(capsys, "table", "--lattice", lattice, "--n-range", f"{n}..{n}",
                       "--d-list", str(d))
    assert code == 0
    assert computed == list(csv.reader(io.StringIO(out, newline="")))
    assert len(computed) == 2


@pytest.mark.parametrize("unbuffered", [False, True])
def test_table_into_a_closed_pipe_is_exit_two(unbuffered):
    env = _child_env()
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


@pytest.mark.parametrize("lattice", ["L", "M"])
def test_verify_kernel_past_the_int_str_digit_limit(capsys, lattice):
    # at n = 160 the count has about 7,850 (L) or 15,650 (M) digits, past
    # Python's 4300-digit int -> str limit; printing lifts the limit and restores it
    limit = sys.get_int_max_str_digits()
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", "--oracle", "kernel", "--lattice", lattice,
                         "--n", "160")
    elapsed = time.monotonic() - t0
    assert code == 0 and "Match" in out and err == "", err
    assert sys.get_int_max_str_digits() == limit
    assert elapsed < 5.0, elapsed


def test_verify_tau_p(capsys):
    code, out, _ = run(capsys, "verify", "--oracle", "tau-p", "--lattice", "M",
                       "--n", "1", "--d", "3", "--p", "3")
    assert code == 0
    assert "4/3" in out


def test_verify_stabilization(capsys):
    code, out, _ = run(capsys, "verify", "--oracle", "stabilization", "--lattice", "L",
                       "--n", "1", "--d", "3", "--p", "3", "--level", "1")
    assert code == 0 and "holds" in out


def test_verify_stabilization_through_an_empty_pass(capsys):
    # M n = 2 over O/16 at 2 inert: a row stream pass that keeps no row
    code, out, err = run(capsys, "verify", "--oracle", "stabilization", "--lattice", "M",
                         "--n", "2", "--d", "3", "--p", "2", "--level", "3",
                         "--budget", "100000000000000000")
    assert (code, out, err) == (0, "stabilization (M, n=2, d=3, p=2, N=3 -> 4): holds\n", "")


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


@pytest.mark.parametrize("level", ["0", "-1"])
@pytest.mark.parametrize("oracle", [
    pytest.param(["kernel", "--lattice", "M", "--n", "1"], id="kernel"),
    pytest.param(["tau-p", "--lattice", "L", "--n", "1", "--d", "5", "--p", "2"], id="tau-p"),
])
def test_verify_level_below_one_is_exit_two_where_no_level_is_read(capsys, oracle, level):
    # the kernel and tau-p count at fixed levels, but --level is checked
    # before any oracle runs, as --budget is
    code, out, err = run(capsys, "verify", "--oracle", *oracle, "--level", level)
    assert (code, out, err) == (2, "", f"hmvol: --level must be >= 1, got {level}\n")


def test_verify_budget_exceeded_is_exit_four(capsys):
    code, _, err = run(capsys, "verify", "--oracle", "tau-p", "--lattice", "M",
                       "--n", "1", "--d", "5", "--p", "2", "--budget", "1000000")
    assert code == 4 and "budget" in err.lower()


def test_verify_m_two_adic_oracle_needs_an_enlarged_budget(capsys, monkeypatch):
    # #SU(M, O/32) visits 1,074,790,400 nodes for d = 5
    monkeypatch.delenv("HMVOL_BUDGET", raising=False)
    argv = ["verify", "--oracle", "tau-p", "--lattice", "M", "--n", "1", "--d", "5", "--p", "2"]
    code, out, err = run(capsys, *argv, "--budget", "2000000000")
    assert code == 0 and "Match" in out, err
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == "" and "1000000000" in err


@pytest.mark.parametrize("raw", ["inf", "1e400", "nan", "abc"])
def test_verify_with_an_unusable_budget_variable_is_exit_two(capsys, monkeypatch, raw):
    monkeypatch.setenv("HMVOL_BUDGET", raw)
    code, out, err = run(capsys, "verify", "--oracle", "su-count", "--lattice", "L", "--n", "1",
                         "--d", "3", "--p", "5")
    assert code == 2 and out == "", err
    assert "HMVOL_BUDGET" in err and "Traceback" not in err and err.count("\n") == 1


_ORACLE_ARGV = {"su-count": ["--d", "3", "--p", "5"], "tau-p": ["--d", "3", "--p", "5"],
                "stabilization": ["--d", "3", "--p", "5"], "kernel": []}


@pytest.mark.parametrize("oracle", sorted(_ORACLE_ARGV))
@pytest.mark.parametrize("budget", ["-7", "-1"])
def test_verify_negative_budget_flag_is_exit_two(capsys, oracle, budget):
    code, out, err = run(capsys, "verify", "--oracle", oracle, "--lattice", "L", "--n", "1",
                         *_ORACLE_ARGV[oracle], "--budget", budget)
    assert code == 2 and out == "", err
    assert "--budget" in err and "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("oracle", sorted(_ORACLE_ARGV))
@pytest.mark.parametrize("raw", ["-1", "-2.5e9"])
def test_verify_negative_budget_variable_is_exit_two(capsys, monkeypatch, oracle, raw):
    monkeypatch.setenv("HMVOL_BUDGET", raw)
    code, out, err = run(capsys, "verify", "--oracle", oracle, "--lattice", "L", "--n", "1",
                         *_ORACLE_ARGV[oracle])
    assert code == 2 and out == "", err
    assert "HMVOL_BUDGET" in err and "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("oracle", ["su-count", "stabilization"])
@pytest.mark.parametrize("p_level", [("1009", "1"), ("31", "2"), ("101", "2")])
def test_verify_refuses_an_oversized_row_table_before_allocating(capsys, oracle, p_level):
    # O/1009, O/961 and O/10201 give row tables of 1e12 rows and more: the
    # refusal must come before any table of size m^2 or beyond is built
    p, level = p_level
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--oracle", oracle, "--lattice", "L", "--n", "1",
                             "--d", "3", "--p", p, "--level", level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4 and out == "" and "row table" in err, err
    assert peak < 2**22, peak


def test_verify_states_an_oversized_row_table_as_a_power(capsys):
    # O/3^3000: 3^12000 rows has 5,726 digits, past Python's int -> str limit
    code, out, err = run(capsys, "verify", "--oracle", "su-count", "--lattice", "L", "--n", "1",
                         "--d", "3", "--p", "3", "--level", "3000")
    assert code == 4 and out == "" and "row table of 3^12000 rows" in err, err


def test_verify_with_a_large_prime_p_ends_promptly(capsys):
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", "--oracle", "su-count", "--lattice", "L", "--n", "1",
                         "--d", "3", "--p", str(2**61 - 1))
    assert code == 4 and out == "" and "row table" in err, err
    assert time.monotonic() - t0 < 3.0
    # past the range where primality is decided exactly, p is refused
    code, out, err = run(capsys, "verify", "--oracle", "su-count", "--lattice", "L", "--n", "1",
                         "--d", "3", "--p", str(2**89 - 1))
    assert code == 2 and out == "" and "too large" in err, err


@pytest.mark.parametrize("oracle", ["su-count", "stabilization"])
def test_verify_with_a_large_level_ends_promptly(capsys, oracle):
    # the ring is refused on its exponent, before 5^(10^9) is ever formed
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", "--oracle", oracle, "--lattice", "L", "--n", "1",
                         "--d", "3", "--p", "5", "--level", str(10**9))
    assert code == 4 and out == "" and "row table of 5^4000000000 rows" in err, err
    assert time.monotonic() - t0 < 3.0


def test_verify_with_a_large_d_ends_promptly(capsys):
    # d = 2^61 - 1 is squarefree: trial division up to d^(1/3), not sqrt(d), shows it
    argv = ["verify", "--oracle", "su-count", "--lattice", "L", "--n", "1", "--p", "3", "--d"]
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv, str(2**61 - 1))
    assert code == 0 and "Match" in out and err == "", err
    assert time.monotonic() - t0 < 5.0
    # past the range where squarefreeness is decided, d is refused
    code, out, err = run(capsys, *argv, str(2**64 + 1))
    assert code == 2 and out == "" and "2^64" in err, err


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


@pytest.mark.parametrize("argv, message", [
    (["--oracle", "su-count", "--d", "3", "--p", "2"], "odd p"),
    (["--oracle", "kernel", "--d", "3"], "d = 1 mod 4")])
def test_verify_refuses_what_an_oracle_does_not_compare(capsys, argv, message):
    code, out, err = run(capsys, "verify", "--lattice", "L", "--n", "1", *argv)
    assert code == 2 and out == "" and message in err, err


def test_verify_stabilization_missing_p(capsys):
    code, out, err = run(capsys, "verify", "--oracle", "stabilization", "--lattice", "L",
                         "--n", "1", "--d", "3")
    assert code == 2 and out == "" and "--p" in err


def test_lvalue_zeta(capsys):
    code, out, _ = run(capsys, "lvalue", "--kind", "zeta", "--k", "2", "--tol", "1e-12")
    assert code == 0
    assert "1.64493406684" in out and "1/6" in out


def test_lvalue_zeta_at_a_large_k_ends_promptly(capsys, cold_memos):
    # B_1000 from tangent numbers; the O(k^2) Fraction recurrence took about 10 s
    t0 = time.monotonic()
    code, out, err = run(capsys, "lvalue", "--kind", "zeta", "--k", "1000")
    assert code == 0 and "zeta(1000) = 1.0" in out and "pi^1000" in out, err
    assert time.monotonic() - t0 < 3.0


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

    def checked_cutoff(s, num, den):
        if not num / den > 0:
            pytest.fail(f"a summation loop started with tolerance {num / den}")
        return cutoff(s, num, den)
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

    def checked_cutoff(s, num, den):
        if num / den < 10.0 ** -WORK_DPS:
            pytest.fail(f"a summation loop started with tolerance {num / den}")
        return cutoff(s, num, den)
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
def test_rationalize_invariant_violation_is_exit_three(capsys, monkeypatch, cold_memos,
                                                      pipeline):
    # rationalize keeps the product of the exact forms of each (zeta_args,
    # l_args, field): from warm memos it would never call the patch, and the
    # products made with the patch must not outlive it
    monkeypatch.setattr(volume, "zeta_exact", lambda s: ExactForm(Fraction(1), s + 1, 0))
    code, out, err = run(capsys, "compute", "--lattice", "L", "--n", "1", "--d", "3",
                         "--pipeline", pipeline, "--format", "json")
    cold_memos()
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


def _corrupt(draw, argv):
    """argv as given or with one flag misspelled or its value dropped: a
    malformed command line, which must end in one `hmvol:` line and exit 2."""
    how = draw(st.sampled_from(["keep", "keep", "keep", "misspell", "drop"]))
    if how == "keep":
        return argv
    i = draw(st.sampled_from([i for i, a in enumerate(argv) if a.startswith("--")]))
    if how == "misspell":
        return argv[:i] + [argv[i] + "x"] + argv[i + 1:]
    return argv[:i + 1] + argv[i + 2:]


def _ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith("hmvol: ") and err.getvalue().count("\n") == 1


@st.composite
def _argv(draw, corrupt=True):
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
    argv += ["--tol", tol]
    return _corrupt(draw, argv) if corrupt else argv


@settings(max_examples=40, deadline=None)
@given(_argv())
def test_main_ends_in_a_documented_exit_code(argv):
    _ends_in_a_documented_exit_code(argv)


@st.composite
def _verify_argv(draw, corrupt=True):
    argv = ["verify", "--oracle", draw(st.sampled_from(["su-count", "tau-p", "kernel",
                                                        "stabilization"])),
            "--lattice", draw(st.sampled_from(["L", "M"])), "--n", str(draw(st.integers(0, 8))),
            # every example carries a small budget, so each run is bounded in time
            "--budget", str(draw(st.integers(0, 10**6)))]
    for flag, values in (("--d", [None, 1, 3, 4, 5, 7]),
                         ("--p", [None, 1, 2, 3, 4, 5, 9, 31, 1009]),
                         ("--level", [None, -1, 0, 1, 2, 10**9])):
        value = draw(st.sampled_from(values))
        if value is not None:
            argv += [flag, str(value)]
    return _corrupt(draw, argv) if corrupt else argv


@settings(max_examples=60, deadline=None)
@given(_verify_argv())
# U counts need not stabilize from O/2 at a 2-ramified field: exit 3
@example(["verify", "--oracle", "stabilization", "--lattice", "L", "--n", "1",
          "--budget", "4352", "--d", "1", "--p", "2"])
# a row stream pass over O/16 that keeps no row: exit 0
@example(["verify", "--oracle", "stabilization", "--lattice", "M", "--n", "2",
          "--budget", "100000000000000000", "--d", "3", "--p", "2", "--level", "3"])
# a misspelled flag and a dropped value: exit 2 from the parser
@example(["verify", "--oracle", "kernel", "--lattice", "M", "--nx", "1"])
@example(["verify", "--oracle", "kernel", "--lattice", "--n", "1"])
def test_verify_ends_in_a_documented_exit_code(argv):
    _ends_in_a_documented_exit_code(argv)


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "--oracle", "kernel", "--lattice", "M", "--n", "1", "--bogus", "3"],
                 id="unknown-flag"),
    pytest.param(["verify", "--oracle", "kernel", "--lattice", "M", "--n"], id="missing-value"),
    pytest.param(["verify", "--oracle", "kernel", "--lattice", "--n", "1"],
                 id="flag-for-a-value"),
    pytest.param(["verify", "--oracle", "bogus", "--lattice", "L", "--n", "1"],
                 id="bad-oracle-choice"),
    pytest.param(["compute", "--lattice", "L", "--n", "x", "--d", "3"], id="n-not-an-int"),
    pytest.param(["compute", "--n", "1", "--d", "3"], id="missing-lattice"),
    pytest.param([], id="no-command"),
    pytest.param(["--n", "1"], id="flag-before-a-command"),
    pytest.param(["volume", "--n", "1"], id="unknown-command"),
    pytest.param(["verify", "--oracle", "kernel", "--l", "M", "--n", "1"],
                 id="ambiguous-prefix"),
    pytest.param(["table", "--lattice", "L", "--n-range", "1..2", "--d-list", "3",
                  "--format", "json"], id="table-format-not-csv"),
    pytest.param(["lvalue", "--kind", "zeta", "--k", "3", "7"], id="stray-argument"),
    pytest.param(["lvalue", "--kind", "zeta", "--k", "3", "--tol", "-1e-3"],
                 id="negative-exponent-as-a-flag"),
    pytest.param(["lvalue", "--kind", "zeta", "--k", "3", "--help=yes"], id="help-with-a-value"),
    # a value is quoted, so a newline in it cannot start a second line
    pytest.param(["table", "--lattice", "L", "--n-range", "x\ny..2", "--d-list", "3"],
                 id="n-range-with-a-newline"),
    pytest.param(["table", "--lattice", "L", "--n-range", "1..1", "--d-list", "3",
                  "--out", os.devnull + "/a\nb"], id="out-path-with-a-newline"),
])
def test_a_malformed_command_line_is_one_line_and_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("hmvol: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, commands", [
    (["-h"], cli._COMMANDS), (["--help"], cli._COMMANDS), (["--help", "compute"], cli._COMMANDS),
    (["compute", "--help"], ["compute"]), (["table", "--he"], ["table"]),
    (["verify", "--oracle", "kernel", "-h", "--bogus"], ["verify"]), (["lvalue", "-h"], ["lvalue"]),
])
def test_help_lists_the_option_table(capsys, argv, commands):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    words = " ".join(out.split())
    for command, spec in cli._COMMANDS.items():
        assert (f"hmvol {command}: {spec.help}" in words) == (command in commands)
    for command in commands:
        assert all(flag in words for flag in cli._COMMANDS[command].flags)
    if "compute" in commands:
        assert cli._VOLUME_TOL_HELP % {"default": 1e-12} in words


_OTHER_VALUES = {int: st.integers(-9, 99).map(str), float: st.sampled_from(["1e-5", "0.25"]),
                 str: st.sampled_from(["1..2", "3,7", "volumes.csv"])}


def _spellings(command, flag):
    """flag and each unique prefix of it, as argparse matched them."""
    names = (*cli._COMMANDS[command].flags, "--help")
    return [flag[:k] for k in range(3, len(flag) + 1)
            if flag[:k] == flag or [g for g in names if g.startswith(flag[:k])] == [flag]]


@st.composite
def _respelled(draw, argv):
    """A valid argv, respelled as argparse read it too: the flags in any order,
    each as --flag value or --flag=value, by its name or a unique prefix, one
    flag perhaps given first with another value (the last one wins), and --d
    and --tol perhaps negative."""
    command, flags = argv[0], cli._COMMANDS[argv[0]].flags
    pairs = dict(zip(argv[1::2], argv[2::2]))
    if "--d" in flags and draw(st.booleans()):
        pairs["--d"] = str(draw(st.integers(-60, -1)))
    if "--tol" in flags and draw(st.booleans()):
        pairs["--tol"] = draw(st.sampled_from(["-1", "-0.5", "-.5"]))
    items = draw(st.permutations(list(pairs.items())))
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(pairs)))
        opt = flags[flag]
        earlier = st.sampled_from(opt.choices) if opt.choices else _OTHER_VALUES[opt.convert]
        items = [(flag, draw(earlier))] + items
    respelled = [command]
    for flag, value in items:
        name = draw(st.sampled_from(_spellings(command, flag)))
        respelled += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return respelled


def _attributes(args):
    # repr, so that a nan tolerance equals itself
    return {name: repr(value) for name, value in vars(args).items()}


@settings(max_examples=300, deadline=None)
@given(st.one_of(_argv(corrupt=False), _verify_argv(corrupt=False)).flatmap(_respelled))
@example(["table", "--n", "1..5", "--lat", "both", "--d-list=3,7", "--d-list", "5"])
@example(["lvalue", "--k", "3", "--kin=L", "--d", "-3", "--tol", "-1"])
def test_the_option_table_parses_as_argparse_did(argv):
    assert _attributes(cli._parse(argv)) == _attributes(build_parser().parse_args(argv))
