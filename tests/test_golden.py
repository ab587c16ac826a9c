"""The CLI reproduces committed outputs byte for byte.

Each fixture under tests/golden/ is the stdout of the command listed with
it; a change to how a value is computed must leave them unchanged.
Regenerate one only for a deliberate change of output.
"""

from pathlib import Path

import pytest

from hmvol.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("table_both_n1-5.csv",
     ["table", "--lattice", "both", "--n-range", "1..5", "--d-list", "1,3,5,7,29,119,141,199"]),
    ("compute_both_n5_d141.json",
     ["compute", "--lattice", "both", "--n", "5", "--d", "141", "--format", "json"]),
    ("compute_both_n5_d141_tol1e-20.json",
     ["compute", "--lattice", "both", "--n", "5", "--d", "141", "--format", "json",
      "--tol", "1e-20"]),
    # n = 40 reaches exponents past the float range of the numeric value
    ("compute_both_n40_d3.json",
     ["compute", "--lattice", "both", "--n", "40", "--d", "3", "--format", "json"]),
    # a conductor near 800 (f = 3188) at a tolerance below the default
    ("compute_both_n7_d797_tol1e-25.json",
     ["compute", "--lattice", "both", "--n", "7", "--d", "797", "--format", "json",
      "--tol", "1e-25"]),
    # d = 2^61 - 1, a prime: its field is built once, and no later step
    # tests it again (at n = 1 no L value, so no O(f) table, is asked for)
    ("compute_both_n1_d2305843009213693951.json",
     ["compute", "--lattice", "both", "--n", "1", "--d", "2305843009213693951", "--format",
      "json"]),
    # n up to 33 at a tight tolerance: B_k up to B_34, power sums of zeta and
    # L at several cutoffs of one weight
    ("table_both_n1-33_d5_tol1e-30.csv",
     ["table", "--lattice", "both", "--n-range", "1..33", "--d-list", "5", "--tol", "1e-30"]),
    ("lvalue_L_k5_d15.txt", ["lvalue", "--kind", "L", "--k", "5", "--d", "15", "--tol", "1e-30"]),
    ("lvalue_zeta_k13.txt", ["lvalue", "--kind", "zeta", "--k", "13", "--tol", "1e-30"]),
    # the largest cutoff any accepted input reaches (M = 231): the smallest
    # tolerance at the smallest exponent
    ("lvalue_zeta_k2_tol1e-40.txt", ["lvalue", "--kind", "zeta", "--k", "2", "--tol", "1e-40"]),
    ("compute_both_n3_d7_both.txt",
     ["compute", "--lattice", "both", "--n", "3", "--d", "7", "--pipeline", "both"]),
    ("compute_both_n3_d7_both.csv",
     ["compute", "--lattice", "both", "--n", "3", "--d", "7", "--pipeline", "both",
      "--format", "csv"]),
    ("verify_su-count_L_n1_d3_p5.txt",
     ["verify", "--oracle", "su-count", "--lattice", "L", "--n", "1", "--d", "3", "--p", "5"]),
    ("verify_tau-p_M_n1_d3_p3.txt",
     ["verify", "--oracle", "tau-p", "--lattice", "M", "--n", "1", "--d", "3", "--p", "3"]),
    ("verify_kernel_M_n1.txt", ["verify", "--oracle", "kernel", "--lattice", "M", "--n", "1"]),
    ("verify_stabilization_L_n1_d3_p3.txt",
     ["verify", "--oracle", "stabilization", "--lattice", "L", "--n", "1", "--d", "3",
      "--p", "3"]),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_reproduces_golden_output(capsys, cold_memos, name, argv):
    assert main(argv) == 0
    # newline="" keeps the CSV writer's \r\n line ends as written
    with open(GOLDEN / name, newline="") as fh:
        assert capsys.readouterr().out == fh.read()
