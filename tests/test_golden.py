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
    ("lvalue_L_k5_d15.txt", ["lvalue", "--kind", "L", "--k", "5", "--d", "15", "--tol", "1e-30"]),
    ("lvalue_zeta_k13.txt", ["lvalue", "--kind", "zeta", "--k", "13", "--tol", "1e-30"]),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_reproduces_golden_output(capsys, cold_memos, name, argv):
    assert main(argv) == 0
    # newline="" keeps the CSV writer's \r\n line ends as written
    with open(GOLDEN / name, newline="") as fh:
        assert capsys.readouterr().out == fh.read()
