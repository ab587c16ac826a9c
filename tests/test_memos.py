from fractions import Fraction

from hmvol import arith, dyadic, lie_form
from hmvol.cli import main
from hmvol.quadfield import make_field
from memos import hmvol_memos


def test_cold_memos_empties_every_memo(capsys, cold_memos):
    # fill the memos of every command, the Lie frame with its dense basis (built
    # on its first read) and Gram parts, and the wide-exponent digits of dyadic
    for argv in (["table", "--lattice", "both", "--n-range", "1..4", "--d-list", "1,3,5"],
                 ["compute", "--lattice", "both", "--n", "3", "--d", "7", "--pipeline", "both"],
                 ["lvalue", "--kind", "zeta", "--k", "5"],
                 ["verify", "--oracle", "kernel", "--lattice", "M", "--n", "1"],
                 ["verify", "--oracle", "su-count", "--lattice", "L", "--n", "1", "--d", "3",
                  "--p", "3"]):
        assert main(argv) == 0
    basis = lie_form.build_basis("L", 2, make_field(3))
    basis.elements
    lie_form.gram_det(basis)
    dyadic.decimal_digits(3, 4000, 17)
    memos = hmvol_memos()
    # the memos the hand-kept list used to miss, and those of the volume path
    for name in ("dyadic._pi", "dyadic._log_mantissas", "lie_form._quad",
                 "lie_form._frame", "lie_form._gram_parts",
                 "special_values._power_sum", "local_density.special_primes",
                 "lie_form.vol_max_compact", "volume._table_prefix",
                 "special_values.check_tol", "special_values._residues", "dyadic.pi_power"):
        assert memos[name].cache_info().currsize > 0, name
    assert len(arith._BERNOULLI) > 1
    cold_memos()
    assert {name: m.cache_info().currsize for name, m in memos.items()
            if m.cache_info().currsize} == {}
    assert arith._BERNOULLI == (Fraction(1),)
    capsys.readouterr()
