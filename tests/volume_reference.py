"""Volume helpers that only the tests call, kept as a test reference: the
M/L proportionality ratio, the table-vs-assembly report over a grid, and
Vol(SU(n)).  The package computes each volume on its own; these tie the
volumes of the two forms together and to the compact-group constants.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from hmvol.arith import factor
from hmvol.expressions import VolumeExpression
from hmvol.local_density import tau_p
from hmvol.quadfield import FieldData, make_field
from hmvol.volume import DiscrepancyReport, compare_pipelines


def hm_ratio(n: int, field: FieldData) -> Fraction:
    """Vol(second form)/Vol(first form) = tau_2(G)/tau_2(G') *
    prod_(p|d) tau_p(G)/tau_p(G') * 2^n, exact."""
    out = Fraction(2**n)
    out *= tau_p("L", n, field, 2).value / tau_p("M", n, field, 2).value
    for p, _ in factor(field.d):
        out *= tau_p("L", n, field, p).value / tau_p("M", n, field, p).value
    return out


def discrepancy_report(n_max: int, d_list, lattices=("L", "M")) -> list[DiscrepancyReport]:
    """compare_pipelines over the grid; a Mismatch is a hard failure for the
    caller."""
    fields = [make_field(d) for d in d_list]
    return [compare_pipelines(lattice, n, field)
            for lattice in lattices for n in range(1, n_max + 1) for field in fields]


def vol_su(n: int) -> VolumeExpression:
    """Vol(SU(n)) under the trace form: sqrt(n) (2pi)^((n^2+n-2)/2) / prod i!."""
    if n < 1:
        raise ValueError("n must be >= 1")
    e = (n * n + n - 2) // 2
    coeff = Fraction(2**e)
    for i in range(1, n):
        coeff /= factorial(i)
    return VolumeExpression(coeff=coeff, sqrt_sq=n, pi_power=e)
