"""Exact Hirzebruch-Mumford volumes of complex-ball quotients for the special
unitary groups of diag(1,...,1,-1) and diag(1,...,1,-2) over imaginary
quadratic fields, with an enumeration oracle validating every local density.
"""

from .arith import Factorization, Rational, bernoulli, bernoulli_poly, factor, kronecker
from .expressions import VolumeExpression
from .group_enum import (BudgetExceeded, CountReport, count_group, count_kernel,
                         oracle_tau_p, stabilization_check)
from .lie_form import LieBasis, build_basis, curvature_ratio, gram_det, vol_max_compact, vol_su
from .local_density import LocalDensity, index_u_su, tau_infinity, tau_p
from .quadfield import EpsKind, FieldData, PrimeClass, classify_prime, make_field
from .residue_ring import ResidueRing
from .special_values import (SpecialValue, gen_bernoulli, l_exact, l_numeric,
                             zeta_exact, zeta_numeric)
from .volume import (DiscrepancyReport, Verdict, discrepancy_report, evaluate_numeric,
                     hm_assembled, hm_ratio, hm_table, rationalize)

__all__ = [
    "BudgetExceeded", "CountReport", "DiscrepancyReport", "EpsKind", "Factorization",
    "FieldData", "LieBasis", "LocalDensity", "PrimeClass", "Rational", "ResidueRing",
    "SpecialValue", "Verdict", "VolumeExpression", "bernoulli", "bernoulli_poly",
    "build_basis", "classify_prime", "count_group", "count_kernel", "curvature_ratio",
    "discrepancy_report", "evaluate_numeric", "factor", "gen_bernoulli", "gram_det",
    "hm_assembled", "hm_ratio", "hm_table", "index_u_su", "kronecker", "l_exact",
    "l_numeric", "make_field", "oracle_tau_p", "rationalize", "stabilization_check",
    "tau_infinity", "tau_p", "vol_max_compact", "vol_su", "zeta_exact", "zeta_numeric",
]
