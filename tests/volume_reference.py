"""Volume helpers that only the tests call, kept as a test reference: the
M/L proportionality ratio, the table-vs-assembly report over a grid, and
Vol(SU(n)).  The package computes each volume on its own; these tie the
volumes of the two forms together and to the compact-group constants.

Also the local densities and the rationalization as chains of normalized
`Fraction` products, one factor at a time, which the package replaced by one
integer numerator over one denominator and by memoized zeta/L products.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt, prod

from hmvol.arith import factor, is_prime
from hmvol.expressions import VolumeExpression
from hmvol.local_density import _alternating_args, _eps_char, special_primes, tau_p
from hmvol.quadfield import FieldData, chi, make_field
from hmvol.special_values import l_exact, zeta_exact
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


def even_product(p: int, upto: int) -> Fraction:
    return prod((1 - Fraction(1, p ** (2 * i)) for i in range(1, upto + 1)), start=Fraction(1))


def tau_p_chain(lattice: str, n: int, field: FieldData, p: int) -> Fraction:
    """Closed-form local volume, one Fraction factor at a time."""
    assert lattice in ("L", "M") and n >= 1 and is_prime(p)
    c = chi(field, p)
    if c != 0:
        first = 1 if lattice == "M" and p == 2 else 2
        return prod((1 - Fraction(c**i, p**i) for i in range(first, first + n)),
                    start=Fraction(1))
    if p == 2:
        if lattice == "L" or n % 2 == 1:
            return Fraction(1, 2**n) * even_product(2, n // 2)
        return Fraction(1, 2**n) * even_product(2, (n - 2) // 2)
    if n % 2 == 0:
        return even_product(p, n // 2)
    eps = _eps_char(n, p, twisted=(lattice == "M"))
    return (1 - Fraction(eps, p ** ((n + 1) // 2))) * even_product(p, (n - 1) // 2)


def euler_local(field: FieldData, n: int, p: int) -> Fraction:
    """The Euler factors at p of the zeta(even)/L(odd) string 2..n+1."""
    c = chi(field, p)
    return prod((1 - Fraction(c if i % 2 else 1, p**i) for i in range(2, n + 2)),
                start=Fraction(1))


def tau_infinity(lattice: str, n: int, field: FieldData) -> VolumeExpression:
    zeta_args, l_args = _alternating_args(n)
    coeff = Fraction(1)
    for p in special_primes(lattice, field):
        coeff *= euler_local(field, n, p) / tau_p_chain(lattice, n, field, p)
    return VolumeExpression(coeff=coeff, zeta_args=zeta_args, l_args=l_args)


def rationalize(expr: VolumeExpression, field: FieldData) -> Fraction:
    """Substitute the exact zeta/L forms one by one into the coefficient."""
    coeff, pi_power, d_sqrt_power = expr.coeff, expr.pi_power, 0
    for s in expr.zeta_args:
        form = zeta_exact(s)
        coeff *= form.coeff
        pi_power += form.pi_power
    for k in expr.l_args:
        form = l_exact(k, field)
        coeff *= form.coeff
        pi_power += form.pi_power
        d_sqrt_power += form.d_sqrt_power
    d_power = expr.d_power + Fraction(d_sqrt_power, 2)
    assert pi_power == 0 and d_power.denominator == 1
    coeff *= Fraction(field.f) ** int(d_power)
    num, den = expr.sqrt_sq.numerator, expr.sqrt_sq.denominator
    rn, rd = isqrt(num), isqrt(den)
    assert rn * rn == num and rd * rd == den
    return coeff * Fraction(rn, rd)
