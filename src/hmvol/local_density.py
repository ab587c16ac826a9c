"""Closed-form local volumes tau_p for the forms diag(1,...,1,-1) and
diag(1,...,1,-2), the [U:SU] index values, and the symbolic assembly of
tau_infinity from the Tamagawa-number-one identity.

tau_infinity is always assembled from the Euler product, never transcribed:
unramified factors collapse into zeta(even i) and L(odd i) for i = 2..n+1,
and every prime with a non-generic local factor contributes the exact
rational correction euler_local(p)/tau_p.

Each local factor is one integer numerator over one denominator, and
tau_infinity multiplies them as integers and normalizes its coefficient once;
only `tau_p`, the public density, is a `Fraction` of its own.  The field's
special primes are memoized for the process's life, since a `table` row and
its twin for the other lattice share them.  `tau_p` and `tau_infinity` are
not: no command asks for the same value twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .arith import factor, is_prime, legendre_symbol, product
from .expressions import VolumeExpression
from .lie_form import lattice_diag
from .quadfield import FieldData, chi


@dataclass(frozen=True)
class LocalDensity:
    value: Fraction


def index_u_su(field: FieldData, p: int, k: int, lattice: str = "L") -> int:
    """[U(.,O/p^k O) : SU(.,O/p^k O)], the norm-one units of O/p^k: 2p^k
    ramified (2 over O/2), p^k(1 - chi(p)/p) unramified; for M at p = 2 the
    t with N(t) = 1 mod 2^(k-1), 4 times L's index at k - 1 (4 at k = 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # lattice_diag checks the lattice at every p; -2 is M's last entry at any n
    if lattice_diag(lattice, 1)[-1] == -2 and p == 2:
        return 4 * index_u_su(field, 2, k - 1) if k > 1 else 4
    c = chi(field, p)
    if c == 0:
        return 2 if p**k == 2 else 2 * p**k
    return p ** (k - 1) * (p - c)


def _eps_char(n: int, p: int, twisted: bool) -> int:
    """The symbol ((-1)^((n+3)/2) / p), with the argument doubled for M (odd n only)."""
    a = (-1) ** ((n + 3) // 2)
    if twisted:
        a *= 2
    return legendre_symbol(a, p)


def _even_product(p: int, upto: int) -> tuple[int, int]:
    """prod_(i = 1..upto) (1 - p^(-2i)) as a numerator over a denominator."""
    return _generic_product(p, ((2 * i, 1) for i in range(1, upto + 1)))


def _generic_product(p: int, signs) -> tuple[int, int]:
    """prod_i (1 - sign_i p^(-i)) over the pairs (i, sign_i) as the integer
    prod (p^i - sign_i) over the denominator p^(sum i)."""
    factors, e = [], 0
    for i, sign in signs:
        factors.append(p**i - sign)
        e += i
    return product(factors), p**e


def tau_p(lattice: str, n: int, field: FieldData, p: int) -> LocalDensity:
    """Closed-form local volume, dispatching on prime class and parity of n."""
    lattice_diag(lattice, n)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return LocalDensity(Fraction(*_density(lattice, n, field, p)))


def _density(lattice: str, n: int, field: FieldData, p: int) -> tuple[int, int]:
    """tau_p as one integer numerator over one denominator, not normalized;
    the caller has checked the lattice, n and the prime p."""
    c = chi(field, p)
    if c != 0:
        # the generic product runs over i = 2..n+1; det M = -2 is not a unit at
        # 2, which shifts it to i = 1..n
        first = 1 if lattice == "M" and p == 2 else 2
        return _generic_product(p, ((i, c**i) for i in range(first, first + n)))
    if p == 2:
        num, den = _even_product(2, n // 2 if lattice == "L" or n % 2 == 1 else (n - 2) // 2)
        return num, den << n
    if n % 2 == 0:  # odd ramified p
        return _even_product(p, n // 2)
    h = (n + 1) // 2
    num, den = _even_product(p, h - 1)
    return num * (p**h - _eps_char(n, p, twisted=(lattice == "M"))), den * p**h


def _euler_local(field: FieldData, n: int, p: int) -> tuple[int, int]:
    """Product of the Euler factors at p of the zeta(even)/L(odd) string for
    arguments 2..n+1, as a numerator over a denominator, not normalized."""
    c = chi(field, p)
    return _generic_product(p, ((i, c if i % 2 else 1) for i in range(2, n + 2)))


@cache
def special_primes(lattice: str, field: FieldData) -> tuple[int, ...]:
    """Primes whose local factor differs from the generic unramified product."""
    ps = {p for p, _ in factor(field.f)}
    if lattice == "M":
        ps.add(2)
    return tuple(sorted(ps))


def _alternating_args(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The zeta(even i) and L(odd i) arguments of the string i = 2..n+1."""
    return (tuple(i for i in range(2, n + 2) if i % 2 == 0),
            tuple(i for i in range(3, n + 2) if i % 2 == 1))


def tau_infinity(lattice: str, n: int, field: FieldData) -> VolumeExpression:
    """1/prod_p tau_p as a symbolic volume: zeta(even i), L(odd i) for
    i in [2, n+1], with all non-generic local factors folded into the exact
    rational coefficient, normalized once."""
    lattice_diag(lattice, n)
    zeta_args, l_args = _alternating_args(n)
    num = den = 1
    for p in special_primes(lattice, field):
        euler_num, euler_den = _euler_local(field, n, p)
        tau_num, tau_den = _density(lattice, n, field, p)
        num *= euler_num * tau_den
        den *= euler_den * tau_num
    return VolumeExpression(Fraction(num, den), zeta_args=zeta_args, l_args=l_args)
