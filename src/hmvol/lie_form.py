"""Integral bases of the special-unitary Lie algebras for both forms, exact
Gram determinants of the trace form B(X,Y) = Tr(XY), the holomorphic
curvature constant, and the compact-group volume constants.

Arithmetic is exact throughout: matrix entries live in Q(sqrt(-d)) (class
Quad), and the curvature computation extends to Q(sqrt(-d), i) (class BiQuad)
because the complex structure J multiplies column entries by i.  Square roots
(sqrt n, sqrt(n+1)) never leave the squared slot of VolumeExpression.

Every basis element has at most two nonzero entries, so the exact kernels
work on supports: the Lie-membership check reads only the cells of an
element and their transposes, the Gram matrix is built from a cell ->
elements index, and its determinant is the product of Bareiss determinants
over the connected blocks of its sparsity pattern (one n x n block for the
g_k, one 2 x 2 block for each (e, f) pair).  The curvature matmuls skip zero
factors.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .expressions import VolumeExpression
from .quadfield import EpsKind, FieldData


class Quad(NamedTuple):
    """x + y sqrt(-d) with rational x, y."""
    x: Fraction
    y: Fraction


def _q(x=0, y=0) -> Quad:
    return Quad(Fraction(x), Fraction(y))


_ZERO = _q()


def q_add(a: Quad, b: Quad) -> Quad:
    return Quad(a.x + b.x, a.y + b.y)


def q_mul(a: Quad, b: Quad, d: int) -> Quad:
    return Quad(a.x * b.x - d * a.y * b.y, a.x * b.y + a.y * b.x)


def q_conj(a: Quad) -> Quad:
    return Quad(a.x, -a.y)


def eps_of(field: FieldData) -> Quad:
    if field.eps_kind is EpsKind.HALF_INTEGRAL:
        return _q(Fraction(1, 2), Fraction(1, 2))
    return _q(0, 1)


@dataclass(frozen=True)
class LieBasis:
    lattice: str
    n: int
    field: FieldData
    labels: tuple[str, ...]
    elements: tuple  # tuple of (n+1)x(n+1) matrices, entries Quad


def _zero_matrix(w: int):
    return [[_ZERO] * w for _ in range(w)]


def _sum_q(items) -> Quad:
    acc = _ZERO
    for it in items:
        acc = q_add(acc, it)
    return acc


def lattice_diag(lattice: str, n: int) -> tuple[int, ...]:
    """Diagonal of the Hermitian form: (1,...,1,-1) for L, (1,...,1,-2) for M."""
    if lattice not in ("L", "M"):
        raise ValueError(f"lattice must be 'L' or 'M', got {lattice!r}")
    return (1,) * n + (-1 if lattice == "L" else -2,)


def _check_lie_member(X, lam):
    """X.Lam + Lam.conj(X)' = 0 and Tr X = 0, exactly.  Cell (i, j) of the
    condition involves only X[i][j] and X[j][i], so it is read on the support
    of X and its transpose; every other cell is 0 = 0."""
    support = _support(X)
    for i, j in sorted(support.keys() | {(j, i) for i, j in support}):
        a, b = X[i][j], X[j][i]
        if a.x * lam[j] + lam[i] * b.x != 0 or a.y * lam[j] - lam[i] * b.y != 0:
            raise AssertionError(f"basis element violates the Lie condition at ({i},{j})")
    if _sum_q(v for (i, j), v in support.items() if i == j) != _ZERO:
        raise AssertionError("basis element has nonzero trace")


def build_basis(lattice: str, n: int, field: FieldData) -> LieBasis:
    """Integral basis in the order g_1..g_n, e_12, f_12, ..., e_1, f_1, ..., e_n, f_n
    (primed e'_k, f'_k for the lattice M, which carry 2 eps-bar and 2 below the
    diagonal).  Each element is verified against the defining system."""
    if n < 1:
        raise ValueError("n must be >= 1")
    w = n + 1
    d = field.d
    eps = eps_of(field)
    epsbar = q_conj(eps)
    sqrt_md = _q(0, 1)
    lam = lattice_diag(lattice, n)
    low = 2 if lattice == "M" else 1
    labels: list[str] = []
    elems = []

    for k in range(n):
        g = _zero_matrix(w)
        g[k][k] = sqrt_md
        g[k + 1][k + 1] = Quad(-sqrt_md.x, -sqrt_md.y)
        labels.append(f"g{k + 1}")
        elems.append(g)
    for i in range(n):
        for j in range(i + 1, n):
            e = _zero_matrix(w)
            e[i][j] = eps
            e[j][i] = Quad(-epsbar.x, -epsbar.y)
            labels.append(f"e{i + 1},{j + 1}")
            elems.append(e)
            f = _zero_matrix(w)
            f[i][j] = _q(1)
            f[j][i] = _q(-1)
            labels.append(f"f{i + 1},{j + 1}")
            elems.append(f)
    for k in range(n):
        e = _zero_matrix(w)
        e[k][n] = eps
        e[n][k] = q_mul(_q(low), epsbar, d)
        labels.append(f"e{k + 1}" if lattice == "L" else f"e'{k + 1}")
        elems.append(e)
        f = _zero_matrix(w)
        f[k][n] = _q(1)
        f[n][k] = _q(low)
        labels.append(f"f{k + 1}" if lattice == "L" else f"f'{k + 1}")
        elems.append(f)

    for X in elems:
        _check_lie_member(X, lam)
    if len(elems) != w * w - 1:
        raise AssertionError("basis has the wrong cardinality")
    return LieBasis(lattice=lattice, n=n, field=field,
                    labels=tuple(labels), elements=tuple(tuple(map(tuple, X)) for X in elems))


def _support(X) -> dict:
    return {(i, j): v for i, row in enumerate(X) for j, v in enumerate(row) if v != _ZERO}


def trace_form(basis: LieBasis, i: int, j: int) -> int:
    """B(X_i, X_j) = Tr(X_i X_j); a rational integer on the integral basis."""
    return _sparse_trace(_support(basis.elements[i]), _support(basis.elements[j]),
                         basis.field.d)


def _sparse_trace(sx: dict, sy: dict, d: int) -> int:
    # basis elements carry at most two nonzero entries, so Tr(XY) over the
    # supports is a handful of Quad products
    acc = _ZERO
    for (i, k), v in sx.items():
        w = sy.get((k, i))
        if w is not None:
            acc = q_add(acc, q_mul(v, w, d))
    return _rational_integer(acc)


def _rational_integer(v: Quad) -> int:
    if v.y != 0 or v.x.denominator != 1:
        raise AssertionError("trace form value is not a rational integer")
    return int(v.x)


def gram_det(basis: LieBasis) -> int:
    """Exact determinant of G = [Tr(X_i X_j)].

    Tr(X_i X_j) = sum X_i[r][c] X_j[c][r] can be nonzero only where a cell of
    X_j is the transpose of a cell of X_i, so G is built from a cell ->
    elements index, which also gives its sparsity pattern.  A simultaneous
    row/column permutation leaves det G unchanged, so it is the product of the
    fraction-free Bareiss determinants of the pattern's connected blocks."""
    d = basis.field.d
    supports = [_support(X) for X in basis.elements]
    by_cell = defaultdict(list)
    for j, s in enumerate(supports):
        for cell, v in s.items():
            by_cell[cell].append((j, v))
    G = []
    for s in supports:
        row = {}
        for (r, c), v in s.items():
            for j, w in by_cell[c, r]:
                row[j] = q_add(row.get(j, _ZERO), q_mul(v, w, d))
        G.append({j: _rational_integer(t) for j, t in row.items()})
    det = 1
    seen = [False] * len(G)
    for start in range(len(G)):
        if seen[start]:
            continue
        seen[start] = True
        block, todo = [], [start]
        while todo:
            i = todo.pop()
            block.append(i)
            for j in G[i]:
                if not seen[j]:
                    seen[j] = True
                    todo.append(j)
        block.sort()
        det *= _bareiss_det([[G[i].get(j, 0) for j in block] for i in block])
    return det


def _bareiss_det(M) -> int:
    n = len(M)
    M = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


# ---- curvature of the noncompact part ----

class BiQuad(NamedTuple):
    """w + x i + y s + z i s with s^2 = -d; the coefficient field of J X."""
    w: Fraction
    x: Fraction
    y: Fraction
    z: Fraction


_BQ_ZERO = BiQuad(Fraction(0), Fraction(0), Fraction(0), Fraction(0))


def _bq(quad: Quad) -> BiQuad:
    return BiQuad(quad.x, Fraction(0), quad.y, Fraction(0))


def bq_add(a: BiQuad, b: BiQuad) -> BiQuad:
    return BiQuad(a.w + b.w, a.x + b.x, a.y + b.y, a.z + b.z)


def bq_sub(a: BiQuad, b: BiQuad) -> BiQuad:
    return BiQuad(a.w - b.w, a.x - b.x, a.y - b.y, a.z - b.z)


def bq_mul(a: BiQuad, b: BiQuad, d: int) -> BiQuad:
    return BiQuad(
        a.w * b.w - a.x * b.x - d * a.y * b.y + d * a.z * b.z,
        a.w * b.x + a.x * b.w - d * (a.y * b.z + a.z * b.y),
        a.w * b.y + a.y * b.w - (a.x * b.z + a.z * b.x),
        a.w * b.z + a.z * b.w + a.x * b.y + a.y * b.x,
    )


def bq_mul_i(a: BiQuad) -> BiQuad:
    # i * (w + x i + y s + z i s) = -x + w i - z s... careful: i*s = is, i*is = -s
    return BiQuad(-a.x, a.w, -a.z, a.y)


def _bq_mat_mul(A, B, d: int):
    # only nonzero factors A[i][k] and B[k][j] contribute
    w = len(A)
    b_rows = [[(j, v) for j, v in enumerate(row) if v != _BQ_ZERO] for row in B]
    out = [[_BQ_ZERO] * w for _ in range(w)]
    for i in range(w):
        row = out[i]
        for k, a in enumerate(A[i]):
            if a == _BQ_ZERO:
                continue
            for j, b in b_rows[k]:
                row[j] = bq_add(row[j], bq_mul(a, b, d))
    return out


def _bq_commutator(A, B, d: int):
    AB = _bq_mat_mul(A, B, d)
    BA = _bq_mat_mul(B, A, d)
    return [[bq_sub(AB[i][j], BA[i][j]) for j in range(len(A))] for i in range(len(A))]


def _bq_trace_form(A, B, d: int) -> Fraction:
    acc = _BQ_ZERO
    for i, row in enumerate(A):
        for k, a in enumerate(row):
            if a != _BQ_ZERO and B[k][i] != _BQ_ZERO:
                acc = bq_add(acc, bq_mul(a, B[k][i], d))
    if (acc.x, acc.y, acc.z) != (0, 0, 0):
        raise AssertionError("trace form value is not rational")
    return acc.w


def curvature_ratio(X, field: FieldData) -> Fraction:
    """B([[X,JX],X],JX) / (B(X,X) B(JX,JX)) for X in the noncompact part
    (nonzero entries only in the last row and column); equals -2 identically.
    X is a matrix of Quad entries, e.g. a combination of the e_k, f_k basis
    elements."""
    w = len(X)
    d = field.d
    X = [[Quad(Fraction(v[0]), Fraction(v[1])) if not isinstance(v, Quad) else v
          for v in row] for row in X]
    if all(v == _ZERO for row in X for v in row):
        raise ValueError("curvature ratio is undefined at X = 0")
    for i in range(w - 1):
        for j in range(w - 1):
            if X[i][j] != _ZERO:
                raise ValueError("X must lie in the noncompact part (last row/column only)")
    if X[w - 1][w - 1] != _ZERO:
        raise ValueError("X must lie in the noncompact part (zero corner entry)")
    # the bottom row must be the conjugate of the top column (doubled for the
    # second form), or the matrix is not in either Lie algebra
    if not any(all(X[w - 1][k] == q_mul(_q(low), q_conj(X[k][w - 1]), d) for k in range(w - 1))
               for low in (1, 2)):
        raise ValueError("bottom row is not the (possibly doubled) conjugate of the top column")
    Xb = [[_bq(v) for v in row] for row in X]
    JX = [row[:] for row in Xb]
    for k in range(w - 1):
        JX[k][w - 1] = bq_mul_i(JX[k][w - 1])
        JX[w - 1][k] = BiQuad(*(-c for c in bq_mul_i(JX[w - 1][k])))
    inner = _bq_commutator(Xb, JX, d)
    outer = _bq_commutator(inner, Xb, d)
    num = _bq_trace_form(outer, JX, d)
    den = _bq_trace_form(Xb, Xb, d) * _bq_trace_form(JX, JX, d)
    if den == 0:
        raise ValueError("B(X, X) vanishes; curvature ratio undefined")
    return num / den


# ---- compact group volumes ----

def vol_su(n: int) -> VolumeExpression:
    """Vol(SU(n)) under the trace form: sqrt(n) (2pi)^((n^2+n-2)/2) / prod i!."""
    if n < 1:
        raise ValueError("n must be >= 1")
    e = (n * n + n - 2) // 2
    coeff = Fraction(2**e)
    for i in range(1, n):
        coeff /= factorial(i)
    return VolumeExpression(coeff=coeff, sqrt_sq=n, pi_power=e)


def vol_max_compact(n: int) -> VolumeExpression:
    """Vol(S(U(n) x U(1))), an n-sheet quotient of SU(n) x circle:
    sqrt(n+1) (2pi)^((n^2+n)/2) / prod i!."""
    if n < 1:
        raise ValueError("n must be >= 1")
    e = (n * n + n) // 2
    coeff = Fraction(2**e)
    for i in range(1, n):
        coeff /= factorial(i)
    return VolumeExpression(coeff=coeff, sqrt_sq=n + 1, pi_power=e)
