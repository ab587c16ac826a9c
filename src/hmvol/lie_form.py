"""Integral bases of the special-unitary Lie algebras for both forms, exact
Gram determinants of the trace form B(X,Y) = Tr(XY), the holomorphic
curvature constant, and the volume of the maximal compact subgroup.

Arithmetic is exact and runs on ints.  Every basis entry (eps, eps-bar,
sqrt(-d), 1, 2, 2 eps-bar) is (a + b sqrt(-d))/2 for integers a, b, kept as
the pair (a, b) ("half units"); Fractions appear only in LieBasis.elements
(dense matrices of Quad) and in the ratio curvature_ratio returns.  The
complex structure J multiplies the last column by i and the last row by -i,
and the factors i cancel in the curvature ratio (see curvature_ratio).
Square roots (sqrt n, sqrt(n+1)) never leave the squared slot of
VolumeExpression.

Every basis element has at most two nonzero entries, so the kernels work on
supports (cell -> half-unit pair): the Lie-membership check reads only the
cells of an element and their transposes, the Gram matrix is built from a
cell -> elements index, and its determinant is the product of Bareiss
determinants over the connected blocks of its sparsity pattern (one n x n
block for the g_k, one 2 x 2 block for each (e, f) pair).  The curvature
matmuls skip zero factors.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from typing import NamedTuple

from .expressions import VolumeExpression
from .quadfield import FieldData


class Quad(NamedTuple):
    """x + y sqrt(-d) with rational x, y."""
    x: Fraction
    y: Fraction


@cache
def _quad(a: int, b: int) -> Quad:
    """The Quad of the half-unit pair (a, b), shared between elements."""
    return Quad(Fraction(a, 2), Fraction(b, 2))


_ZERO = _quad(0, 0)


@dataclass(frozen=True)
class LieBasis:
    field: FieldData
    labels: tuple[str, ...]
    elements: tuple  # tuple of (n+1)x(n+1) matrices, entries Quad
    supports: tuple  # per element, its ((i, j), (a, b)) cells in half units


def lattice_diag(lattice: str, n: int) -> tuple[int, ...]:
    """Diagonal of the Hermitian form: (1,...,1,-1) for L, (1,...,1,-2) for M."""
    if lattice not in ("L", "M"):
        raise ValueError(f"lattice must be 'L' or 'M', got {lattice!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1,) * n + (-1 if lattice == "L" else -2,)


def _check_lie_member(support: dict, lam):
    """X.Lam + Lam.conj(X)' = 0 and Tr X = 0, exactly, for X given by its
    support in half units.  Cell (i, j) of the condition involves only
    X[i][j] and X[j][i], so it is read on the support of X and its transpose;
    every other cell is 0 = 0."""
    for i, j in sorted(support.keys() | {(j, i) for i, j in support}):
        a, b = support.get((i, j), (0, 0)), support.get((j, i), (0, 0))
        if a[0] * lam[j] + lam[i] * b[0] != 0 or a[1] * lam[j] - lam[i] * b[1] != 0:
            raise AssertionError(f"basis element violates the Lie condition at ({i},{j})")
    diagonal = [v for (i, j), v in support.items() if i == j]
    if sum(a for a, _ in diagonal) != 0 or sum(b for _, b in diagonal) != 0:
        raise AssertionError("basis element has nonzero trace")


def build_basis(lattice: str, n: int, field: FieldData) -> LieBasis:
    """Integral basis in the order g_1..g_n, e_12, f_12, ..., e_1, f_1, ..., e_n, f_n
    (primed e'_k, f'_k for the lattice M, which carry 2 eps-bar and 2 below the
    diagonal).  Each element is verified against the defining system."""
    w = n + 1
    lam = lattice_diag(lattice, n)
    low = 2 if lattice == "M" else 1
    mark = "" if lattice == "L" else "'"
    # eps in half units: (1 + sqrt(-d))/2 or sqrt(-d)
    ea, eb = (1, 1) if field.trace_eps == 1 else (0, 2)
    labels: list[str] = []
    supports: list[dict] = []

    for k in range(n):
        labels.append(f"g{k + 1}")
        supports.append({(k, k): (0, 2), (k + 1, k + 1): (0, -2)})
    for i in range(n):
        for j in range(i + 1, n):
            labels += [f"e{i + 1},{j + 1}", f"f{i + 1},{j + 1}"]
            supports += [{(i, j): (ea, eb), (j, i): (-ea, eb)},
                         {(i, j): (2, 0), (j, i): (-2, 0)}]
    for k in range(n):
        labels += [f"e{mark}{k + 1}", f"f{mark}{k + 1}"]
        supports += [{(k, n): (ea, eb), (n, k): (low * ea, -low * eb)},
                     {(k, n): (2, 0), (n, k): (2 * low, 0)}]

    for s in supports:
        _check_lie_member(s, lam)
    if len(supports) != w * w - 1:
        raise AssertionError("basis has the wrong cardinality")
    elements = []
    for s in supports:
        X = [[_ZERO] * w for _ in range(w)]
        for (i, j), v in s.items():
            X[i][j] = _quad(*v)
        elements.append(tuple(map(tuple, X)))
    return LieBasis(field=field, labels=tuple(labels), elements=tuple(elements),
                    supports=tuple(tuple(s.items()) for s in supports))


def _rational_integer(re: int, im: int) -> int:
    """The value (re + im sqrt(-d))/4 of a quarter-unit pair, which must be in Z."""
    if im != 0 or re % 4 != 0:
        raise AssertionError("trace form value is not a rational integer")
    return re // 4


def gram_det(basis: LieBasis) -> int:
    """Exact determinant of G = [Tr(X_i X_j)].

    Tr(X_i X_j) = sum X_i[r][c] X_j[c][r] can be nonzero only where a cell of
    X_j is the transpose of a cell of X_i, so G is built from a cell ->
    elements index, which also gives its sparsity pattern; its entries are
    summed in quarter units.  A simultaneous row/column permutation leaves
    det G unchanged, so it is the product of the fraction-free Bareiss
    determinants of the pattern's connected blocks."""
    d = basis.field.d
    by_cell = defaultdict(list)
    for j, s in enumerate(basis.supports):
        for cell, v in s:
            by_cell[cell].append((j, v))
    G = []
    for s in basis.supports:
        re, im = defaultdict(int), defaultdict(int)
        for (r, c), (a, b) in s:
            for j, (x, y) in by_cell[c, r]:
                re[j] += a * x - d * b * y
                im[j] += a * y + b * x
        G.append({j: _rational_integer(t, im[j]) for j, t in re.items()})
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
# Entries are integer pairs (a, b) = a + b sqrt(-d), X scaled to integers.

def _mat_mul(A, B, d: int):
    # only nonzero factors A[i][k] and B[k][j] contribute
    w = len(A)
    b_rows = [[(j, u, v) for j, (u, v) in enumerate(row) if u or v] for row in B]
    out = []
    for a_row in A:
        re, im = [0] * w, [0] * w
        for (x, y), b_row in zip(a_row, b_rows):
            if x or y:
                for j, u, v in b_row:
                    re[j] += x * u - d * y * v
                    im[j] += x * v + y * u
        out.append(list(zip(re, im)))
    return out


def _commutator(A, B, d: int):
    AB, BA = _mat_mul(A, B, d), _mat_mul(B, A, d)
    return [[(s[0] - t[0], s[1] - t[1]) for s, t in zip(r, q)] for r, q in zip(AB, BA)]


def _trace(A, B, d: int) -> tuple[int, int]:
    """Tr(AB) of two dense matrices."""
    re = im = 0
    for i, row in enumerate(A):
        for k, (x, y) in enumerate(row):
            u, v = B[k][i]
            re += x * u - d * y * v
            im += x * v + y * u
    return re, im


def curvature_ratio(X, field: FieldData) -> Fraction:
    """B([[X,JX],X],JX) / (B(X,X) B(JX,JX)) for X in the noncompact part
    (nonzero entries only in the last row and column); equals -2 identically.
    X is a matrix of Quad entries (or rational pairs), e.g. a combination of
    the e_k, f_k basis elements.

    J multiplies the last column by i and the last row by -i, so JX = iY with
    Y the matrix X with its last row negated.  B is complex bilinear, so the
    factor i^2 = -1 appears once in the numerator and once in the denominator
    and cancels: the ratio is B([[X,Y],X],Y) / (B(X,X) B(Y,Y)), computed in
    Q(sqrt(-d)).  It is homogeneous of degree 0, so X is first scaled to
    integer entries by the lcm of its denominators."""
    w = len(X)
    d = field.d
    X = [[(Fraction(v[0]), Fraction(v[1])) for v in row] for row in X]
    scale = lcm(*(q.denominator for row in X for v in row for q in v))
    X = [[(x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
          for x, y in row] for row in X]
    if not any(x or y for row in X for x, y in row):
        raise ValueError("curvature ratio is undefined at X = 0")
    for i in range(w - 1):
        for j in range(w - 1):
            if X[i][j] != (0, 0):
                raise ValueError("X must lie in the noncompact part (last row/column only)")
    if X[w - 1][w - 1] != (0, 0):
        raise ValueError("X must lie in the noncompact part (zero corner entry)")
    # the bottom row must be the conjugate of the top column (doubled for the
    # second form), or the matrix is not in either Lie algebra
    top = [X[k][w - 1] for k in range(w - 1)]
    if not any(all(v == (low * a, -low * b) for v, (a, b) in zip(X[w - 1], top))
               for low in (1, 2)):
        raise ValueError("bottom row is not the (possibly doubled) conjugate of the top column")
    Y = X[:-1] + [[(-a, -b) for a, b in X[-1]]]
    num = _trace(_commutator(_commutator(X, Y, d), X, d), Y, d)
    bxx, byy = _trace(X, X, d), _trace(Y, Y, d)
    if any(im != 0 for _, im in (num, bxx, byy)):
        raise AssertionError("trace form value is not rational")
    den = bxx[0] * byy[0]
    if den == 0:
        raise ValueError("B(X, X) vanishes; curvature ratio undefined")
    return Fraction(num[0], den)


# ---- compact group volume ----

@cache
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
