"""Integral bases of the special-unitary Lie algebras for both forms, exact
Gram determinants of the trace form B(X,Y) = Tr(XY), the holomorphic
curvature constant, and the volume of the maximal compact subgroup.

Arithmetic is exact and runs on ints.  Every basis entry (eps, eps-bar,
sqrt(-d), 1, 2, 2 eps-bar) is (a + b sqrt(-d))/2 for integers a, b, kept as
the pair (a, b) ("half units").  LieBasis.elements (dense matrices of Quad,
built from the supports on first read) holds a coordinate as an int where it
is integral and as a Fraction only where it is a half (eps and -eps-bar when
eps = (1 + sqrt(-d))/2), and shares its rows: one all-zero row per basis, and
one tuple per single-cell row across bases; the only other Fraction
is the ratio curvature_ratio returns.  J multiplies the last column by i and
the last row by -i; the factors i cancel in the curvature ratio.  Square roots
(sqrt n, sqrt(n+1)) never leave the squared slot of VolumeExpression.

Every basis element has at most two nonzero entries, so the kernels work on
supports (cell -> half-unit pair): the Lie-membership check reads only the
cells of an element, and the Gram matrix is built from a cell -> elements
index.  Its blocks are those of the basis order, checked, not searched for:
the n x n block of the g_k, whose determinant is taken by Bareiss, and each
(e, f) pair's 2 x 2 block, solved directly.  The g_k block is -d times the
Cartan matrix of A_n, which is negative definite, so no Bareiss pivot is
zero and none is looked for.  The curvature kernel scales only the last row
and column to integers and multiplies sparse {cell: pair} matrices.

A basis depends on the field only through eps, whose half units are fixed by
trace_eps, and its Lie check only through lattice_diag, so build_basis's
labels and checked supports are memoized on (lattice, n, field.trace_eps).
In half units 4 Tr(X_i X_j) is a sum of (a + b sqrt(-d))(x + y sqrt(-d)) =
ax - d by + (ay + bx) sqrt(-d), so d enters the trace form only as -d b y:
gram_det's d-free part (the cell index, the check that the sqrt(-d) parts
vanish, and each entry as r0 - d r1) is memoized on the supports.  A second
field of the same kind of eps pays only for what depends on d: the
integrality and off-block checks, the Bareiss of the g_k block and the pair
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import factorial, isqrt, lcm
from typing import NamedTuple

from .arith import product, ratio
from .expressions import VolumeExpression
from .quadfield import FieldData


class Quad(NamedTuple):
    """x + y sqrt(-d) with rational x, y: in LieBasis.elements an int where
    the coordinate is integral, else a Fraction with denominator 2."""
    x: int | Fraction
    y: int | Fraction


@cache
def _quad(a: int, b: int) -> Quad:
    """The Quad of the half-unit pair (a, b), shared between elements."""
    return Quad(*(h >> 1 if h % 2 == 0 else Fraction(h, 2) for h in (a, b)))


_ZERO = _quad(0, 0)


@dataclass(frozen=True)
class LieBasis:
    field: FieldData
    labels: tuple[str, ...]
    supports: tuple  # per element, its ((i, j), (a, b)) cells in half units

    @cached_property
    def elements(self) -> tuple:
        """The (n+1)x(n+1) matrices of Quad, built from supports on first read.
        An element's cells lie in different rows, so each nonzero row holds one
        cell and is the shared tuple of _row; every all-zero row is one tuple,
        shared by the whole basis."""
        w = isqrt(len(self.supports) + 1)
        zero = (_ZERO,) * w
        dense = [[zero] * w for _ in self.supports]
        for X, s in zip(dense, self.supports):
            for (i, j), v in s:
                X[i] = _row(w, j, v)
        return tuple(map(tuple, dense))


@cache
def _row(w: int, j: int, v: tuple[int, int]) -> tuple:
    """The row of width w whose one nonzero entry, at column j, is the
    half-unit pair v."""
    return (_ZERO,) * j + (_quad(*v),) + (_ZERO,) * (w - 1 - j)


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
    X[i][j] and X[j][i], and cell (j, i) gives the same two equations, so it
    is read on the support of X alone; every other cell is 0 = 0."""
    tr_a = tr_b = 0
    for (i, j), a in support.items():
        b = support.get((j, i), (0, 0))
        if a[0] * lam[j] + lam[i] * b[0] != 0 or a[1] * lam[j] - lam[i] * b[1] != 0:
            raise AssertionError(f"basis element violates the Lie condition at ({i},{j})")
        if i == j:
            tr_a, tr_b = tr_a + a[0], tr_b + a[1]
    if tr_a != 0 or tr_b != 0:
        raise AssertionError("basis element has nonzero trace")


def build_basis(lattice: str, n: int, field: FieldData) -> LieBasis:
    """Integral basis in the order g_1..g_n, e_12, f_12, ..., e_1, f_1, ..., e_n, f_n
    (primed e'_k, f'_k for the lattice M, which carry 2 eps-bar and 2 below the
    diagonal).  Each element is verified against the defining system, once per
    (lattice, n, field.trace_eps): see _frame."""
    labels, supports = _frame(lattice, n, field.trace_eps)
    return LieBasis(field=field, labels=labels, supports=supports)


@cache
def _frame(lattice: str, n: int, trace_eps: int) -> tuple[tuple[str, ...], tuple]:
    """build_basis's labels and checked supports.  They read the field only
    through eps, whose half units are fixed by trace_eps, and the Lie check
    only through lattice_diag, so fields of one kind of eps share them."""
    w = n + 1
    lam = lattice_diag(lattice, n)
    low = 2 if lattice == "M" else 1
    mark = "" if lattice == "L" else "'"
    # eps in half units: (1 + sqrt(-d))/2 or sqrt(-d)
    ea, eb = (1, 1) if trace_eps == 1 else (0, 2)
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
    return tuple(labels), tuple(tuple(s.items()) for s in supports)


def gram_det(basis: LieBasis) -> int:
    """Exact determinant of G = [Tr(X_i X_j)].

    In build_basis's order, the n elements g_k and then each (e, f) pair, G is
    block diagonal: that is checked, not searched for, and det G is the
    fraction-free Bareiss determinant of the n x n g_k block times ad - bc of
    each pair's 2 x 2 block.  The entries come from _gram_parts, memoized on
    the supports, as 4 Tr = r0 - d r1; what depends on d is done here: each
    entry must be a rational integer, each entry outside the blocks zero."""
    n, size, im, r0, r1 = _gram_parts(basis.supports)
    d = basis.field.d
    v = [a - d * b for a, b in zip(r0, r1)]
    if im or any(x & 3 for x in v):
        raise AssertionError("trace form value is not a rational integer")
    if any(v[size:]):
        raise AssertionError("Gram matrix is not block diagonal in the basis order")
    det = _bareiss_det([[x >> 2 for x in v[i:i + n]] for i in range(0, n * n, n)])
    for t in range(n * n, size, 4):
        a, b, c, e = v[t:t + 4]
        det *= (a * e - b * c) >> 4
    return det


@cache
def _gram_parts(supports: tuple) -> tuple:
    """The d-free part of gram_det: (n, size, im, r0, r1) with 4 Tr(X_i X_j) =
    r0 - d r1 (+ a sqrt(-d) part, which must vanish: im is true if one does).

    Tr(X_i X_j) = sum X_i[r][c] X_j[c][r] can be nonzero only where a cell of
    X_j is the transpose of a cell of X_i, so the entries are summed in one
    pass over a cell -> elements index.  r0 and r1 are flat: the g_k block
    row by row, then each pair's 2 x 2 block row by row, size entries in all,
    then each entry met outside the blocks."""
    k = len(supports)
    n = isqrt(k + 1) - 1
    size = n * n + 2 * (k - n)
    # per element: its block (0 for the g_k, then one per pair), where its row
    # starts in the flat block entries, and its column within its block
    place = [(0, t * n, t) for t in range(n)]
    place += [(1 + (t - n) // 2, n * n + 2 * (t - n), (t - n) % 2) for t in range(n, k)]
    by_cell = {}
    for j, s in enumerate(supports):
        for cell, v in s:
            by_cell.setdefault(cell, []).append((j, place[j], v))
    r0, r1, im = [0] * size, [0] * size, [0] * size
    off = {}  # (i, j) outside the blocks -> its flat entry
    for i, s in enumerate(supports):
        block, start, _ = place[i]
        for (r, c), (a, b) in s:
            for j, (bj, _, col), (x, y) in by_cell.get((c, r), ()):
                if bj == block:
                    p = start + col
                elif (p := off.get((i, j))) is None:
                    p = off[i, j] = len(r0)
                    r0.append(0)
                    r1.append(0)
                    im.append(0)
                r0[p] += a * x
                r1[p] += b * y
                im[p] += a * y + b * x
    return n, size, any(im), tuple(r0), tuple(r1)
def _bareiss_det(M) -> int:
    """det M by fraction-free Bareiss, no pivot search: M is the g_k block."""
    n = len(M)
    M = [row[:] for row in M]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return M[n - 1][n - 1]


# ---- curvature of the noncompact part ----
# Matrices are sparse, {(i, j): (a, b)} for the nonzero entries a + b sqrt(-d),
# X scaled to integers.

def _mat_mul(A: dict, B: dict, d: int) -> dict:
    """AB: each entry A[i][k] meets the entries of row k of B."""
    b_rows = {}
    for (k, j), v in B.items():
        b_rows.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), (x, y) in A.items():
        for j, (u, v) in b_rows.get(k, ()):
            re, im = out.get((i, j), (0, 0))
            out[i, j] = (re + x * u - d * y * v, im + x * v + y * u)
    return out


def _commutator(A: dict, B: dict, d: int) -> dict:
    """AB - BA, its zero entries dropped."""
    AB, BA = _mat_mul(A, B, d), _mat_mul(B, A, d)
    for c, (u, v) in BA.items():
        re, im = AB.get(c, (0, 0))
        AB[c] = (re - u, im - v)
    return {c: v for c, v in AB.items() if v[0] or v[1]}


def _trace(A: dict, B: dict, d: int) -> tuple[int, int]:
    """Tr(AB) = sum A[i][k] B[k][i] over the cells where both are nonzero."""
    re = im = 0
    for (i, k), (x, y) in A.items():
        if (b := B.get((k, i))) is not None:
            u, v = b
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
    Q(sqrt(-d)).  It is homogeneous of degree 0, so the last row and column
    are first scaled to integers by the lcm of their denominators."""
    w = len(X)
    d = field.d
    if any(v[0] or v[1] for row in X[:-1] for v in row[:-1]):
        raise ValueError("X must lie in the noncompact part (last row/column only)")
    if X[-1][-1][0] or X[-1][-1][1]:
        raise ValueError("X must lie in the noncompact part (zero corner entry)")
    # the last column above the corner, then the last row left of it
    edge = [(Fraction(x), Fraction(y)) for x, y in [r[-1] for r in X[:-1]] + list(X[-1][:-1])]
    scale = lcm(*(q.denominator for v in edge for q in v))
    edge = [(x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
            for x, y in edge]
    if not any(x or y for x, y in edge):
        raise ValueError("curvature ratio is undefined at X = 0")
    # the bottom row must be the conjugate of the top column (doubled for the
    # second form), or the matrix is not in either Lie algebra
    top, bottom = edge[:w - 1], edge[w - 1:]
    if not any(all(v == (low * a, -low * b) for v, (a, b) in zip(bottom, top))
               for low in (1, 2)):
        raise ValueError("bottom row is not the (possibly doubled) conjugate of the top column")
    n = w - 1
    X = {(i, n): v for i, v in enumerate(top) if v[0] or v[1]}
    Y = dict(X)
    for j, (a, b) in enumerate(bottom):
        if a or b:
            X[n, j], Y[n, j] = (a, b), (-a, -b)
    num = _trace(_commutator(_commutator(X, Y, d), X, d), Y, d)
    bxx, byy = _trace(X, X, d), _trace(Y, Y, d)
    if any(im != 0 for _, im in (num, bxx, byy)):
        raise AssertionError("trace form value is not rational")
    # B(X, X) = 2 low sum N(top) > 0 and B(Y, Y) = -B(X, X): no zero division
    return Fraction(num[0], bxx[0] * byy[0])


# ---- compact group volume ----

@cache
def vol_max_compact(n: int) -> VolumeExpression:
    """Vol(S(U(n) x U(1))), an n-sheet quotient of SU(n) x circle:
    sqrt(n+1) (2pi)^((n^2+n)/2) / prod i!."""
    if n < 1:
        raise ValueError("n must be >= 1")
    e = (n * n + n) // 2
    return VolumeExpression(coeff=ratio(1 << e, product(list(map(factorial, range(1, n))))),
                            sqrt_sq=Fraction(n + 1), pi_power=e)
