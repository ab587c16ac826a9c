"""Dense Fraction arithmetic in Q(sqrt(-d)), kept as a test reference for the
integer kernels of hmvol.lie_form.

Entries are Quad(x, y) = x + y sqrt(-d) with Fraction parts and matrices are
dense lists of rows: the basis is built cell by cell from eps and its
conjugate, traces and products scan every cell of the dense matrices, and
the curvature ratio is evaluated on the Quads as given, unscaled.  The package works on half-unit integer
pairs on supports instead; every value here must equal its value there.
`bareiss_det` searches for a nonzero pivot, so it takes any integer matrix,
such as the full dense Gram matrix, which is not definite.

`gram_det` is the package's Gram determinant as one pass over the supports,
before its d-free part was memoized: it must return the same determinant, or
raise the same error, on any supports.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from hmvol.lie_form import Quad, _bareiss_det
from hmvol.quadfield import FieldData


def q(x=0, y=0) -> Quad:
    return Quad(Fraction(x), Fraction(y))


ZERO = q()


def q_add(a: Quad, b: Quad) -> Quad:
    return Quad(a.x + b.x, a.y + b.y)


def q_mul(a: Quad, b: Quad, d: int) -> Quad:
    return Quad(a.x * b.x - d * a.y * b.y, a.x * b.y + a.y * b.x)


def q_conj(a: Quad) -> Quad:
    return Quad(a.x, -a.y)


def sum_q(items) -> Quad:
    acc = ZERO
    for it in items:
        acc = q_add(acc, it)
    return acc


def eps_of(field: FieldData) -> Quad:
    if field.trace_eps == 1:  # eps = (1 + sqrt(-d))/2, else sqrt(-d)
        return q(Fraction(1, 2), Fraction(1, 2))
    return q(0, 1)


def dense_basis(lattice: str, n: int, field: FieldData) -> tuple:
    """The elements of build_basis(lattice, n, field), in its order, as
    tuples of rows of Quad."""
    w = n + 1
    d = field.d
    eps = eps_of(field)
    epsbar = q_conj(eps)
    low = q(2 if lattice == "M" else 1)
    pairs = []

    def element(cells):
        X = [[ZERO] * w for _ in range(w)]
        for (i, j), v in cells.items():
            X[i][j] = v
        return tuple(map(tuple, X))

    elems = [element({(k, k): q(0, 1), (k + 1, k + 1): q(0, -1)}) for k in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pairs.append((i, j, q_mul(q(-1), epsbar, d), q(-1)))
    for k in range(n):
        pairs.append((k, n, q_mul(low, epsbar, d), low))
    for i, j, e_low, f_low in pairs:
        elems.append(element({(i, j): eps, (j, i): e_low}))
        elems.append(element({(i, j): q(1), (j, i): f_low}))
    return tuple(elems)


def trace(A, B, d: int) -> Quad:
    """Tr(AB) of two dense matrices."""
    return sum_q(q_mul(a, B[k][i], d) for i, row in enumerate(A) for k, a in enumerate(row)
                 if a != ZERO and B[k][i] != ZERO)


def rational_integer(v: Quad) -> int:
    assert v.y == 0 and v.x.denominator == 1, v
    return int(v.x)


def mat_mul(A, B, d: int):
    w = len(A)
    return [[sum_q(q_mul(A[i][k], B[k][j], d) for k in range(w)
                   if A[i][k] != ZERO and B[k][j] != ZERO) for j in range(w)]
            for i in range(w)]


def commutator(A, B, d: int):
    AB, BA = mat_mul(A, B, d), mat_mul(B, A, d)
    return [[Quad(s.x - t.x, s.y - t.y) for s, t in zip(r, u)] for r, u in zip(AB, BA)]


def curvature_ratio(X, field: FieldData) -> Fraction:
    """B([[X,Y],X],Y) / (B(X,X) B(Y,Y)), Y = X with its last row negated, on
    a noncompact X of Quads (no membership checks)."""
    d = field.d
    Y = [list(r) for r in X[:-1]] + [[Quad(-v.x, -v.y) for v in X[-1]]]
    num = trace(commutator(commutator(X, Y, d), X, d), Y, d)
    bxx, byy = trace(X, X, d), trace(Y, Y, d)
    assert num.y == bxx.y == byy.y == 0
    return num.x / (bxx.x * byy.x)


def bareiss_det(M) -> int:
    """det M of any square integer matrix by fraction-free Bareiss, swapping
    in a row with a nonzero pivot where the diagonal entry is zero."""
    n = len(M)
    M = [list(row) for row in M]
    sign, prev = 1, 1
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


def gram_det(basis) -> int:
    """det [Tr(X_i X_j)] in one pass: the entries in quarter units from a cell
    -> elements index, each checked to be a rational integer as its row is
    summed, then the blocks of build_basis's order checked, then the Bareiss
    determinant of the g_k block (no pivot search, as in the package) times
    ad - bc of each pair's 2 x 2 block."""
    d = basis.field.d
    by_cell = {}
    for j, s in enumerate(basis.supports):
        for cell, v in s:
            by_cell.setdefault(cell, []).append((j, v))
    G = []
    for s in basis.supports:
        row = {}
        for (r, c), (a, b) in s:
            for j, (x, y) in by_cell.get((c, r), ()):
                re, im = row.get(j, (0, 0))
                row[j] = (re + a * x - d * b * y, im + a * y + b * x)
        # (re + im sqrt(-d))/4 must be a rational integer
        if any(im or re % 4 for re, im in row.values()):
            raise AssertionError("trace form value is not a rational integer")
        G.append({j: re // 4 for j, (re, _) in row.items()})
    n = isqrt(len(G) + 1) - 1
    block = [0] * n + [1 + k // 2 for k in range(len(G) - n)]
    if any(v and block[i] != block[j] for i, row in enumerate(G) for j, v in row.items()):
        raise AssertionError("Gram matrix is not block diagonal in the basis order")
    det = _bareiss_det([[G[i].get(j, 0) for j in range(n)] for i in range(n)])
    for i in range(n, len(G), 2):
        det *= G[i].get(i, 0) * G[i + 1].get(i + 1, 0) - G[i].get(i + 1, 0) * G[i + 1].get(i, 0)
    return det
