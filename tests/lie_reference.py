"""Dense Fraction arithmetic in Q(sqrt(-d)), kept as a test reference for the
integer kernels of hmvol.lie_form.

Entries are Quad(x, y) = x + y sqrt(-d) with Fraction parts and matrices are
dense lists of rows: the basis is built cell by cell from eps and its
conjugate, traces and products scan every cell of the dense matrices, and
the curvature ratio is evaluated on the Quads as given, unscaled.  The package works on half-unit integer
pairs on supports instead; every value here must equal its value there.
`bareiss_det` searches for a nonzero pivot, so it takes any integer matrix,
such as the full dense Gram matrix, which is not definite.
"""

from __future__ import annotations

from fractions import Fraction

from hmvol.lie_form import Quad
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
