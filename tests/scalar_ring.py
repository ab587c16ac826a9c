"""Scalar reference arithmetic over O_K/p^N O_K for the tests: elements,
ring operations, dense matrices, determinants and the Hermitian defect.

The package computes over these rings only through the vectorized plane
kernels of hmvol.group_enum; the tests check those kernels and the ring
axioms against this element-by-element arithmetic.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from hmvol.residue_ring import ResidueRing


class RingElement(NamedTuple):
    a: int
    b: int  # element a + b*eps


class ScalarRing(ResidueRing):
    """O_K/p^N O_K as a rank-2 module over Z/p^N with conjugation, one element
    at a time."""

    def size(self) -> int:
        return self.modulus**2

    def element(self, a: int, b: int = 0) -> RingElement:
        m = self.modulus
        return RingElement(a % m, b % m)

    def zero(self) -> RingElement:
        return RingElement(0, 0)

    def one(self) -> RingElement:
        return RingElement(1 % self.modulus, 0)

    def eps(self) -> RingElement:
        return RingElement(0, 1 % self.modulus)

    def add(self, x: RingElement, y: RingElement) -> RingElement:
        m = self.modulus
        return RingElement((x.a + y.a) % m, (x.b + y.b) % m)

    def sub(self, x: RingElement, y: RingElement) -> RingElement:
        m = self.modulus
        return RingElement((x.a - y.a) % m, (x.b - y.b) % m)

    def neg(self, x: RingElement) -> RingElement:
        m = self.modulus
        return RingElement(-x.a % m, -x.b % m)

    def mul(self, x: RingElement, y: RingElement) -> RingElement:
        # (a1 + b1 e)(a2 + b2 e) with e^2 = t e - n
        m, t, n = self.modulus, self.trace_eps, self.norm_eps
        a = (x.a * y.a - n * x.b * y.b) % m
        b = (x.a * y.b + x.b * y.a + t * x.b * y.b) % m
        return RingElement(a, b)

    def conj(self, x: RingElement) -> RingElement:
        # eps bar = t - eps
        m = self.modulus
        return RingElement((x.a + self.trace_eps * x.b) % m, -x.b % m)

    def norm(self, x: RingElement) -> int:
        """x * conj(x); lands in the Z/p^N subring, returned as an integer."""
        m, t, n = self.modulus, self.trace_eps, self.norm_eps
        return (x.a * x.a + t * x.a * x.b + n * x.b * x.b) % m

    def is_unit(self, x: RingElement) -> bool:
        return gcd(self.norm(x), self.p) == 1

    def scalar(self, c: int) -> RingElement:
        return self.element(c, 0)


class RingMatrix:
    """Dense matrix over a ScalarRing; rows is a tuple of tuples of elements."""

    def __init__(self, ring: ScalarRing, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.n_rows = len(self.rows)
        self.n_cols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.n_cols for r in self.rows):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, ring: ScalarRing, n: int) -> "RingMatrix":
        one, zero = ring.one(), ring.zero()
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, ring: ScalarRing, entries) -> "RingMatrix":
        zero = ring.zero()
        ents = [ring.scalar(c) if isinstance(c, int) else c for c in entries]
        n = len(ents)
        return cls(ring, [[ents[i] if i == j else zero for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, RingMatrix) and self.rows == other.rows

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("dimension mismatch")
        R = self.ring
        out = []
        for i in range(self.n_rows):
            row = []
            for j in range(other.n_cols):
                acc = R.zero()
                for k in range(self.n_cols):
                    acc = R.add(acc, R.mul(self.rows[i][k], other.rows[k][j]))
                row.append(acc)
            out.append(row)
        return RingMatrix(R, out)

    def sub(self, other: "RingMatrix") -> "RingMatrix":
        R = self.ring
        return RingMatrix(R, [[R.sub(x, y) for x, y in zip(r1, r2)]
                              for r1, r2 in zip(self.rows, other.rows)])

    def conj_transpose(self) -> "RingMatrix":
        R = self.ring
        return RingMatrix(R, [[R.conj(self.rows[j][i]) for j in range(self.n_rows)]
                              for i in range(self.n_cols)])

    def is_zero(self) -> bool:
        z = self.ring.zero()
        return all(x == z for row in self.rows for x in row)

    def det(self) -> RingElement:
        """Determinant by cofactor expansion; division-free, fine for size <= 4."""
        if self.n_rows != self.n_cols:
            raise ValueError("determinant of a non-square matrix")
        return _det(self.ring, self.rows)


def _det(R: ScalarRing, rows) -> RingElement:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return R.sub(R.mul(rows[0][0], rows[1][1]), R.mul(rows[0][1], rows[1][0]))
    acc = R.zero()
    for j in range(n):
        minor = [tuple(row[c] for c in range(n) if c != j) for row in rows[1:]]
        term = R.mul(rows[0][j], _det(R, minor))
        acc = R.add(acc, term) if j % 2 == 0 else R.sub(acc, term)
    return acc


def hermitian_defect(A: RingMatrix, lam) -> RingMatrix:
    """A.Lam.conj(A)' - Lam for a diagonal form Lam; zero iff A is unitary for it."""
    if A.n_rows != A.n_cols:
        raise ValueError("dimension mismatch")
    if len(lam) != A.n_rows:
        raise ValueError("form and matrix sizes differ")
    L = RingMatrix.diagonal(A.ring, list(lam))
    return (A @ L @ A.conj_transpose()).sub(L)
