"""The numpy streaming machinery `hmvol.group_enum` used for the p = 2 levels
of rank >= 3 before every class was read off det D / q, kept as a test
reference: int64 arithmetic over O/m on coordinate pairs, the projective rows
of a form in fixed-size passes, the complement basis of each row and the
canonical form of each complement Gram.

StreamRing is the package's _Ring with the numpy members it dropped, and the
table `scale` that the per-row SU count of `level_reference` reads: pairs
(..., 2) hold (a, b) for a + b eps, matrices are (..., rows, cols, 2), and a
matrix product is one int64 product of the entries packed as a + b 2^20,
whose three fields are sums of r products of entries in [0, m).  A form that
is not diagonal is keyed by the nested tuple of its matrix (form_key,
matrix), so that its key has one item per row, as a diagonal tuple does.
"""

from __future__ import annotations

import math
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from hmvol.group_enum import _Ring

# Rows per numpy pass of a level, so that its temporaries stay small.
CHUNK = 1 << 12


class StreamRing(_Ring):
    """_Ring with its numpy arithmetic, every array built on first read."""

    def __init__(self, ring, lam):
        super().__init__(ring, lam)
        # scale[g] is the norm of a unit taking a unit g to rep[g], 1 for a non-unit
        self.scale = [r * i % self.m if i else 1 for r, i in zip(self.rep, self.inv)]
        self._probes = {}

    @cached_property
    def arrays(self):
        """unit, inv, norm_count, rep and scale as numpy arrays."""
        return SimpleNamespace(**{name: np.array(getattr(self, name)) for name in
                                  ("unit", "inv", "norm_count", "rep", "scale")})

    @cached_property
    def elems(self):
        """Every element, (m^2, 2), a + b eps at a + b m."""
        idx = np.arange(self.m * self.m, dtype=np.int64)
        return np.stack([idx % self.m, idx // self.m], axis=-1)

    @cached_property
    def nonunits(self):
        return self.elems[~self.arrays.unit[self.norm(self.elems)]]

    @cached_property
    def one(self):
        return np.array([[1 % self.m, 0]], dtype=np.int64)

    @cached_property
    def root(self):
        """root[g] is an element of norm g, for every norm g that occurs (root[1] = 1)."""
        root = np.zeros((self.m, 2), dtype=np.int64)
        values, first = np.unique(self.norm(self.elems), return_index=True)
        root[values] = self.elems[first]
        return root

    def _pair(self, a, b):
        """The elements a + b eps (a, b of one shape) mod m, written into one array."""
        out = np.empty(a.shape + (2,), dtype=np.int64)
        out[..., 0], out[..., 1] = a, b
        return np.remainder(out, self.m, out=out)

    def mul(self, x, y):
        x0, x1, y0, y1 = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
        x1y1 = x1 * y1
        return self._pair(x0 * y0 - self.nu * x1y1, x0 * y1 + x1 * y0 + self.t * x1y1)

    def conj(self, x):
        # conj(a + b eps) = (a + t b) - b eps
        return self._pair(x[..., 0] + self.t * x[..., 1], -x[..., 1])

    def norm(self, x):
        a, b = x[..., 0], x[..., 1]
        return (a * a + self.t * a * b + self.nu * b * b) % self.m

    def matmul(self, X, Y):
        """X Y for entries in [0, m), as one int64 product of the entries packed
        as a + b F: its fields X0 Y0, X0 Y1 + X1 Y0, X1 Y1 are <= 2 r (m - 1)^2."""
        F, r = 1 << 20, X.shape[-2]
        assert 2 * r * (self.m - 1) ** 2 < F, f"packed product overflows at m={self.m}, r={r}"
        P = (X[..., 0] + X[..., 1] * F) @ (Y[..., 0] + Y[..., 1] * F)
        hi = P >> 40
        return self._pair((P & (F - 1)) - self.nu * hi, (P >> 20 & (F - 1)) + self.t * hi)

    def star(self, X):
        return self.conj(np.swapaxes(X, -2, -3))

    def probes(self, r: int):
        """The rows V (k, r, 2) e_i, then e_i + e_j and e_i + eps e_j for i < j,
        and their products O_kab = V_ka conj(V_kb), so that h(V_k, V_k) =
        sum_ab O_kab G_ab.  A Hermitian form has a unit-norm vector iff one of
        these has unit norm: without one, every diagonal entry and every
        Tr(c G_ji) (c in {1, eps}, hence c in O/p) vanishes mod p, and then so
        does every h(v, v)."""
        if r not in self._probes:
            # the rows e_j (and eps e_j = eye[j, :, ::-1]) as (r, r, 2) pairs
            eye = np.eye(r, dtype=np.int64)[:, :, None] * np.array([1, 0])
            V = np.array(list(eye) + [eye[i] + e for i in range(r) for j in range(i + 1, r)
                                      for e in (eye[j], eye[j, :, ::-1])]) % self.m
            self._probes[r] = V, self.mul(V[:, :, None], self.conj(V)[:, None, :])
        return self._probes[r]


def product(blocks):
    """The rows (k, r, 2) of the Cartesian products of the element tables of
    each block, one block after the other, CHUNK rows at a time."""
    sizes = [math.prod(map(len, tables)) for tables in blocks]
    total, r = sum(sizes), len(blocks[0])
    for lo in range(0, total, CHUNK):
        out, start = np.empty((min(CHUNK, total - lo), r, 2), dtype=np.int64), 0
        for tables, size in zip(blocks, sizes):
            a, b = max(lo, start), min(lo + len(out), start + size)
            if a < b:
                idx, seg = np.arange(a - start, b - start, dtype=np.int64), out[a - lo:b - lo]
                for pos in range(r - 1, -1, -1):
                    idx, digit = np.divmod(idx, len(tables[pos]))
                    seg[:, pos] = tables[pos][digit]
            start += size
        yield out


def packed(X):
    """Each matrix of X (k, ...) as a byte-string key (k,) that sorts as its entries."""
    # the width is explicit, because a pass that kept no row has len(X) = 0
    b = X.astype(np.int8, order="C").reshape(len(X), math.prod(X.shape[1:]))
    return b.view(np.dtype((np.void, b.shape[1])))[:, 0]


def complement(R: StreamRing, G, v):
    """For rows v (..., r, 2) of the Hermitian form G (..., r, r, 2) whose first
    unit coordinate v_i0 is 1: q = h(v, v) and, where q is a unit, the basis
    B (..., r - 1, r, 2) of v^⊥ with B_j = e_j - (h(e_j, v) / q) v, j != i0;
    det [v; B] = +-v_i0 = +-1, so no determinant is carried."""
    m, r = R.m, v.shape[-2]
    f = R.matmul(G, R.conj(v)[..., None, :])[..., 0, :]
    q = R.matmul(v[..., None, :, :], f[..., None, :])[..., 0, 0, 0]
    i0 = np.argmax(R.arrays.unit[R.norm(v)], axis=-1)
    keep = np.arange(r - 1) + (np.arange(r - 1) >= i0[..., None])
    c = np.take_along_axis(f, keep[..., None], axis=-2) * R.arrays.inv[q][..., None, None] % m
    E = (keep[..., None] == np.arange(r))[..., None] * np.array([1, 0])
    return q, (E - R.mul(c[..., :, None, :], v[..., None, :, :])) % m


def diag(values):
    """The diagonal form diag(values), (r, r, 2)."""
    return np.diag(values)[..., None] * np.array([1, 0])


def canonical(R: StreamRing, G):
    """The canonical forms D (k, r, r, 2) of the Hermitian forms G (k, r, r, 2),
    with N(det P) for the P that gives D = P G P*: unit-norm vectors are split
    off one at a time, their norms scaled to rep and sorted; the remainder
    that has none is kept as it is, after them.  The last 1 x 1 remainder [g]
    is copied: a unit g would be split off by v = e_1 with q = g, a non-unit g
    kept, and either way D[r-1, r-1] = g with P unchanged."""
    m, (K, r) = R.m, G.shape[:2]
    D, P = np.zeros_like(G), np.zeros_like(G)
    P[:, np.arange(r), np.arange(r), 0] = 1
    live, cur = np.arange(K), G
    for s in range(r - 1):
        V, O = R.probes(r - s)
        vals = (np.einsum("pab,kab->kp", O[..., 0], cur[..., 0])
                - R.nu * np.einsum("pab,kab->kp", O[..., 1], cur[..., 1])) % m
        ok = R.arrays.unit[vals]
        found = ok.any(axis=1)
        D[live[~found], s:, s:] = cur[~found]
        live, cur, v = live[found], cur[found], V[ok.argmax(axis=1)[found]]
        if not live.size:
            break
        q, B = complement(R, cur, v)
        P[live, s:] = R.matmul(np.concatenate([v[:, None], B], axis=1), P[live, s:])
        cur = R.matmul(R.matmul(B, cur), R.star(B))
        D[live, s, s, 0] = q
    D[live, r - 1, r - 1] = cur[:, 0, 0]
    idx = np.arange(r)
    d = D[:, idx, idx, 0]
    scale = R.arrays.scale[d]
    nd = np.ones(K, dtype=np.int64)
    for i in range(r):
        nd = nd * scale[:, i] % m
    P = R.mul(R.root[scale][:, :, None, :], P)
    order = np.argsort(np.where(R.arrays.unit[d], R.arrays.rep[d], m + idx), axis=1,
                       kind="stable")
    P = np.take_along_axis(P, order[:, :, None, None], axis=1)
    D[:, idx, idx, 0] = np.take_along_axis(R.arrays.rep[d], order, axis=1)
    assert (R.matmul(R.matmul(P, G), R.star(P)) == D).all(), "P G P* != D"
    return D, nd


def form_key(D):
    """The key of the form D (r, r, 2): the tuple of its entries if it is
    diagonal, as the package keys it, else the nested tuple of its matrix."""
    d = np.diagonal(D[..., 0]).tolist()
    if (D == diag(d)).all():
        return tuple(d)
    return tuple(tuple(map(tuple, row)) for row in D.tolist())


def matrix(key):
    """The form (r, r, 2) of a key."""
    return np.array(key, dtype=np.int64) if isinstance(key[0], tuple) else diag(key)
