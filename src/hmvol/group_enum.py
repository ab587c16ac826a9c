"""Counting of (special) unitary groups over residue rings O_K/p^N.

#U and #SU(Lam, O/m), m = p^N, are counted by recursion over complement Gram
classes.  Let count(G, lams, t) be the number of r x r matrices A over O/m
with A G A* = diag(lams) and, for SU, det A = t; then #U = count(Lam, lam)
and #SU = count(Lam, lam, 1).  Every lams[0] with r >= 2 is 1, a unit.  A
first row x then has q = h(x, x) a unit and a unit coordinate x_i0 (i0 the
first), the rows B_j = e_j - (h(e_j, x) / q) x, j != i0, are a basis of x^⊥
with det [x; B] = +-x_i0, and every completion of x is [x; C B] for exactly
one C, with det [x; C B] = det C * det [x; B].  So count(G, lams, t) is the
sum over the rows x of count(B G B*, lams[1:], t / det [x; B]); at r = 1 it
is the number of c with N(c) g = lams[0] (U), or whether N(t) g = lams[0]
(SU).

Left multiplication by diag(u, 1, ..., 1) with N(u) = 1 maps the solutions
with det t one-to-one onto those with det u t, so the SU count depends on t
only through T = N(t), a unit of Z/m, and every determinant below is carried
as its norm.

The search recurses on canonical forms (below): unit diagonal entries, then
a remainder with no unit-norm vector, whose values are all non-units, so a
unit-norm row has a unit coordinate among the unit diagonal entries.
Writing x = s y with s its first unit coordinate, so that y's is 1, B
depends on y only, det [x; B] = s det [y; B] and N(s) = lams[0] / h(y, y):
the search runs over these projective rows y, about m^(2(r-1)) of them, and
counts the s of each by its norm.  The rows of a class (but a short one,
below), for every position of s, come as one stream of _CHUNK-row numpy
passes.  In each pass the complement Grams B G B* are packed into byte keys,
and only the distinct ones are brought to a canonical form D = P G' P*
(_canonical): unit-norm vectors are split off one at a time, each diagonal
entry is scaled to the least element of its class modulo the norms of units,
and the entries are sorted; a remainder with no unit-norm vector (some 2-adic
blocks) is kept as it is.  P G' P* = D is
asserted, not assumed.  The last 1 x 1 entry [g] is copied, not split off:
a unit g would be split off by e_1 with q = g, a non-unit g kept, and either
way D ends in g with P unchanged, so a 1 x 1 form needs no probe or split.
The rows are grouped by (D, T / N(det P)) on one packed integer key, and
each group is counted once and multiplied by its size.

A binary class (r = 2), and at odd p every class, needs no basis, Gram
product or canonical form: [y; B] D [y; B]* = diag(q, B D B*) with
det [y; B] = +-1, so q det(B D B*) = det D, and the child of a row y has the
determinant g = det D / q.  Such a class is diagonal (at r = 2 the canonical
form splits off a unit entry and keeps a 1 x 1 remainder), so at r = 2 the
child is the 1 x 1 form [g], whose canonical form is [rep[g]], reached with
N(det P) = scale[g] (what _canonical returns for [g]).  At odd p every class
is a diagonal of units: diag(lam) is, and the child of a unit q has the unit
determinant g.  A unimodular form of rank >= 2 represents every unit (reduced
mod p it is a nondegenerate form over the residue ring, and Hensel's lemma
lifts the representation), so it splits off norm-1 vectors down to
diag(1, ..., 1, g) (Jacobowitz, Amer. J. Math. 84, 1962: such a form is fixed
by its rank and the norm class of its determinant), and scaling the last
coordinate by root[scale[g]] gives diag(1, ..., 1, rep[g]), again reached
with N(det P) = scale[g].  Every level of an n = 1 count is binary, and so
is every level below the top of an n = 2 count.

So the child, weight and sigma of a row of such a class depend on q = h(y, y)
only, and its rows are counted by value, not streamed: on diag(d), q =
sum_i d_i N(y_i), and the number of projective rows with first unit
coordinate i0 and value q is the cyclic convolution over Z/m of a point mass
at d_i0 (y_i0 = 1), the norm counts of the non-unit-norm elements scaled by
d_i for i < i0, and the full norm counts scaled by d_i for i > i0
(_Ring.rows).  The convolution of the scaled norm counts of every entry also
gives the representation numbers of a diagonal form, unit entries or not
(dist); only a remainder that is not diagonal is enumerated.  A diagonal form
is stored as the tuple of its entries, keyed by the bytes _packed gives its
matrix, so a class met by a stream and by a short level has one key.

The top form diag(lam), w = n + 1 entries, is not canonicalized (P = I, so
T = 1): its unit entries come first, and after them at most a diagonal of
non-units (-2 for M at p = 2), which has no unit-norm vector, so it already
has the layout that level and dist read; and as the only class of size w
its key is never compared with another.  The layout is asserted.

_Ring holds the package's only arithmetic over O/m.  Its tables of Z/m and
of the norm are lists of Python ints, and a short class reads nothing else,
so its counts are exact at any size.  numpy is read only by the streaming
level, _canonical and the enumerated remainder of dist, on coordinate pairs
(a, b) for a + b eps in int64 arrays, from arrays built on first read.  A
matrix product is one int64 product of the entries packed as a + b 2^20,
whose three fields are sums of r products of entries in [0, m); it and the
streamed int64 row weights are kept exact by _MAX_ROW_TABLE.

Work is metered in the partial assignments a row-by-row search settles,
computed per class rather than per prefix: the m^(2w) rows of the table,
then at each level with r >= 3 classes, for every first row, each later
class's size while the earlier classes all survive, plus the level below for
the rows whose classes all survive; two classes cost the product of their
sizes.  Class sizes are representation numbers of the complement forms.
Exceeding the budget raises BudgetExceeded, which deliberately distinguishes
"infeasible under this budget" from a zero count.

count_kernel counts the reduction kernels of the 2-adic densities by exact
elimination over Z/2^k, not by enumeration, so it needs no budget.  The
system splits into blocks that share no variable: for each pair i < j the two
rows of lam_j B_ij + lam_i conj(B_ji) = 0 read only a_ij, b_ij, a_ji, b_ji and
depend only on (lam_i, lam_j), and the diagonal rows lam_i (2 a_ii + t b_ii)
= 0 are tied together only by the two rows of Tr B = 0.  So the count is the
product of the blocks' counts, and with lam = (1, ..., 1, lam_w) it is
c(1, 1)^C(n, 2) c(1, lam_w)^n c_diag: three small systems, each eliminated
from its rows by a full scan.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .lie_form import lattice_diag
from .quadfield import FieldData, make_field
from .residue_ring import ResidueRing

DEFAULT_BUDGET = 10**9
# Hard cap on m^(2w), the number of rows of (O/m)^w, independent of the
# budget; the meter charges every one of them, and rings beyond it are
# refused before any table is built.  Every count has w >= 2, so the cap gives
# m^4 <= 3e7, a prime power m <= 73, and the largest r (m - 1)^2 it allows
# falls as w grows.  That is inside the int8 keys of _packed (m <= 127) and the
# fields of the packed product (2 r (m - 1)^2 < 2^20, asserted in _Ring.matmul),
# and it keeps the streaming level's int64 row weights below 2^63; the short
# classes count on Python ints and need no such bound.
_MAX_ROW_TABLE = 3 * 10**7
# Rows per numpy pass of a level, so that its temporaries stay small.
_CHUNK = 1 << 12


class BudgetExceeded(RuntimeError):
    """Enumeration refused: the node budget would be exceeded (not a zero count)."""


def default_budget() -> int:
    """The node budget: HMVOL_BUDGET if set (any finite number >= 0, so "2.5e9"
    works), else DEFAULT_BUDGET.  Anything else raises ValueError."""
    raw = os.environ.get("HMVOL_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(float(raw))
    except (ValueError, OverflowError):
        budget = None
    if budget is None or budget < 0:
        raise ValueError(f"HMVOL_BUDGET must be a finite number >= 0, got {raw!r}")
    return budget


@dataclass
class CountReport:
    count: int
    elapsed: float
    nodes: int
    keys: int  # (complement class, N(det)) pairs counted: len(_Search.counts)


class _Meter:
    def __init__(self, budget: int):
        self.budget = budget
        self.visited = 0

    def bump(self, k: int):
        self.visited += int(k)
        if self.visited > self.budget:
            raise BudgetExceeded(
                f"enumeration budget exceeded: {self.visited} > {self.budget} visited partial assignments")


class _Ring:
    """O/m: the tables of Z/m and of the norm, lists of Python ints, and the
    numpy arithmetic of the streaming level on int64 pairs (..., 2) holding
    (a, b) for a + b eps and matrices (..., rows, cols, 2).  Every numpy
    object is built on first read, which a count of short classes never makes."""

    def __init__(self, ring: ResidueRing):
        m = self.m = ring.modulus
        t, nu = self.t, self.nu = ring.trace_eps, ring.norm_eps
        self.unit = [math.gcd(a, m) == 1 for a in range(m)]
        self.inv = [pow(a, -1, m) if u else 0 for a, u in enumerate(self.unit)]
        self.norm_count = [0] * m
        for b in range(m):
            for a in range(m):
                self.norm_count[(a * a + t * a * b + nu * b * b) % m] += 1
        # the norm counts of the non-unit-norm elements and of {1}
        self.nonunit_count = [0 if u else c for u, c in zip(self.unit, self.norm_count)]
        self.one_count = [int(a == 1) for a in range(m)]
        # rep[g] is the least element of g N(units) for a unit g, and scale[g] the
        # norm of a unit taking g to it; non-units are left as they are
        unit_norms = [a for a, c in enumerate(self.norm_count) if c and self.unit[a]]
        self.rep = [min(g * u % m for u in unit_norms) if self.unit[g] else g for g in range(m)]
        self.scale = [r * i % m if i else 1 for r, i in zip(self.rep, self.inv)]
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

    def values(self, d, counts):
        """The ways sum_i d_i g_i takes each value of Z/m, g_i taking the value g
        in counts[i][g] ways: the exact cyclic convolution of the d_i-scaled
        counts, over their nonzero terms only."""
        m, out = self.m, {0: 1}
        for di, c in zip(d, counts):
            h, acc = [(di * g, k) for g, k in enumerate(c) if k], [0] * m
            for a, x in out.items():
                for b, y in h:
                    acc[(a + b) % m] += x * y
            out = {a: x for a, x in enumerate(acc) if x}
        return [out.get(a, 0) for a in range(m)]

    def rows(self, d, units):
        """rows[q] = #{y : h(y, y) = q} over level's projective rows y of diag(d):
        y_i0 = 1 for an i0 < units, non-unit norms before it, anything after."""
        return [sum(col) for col in zip(*(
            self.values(d, [self.nonunit_count] * i0 + [self.one_count]
                        + [self.norm_count] * (len(d) - 1 - i0)) for i0 in range(units)))]

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


def _product(blocks):
    """The rows (k, r, 2) of the Cartesian products of the element tables of
    each block, one block after the other, _CHUNK rows at a time."""
    sizes = [math.prod(map(len, tables)) for tables in blocks]
    total, r = sum(sizes), len(blocks[0])
    for lo in range(0, total, _CHUNK):
        out, start = np.empty((min(_CHUNK, total - lo), r, 2), dtype=np.int64), 0
        for tables, size in zip(blocks, sizes):
            a, b = max(lo, start), min(lo + len(out), start + size)
            if a < b:
                idx, seg = np.arange(a - start, b - start, dtype=np.int64), out[a - lo:b - lo]
                for pos in range(r - 1, -1, -1):
                    idx, digit = np.divmod(idx, len(tables[pos]))
                    seg[:, pos] = tables[pos][digit]
            start += size
        yield out


def _packed(X):
    """Each matrix of X (k, ...) as a byte-string key (k,) that sorts as its entries."""
    # the width is explicit, because a pass that kept no row has len(X) = 0
    b = X.astype(np.int8, order="C").reshape(len(X), math.prod(X.shape[1:]))
    return b.view(np.dtype((np.void, b.shape[1])))[:, 0]


def _complement(R: _Ring, G, v):
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


def _diag(values):
    """The diagonal form diag(values), (r, r, 2)."""
    return np.diag(values)[..., None] * np.array([1, 0])


def _canonical(R: _Ring, G):
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
        q, B = _complement(R, cur, v)
        P[live, s:] = R.matmul(np.concatenate([v[:, None], B], axis=1), P[live, s:])
        cur = R.matmul(R.matmul(B, cur), R.star(B))
        D[live, s, s, 0] = q
    D[live, r - 1, r - 1] = cur[:, 0, 0]
    diag = np.arange(r)
    d = D[:, diag, diag, 0]
    scale = R.arrays.scale[d]
    nd = np.ones(K, dtype=np.int64)
    for i in range(r):
        nd = nd * scale[:, i] % m
    P = R.mul(R.root[scale][:, :, None, :], P)
    order = np.argsort(np.where(R.arrays.unit[d], R.arrays.rep[d], m + diag), axis=1,
                       kind="stable")
    P = np.take_along_axis(P, order[:, :, None, None], axis=1)
    D[:, diag, diag, 0] = np.take_along_axis(R.arrays.rep[d], order, axis=1)
    assert (R.matmul(R.matmul(P, G), R.star(P)) == D).all(), "P G P* != D"
    return D, nd


def _diag_key(d) -> bytes:
    """The key _packed gives diag(d) as an (r, r, 2) matrix, for entries below 128."""
    r = len(d)
    key = bytearray(2 * r * r)
    key[::2 * r + 2] = d
    return bytes(key)


class _Search:
    """One count: the complement classes met, keyed by their canonical forms,
    with memo tables for their value distributions, levels, meter charges and
    counts.  A class of size r has the diagonal lam[w - r:].  A diagonal form
    is stored as the tuple of its entries, any other as its matrix."""

    def __init__(self, R: _Ring, lam, su: bool, meter: _Meter):
        self.R, self.su, self.meter = R, su, meter
        self.lam = tuple(l % R.m for l in lam)
        self.forms, self.dists, self.levels, self.charges, self.counts = {}, {}, {}, {}, {}

    def add(self, D) -> bytes:
        """The key of the form D, a tuple (diagonal) or an (r, r, 2) matrix."""
        if isinstance(D, tuple):
            key = _diag_key(D)
        else:
            key = _packed(D[None])[0].tobytes()
            d = tuple(key[::2 * len(D) + 2])
            D = d if key == _diag_key(d) else D
        self.forms.setdefault(key, D)
        return key

    def lams(self, key):
        return self.lam[len(self.lam) - len(self.forms[key]):]

    def dist(self, key):
        """dist[g] = #{y : y D y* = g}: the convolution of the norm counts of the
        diagonal entries and, past the unit entries of a form that is not
        diagonal, of its enumerated remainder."""
        if key not in self.dists:
            R, D = self.R, self.forms[key]
            if isinstance(D, tuple):
                scales, parts = D, [R.norm_count] * len(D)
            else:
                d = np.diagonal(D[..., 0]).tolist()
                k = sum(R.unit[g] for g in d)
                raw, h = D[k:, k:], np.zeros(R.m, dtype=np.int64)
                for y in _product([[R.elems] * len(raw)]):
                    vals = R.matmul(R.matmul(y[:, None], raw), R.conj(y)[..., None, :])
                    h += np.bincount(vals[:, 0, 0, 0], minlength=R.m)
                scales, parts = d[:k] + [1], [R.norm_count] * k + [h.tolist()]
            self.dists[key] = R.values(scales, parts)
        return self.dists[key]

    def reps(self, key):
        """The sizes of the key's classes: representation numbers of its lams."""
        dist = self.dist(key)
        return [dist[l] for l in self.lams(key)]

    def level(self, key):
        """child key -> {sigma: rows} over the rows x with x D x* = lams[0], where
        a row's child is the canonical form of its complement, reached by P, and
        the child's T is T * sigma, sigma = 1 / (N(s) N(det P)) (0 for U).  A
        binary class, and every class at odd p, is diagonal and reads its
        children off det D / q, with its rows counted by value (R.rows)."""
        if key in self.levels:
            return self.levels[key]
        R, D = self.R, self.forms[key]
        m, r, lam0 = R.m, len(D), self.lams(key)[0]
        groups = {}
        # a unit-norm row has a unit coordinate among the unit diagonal entries,
        # since the remainder after them has no unit-norm vector
        d = D if isinstance(D, tuple) else np.diagonal(D[..., 0]).tolist()
        units = sum(R.unit[g] for g in d)
        if r == 2 or m % 2 == 1:
            assert isinstance(D, tuple) and (r == 2 or units == r), \
                "a short class is not diagonal, or at odd p not a diagonal of units"
            # a row's child, weight and sigma depend on q = h(y, y) only: one
            # pass over the values q, each weighted by its number of rows
            det, sizes = math.prod(D) % m, {}
            for q, rows in enumerate(R.rows(D, units)):
                ns = lam0 * R.inv[q] % m  # N(s) for x = s y
                weight = R.norm_count[ns] * rows if R.unit[q] else 0
                if weight:
                    # child diag(1, ..., 1, rep[g]), g = det D / q, N(det P) = scale[g]
                    g = det * R.inv[q] % m
                    pair = R.rep[g], R.inv[ns * R.scale[g] % m] if self.su else 0
                    sizes[pair] = sizes.get(pair, 0) + weight
            for (c, sigma), size in sorted(sizes.items()):
                groups.setdefault(self.add((1,) * (r - 2) + (c,)), {})[sigma] = size
            total = sum(sizes.values())
        else:
            total, A, D = 0, R.arrays, _diag(D) if isinstance(D, tuple) else D
            for y in _product([[R.nonunits] * k0 + [R.one] + [R.elems] * (r - 1 - k0)
                               for k0 in range(units)]):
                q, B = _complement(R, D, y)
                ns = lam0 * A.inv[q] % m  # N(s) for x = s y
                weight = np.where(A.unit[q], A.norm_count[ns], 0)
                keep = weight > 0
                ns, weight = ns[keep], weight[keep]
                # each distinct complement Gram is brought to its canonical form once
                B = B[keep]
                G = R.matmul(R.matmul(B, D), R.star(B))
                _, first, gram = np.unique(_packed(G), return_index=True, return_inverse=True)
                child, ndp = _canonical(R, G[first])
                _, first, cls = np.unique(_packed(child), return_index=True, return_inverse=True)
                keys = [self.add(form) for form in child[first]]  # copies: no view pins child
                cls, ndp = cls[gram], ndp[gram]
                sigma = A.inv[ns * ndp % m] if self.su else 0
                pairs, inverse = np.unique(cls * m + sigma, return_inverse=True)
                sums = np.zeros(len(pairs), dtype=np.int64)
                np.add.at(sums, inverse, weight)
                for pair, size in zip(pairs.tolist(), sums.tolist()):
                    c, s = divmod(pair, m)
                    sigmas = groups.setdefault(keys[c], {})
                    sigmas[s] = sigmas.get(s, 0) + size
                total += int(weight.sum())
        assert total == self.reps(key)[0], "projective rows missed a unit-norm row"
        self.levels[key] = groups
        return groups

    def charge(self, key, mult: int):
        """Bump mult x the partial assignments a row-by-row search settles below
        the class `key`: c0 c1 for two classes; with more, for each first row,
        each later class's size c_k while the earlier classes of its complement
        all survive, and the level below when they all do."""
        if key in self.charges:
            self.meter.bump(mult * self.charges[key])
            return
        c = self.reps(key)
        # every first row is charged the next class: bump it before the level is built
        self.meter.bump(mult * c[0] * c[1])
        total = c[0] * c[1]
        if len(c) > 2:
            own, live = 0, []
            for child, sigmas in self.level(key).items():
                rows, kept = sum(sigmas.values()), self.reps(child)
                dead = [k for k, size in enumerate(kept) if size == 0]
                own += rows * sum(c[1:dead[0] + 2] if dead else c[1:])
                if not dead:
                    live.append((child, rows))
            self.meter.bump(mult * (own - total))
            total = own
            for child, rows in live:
                self.charge(child, mult * rows)
                total += rows * self.charges[child]
        self.charges[key] = total

    def count(self, key, T: int) -> int:
        """count(D, lams, t) for N(t) = T (SU); T is unused for U."""
        if (key, T) not in self.counts:
            D, lam = self.forms[key], self.lams(key)
            if len(D) == 1:
                value = (T * D[0] % self.R.m == lam[0]) if self.su else self.reps(key)[0]
            else:
                value = sum(size * self.count(child, T * sigma % self.R.m)
                            for child, sigmas in self.level(key).items()
                            if min(self.reps(child)) > 0 for sigma, size in sigmas.items())
            self.counts[(key, T)] = int(value)
        return self.counts[(key, T)]

    def run(self) -> int:
        # diag(lam) is the top form as it stands (P = I, so T = 1 for SU): its
        # unit entries come first, and a diagonal of non-units has no unit-norm
        # vector; no other class has size w, so its key meets no other key
        unit = [self.R.unit[l] for l in self.lam]
        assert unit == sorted(unit, reverse=True), f"a unit of {self.lam} after a non-unit"
        key = self.add(self.lam)
        self.charge(key, 1)
        return self.count(key, 1 if self.su else 0)


def count_group(lattice: str, n: int, ring: ResidueRing, group: str = "SU",
                budget: int | None = None) -> CountReport:
    """Exact order of U/SU(Lam, O_K/p^N O_K) for Lam = diag(1,...,1,-1) or (1,...,1,-2)."""
    if group not in ("U", "SU"):
        raise ValueError(f"group must be 'U' or 'SU', got {group!r}")
    lam = lattice_diag(lattice, n)
    budget = default_budget() if budget is None else budget
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    t0 = time.monotonic()
    power = 2 * len(lam) * ring.exponent
    # p >= 2, so a power of 2 past the cap refuses before p^power is formed
    if power >= _MAX_ROW_TABLE.bit_length() or ring.p**power > _MAX_ROW_TABLE:
        # stated as a power: a decimal row count can pass Python's int -> str limit
        raise BudgetExceeded(f"candidate row table of {ring.p}^{power}"
                             " rows does not fit the enumeration budget")
    meter = _Meter(budget)
    meter.bump(ring.p**power)
    search = _Search(_Ring(ring), lam, group == "SU", meter)
    count = search.run()
    return CountReport(count=count, elapsed=time.monotonic() - t0, nodes=meter.visited,
                       keys=len(search.counts))


# The 2-adic density of each form is #SU over O/2^N with the kernel of the
# last certified reduction counted over O/2^k: lattice -> (N, k).
_TWO_ADIC_LEVELS = {"L": (3, 1), "M": (5, 2)}


def _solutions(rows: list[dict[int, int]], m: int, free: int) -> int:
    """Solutions over Z/m, m = 2^k, of the Z-linear rows {variable: coefficient}
    in `free` variables, by elimination: a pivot u*2^v of least 2-adic valuation,
    found by a scan of every row, clears its column from the other rows and
    leaves 2^v solutions for its variable; every variable without a pivot is
    free."""
    rows = [{var: c % m for var, c in r.items() if c % m} for r in rows]
    count = 1
    while any(rows):
        # c & -c is 2^v for an entry of valuation v
        low, k, col = min((c & -c, k, var) for k, r in enumerate(rows) for var, c in r.items())
        pivot = rows.pop(k)
        inv = pow(pivot[col] // low, -1, m)
        for r in rows:
            if col in r:
                f = r[col] // low * inv
                for var, c in pivot.items():
                    r[var] = (r.get(var, 0) - f * c) % m
                    if not r[var]:
                        del r[var]
        count *= low
        free -= 1
    return count * m**free


def count_kernel(lattice: str, n: int, field: FieldData | None = None) -> int:
    """Solutions B, B_ij = a_ij + b_ij*eps, of the linearized reduction-kernel
    system {-B.Lam = Lam.conj(B)', Tr B = 0} over O/2O (L) or O/4O (M), counted
    block by block (see the module docstring).  For 2-ramified fields this is
    2^(n^2+3n) for L and 2^(2n^2+5n) for M."""
    field = make_field(5) if field is None else field
    lam = lattice_diag(lattice, n)
    m, w = 2 ** _TWO_ADIC_LEVELS[lattice][1], n + 1
    t = field.trace_eps % m

    def pair(li: int, lj: int) -> int:
        # lam_j B_ij + lam_i conj(B_ji) = 0 with conj(a + b eps) = (a + t b) - b eps,
        # in a_ij, b_ij, a_ji, b_ji (variables 0..3); equation (j, i) is its conjugate
        return _solutions([{0: lj, 2: li, 3: li * t}, {1: lj, 3: -li}], m, 4)

    # a_ii is variable 2i and b_ii the next
    diag = [{2 * i + s: 1 for i in range(w)} for s in (0, 1)]  # Tr B = 0
    diag += [{2 * i: 2 * lam[i], 2 * i + 1: lam[i] * t} for i in range(w)]
    count = pair(1, lam[-1]) ** n * _solutions(diag, m, 2 * w)
    # the C(n, 2) pairs i < j < n have lam_i = lam_j = 1; at n = 1 there are
    # none, and that block is not eliminated at all
    return count * pair(1, 1) ** math.comb(n, 2) if n > 1 else count


def oracle_tau_p(lattice: str, n: int, field: FieldData, p: int,
                 budget: int | None = None) -> Fraction:
    """Local density from raw counts: #SU(O/pO)/p^dim for odd p; at p = 2 the
    kernel-corrected count #SU(O/2^3)/(2^(2 dim) ker) for L and
    #SU(O/2^5)/(2^(3 dim) ker) for M, with the kernel of the last certified
    reduction counted over O/2 resp. O/4."""
    dim = (n + 1) ** 2 - 1
    if p != 2:
        rep = count_group(lattice, n, ResidueRing(field, p, 1), "SU", budget=budget)
        return Fraction(rep.count, p**dim)
    level, k = _TWO_ADIC_LEVELS[lattice]
    rep = count_group(lattice, n, ResidueRing(field, 2, level), "SU", budget=budget)
    return Fraction(rep.count, 2**((level - k) * dim) * count_kernel(lattice, n, field=field))


def stabilization_check(lattice: str, n: int, field: FieldData, p: int,
                        level: int = 1, budget: int | None = None) -> bool:
    """True iff #U(O/p^(level+1)) = p^((n+1)^2) #U(O/p^level), the Hensel-driven
    stabilization that turns the local density into a finite computation."""
    lo = count_group(lattice, n, ResidueRing(field, p, level), "U", budget=budget)
    hi = count_group(lattice, n, ResidueRing(field, p, level + 1), "U", budget=budget)
    return hi.count == p**((n + 1) ** 2) * lo.count
