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
counts the s of each by its norm.  The complement Gram B G B* of every row of a level is built in
one numpy pass and brought to a canonical form D = P G' P* (_canonical):
unit-norm vectors are split off one at a time, each diagonal entry is scaled
to the least element of its class modulo the norms of units, and the entries
are sorted; a remainder with no unit-norm vector (some 2-adic blocks) is kept
as it is.  P G' P* = D is asserted, not assumed.  The rows are grouped by
(D, T / N(det P)) with np.unique, and each group is counted once and
multiplied by its size.  Elements of O/m are coordinate pairs (a, b) for
a + b eps, and _Ring holds the package's only arithmetic over O/m.

Work is metered in the partial assignments a row-by-row search settles,
computed per class rather than per prefix: the m^(2w) rows of the table,
then at each level with r >= 3 classes, for every first row, each later
class's size while the earlier classes all survive, plus the level below for
the rows whose classes all survive; two classes cost the product of their
sizes.  Class sizes are representation numbers of the complement forms.
Exceeding the budget raises BudgetExceeded, which deliberately distinguishes
"infeasible under this budget" from a zero count.

count_kernel counts the reduction kernels of the 2-adic densities by exact
elimination over Z/2^k, not by enumeration, so it needs no budget.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lie_form import lattice_diag
from .quadfield import FieldData, make_field
from .residue_ring import ResidueRing

DEFAULT_BUDGET = 10**9
# Hard cap on m^(2w), the number of rows of (O/m)^w, independent of the
# budget; the meter charges every one of them, and rings beyond it are
# refused before any table is built.
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
    ring: ResidueRing
    lattice: str
    n: int
    group: str
    count: int
    elapsed: float
    nodes: int
    keys: int  # distinct complement classes counted


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
    """O/m on coordinate pairs: int64 arrays (..., 2) holding (a, b) for
    a + b eps, and matrices (..., rows, cols, 2), with the tables of Z/m and
    of the norm the search reads."""

    def __init__(self, ring: ResidueRing):
        m = self.m = ring.modulus
        self.t, self.nu = ring.trace_eps, ring.norm_eps
        a = np.arange(m)
        self.unit = np.gcd(a, m) == 1
        self.inv = np.array([pow(int(x), -1, m) if u else 0 for x, u in zip(a, self.unit)],
                            dtype=np.int64)
        idx = np.arange(m * m, dtype=np.int64)
        self.elems = np.stack([idx % m, idx // m], axis=-1)
        norms = self.norm(self.elems)
        self.norm_count = np.bincount(norms, minlength=m)
        self.nonunits = self.elems[~self.unit[norms]]
        self.one = np.array([[1 % m, 0]], dtype=np.int64)
        # root[g] is an element of norm g, for every norm g that occurs (root[1] = 1)
        self.root = np.zeros((m, 2), dtype=np.int64)
        values, first = np.unique(norms, return_index=True)
        self.root[values] = self.elems[first]
        # rep[g] is the least element of g N(units) for a unit g, and scale[g] the
        # norm of a unit taking g to it; non-units are left as they are
        unit_norms = a[self.unit & (self.norm_count > 0)]
        self.rep = np.where(self.unit, (a[:, None] * unit_norms % m).min(axis=1), a)
        self.scale = np.where(self.unit, self.rep * self.inv % m, 1)
        self._probes = {}

    def mul(self, x, y):
        x0, x1, y0, y1 = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
        return np.stack([x0 * y0 - self.nu * x1 * y1,
                         x0 * y1 + x1 * y0 + self.t * x1 * y1], axis=-1) % self.m

    def conj(self, x):
        # conj(a + b eps) = (a + t b) - b eps
        return np.stack([x[..., 0] + self.t * x[..., 1], -x[..., 1]], axis=-1) % self.m

    def norm(self, x):
        a, b = x[..., 0], x[..., 1]
        return (a * a + self.t * a * b + self.nu * b * b) % self.m

    def matmul(self, X, Y):
        X0, X1, Y0, Y1 = X[..., 0], X[..., 1], Y[..., 0], Y[..., 1]
        X1Y1 = X1 @ Y1
        return np.stack([X0 @ Y0 - self.nu * X1Y1,
                         X0 @ Y1 + X1 @ Y0 + self.t * X1Y1], axis=-1) % self.m

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
            eye = np.zeros((r, r, 2), dtype=np.int64)
            eye[np.arange(r), np.arange(r), 0] = 1
            rows = list(eye)
            for i in range(r):
                for j in range(i + 1, r):
                    rows.append(eye[i] + eye[j])
                    rows.append(eye[i] + self.mul(np.array([0, 1]), eye[j]))
            V = np.stack(rows) % self.m
            self._probes[r] = V, self.mul(V[:, :, None], self.conj(V)[:, None, :])
        return self._probes[r]


def _product(tables):
    """The rows (k, len(tables), 2) of the Cartesian product of the element
    tables, _CHUNK rows at a time."""
    sizes = [len(t) for t in tables]
    total = math.prod(sizes)
    for lo in range(0, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        out = np.empty((idx.size, len(tables), 2), dtype=np.int64)
        for pos in range(len(tables) - 1, -1, -1):
            idx, digit = np.divmod(idx, sizes[pos])
            out[:, pos] = tables[pos][digit]
        yield out


def _complement(R: _Ring, G, v):
    """For rows v (..., r, 2) of the Hermitian form G (..., r, r, 2) whose first
    unit coordinate v_i0 is 1: q = h(v, v) and, where q is a unit, the basis
    B (..., r - 1, r, 2) of v^⊥ with B_j = e_j - (h(e_j, v) / q) v, j != i0;
    det [v; B] = +-v_i0 = +-1, so no determinant is carried."""
    m, r = R.m, v.shape[-2]
    f = R.matmul(G, R.conj(v)[..., None, :])[..., 0, :]
    q = R.matmul(v[..., None, :, :], f[..., None, :])[..., 0, 0, 0]
    i0 = np.argmax(R.unit[R.norm(v)], axis=-1)
    M = np.zeros(f.shape[:-2] + (r, r, 2), dtype=np.int64)
    M[..., np.arange(r), np.arange(r), 0] = 1
    M = (M - R.mul((f * R.inv[q][..., None, None])[..., :, None, :], v[..., None, :, :])) % m
    keep = np.arange(r - 1) + (np.arange(r - 1) >= i0[..., None])
    return q, np.take_along_axis(M, keep[..., None, None], axis=-3)


def _canonical(R: _Ring, G):
    """The canonical forms D (k, r, r, 2) of the Hermitian forms G (k, r, r, 2),
    with N(det P) for the P that gives D = P G P*: unit-norm vectors are split
    off one at a time, their norms scaled to rep and sorted; the remainder
    that has none is kept as it is, after them."""
    m, (K, r) = R.m, G.shape[:2]
    D = np.zeros_like(G)
    P = np.zeros_like(G)
    P[:, np.arange(r), np.arange(r), 0] = 1
    live, cur = np.arange(K), G
    for s in range(r):
        V, O = R.probes(r - s)
        vals = (np.einsum("pab,kab->kp", O[..., 0], cur[..., 0])
                - R.nu * np.einsum("pab,kab->kp", O[..., 1], cur[..., 1])) % m
        ok = R.unit[vals]
        found = ok.any(axis=1)
        D[live[~found], s:, s:] = cur[~found]
        live, cur, v = live[found], cur[found], V[ok.argmax(axis=1)[found]]
        if not live.size:
            break
        q, B = _complement(R, cur, v)
        P[live, s:] = R.matmul(np.concatenate([v[:, None], B], axis=1), P[live, s:])
        cur = R.matmul(R.matmul(B, cur), R.star(B))
        D[live, s, s, 0] = q
    diag = np.arange(r)
    d = D[:, diag, diag, 0]
    unit = R.unit[d]
    scale = np.where(unit, R.scale[d], 1)
    nd = np.ones(K, dtype=np.int64)
    for i in range(r):
        nd = nd * scale[:, i] % m
    P = R.mul(R.root[scale][:, :, None, :], P)
    d = np.where(unit, R.rep[d], d)
    order = np.argsort(np.where(unit, d, m + diag), axis=1, kind="stable")
    P = np.take_along_axis(P, order[:, :, None, None], axis=1)
    D[:, diag, diag, 0] = np.take_along_axis(d, order, axis=1)
    assert (R.matmul(R.matmul(P, G), R.star(P)) == D).all(), "P G P* != D"
    return D, nd


class _Search:
    """One count: the complement classes met, keyed by their canonical forms,
    with memo tables for their value distributions, levels, meter charges and
    counts.  A class of size r has the diagonal lam[w - r:]."""

    def __init__(self, R: _Ring, lam, su: bool, meter: _Meter):
        self.R, self.su, self.meter = R, su, meter
        self.lam = tuple(l % R.m for l in lam)
        self.forms, self.dists, self.levels, self.charges, self.counts = {}, {}, {}, {}, {}

    def add(self, D) -> bytes:
        key = D.astype(np.int8).tobytes()  # m <= 74 under the row-table cap
        self.forms.setdefault(key, D)
        return key

    def lams(self, key):
        return self.lam[len(self.lam) - self.forms[key].shape[0]:]

    def dist(self, key):
        """dist[g] = #{y : y D y* = g}: the convolution of the norm counts of the
        unit diagonal entries and of the enumerated remainder."""
        if key not in self.dists:
            R, D = self.R, self.forms[key]
            m, a = R.m, np.arange(R.m)
            d = np.diagonal(D[..., 0])
            units = int(R.unit[d].sum())
            parts = [R.norm_count[a * R.inv[g] % m] for g in d[:units]]
            if units < len(d):
                raw, h = D[units:, units:], np.zeros(m, dtype=np.int64)
                for y in _product([R.elems] * len(raw)):
                    vals = R.matmul(R.matmul(y[:, None], raw), R.conj(y)[..., None, :])
                    h += np.bincount(vals[:, 0, 0, 0], minlength=m)
                parts.append(h)
            dist = np.zeros(m, dtype=np.int64)
            dist[0] = 1
            for g in parts:
                dist = g[(a[:, None] - a) % m] @ dist
            self.dists[key] = dist
        return self.dists[key]

    def reps(self, key):
        """The sizes of the key's classes: representation numbers of its lams."""
        dist = self.dist(key)
        return [int(dist[l]) for l in self.lams(key)]

    def level(self, key):
        """child key -> (rows, {sigma: rows}) over the rows x with x D x* = lams[0],
        where a row's child is the canonical form of its complement, reached by
        P, and the child's T is T * sigma, sigma = 1 / (N(s) N(det P))."""
        if key in self.levels:
            return self.levels[key]
        R, D = self.R, self.forms[key]
        m, r, lam0 = R.m, D.shape[0], self.lams(key)[0]
        groups, total = {}, 0
        # a unit-norm row has a unit coordinate among the unit diagonal entries,
        # since the remainder after them has no unit-norm vector
        for k0 in range(int(R.unit[np.diagonal(D[..., 0])].sum())):
            for y in _product([R.nonunits] * k0 + [R.one] + [R.elems] * (r - 1 - k0)):
                q, B = _complement(R, D, y)
                ns = lam0 * R.inv[q] % m  # N(s) for x = s y
                weight = np.where(R.unit[q], R.norm_count[ns], 0)
                keep = weight > 0
                if not keep.any():
                    continue
                B, ns, weight = B[keep], ns[keep], weight[keep]
                child, ndp = _canonical(R, R.matmul(R.matmul(B, D), R.star(B)))
                sigma = R.inv[ns * ndp % m] if self.su else np.zeros_like(ns)
                rows = np.concatenate([child.reshape(len(child), -1), sigma[:, None]], axis=1)
                uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
                sums = np.zeros(len(uniq), dtype=np.int64)
                np.add.at(sums, inverse.ravel(), weight)
                for row, size in zip(uniq, sums.tolist()):
                    entry = groups.setdefault(self.add(row[:-1].reshape(r - 1, r - 1, 2)), [0, {}])
                    entry[0] += size
                    entry[1][int(row[-1])] = entry[1].get(int(row[-1]), 0) + size
                total += int(weight.sum())
        assert total == self.reps(key)[0], "projective rows missed a unit-norm row"
        self.levels[key] = groups
        return groups

    def live(self, key) -> bool:
        return min(self.reps(key)) > 0

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
            for child, (rows, _) in self.level(key).items():
                kept = self.reps(child)
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
            if D.shape[0] == 1:
                value = (T * int(D[0, 0, 0]) % self.R.m == lam[0]) if self.su \
                    else self.reps(key)[0]
            else:
                value = 0
                for child, (rows, sigmas) in self.level(key).items():
                    if not self.live(child):
                        continue
                    if self.su:
                        value += sum(size * self.count(child, T * sigma % self.R.m)
                                     for sigma, size in sigmas.items())
                    else:
                        value += rows * self.count(child, T)
            self.counts[(key, T)] = int(value)
        return self.counts[(key, T)]

    def run(self) -> int:
        w = len(self.lam)
        Lam = np.zeros((1, w, w, 2), dtype=np.int64)
        Lam[0, np.arange(w), np.arange(w), 0] = self.lam
        D, nd = _canonical(self.R, Lam)
        key = self.add(D[0])
        self.charge(key, 1)
        return self.count(key, int(self.R.inv[nd[0]]) if self.su else 0)


def count_group(lattice: str, n: int, ring: ResidueRing, group: str = "SU",
                budget: int | None = None) -> CountReport:
    """Exact order of U/SU(Lam, O_K/p^N O_K) for Lam = diag(1,...,1,-1) or (1,...,1,-2)."""
    if group not in ("U", "SU"):
        raise ValueError(f"group must be 'U' or 'SU', got {group!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = lattice_diag(lattice, n)
    budget = default_budget() if budget is None else budget
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    t0 = time.monotonic()
    n_rows = ring.modulus ** (2 * len(lam))
    if n_rows > _MAX_ROW_TABLE:
        # stated as a power: a decimal n_rows can pass Python's int -> str limit
        raise BudgetExceeded(f"candidate row table of {ring.p}^{2 * len(lam) * ring.exponent}"
                             " rows does not fit the enumeration budget")
    meter = _Meter(budget)
    meter.bump(n_rows)
    search = _Search(_Ring(ring), lam, group == "SU", meter)
    count = search.run()
    return CountReport(ring=ring, lattice=lattice, n=n, group=group, count=count,
                       elapsed=time.monotonic() - t0, nodes=meter.visited,
                       keys=len(search.counts))


_KERNEL_LEVEL = {"L": 2, "M": 4}


def count_kernel(lattice: str, n: int, field: FieldData | None = None) -> int:
    """Solutions B of the linearized reduction-kernel system {-B.Lam = Lam.conj(B)',
    Tr B = 0} over O/2O (L) or O/4O (M).  For 2-ramified fields this is
    2^(n^2+3n) for L and 2^(2n^2+5n) for M.

    The system is Z-linear in the coordinates of B_ij = a_ij + b_ij*eps, so its
    solutions over Z/m, m = 2^k, are counted by elimination: a pivot u*2^v of
    least 2-adic valuation clears its column from the other equations and leaves
    2^v solutions for its variable; every variable without a pivot is free."""
    if n < 1:
        raise ValueError("n must be >= 1")
    field = make_field(5) if field is None else field
    lam = lattice_diag(lattice, n)
    m, w = _KERNEL_LEVEL[lattice], n + 1
    t = field.trace_eps % m
    # Sparse rows {variable: coefficient}, a_ij being variable 2(w i + j) and b_ij
    # the next.  Equation (i, j) is lam_j B_ij + lam_i conj(B_ji) = 0 with
    # conj(a + b eps) = (a + t b) - b eps; equation (j, i) is its conjugate, so
    # i <= j suffices, and on the diagonal only lam_i (2 a_ii + t b_ii) = 0 remains.
    rows = [{2 * (w + 1) * i + s: 1 for i in range(w)} for s in (0, 1)]  # Tr B = 0
    for i in range(w):
        rows.append({2 * (w + 1) * i: 2 * lam[i], 2 * (w + 1) * i + 1: lam[i] * t})
        for j in range(i + 1, w):
            ij, ji = 2 * (w * i + j), 2 * (w * j + i)
            rows.append({ij: lam[j], ji: lam[i], ji + 1: lam[i] * t})
            rows.append({ij + 1: lam[j], ji + 1: -lam[i]})
    rows = [{var: c % m for var, c in r.items() if c % m} for r in rows]
    count, free = 1, 2 * w * w
    while any(rows):
        v, k, col = min(((c & -c).bit_length() - 1, k, var)
                        for k, r in enumerate(rows) for var, c in r.items())
        pivot = rows.pop(k)
        inv = pow(pivot[col] >> v, -1, m)
        for r in rows:
            if col in r:
                f = (r[col] >> v) * inv
                for var, c in pivot.items():
                    r[var] = (r.get(var, 0) - f * c) % m
                    if not r[var]:
                        del r[var]
        count *= 2**v
        free -= 1
    return count * m**free


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
    level, power = (3, 2) if lattice == "L" else (5, 3)
    rep = count_group(lattice, n, ResidueRing(field, 2, level), "SU", budget=budget)
    return Fraction(rep.count, 2**(power * dim) * count_kernel(lattice, n, field=field))


def stabilization_check(lattice: str, n: int, field: FieldData, p: int,
                        level: int = 1, budget: int | None = None) -> bool:
    """True iff #U(O/p^(level+1)) = p^((n+1)^2) #U(O/p^level), the Hensel-driven
    stabilization that turns the local density into a finite computation."""
    lo = count_group(lattice, n, ResidueRing(field, p, level), "U", budget=budget)
    hi = count_group(lattice, n, ResidueRing(field, p, level + 1), "U", budget=budget)
    return hi.count == p**((n + 1) ** 2) * lo.count
