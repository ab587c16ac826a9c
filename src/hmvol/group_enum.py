"""Brute-force counting of (special) unitary groups over residue rings.

Matrices A with A.Lam.conj(A)' = Lam (and det A = 1 for the special count)
are enumerated row by row: a candidate k-th row must have the prescribed
Hermitian self-pairing Lam_kk and pair to zero against every chosen row.
The last row is not searched for: the rows orthogonal to a prefix are the
multiples c v of one vector v (_Engine.complement), so the completions of a
prefix are counted from h(v, v) and det [prefix; v].

Rows are stored as real coordinate planes: the row (x_0, ..., x_{w-1}) with
x_i = a_i + b_i*eps over O/m, m = p^N, is the vector (a_0, b_0, ..., a_{w-1},
b_{w-1}) with entries in [0, m).  The pairing h(u, v) = sum lam_i u_i
conj(v_i) and the determinant sum_i cof_i v_i are Z/m-bilinear in these
coordinates, so fixing v turns either into a (2w, 2) integer form matrix.
Every level takes a block of its rows at a time and filters each remaining
class against their stacked forms in one float32 product.  A pairing is zero
when both entries of the product are divisible by m, tested as
H == m*rint(H/m), exact while 2w m^2 < 2^22 (_exact_in_float32), which the
cap on the row table guarantees.  Cofactors, complements and norms are
computed in int64.  These kernels are the package's only arithmetic over O/m.

Work is metered in the partial assignments a row-by-row search settles: the
rows each filter examines, and na x nb for each prefix whose last two
classes both survive, although their pairs are settled through the
complement line.  Exceeding the budget raises BudgetExceeded, which
deliberately distinguishes "infeasible under this budget" from a zero count.

count_kernel counts the reduction kernels of the 2-adic densities by exact
elimination over Z/2^k, not by enumeration, so it needs no budget.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import is_prime
from .lie_form import lattice_diag
from .quadfield import FieldData, make_field
from .residue_ring import ResidueRing

DEFAULT_BUDGET = 10**9
# Hard cap on the size of the candidate row table, independent of the budget;
# beyond this the table itself does not fit comfortably in memory.
_MAX_ROW_TABLE = 3 * 10**7
# Cells per product of a blocked level.  Small enough that BLAS runs these
# thin (inner dimension 2w) products on the calling thread: past about 1e6
# multiply-adds OpenBLAS splits them over threads, which made them 20-100
# times slower per cell on a 2-CPU host.
_CHUNK_CELLS = 1 << 15
# Prefixes per batch of complements at the level above the last row.
_PREFIX_BATCH = 1 << 11


class BudgetExceeded(RuntimeError):
    """Enumeration refused: the node budget would be exceeded (not a zero count)."""


def default_budget() -> int:
    """The node budget: HMVOL_BUDGET if set (any finite number, so "2.5e9"
    works), else DEFAULT_BUDGET.  Anything else raises ValueError."""
    raw = os.environ.get("HMVOL_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        return int(float(raw))
    except (ValueError, OverflowError):
        raise ValueError(f"HMVOL_BUDGET must be a finite number, got {raw!r}") from None


@dataclass
class CountReport:
    ring: ResidueRing
    lattice: str
    n: int
    group: str
    count: int
    elapsed: float
    nodes: int


class _Meter:
    def __init__(self, budget: int):
        self.budget = budget
        self.visited = 0

    def bump(self, k: int):
        self.visited += int(k)
        if self.visited > self.budget:
            raise BudgetExceeded(
                f"enumeration budget exceeded: {self.visited} > {self.budget} visited partial assignments")


class _Engine:
    """Z/m-bilinear form matrices over O/p^N for rows stored as coordinate planes."""

    def __init__(self, m: int, t: int, nu: int, lam: tuple[int, ...], su: bool):
        self.m = m
        self.t = t % m
        self.nu = nu % m
        self.lam = tuple(l % m for l in lam)
        self.su = su
        self.w = len(lam)
        self.inv_m = np.float32(1 / m)
        # pi_i = prod_(j != i) lam_j weights the complement line of a prefix
        self.pi = np.array([math.prod(self.lam[:i] + self.lam[i + 1:]) % m
                            for i in range(self.w)], dtype=np.int64)

    @functools.cached_property
    def norm_hits(self):
        """norm_hits[g] = #{c in O/m : N(c) g = lam_w}, from the norms of the m^2
        elements c.  Built on first use, after the row table cap has bounded m."""
        m = self.m
        per_norm = np.bincount(self.norm(np.stack(np.divmod(np.arange(m * m), m), axis=-1)),
                               minlength=m)
        g, k = np.divmod(np.arange(m * m), m)
        return ((g * k - self.lam[-1]) % m == 0).reshape(m, m) @ per_norm

    def norm(self, z):
        """N(z) = z conj(z) of plane elements z (..., 2), a scalar mod m."""
        a, b = z[..., 0], z[..., 1]
        return (a * a + self.t * a * b + self.nu * b * b) % self.m

    def selfnorm(self, rows):
        """Hermitian self-pairing sum(lam_i |v_i|^2) of plane rows (..., 2w), a scalar mod m."""
        acc = np.zeros(rows.shape[:-1], dtype=np.int64)
        for i in range(self.w):
            acc += self.lam[i] * self.norm(rows[..., 2 * i:2 * i + 2].astype(np.int64))
        return acc % self.m

    def complement(self, cof):
        """The rows orthogonal to a prefix R (w - 1 rows, R Lam R* diagonal with
        unit entries) are the c v, c in O/m, with c -> c v one-to-one, for
        v = conj(pi * cof), cof (..., 2w) being R's last-row cofactors as any
        integers: h(r, v) = det(Lam) det [R; r] = 0 for each row r of R, and by
        Cauchy-Binet sum pi_i N(cof_i) = det(R Lam R*), a unit.  Returns
        g = h(v, v) and delta = det [R; v]; for L and M, g = lam_w and delta = 1."""
        u = cof.reshape(cof.shape[:-1] + (self.w, 2)) * self.pi[:, None]
        v = np.stack([u[..., 0] + self.t * u[..., 1], -u[..., 1]], axis=-1) % self.m
        v = v.reshape(cof.shape)
        delta = np.einsum("...k,...kc->...c", cof, self.mul_form(v)) % self.m
        return self.selfnorm(v), delta

    def pair_form(self, V):
        """Form matrices of h(., v) for plane rows V (..., 2w): integer (..., 2w, 2)
        arrays F with planes(u) @ F = the two coordinates of h(u, v) mod m."""
        V = V.astype(np.int64)
        c, d = V[..., 0::2], V[..., 1::2]
        lam = np.array(self.lam, dtype=np.int64)
        F = np.empty(V.shape + (2,), dtype=np.int64)
        # u_i conj(v_i) with conj(c + d eps) = (c + t d) - d eps and eps^2 = t eps - nu
        F[..., 0::2, 0] = lam * (c + self.t * d)
        F[..., 0::2, 1] = -lam * d
        F[..., 1::2, 0] = lam * self.nu * d
        F[..., 1::2, 1] = lam * c
        return F % self.m

    def mul_form(self, V):
        """Form matrices of x -> sum_i x_i v_i for plane rows V (..., 2w): integer
        (..., 2w, 2) arrays F with planes(x) @ F = the two coordinates of the sum mod m."""
        V = V.astype(np.int64)
        c, d = V[..., 0::2], V[..., 1::2]
        F = np.empty(V.shape + (2,), dtype=np.int64)
        F[..., 0::2, 0] = c
        F[..., 0::2, 1] = d
        F[..., 1::2, 0] = -self.nu * d
        F[..., 1::2, 1] = c + self.t * d
        return F % self.m

    def det(self, rows):
        """Determinant of the square matrix with plane rows `rows` (each (..., 2k),
        broadcastable), as planes (..., 2) mod m; expansion along the last row."""
        cof = self.cofactors(rows[:-1])
        return np.einsum("...k,...kc->...c", cof, self.mul_form(rows[-1])) % self.m

    def cofactors(self, rows):
        """Signed cofactors of the last row of a k x k matrix whose first k - 1 rows
        are `rows` (plane arrays (..., 2k), broadcastable), as planes (..., 2k) mod m:
        det = sum_j cof_j x_j for every last row x."""
        k = len(rows) + 1
        if k == 1:
            return np.array([1 % self.m, 0], dtype=np.int64)
        parts = []
        for j in range(k):
            keep = [c for c in range(2 * k) if c // 2 != j]
            minor = self.det([r[..., keep] for r in rows])
            parts.append(minor if (k - 1 + j) % 2 == 0 else -minor % self.m)
        return np.concatenate(parts, axis=-1)


def _exact_in_float32(w: int, m: int) -> bool:
    """Whether the float32 kernels are exact for rows of width w over O/m.

    Both operands hold integers in [0, m), so every product entry H sums at
    most 2w terms and stays below 2w m^2.  Below 2^22 every partial sum is an
    exact float32 integer, and the float32 product H * (1/m) lies within
    1/(2m) of H/m: rint returns H/m when m divides H, and otherwise
    m * rint(...) is an exact multiple of m other than H.  So
    H == m * rint(H / m) holds exactly when m divides H."""
    return 2 * w * m * m < 2**22


def _divisible(eng: _Engine, H):
    """Elementwise m | H for a float32 product of plane rows and stacked forms."""
    T = H * eng.inv_m
    np.rint(T, out=T)
    T *= eng.m
    return T == H


def _cofactor_map(eng: _Engine, rows):
    """The integer maps K (..., 2w, 2w) with planes(x) @ K = the last-row
    cofactors of the matrix rows + [x, .]."""
    return eng.cofactors(rows + [np.eye(2 * eng.w, dtype=np.int64)])


def _line_counts(eng: _Engine, g, delta):
    """Last rows completing each prefix R whose complement line c -> c v has
    g = h(v, v) and delta = det [R; v] (see _Engine.complement).  For U these
    are the c with N(c) g = lam_w; for SU only c = 1/delta can give det 1, and
    it does iff delta is a unit and N(1/delta) g = lam_w, i.e. g = lam_w N(delta)."""
    if not eng.su:
        return eng.norm_hits[g]
    nd = eng.norm(delta)
    return (np.gcd(nd, eng.m) == 1) & ((g - eng.lam[-1] * nd) % eng.m == 0)


def _count_from_cofactors(eng: _Engine, cof) -> int:
    """Completions of the prefixes with last-row cofactors cof (P, 2w)."""
    return int(np.sum(_line_counts(eng, *eng.complement(cof)), dtype=np.int64))


def _orthogonal(eng: _Engine, forms, CT):
    """Mask (B, n) of h(c, z) = 0 for the rows z whose pair forms are stacked
    in forms (2B, 2w) and the rows c of CT (2w, n)."""
    eq = _divisible(eng, forms @ CT)
    return eq[0::2] & eq[1::2]


def _count_rec(eng: _Engine, meter: _Meter, chosen, cands) -> int:
    """Completions of `chosen` by one row from each class in `cands`.  The last
    row is never searched for: it lies on the complement line of the prefix
    (_Engine.complement), and the last class is filtered only to meter it.

    With three or more classes, a block of first rows z at a time is filtered
    against every remaining class, one float32 product per class.  The meter
    is charged what a row-by-row search settles for each z: each class's
    filter while the earlier ones all survive, and na x nb when the last two
    classes both survive.  A surviving z with more than two classes left is
    recursed into; with two left, its prefixes go to the complement line."""
    if len(cands) == 2:
        # n = 1: each row x of the first class is a whole prefix
        Ca, Cb = cands
        if Ca.shape[0] == 0 or Cb.shape[0] == 0:
            return 0
        meter.bump(Ca.shape[0] * Cb.shape[0])
        return _count_from_cofactors(eng, Ca.astype(np.int64) @ _cofactor_map(eng, chosen))
    C0, rest = cands[0], cands[1:]
    n0, sizes = C0.shape[0], [C.shape[0] for C in rest]
    forms = np.ascontiguousarray(np.swapaxes(eng.pair_form(C0), 1, 2), dtype=np.float32)
    forms = forms.reshape(2 * n0, 2 * eng.w)
    restT = [np.ascontiguousarray(C.T) for C in rest]
    last_two = len(rest) == 2
    if last_two:
        maps = _cofactor_map(eng, chosen + [C0[:, None, :]])
        Ca_int = rest[0].astype(np.int64)
    block = max(1, _CHUNK_CELLS // (2 * max(1, *sizes)))
    total, cofs, pending = 0, [], 0
    for lo in range(0, n0, block):
        zforms = forms[2 * lo:2 * (lo + block)]
        masks = [_orthogonal(eng, zforms, CT) for CT in restT]
        kept = [np.count_nonzero(ok, axis=1) for ok in masks]
        live = np.ones(kept[0].shape[0], dtype=bool)
        charge = 0
        for size, k in zip(sizes, kept):
            charge += size * np.count_nonzero(live)
            live &= k > 0
        if last_two:
            charge += int(kept[0][live] @ kept[1][live])
        meter.bump(charge)
        for j in np.flatnonzero(live):
            if not last_two:
                total += _count_rec(eng, meter, chosen + [C0[lo + j]],
                                    [C[ok[j]] for C, ok in zip(rest, masks)])
                continue
            cofs.append(Ca_int[masks[0][j]] @ maps[lo + j])
            pending += cofs[-1].shape[0]
            # complements go in batches, so their int64 temporaries stay small
            if pending >= _PREFIX_BATCH:
                total += _count_from_cofactors(eng, np.concatenate(cofs))
                cofs, pending = [], 0
    if cofs:
        total += _count_from_cofactors(eng, np.concatenate(cofs))
    return total


def _build_rows(eng: _Engine, meter: _Meter):
    """Every row of (O/m)^w as float32 coordinate planes, in the order of the
    integer whose base-m digits are (a_0, b_0, a_1, b_1, ...)."""
    m, k = eng.m, 2 * eng.w
    n_rows = m**k
    if n_rows > _MAX_ROW_TABLE:
        raise BudgetExceeded(
            f"candidate row table of {n_rows} rows does not fit the enumeration budget")
    assert _exact_in_float32(eng.w, m), "row table cap no longer keeps float32 exact"
    meter.bump(n_rows)
    idx = np.arange(n_rows, dtype=np.int64)
    rows = np.empty((n_rows, k), dtype=np.float32)
    for j in range(k):
        rows[:, j] = (idx // m**j) % m
    return rows


def count_group(lattice: str, n: int, ring: ResidueRing, group: str = "SU",
                budget: int | None = None) -> CountReport:
    """Exact order of U/SU(Lam, O_K/p^N O_K) for Lam = diag(1,...,1,-1) or (1,...,1,-2)."""
    if group not in ("U", "SU"):
        raise ValueError(f"group must be 'U' or 'SU', got {group!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = lattice_diag(lattice, n)
    budget = default_budget() if budget is None else budget
    t0 = time.monotonic()
    eng = _Engine(ring.modulus, ring.trace_eps, ring.norm_eps, lam, su=(group == "SU"))
    meter = _Meter(budget)
    rows = _build_rows(eng, meter)
    norms = eng.selfnorm(rows)
    cands = [rows[norms == eng.lam[k]] for k in range(eng.w)]
    del rows, norms
    count = _count_rec(eng, meter, [], cands)
    return CountReport(ring=ring, lattice=lattice, n=n, group=group, count=count,
                       elapsed=time.monotonic() - t0, nodes=meter.visited)


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
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
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
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if level < 1:
        raise ValueError("level must be >= 1")
    lo = count_group(lattice, n, ResidueRing(field, p, level), "U", budget=budget)
    hi = count_group(lattice, n, ResidueRing(field, p, level + 1), "U", budget=budget)
    return hi.count == p**((n + 1) ** 2) * lo.count
