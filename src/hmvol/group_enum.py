"""Brute-force counting of (special) unitary groups over residue rings.

Matrices A with A.Lam.conj(A)' = Lam (and det A = 1 for the special count)
are enumerated row by row: a candidate k-th row must have the prescribed
Hermitian self-pairing Lam_kk, pair to zero against every previously chosen
row, and the determinant condition is checked on the final row.  A full
Cartesian sweep over all q^((n+1)^2) matrices, built on the same form
matrices, is available as a cross-check mode for the smallest cases.

Rows are stored as real coordinate planes: the row (x_0, ..., x_{w-1}) with
x_i = a_i + b_i*eps over O/m, m = p^N, is the vector (a_0, b_0, ..., a_{w-1},
b_{w-1}) with entries in [0, m).  The pairing h(u, v) = sum lam_i u_i
conj(v_i) and the determinant sum_i cof_i v_i are Z/m-bilinear in these
coordinates, so fixing v turns either into a (2w, 2) integer form matrix.
Stacking the forms of many rows v side by side turns a whole block of
(u, v) checks into one small float32 matmul: candidates are filtered by a
matvec against each chosen row, and the recursion bottoms out in a blocked
(B, 2w) @ (2w, 2 nb) product over the last two rows.  For SU the cofactors
of the last row are linear in the second-to-last, so det - 1 joins the same
product, (B, 2w+1) @ (2w+1, 4 nb), with a constant column carrying the -1.
Forms are built per norm class, not per prefix: each level builds the pair
forms of its first class in one call, and the forms of the whole last class
are built once per count, already side by side; filtered rows of the last
class carry their indices into it, and the last stage gathers their columns.
A check holds when every entry of the product is divisible by m, tested as
H == m*rint(H/m).  That is exact while 2w m^2 < 2^22 (_exact_in_float32),
which the cap on the candidate row table guarantees.

Work is metered in visited partial assignments (candidate rows examined,
broadcast cells swept).  Exceeding the budget raises BudgetExceeded, which
deliberately distinguishes "infeasible under this budget" from a zero count.
"""

from __future__ import annotations

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
# Cells per block of a sweep.  Small enough that a block's float32 product
# stays in cache and BLAS runs it on the calling thread.
_CHUNK_CELLS = 1 << 15


class BudgetExceeded(RuntimeError):
    """Enumeration refused: the node budget would be exceeded (not a zero count)."""


def default_budget() -> int:
    raw = os.environ.get("HMVOL_BUDGET")
    if raw:
        return int(float(raw))
    return DEFAULT_BUDGET


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

    def selfnorm(self, rows):
        """Hermitian self-pairing sum(lam_i |v_i|^2) of plane rows (B, 2w), a scalar mod m."""
        t, nu = self.t, self.nu
        acc = np.zeros(rows.shape[0], dtype=np.int64)
        for i in range(self.w):
            a, b = rows[:, 2 * i].astype(np.int64), rows[:, 2 * i + 1].astype(np.int64)
            acc += self.lam[i] * (a * a + t * a * b + nu * b * b)
        return acc % self.m

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

    Both operands hold integers in [0, m) (the constant column of the SU check
    holds 1), so every product entry H sums at most 2w + 1 terms and stays
    below 2w m^2.  Below 2^22 every partial sum is an exact float32 integer,
    and the float32 product H * (1/m) lies within 1/(2m) of H/m: rint returns
    H/m when m divides H, and otherwise m * rint(...) is an exact multiple of m
    other than H.  So H == m * rint(H / m) holds exactly when m divides H."""
    return 2 * w * m * m < 2**22


def _divisible(eng: _Engine, H):
    """Elementwise m | H for a float32 product of plane rows and stacked forms."""
    T = H * eng.inv_m
    np.rint(T, out=T)
    T *= eng.m
    return T == H


def _filter_by_row(eng: _Engine, meter: _Meter, C, form):
    """Mask of the rows c of C with h(c, z) = 0, given the float32 pair form
    matrix form = pair_form(z) of one row z."""
    meter.bump(C.shape[0])
    ok = _divisible(eng, C @ form)
    return ok[:, 0] & ok[:, 1]


def _cofactor_map(eng: _Engine, rows):
    """For SU, the integer maps K (..., 2w, 2w) with planes(x) @ K = the
    last-row cofactors of the matrix rows + [x, .]; None for U."""
    if not eng.su:
        return None
    return eng.cofactors(rows + [np.eye(2 * eng.w, dtype=np.int64)])


def _last_forms(eng: _Engine, C):
    """What the last stage needs of rows C (B, 2w): the pair forms and, for SU,
    the mul forms, laid side by side as float32 (2w, c, B) with c = 2 resp. 4.
    Reshaped to (2w, c*B), this is a product operand whose column r*B + j gives
    output coordinate r of row j."""
    forms = eng.pair_form(C)
    if eng.su:
        forms = np.concatenate([forms, eng.mul_form(C)], axis=2)
    return np.moveaxis(forms, 0, -1).astype(np.float32)


def _last_two_operands(eng: _Engine, cof_map, Ca, forms):
    """Operands of the last-stage sweep over rows Ca and the rows Cb whose
    _last_forms are `forms`.  The product left (na, K) @ right (K, c*nb) holds
    for cell (i, j) the pairing h(Ca_i, Cb_j) and, for SU, det - 1 of chosen +
    [Ca_i, Cb_j], where cof_map = _cofactor_map(eng, chosen); the cell is a hit
    iff all c coordinates are divisible by m."""
    K, _, nb = forms.shape
    if not eng.su:
        return Ca, forms.reshape(K, -1)
    right = np.zeros((K + 1, 4, nb), dtype=np.float32)
    right[:K, :2] = forms[:, :2]
    # the mul forms of the cells' last rows composed with their cofactors
    right[:K, 2:] = (cof_map @ forms[:, 2:].reshape(K, -1) % eng.m).reshape(K, 2, nb)
    right[K, 2] = -1 % eng.m
    left = np.hstack([Ca, np.ones((Ca.shape[0], 1), dtype=np.float32)])
    return left, right.reshape(K + 1, -1)


def _count_last_two(eng: _Engine, meter: _Meter, cof_map, Ca, forms) -> int:
    na, nb = Ca.shape[0], forms.shape[-1]
    if na == 0 or nb == 0:
        return 0
    if meter.visited + na * nb > meter.budget:
        raise BudgetExceeded(
            f"enumeration budget exceeded: final sweep needs {na * nb} cells "
            f"on top of {meter.visited} visited (budget {meter.budget})")
    left, right = _last_two_operands(eng, cof_map, Ca, forms)
    c = right.shape[1] // nb
    block = max(1, _CHUNK_CELLS // max(1, nb))
    total = 0
    for lo in range(0, na, block):
        blk = left[lo:lo + block]
        meter.bump(blk.shape[0] * nb)
        ok = _divisible(eng, blk @ right)
        total += int(np.count_nonzero(ok.reshape(blk.shape[0], c, nb).all(axis=1)))
    return total


def _count_rec(eng: _Engine, meter: _Meter, last, chosen, cands, ib) -> int:
    """Completions of `chosen` by one row from each class in `cands`.  The last
    class's forms `last` (_last_forms of the whole class) are built once per
    count; ib holds the indices of the rows of cands[-1] into that class."""
    if len(cands) == 2:
        return _count_last_two(eng, meter, _cofactor_map(eng, chosen), cands[0], last[..., ib])
    total = 0
    C0, rest = cands[0], cands[1:]
    # One vectorized call gives the pair form of every z in C0 and, just above
    # the last stage, the cofactor maps of chosen + [z].
    zforms = eng.pair_form(C0).astype(np.float32)
    maps = _cofactor_map(eng, chosen + [C0[:, None, :]]) if len(rest) == 2 else None
    for idx in range(C0.shape[0]):
        deeper = []
        for Cj in rest:
            keep = _filter_by_row(eng, meter, Cj, zforms[idx])
            if not keep.any():
                break
            deeper.append(Cj[keep])
        else:
            ib_kept = ib[keep]
            if len(deeper) == 2:
                cof_map = None if maps is None else maps[idx]
                total += _count_last_two(eng, meter, cof_map, deeper[0], last[..., ib_kept])
            else:
                total += _count_rec(eng, meter, last, chosen + [C0[idx]], deeper, ib_kept)
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
                mode: str = "backtrack", budget: int | None = None) -> CountReport:
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
    if mode == "cartesian":
        count = _count_cartesian(eng, meter)
    elif mode == "backtrack":
        rows = _build_rows(eng, meter)
        norms = eng.selfnorm(rows)
        cands = [rows[norms == eng.lam[k]] for k in range(eng.w)]
        del rows, norms
        count = _count_rec(eng, meter, _last_forms(eng, cands[-1]), [], cands,
                           np.arange(cands[-1].shape[0]))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return CountReport(ring=ring, lattice=lattice, n=n, group=group, count=count,
                       elapsed=time.monotonic() - t0, nodes=meter.visited)


def _count_cartesian(eng: _Engine, meter: _Meter) -> int:
    w, m = eng.w, eng.m
    n_mats = m**(2 * w * w)
    if meter.visited + n_mats > meter.budget:
        raise BudgetExceeded(
            f"cartesian sweep over {n_mats} matrices exceeds the budget {meter.budget}")
    total = 0
    block = max(1, _CHUNK_CELLS // (w * w))
    for lo in range(0, n_mats, block):
        idx = np.arange(lo, min(lo + block, n_mats), dtype=np.int64)
        meter.bump(idx.shape[0])
        rows = [np.stack([(idx // m**(2 * w * i + k)) % m for k in range(2 * w)], axis=1)
                for i in range(w)]
        ok = np.ones(idx.shape[0], dtype=bool)
        # Hermitian conditions on the upper triangle; the lower follows by symmetry.
        for i in range(w):
            for j in range(i, w):
                h = np.einsum("bk,bkc->bc", rows[i], eng.pair_form(rows[j])) % m
                want = eng.lam[i] if i == j else 0
                ok &= (h[:, 0] == want) & (h[:, 1] == 0)
        if eng.su:
            det = eng.det(rows)
            ok &= (det[:, 0] == 1 % m) & (det[:, 1] == 0)
        total += int(ok.sum())
    return total


_KERNEL_LEVEL = {"L": 2, "M": 4}


def count_kernel(lattice: str, n: int, level: int | None = None,
                 field: FieldData | None = None, budget: int | None = None) -> int:
    """Solutions B of the linearized reduction-kernel system {-B.Lam = Lam.conj(B)',
    Tr B = 0} over O/2O (L) or O/4O (M), by enumeration of the free entries with
    full verification.  For 2-ramified fields this is 2^(n^2+3n) for L and
    2^(2n^2+5n) for M."""
    if n < 1:
        raise ValueError("n must be >= 1")
    level = _KERNEL_LEVEL[lattice] if level is None else level
    if level not in (2, 4):
        raise ValueError("kernel level is the modulus 2 (for L) or 4 (for M)")
    field = make_field(5) if field is None else field
    budget = default_budget() if budget is None else budget
    lam = lattice_diag(lattice, n)
    ring = ResidueRing(field, 2, level.bit_length() - 1)
    m, t = ring.modulus, ring.trace_eps
    q = m * m
    w = n + 1
    # Free entries: the upper triangle and the first n diagonal entries; the
    # lower triangle is forced by the pairing equations (unit lam_i on the
    # rows doing the forcing), the last diagonal entry by the trace.
    free = [(i, i) for i in range(n)] + [(i, j) for i in range(w) for j in range(i + 1, w)]
    n_free = len(free)
    if q**n_free > budget:
        raise BudgetExceeded(f"kernel enumeration over {q**n_free} assignments exceeds the budget")
    idx = np.arange(q**n_free, dtype=np.int64)
    # Entries are coordinate-plane pairs (a, b) for a + b*eps, reduced mod m
    # only where tested: every step is Z-linear, so residues are unaffected,
    # and the few sums and products of coordinates below 4 stay far inside int16.
    entries = {pos: (((idx // m**(2 * s)) % m).astype(np.int16),
                     ((idx // m**(2 * s + 1)) % m).astype(np.int16))
               for s, pos in enumerate(free)}

    def conj(x):
        return x[0] + t * x[1], -x[1]

    def add(x, y):
        return x[0] + y[0], x[1] + y[1]

    def smul(c, x):
        return c * x[0], c * x[1]

    def is_zero(x):
        return (x[0] % m == 0) & (x[1] % m == 0)

    for i in range(w):
        for j in range(i + 1, w):
            # the (i, j) equation forces b_ji = -conj(lam_j b_ij), using lam_i = 1 for i < j
            entries[(j, i)] = smul(-1, conj(smul(lam[j], entries[(i, j)])))
    acc = entries[(0, 0)]
    for i in range(1, n):
        acc = add(acc, entries[(i, i)])
    entries[(w - 1, w - 1)] = smul(-1, acc)
    ok = np.ones(idx.shape[0], dtype=bool)
    # Verify the full system -B.Lam = Lam.conj(B)' and Tr B = 0.
    for i in range(w):
        for j in range(w):
            ok &= is_zero(add(smul(lam[j], entries[(i, j)]), smul(lam[i], conj(entries[(j, i)]))))
    tr = entries[(0, 0)]
    for i in range(1, w):
        tr = add(tr, entries[(i, i)])
    ok &= is_zero(tr)
    return int(ok.sum())


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
    if lattice == "L":
        rep = count_group(lattice, n, ResidueRing(field, 2, 3), "SU", budget=budget)
        ker = count_kernel("L", n, level=2, field=field, budget=budget)
        return Fraction(rep.count, 2**(2 * dim) * ker)
    rep = count_group(lattice, n, ResidueRing(field, 2, 5), "SU", budget=budget)
    ker = count_kernel("M", n, level=4, field=field, budget=budget)
    return Fraction(rep.count, 2**(3 * dim) * ker)


def stabilization_check(lattice: str, n: int, field: FieldData, p: int,
                        level: int = 1, budget: int | None = None) -> bool:
    """True iff #U(O/p^(level+1)) = p^((n+1)^2) #U(O/p^level), the Hensel-driven
    stabilization that turns the local density into a finite computation."""
    if level < 1:
        raise ValueError("level must be >= 1")
    lo = count_group(lattice, n, ResidueRing(field, p, level), "U", budget=budget)
    hi = count_group(lattice, n, ResidueRing(field, p, level + 1), "U", budget=budget)
    return hi.count == p**((n + 1) ** 2) * lo.count
