"""References the oracle of hmvol.group_enum is checked against.

The blocked backtrack searches row by row, where the package counts by
complement classes.  Rows are real coordinate planes: the row
(x_0, ..., x_{w-1}) with x_i = a_i + b_i*eps over O/m is the vector
(a_0, b_0, ..., a_{w-1}, b_{w-1}), and the pairing and the determinant,
being Z/m-bilinear, become (2w, 2) integer form matrices (Engine).  It picks
one row per norm class, and each level filters every remaining class against
a block of its rows in one float32 product; a pairing H is zero when
H == m*rint(H/m), exact while 2w m^2 < 2^22 (exact_in_float32).  The last
row is not searched for: the rows orthogonal to a prefix R are the c v,
v = conj(pi * cof(R)), so its completions are read from h(v, v) and
det [R; v].  Its meter charges the rows each filter examines and na x nb for
each prefix whose last two classes survive, which the package's per-class
meter must reproduce exactly.

The last-two-rows sweep filters one row at a time (filter_by_row) down to
two remaining classes; from there every pair (x, y) of the filtered
second-to-last and last classes is tested in blocked float32 products,
(B, 2w) @ (2w, 2 nb) for the pairing h(x, y) and, for SU, the determinant of
the completed matrix minus 1 joined into the same product,
(B, 2w+1) @ (2w+1, 4 nb), through a constant column.  Its meter is charged
as the backtrack's, so (count, nodes) must agree.

The Cartesian sweep tests every one of the q^((n+1)^2) matrices over O/m,
q = m^2, against the Hermitian conditions and, for SU, det = 1.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from hmvol.group_enum import _MAX_ROW_TABLE, BudgetExceeded, default_budget
from hmvol.lie_form import lattice_diag

# Cells per product of a blocked level.  Small enough that BLAS runs these
# thin (inner dimension 2w) products on the calling thread: past about 1e6
# multiply-adds OpenBLAS splits them over threads, which made them 20-100
# times slower per cell on a 2-CPU host.
CHUNK_CELLS = 1 << 15
# Prefixes per batch of complements at the level above the last row.
PREFIX_BATCH = 1 << 11


class Meter:
    """A running total of visited partial assignments, refused at the first
    bump past the budget with the package's message."""

    def __init__(self, budget: int):
        self.budget = budget
        self.visited = 0

    def bump(self, k: int):
        self.visited += int(k)
        if self.visited > self.budget:
            raise BudgetExceeded(
                f"enumeration budget exceeded: {self.visited} > {self.budget} visited partial assignments")


class Engine:
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


def exact_in_float32(w: int, m: int) -> bool:
    """Whether the float32 kernels are exact for rows of width w over O/m.

    Both operands hold integers in [0, m), so every product entry H sums at
    most 2w terms and stays below 2w m^2.  Below 2^22 every partial sum is an
    exact float32 integer, and the float32 product H * (1/m) lies within
    1/(2m) of H/m: rint returns H/m when m divides H, and otherwise
    m * rint(...) is an exact multiple of m other than H.  So
    H == m * rint(H / m) holds exactly when m divides H."""
    return 2 * w * m * m < 2**22


def divisible(eng: Engine, H):
    """Elementwise m | H for a float32 product of plane rows and stacked forms."""
    T = H * eng.inv_m
    np.rint(T, out=T)
    T *= eng.m
    return T == H


def cofactor_map(eng: Engine, rows):
    """The integer maps K (..., 2w, 2w) with planes(x) @ K = the last-row
    cofactors of the matrix rows + [x, .]."""
    return eng.cofactors(rows + [np.eye(2 * eng.w, dtype=np.int64)])


def line_counts(eng: Engine, g, delta):
    """Last rows completing each prefix R whose complement line c -> c v has
    g = h(v, v) and delta = det [R; v] (see Engine.complement).  For U these
    are the c with N(c) g = lam_w; for SU only c = 1/delta can give det 1, and
    it does iff delta is a unit and N(1/delta) g = lam_w, i.e. g = lam_w N(delta)."""
    if not eng.su:
        return eng.norm_hits[g]
    nd = eng.norm(delta)
    return (np.gcd(nd, eng.m) == 1) & ((g - eng.lam[-1] * nd) % eng.m == 0)


def count_from_cofactors(eng: Engine, cof) -> int:
    """Completions of the prefixes with last-row cofactors cof (P, 2w)."""
    return int(np.sum(line_counts(eng, *eng.complement(cof)), dtype=np.int64))


def orthogonal(eng: Engine, forms, CT):
    """Mask (B, n) of h(c, z) = 0 for the rows z whose pair forms are stacked
    in forms (2B, 2w) and the rows c of CT (2w, n)."""
    eq = divisible(eng, forms @ CT)
    return eq[0::2] & eq[1::2]


def blocked_count_rec(eng: Engine, meter: Meter, chosen, cands) -> int:
    """Completions of `chosen` by one row from each class in `cands`.  The last
    row is never searched for: it lies on the complement line of the prefix
    (Engine.complement), and the last class is filtered only to meter it.

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
        return count_from_cofactors(eng, Ca.astype(np.int64) @ cofactor_map(eng, chosen))
    C0, rest = cands[0], cands[1:]
    n0, sizes = C0.shape[0], [C.shape[0] for C in rest]
    forms = np.ascontiguousarray(np.swapaxes(eng.pair_form(C0), 1, 2), dtype=np.float32)
    forms = forms.reshape(2 * n0, 2 * eng.w)
    restT = [np.ascontiguousarray(C.T) for C in rest]
    last_two = len(rest) == 2
    if last_two:
        maps = cofactor_map(eng, chosen + [C0[:, None, :]])
        Ca_int = rest[0].astype(np.int64)
    block = max(1, CHUNK_CELLS // (2 * max(1, *sizes)))
    total, cofs, pending = 0, [], 0
    for lo in range(0, n0, block):
        zforms = forms[2 * lo:2 * (lo + block)]
        masks = [orthogonal(eng, zforms, CT) for CT in restT]
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
                total += blocked_count_rec(eng, meter, chosen + [C0[lo + j]],
                                    [C[ok[j]] for C, ok in zip(rest, masks)])
                continue
            cofs.append(Ca_int[masks[0][j]] @ maps[lo + j])
            pending += cofs[-1].shape[0]
            # complements go in batches, so their int64 temporaries stay small
            if pending >= PREFIX_BATCH:
                total += count_from_cofactors(eng, np.concatenate(cofs))
                cofs, pending = [], 0
    if cofs:
        total += count_from_cofactors(eng, np.concatenate(cofs))
    return total


def build_rows(eng: Engine, meter: Meter):
    """Every row of (O/m)^w as float32 coordinate planes, in the order of the
    integer whose base-m digits are (a_0, b_0, a_1, b_1, ...)."""
    m, k = eng.m, 2 * eng.w
    n_rows = m**k
    if n_rows > _MAX_ROW_TABLE:
        raise BudgetExceeded(
            f"candidate row table of {n_rows} rows does not fit the enumeration budget")
    assert exact_in_float32(eng.w, m), "row table cap no longer keeps float32 exact"
    meter.bump(n_rows)
    idx = np.arange(n_rows, dtype=np.int64)
    rows = np.empty((n_rows, k), dtype=np.float32)
    for j in range(k):
        rows[:, j] = (idx // m**j) % m
    return rows


def backtrack_count(lattice: str, n: int, ring, group: str, budget: int | None = None):
    """(count, nodes) of U/SU(Lam, O/p^N) by the blocked backtrack; raises
    BudgetExceeded past the budget."""
    eng = Engine(ring.modulus, ring.trace_eps, ring.norm_eps, lattice_diag(lattice, n),
                 su=(group == "SU"))
    meter = Meter(default_budget() if budget is None else budget)
    count = blocked_count_rec(eng, meter, [], classes(eng, build_rows(eng, meter)))
    return count, meter.visited


def filter_by_row(eng: Engine, meter: Meter, C, form):
    """Mask of the rows c of C with h(c, z) = 0, given the float32 pair form
    matrix form = pair_form(z) of one row z."""
    meter.bump(C.shape[0])
    ok = divisible(eng, C @ form)
    return ok[:, 0] & ok[:, 1]


def last_forms(eng: Engine, C):
    """What the sweep needs of rows C (B, 2w): the pair forms and, for SU, the
    mul forms, laid side by side as float32 (2w, c, B) with c = 2 resp. 4.
    Reshaped to (2w, c*B), this is a product operand whose column r*B + j gives
    output coordinate r of row j."""
    forms = eng.pair_form(C)
    if eng.su:
        forms = np.concatenate([forms, eng.mul_form(C)], axis=2)
    return np.moveaxis(forms, 0, -1).astype(np.float32)


def last_two_operands(eng: Engine, cof_map, Ca, forms):
    """Operands of the sweep over rows Ca and the rows Cb whose last_forms are
    `forms`.  The product left (na, K) @ right (K, c*nb) holds for cell (i, j)
    the pairing h(Ca_i, Cb_j) and, for SU, det - 1 of chosen + [Ca_i, Cb_j],
    where cof_map = cofactor_map(eng, chosen); the cell is a hit iff all c
    coordinates are divisible by m."""
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


def count_last_two(eng: Engine, meter: Meter, cof_map, Ca, forms) -> int:
    na, nb = Ca.shape[0], forms.shape[-1]
    if na == 0 or nb == 0:
        return 0
    meter.bump(na * nb)
    left, right = last_two_operands(eng, cof_map, Ca, forms)
    c = right.shape[1] // nb
    block = max(1, CHUNK_CELLS // max(1, nb))
    total = 0
    for lo in range(0, na, block):
        blk = left[lo:lo + block]
        ok = divisible(eng, blk @ right)
        total += int(np.count_nonzero(ok.reshape(blk.shape[0], c, nb).all(axis=1)))
    return total


def count_rec(eng: Engine, meter: Meter, last, chosen, cands, ib) -> int:
    """Completions of `chosen` by one row from each class in `cands`.  The last
    class's forms `last` (last_forms of the whole class) are built once per
    count; ib holds the indices of the rows of cands[-1] into that class."""
    if len(cands) == 2:
        return count_last_two(eng, meter, cofactor_map(eng, chosen), cands[0], last[..., ib])
    total = 0
    C0, rest = cands[0], cands[1:]
    zforms = eng.pair_form(C0).astype(np.float32)
    maps = cofactor_map(eng, chosen + [C0[:, None, :]]) if eng.su and len(rest) == 2 else None
    for idx in range(C0.shape[0]):
        deeper = []
        for Cj in rest:
            keep = filter_by_row(eng, meter, Cj, zforms[idx])
            if not keep.any():
                break
            deeper.append(Cj[keep])
        else:
            ib_kept = ib[keep]
            if len(deeper) == 2:
                cof_map = None if maps is None else maps[idx]
                total += count_last_two(eng, meter, cof_map, deeper[0], last[..., ib_kept])
            else:
                total += count_rec(eng, meter, last, chosen + [C0[idx]], deeper, ib_kept)
    return total


def classes(eng: Engine, rows):
    """The rows of each norm class lam_k, in the package's order."""
    norms = eng.selfnorm(rows)
    return [rows[norms == eng.lam[k]] for k in range(eng.w)]


def sweep_count(lattice: str, n: int, ring, group: str, budget: int | None = None):
    """(count, nodes) of U/SU(Lam, O/p^N) by the backtrack with the sweep as
    its last stage; raises BudgetExceeded past the budget."""
    eng = Engine(ring.modulus, ring.trace_eps, ring.norm_eps, lattice_diag(lattice, n),
                  su=(group == "SU"))
    meter = Meter(default_budget() if budget is None else budget)
    cands = classes(eng, build_rows(eng, meter))
    count = count_rec(eng, meter, last_forms(eng, cands[-1]), [], cands,
                      np.arange(cands[-1].shape[0]))
    return count, meter.visited


def cartesian_count(lattice: str, n: int, ring, group: str) -> int:
    """#U/#SU(Lam, O/p^N) by testing every matrix, in blocks of matrices."""
    lam = lattice_diag(lattice, n)
    eng = Engine(ring.modulus, ring.trace_eps, ring.norm_eps, lam, su=(group == "SU"))
    w, m = eng.w, eng.m
    n_mats = m**(2 * w * w)
    total = 0
    block = max(1, CHUNK_CELLS // (w * w))
    for lo in range(0, n_mats, block):
        idx = np.arange(lo, min(lo + block, n_mats), dtype=np.int64)
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
