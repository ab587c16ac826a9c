"""References the oracle of hmvol.group_enum is checked against.

The last-two-rows sweep checks the blocked levels and the complement-line
last stage.  Its backtrack filters one row at a time (filter_by_row) down to
two remaining classes; from there every pair (x, y) of the filtered
second-to-last and last classes is tested in blocked float32 products,
(B, 2w) @ (2w, 2 nb) for the pairing h(x, y) and, for SU, the determinant of
the completed matrix minus 1 joined into the same product,
(B, 2w+1) @ (2w+1, 4 nb), through a constant column.  The meter is
charged exactly as the package charges it, so (count, nodes) must agree.

The Cartesian sweep tests every one of the q^((n+1)^2) matrices over O/m,
q = m^2, against the Hermitian conditions and, for SU, det = 1.
"""

from __future__ import annotations

import numpy as np

from hmvol.group_enum import (_Engine, _Meter, _build_rows, _cofactor_map, _divisible,
                              default_budget)
from hmvol.lie_form import lattice_diag

_CHUNK_CELLS = 1 << 15


def filter_by_row(eng: _Engine, meter: _Meter, C, form):
    """Mask of the rows c of C with h(c, z) = 0, given the float32 pair form
    matrix form = pair_form(z) of one row z."""
    meter.bump(C.shape[0])
    ok = _divisible(eng, C @ form)
    return ok[:, 0] & ok[:, 1]


def last_forms(eng: _Engine, C):
    """What the sweep needs of rows C (B, 2w): the pair forms and, for SU, the
    mul forms, laid side by side as float32 (2w, c, B) with c = 2 resp. 4.
    Reshaped to (2w, c*B), this is a product operand whose column r*B + j gives
    output coordinate r of row j."""
    forms = eng.pair_form(C)
    if eng.su:
        forms = np.concatenate([forms, eng.mul_form(C)], axis=2)
    return np.moveaxis(forms, 0, -1).astype(np.float32)


def last_two_operands(eng: _Engine, cof_map, Ca, forms):
    """Operands of the sweep over rows Ca and the rows Cb whose last_forms are
    `forms`.  The product left (na, K) @ right (K, c*nb) holds for cell (i, j)
    the pairing h(Ca_i, Cb_j) and, for SU, det - 1 of chosen + [Ca_i, Cb_j],
    where cof_map = _cofactor_map(eng, chosen); the cell is a hit iff all c
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


def count_last_two(eng: _Engine, meter: _Meter, cof_map, Ca, forms) -> int:
    na, nb = Ca.shape[0], forms.shape[-1]
    if na == 0 or nb == 0:
        return 0
    meter.bump(na * nb)
    left, right = last_two_operands(eng, cof_map, Ca, forms)
    c = right.shape[1] // nb
    block = max(1, _CHUNK_CELLS // max(1, nb))
    total = 0
    for lo in range(0, na, block):
        blk = left[lo:lo + block]
        ok = _divisible(eng, blk @ right)
        total += int(np.count_nonzero(ok.reshape(blk.shape[0], c, nb).all(axis=1)))
    return total


def count_rec(eng: _Engine, meter: _Meter, last, chosen, cands, ib) -> int:
    """Completions of `chosen` by one row from each class in `cands`.  The last
    class's forms `last` (last_forms of the whole class) are built once per
    count; ib holds the indices of the rows of cands[-1] into that class."""
    if len(cands) == 2:
        return count_last_two(eng, meter, _cofactor_map(eng, chosen), cands[0], last[..., ib])
    total = 0
    C0, rest = cands[0], cands[1:]
    zforms = eng.pair_form(C0).astype(np.float32)
    maps = _cofactor_map(eng, chosen + [C0[:, None, :]]) if eng.su and len(rest) == 2 else None
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


def classes(eng: _Engine, rows):
    """The rows of each norm class lam_k, in the package's order."""
    norms = eng.selfnorm(rows)
    return [rows[norms == eng.lam[k]] for k in range(eng.w)]


def sweep_count(lattice: str, n: int, ring, group: str, budget: int | None = None):
    """(count, nodes) of U/SU(Lam, O/p^N) by the backtrack with the sweep as
    its last stage; raises BudgetExceeded past the budget."""
    eng = _Engine(ring.modulus, ring.trace_eps, ring.norm_eps, lattice_diag(lattice, n),
                  su=(group == "SU"))
    meter = _Meter(default_budget() if budget is None else budget)
    cands = classes(eng, _build_rows(eng, meter))
    count = count_rec(eng, meter, last_forms(eng, cands[-1]), [], cands,
                      np.arange(cands[-1].shape[0]))
    return count, meter.visited


def cartesian_count(lattice: str, n: int, ring, group: str) -> int:
    """#U/#SU(Lam, O/p^N) by testing every matrix, in blocks of matrices."""
    lam = lattice_diag(lattice, n)
    eng = _Engine(ring.modulus, ring.trace_eps, ring.norm_eps, lam, su=(group == "SU"))
    w, m = eng.w, eng.m
    n_mats = m**(2 * w * w)
    total = 0
    block = max(1, _CHUNK_CELLS // (w * w))
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
