"""The whole-system count `hmvol.group_enum.count_kernel` replaced, kept as a
test reference: it builds the linearized reduction-kernel system of all
2 (n + 1)^2 coordinates as one sparse system and eliminates it by full scans
(every pivot is the least-valuation entry over all rows, and every row is then
scanned for its column), O(n^4) in all.  It shares no code with the package's
block-by-block count.
"""

from __future__ import annotations

from hmvol.lie_form import lattice_diag
from hmvol.quadfield import make_field

# the kernel of each lattice is counted over O/2^k: L over O/2, M over O/4
_LEVEL = {"L": 1, "M": 2}


def kernel_system(lattice: str, n: int, field=None):
    """The system {-B.Lam = Lam.conj(B)', Tr B = 0} over Z/m, m = 2^k, in the
    coordinates of B_ij = a_ij + b_ij*eps: its nonzero sparse rows
    {variable: coefficient}, m, and the number of variables."""
    field = make_field(5) if field is None else field
    lam = lattice_diag(lattice, n)
    m, w = 2 ** _LEVEL[lattice], n + 1
    t = field.trace_eps % m
    # a_ij is variable 2(w i + j) and b_ij the next.  Equation (i, j) is
    # lam_j B_ij + lam_i conj(B_ji) = 0 with conj(a + b eps) = (a + t b) - b eps;
    # equation (j, i) is its conjugate, so i <= j suffices, and on the diagonal
    # only lam_i (2 a_ii + t b_ii) = 0 remains.
    rows = [{2 * (w + 1) * i + s: 1 for i in range(w)} for s in (0, 1)]  # Tr B = 0
    for i in range(w):
        rows.append({2 * (w + 1) * i: 2 * lam[i], 2 * (w + 1) * i + 1: lam[i] * t})
        for j in range(i + 1, w):
            ij, ji = 2 * (w * i + j), 2 * (w * j + i)
            rows.append({ij: lam[j], ji: lam[i], ji + 1: lam[i] * t})
            rows.append({ij + 1: lam[j], ji + 1: -lam[i]})
    rows = [r for r in ({var: c % m for var, c in r.items() if c % m} for r in rows) if r]
    return rows, m, 2 * w * w


def count_kernel(lattice: str, n: int, field=None) -> int:
    rows, m, free = kernel_system(lattice, n, field)
    count = 1
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
