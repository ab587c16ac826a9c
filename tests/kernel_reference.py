"""The elimination `hmvol.group_enum.count_kernel` replaced, kept as a test
reference: every pivot is the least-valuation entry found by scanning all
rows, and every row is then scanned for its column, O(n^4) in all.  It reads
the same system (`_kernel_system`), so the two differ only in how they
eliminate.
"""

from __future__ import annotations

from hmvol.group_enum import _kernel_system


def count_kernel(lattice: str, n: int, field=None) -> int:
    rows, m, free = _kernel_system(lattice, n, field)
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
