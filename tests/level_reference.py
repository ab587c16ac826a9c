"""The level `hmvol.group_enum._Search.level` replaced at rank 2 and, at odd
p, at every rank, kept as a test reference: it streams every projective row
y of a class, and brings the complement Gram B D B* of each row to its
canonical form, where the package counts the rows of a diagonal class by the
value q = h(y, y) (`_Ring.rows`) and reads the child off det D / q.  `short`
is the per-row form of that reading: it returns q and det D / q row by row.
At rank 2 both levels return the same {child key: {sigma: rows}}, so that a
count meets the same memo keys.  At odd p and rank >= 3 the package's child
diag(1, ..., 1, rep[g]) is isometric to the reference's, with the same rank
and rep[det], and its sigma differs by det D_ref / rep[g]; so a search on
either level has the same count and node total, and the package's may merge
isometric keys.  A search uses this level in place of its own with
`search.level = lambda key: level(search, key)`.
"""

from __future__ import annotations

import math

import numpy as np

from hmvol.group_enum import _canonical, _complement, _diag, _packed, _product


def rows(R, D):
    """The projective rows y of the form D that level streams, pass by pass."""
    r = D.shape[0]
    units = int(R.arrays.unit[np.diagonal(D[..., 0])].sum())
    return _product([[R.nonunits] * k0 + [R.one] + [R.elems] * (r - 1 - k0)
                     for k0 in range(units)])


def short(R, D, y):
    """For rows y (k, r, 2) of a form D, 2 x 2 or diagonal, whose first unit
    coordinate is 1: q = h(y, y) and g = det D / q, 0 where q is not a unit,
    row by row.  With _complement's basis B, [y; B] D [y; B]* = diag(q, B D B*)
    and det [y; B] = +-1, so q det(B D B*) = det D."""
    m = R.m
    q = R.mul(R.matmul(y[:, None], D)[:, 0], R.conj(y)).sum(axis=1)[:, 0] % m
    det = (math.prod(np.diagonal(D[..., 0]).tolist()) - R.norm(D[0, 1])) % m
    return q, det * R.arrays.inv[q] % m


def level(search, key, check=None):
    """{child key: {sigma: rows}} of the class `key`, memoized on the search.
    check(D, y, q, child, ndp), if given, sees each pass of rows y with their
    q = h(y, y) and, row by row for the rows whose q is a unit, the canonical
    form of the complement Gram B D B* and N(det P)."""
    if key in search.levels:
        return search.levels[key]
    R, D = search.R, search.forms[key]
    D = _diag(D) if isinstance(D, tuple) else D
    m, A, lam0 = R.m, R.arrays, search.lams(key)[0]
    groups, total = {}, 0
    for y in rows(R, D):
        q, B = _complement(R, D, y)
        B = B[A.unit[q]]
        G = R.matmul(R.matmul(B, D), R.star(B))
        _, first, gram = np.unique(_packed(G), return_index=True, return_inverse=True)
        child, ndp = _canonical(R, G[first])
        child, ndp = child[gram], ndp[gram]
        if check:
            check(D, y, q, child, ndp)
        ns = lam0 * A.inv[q[A.unit[q]]] % m
        weight = A.norm_count[ns]
        keep = weight > 0
        child, ndp, ns, weight = child[keep], ndp[keep], ns[keep], weight[keep]
        _, first, cls = np.unique(_packed(child), return_index=True, return_inverse=True)
        keys = [search.add(form) for form in child[first]]
        sigma = A.inv[ns * ndp % m] if search.su else 0
        pairs, inverse = np.unique(cls * m + sigma, return_inverse=True)
        sums = np.zeros(len(pairs), dtype=np.int64)
        np.add.at(sums, inverse, weight)
        for pair, size in zip(pairs.tolist(), sums.tolist()):
            c, s = divmod(pair, m)
            sigmas = groups.setdefault(keys[c], {})
            sigmas[s] = sigmas.get(s, 0) + size
        total += int(weight.sum())
    assert total == search.reps(key)[0], "projective rows missed a unit-norm row"
    search.levels[key] = groups
    return groups
