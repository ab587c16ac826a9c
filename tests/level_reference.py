"""The level `hmvol.group_enum._Search.level` replaced at rank 2, kept as a
test reference: every class, binary ones included, brings the complement Gram
B D B* of each row to its canonical form, where the package reads the child
of a binary class off det D / q.  Both must return the same
{child key: {sigma: rows}}, so that a count meets the same memo keys.
"""

from __future__ import annotations

import numpy as np

from hmvol.group_enum import _canonical, _complement, _packed, _product


def rows(R, D):
    """The projective rows y of the form D that level streams, pass by pass."""
    r = D.shape[0]
    units = int(R.unit[np.diagonal(D[..., 0])].sum())
    return _product([[R.nonunits] * k0 + [R.one] + [R.elems] * (r - 1 - k0)
                     for k0 in range(units)])


def level(search, key):
    R, D = search.R, search.forms[key]
    m, lam0 = R.m, search.lams(key)[0]
    groups, total = {}, 0
    for y in rows(R, D):
        q, B = _complement(R, D, y)
        ns = lam0 * R.inv[q] % m
        weight = np.where(R.unit[q], R.norm_count[ns], 0)
        keep = weight > 0
        B, ns, weight = B[keep], ns[keep], weight[keep]
        G = R.matmul(R.matmul(B, D), R.star(B))
        _, first, gram = np.unique(_packed(G), return_index=True, return_inverse=True)
        child, ndp = _canonical(R, G[first])
        _, first, cls = np.unique(_packed(child), return_index=True, return_inverse=True)
        keys = [search.add(form) for form in child[first]]
        sigma = R.inv[ns * ndp[gram] % m] if search.su else 0
        pairs, inverse = np.unique(cls[gram] * m + sigma, return_inverse=True)
        sums = np.zeros(len(pairs), dtype=np.int64)
        np.add.at(sums, inverse, weight)
        for pair, size in zip(pairs.tolist(), sums.tolist()):
            c, s = divmod(pair, m)
            sigmas = groups.setdefault(keys[c], {})
            sigmas[s] = sigmas.get(s, 0) + size
        total += int(weight.sum())
    assert total == search.reps(key)[0], "projective rows missed a unit-norm row"
    return groups
