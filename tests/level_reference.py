"""The level `hmvol.group_enum._Ring.level` replaced, kept as a test
reference: it streams every projective row y of a class, and brings the
complement Gram B D B* of each row to its canonical form, where the package
counts the rows of a class by the value q = h(y, y) (`_Ring.rows`) and reads
the child off det D / q.  `short` is the per-row form of that reading: it
returns q and det D / q row by row.

`Search` is a StreamRing, and so a `_Ring`, on this level.  It also keeps
the SU count the package replaced by #U over one determinant fiber:
`su_count(key, T)` counts the matrices of determinant t, N(t) = T, and
hands each row's child the norm T sigma, sigma = 1 / (N(s) N(det P)), for
x = s y and the P that takes the complement to its canonical form (N(det P)
from `StreamRing.scale`).  Its classes are canonical forms, keyed (r, x) by
`search_key`: x = g for diag(1, ..., 1, g), as the package keys it, and the
stream_reference form_key of any other form.  Their representation numbers
(`form_dist`) are the exact convolutions of values_reference, and a form
that is not diagonal (a 2-adic remainder with no unit-norm vector) has those
of its remainder enumerated.  A dead child is such a form, keyed like any
other, so the reference's level has no dead rows apart.  At rank 2 its
level, summed over sigma, is the package's ({child key: rows}, 0), so that
a count meets the same memo keys.  At rank >= 3 the package's child
(r - 1, rep[g]) has the rank and the representation numbers of the
reference's; a search on either level has the same count and node total,
and the package's may merge keys.
"""

from __future__ import annotations

import math

import numpy as np

from stream_reference import StreamRing, canonical, complement, diag, form_key, matrix, packed, product
import values_reference


def search_key(D):
    """The Search key (r, x) of the form D (r, r, 2)."""
    key = form_key(D)
    if not isinstance(key[0], tuple) and all(a == 1 for a in key[:-1]):
        return len(key), key[-1]
    return len(key), key


def search_form(key):
    """The form (r, r, 2) of a Search key."""
    r, x = key
    return matrix(x) if isinstance(x, tuple) else diag((1,) * (r - 1) + (x,))


def rows(R, D):
    """The projective rows y of the form D that level streams, pass by pass."""
    r = D.shape[0]
    units = int(R.arrays.unit[np.diagonal(D[..., 0])].sum())
    return product([[R.nonunits] * k0 + [R.one] + [R.elems] * (r - 1 - k0)
                    for k0 in range(units)])


def short(R, D, y):
    """For rows y (k, r, 2) of a form D, 2 x 2 or diagonal, whose first unit
    coordinate is 1: q = h(y, y) and g = det D / q, 0 where q is not a unit,
    row by row.  With complement's basis B, [y; B] D [y; B]* = diag(q, B D B*)
    and det [y; B] = +-1, so q det(B D B*) = det D."""
    m = R.m
    q = R.mul(R.matmul(y[:, None], D)[:, 0], R.conj(y)).sum(axis=1)[:, 0] % m
    det = (math.prod(np.diagonal(D[..., 0]).tolist()) - R.norm(D[0, 1])) % m
    return q, det * R.arrays.inv[q] % m


class Search(StreamRing):
    """A StreamRing on the streaming level, counting SU by (key, T) if su.
    check(D, y, q, child, ndp), if set, sees each pass of rows y with their
    q = h(y, y) and, row by row for the rows whose q is a unit, the canonical
    form of the complement Gram B D B* and N(det P)."""

    def __init__(self, ring, lam, su):
        super().__init__(ring, lam)
        self.su, self.check, self.dists = su, None, {}
        self.sigma_levels, self.su_counts = {}, {}

    def form_dist(self, key):
        """dist[g] = #{y : y D y* = g} on the form D of the key: the convolution
        of the norm counts scaled by its diagonal if it is diagonal, else of
        those of its unit diagonal entries and the values of its remainder,
        enumerated."""
        if key not in self.dists:
            R, D = self, search_form(key)
            d = np.diagonal(D[..., 0]).tolist()
            if (D == diag(d)).all():
                self.dists[key] = values_reference.dist(R, d)
            else:
                k = sum(R.unit[g] for g in d)
                raw, h = D[k:, k:], np.zeros(R.m, dtype=np.int64)
                for y in product([[R.elems] * len(raw)]):
                    vals = R.matmul(R.matmul(y[:, None], raw), R.conj(y)[..., None, :])
                    h += np.bincount(vals[:, 0, 0, 0], minlength=R.m)
                self.dists[key] = values_reference.exact_values(
                    R.m, d[:k] + [1], [R.norm_count] * k + [h.tolist()])
        return self.dists[key]

    def reps(self, key):
        dist = self.form_dist(key)
        return [dist[l] for l in self.lams(key)]

    def sigma_level(self, key):
        """{child key: {sigma: rows}} of the class `key`, memoized; every sigma
        is 0 without su."""
        if key in self.sigma_levels:
            return self.sigma_levels[key]
        R, D = self, search_form(key)
        m, A, lam0 = R.m, R.arrays, self.lams(key)[0]
        groups, total = {}, 0
        for y in rows(R, D):
            q, B = complement(R, D, y)
            B = B[A.unit[q]]
            G = R.matmul(R.matmul(B, D), R.star(B))
            _, first, gram = np.unique(packed(G), return_index=True, return_inverse=True)
            child, ndp = canonical(R, G[first])
            child, ndp = child[gram], ndp[gram]
            if self.check:
                self.check(D, y, q, child, ndp)
            ns = lam0 * A.inv[q[A.unit[q]]] % m
            weight = A.norm_count[ns]
            keep = weight > 0
            child, ndp, ns, weight = child[keep], ndp[keep], ns[keep], weight[keep]
            _, first, cls = np.unique(packed(child), return_index=True, return_inverse=True)
            keys = [search_key(form) for form in child[first]]
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
        self.sigma_levels[key] = groups
        return groups

    def level(self, key):
        """({child key: rows}, 0): sigma_level summed over sigma."""
        return {child: sum(sigmas.values()) for child, sigmas in self.sigma_level(key).items()}, 0

    def su_count(self, key, T: int) -> int:
        """count(D, lams, t) for a unit t with N(t) = T: the matrices A with
        A D A* = diag(lams) and det A = t."""
        if (key, T) not in self.su_counts:
            r, g = key
            if r == 1:
                value = T * g % self.m == self.lams(key)[0]
            else:
                value = sum(size * self.su_count(child, T * sigma % self.m)
                            for child, sigmas in self.sigma_level(key).items()
                            if min(self.reps(child)) > 0 for sigma, size in sigmas.items())
            self.su_counts[(key, T)] = int(value)
        return self.su_counts[(key, T)]

    def run(self) -> int:
        """#U, or with su #SU: su_count of the top form as it stands (P = I, T = 1)."""
        count = self.count(self.top)
        return self.su_count(self.top, 1) if self.su else count
