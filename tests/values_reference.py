"""Value counts of any diagonal form, kept as test references for the
recurrences on rank of `hmvol.group_enum._Ring`, which count the classes
diag(1, ..., 1, g) only.

`values` is the numpy convolution the exact one replaced: a float64-weighted
np.bincount scales each count table, and an int64 circulant product
convolves it in.  It is exact only while every scaled count stays below 2^53
and every sum below 2^63.

`exact_values`, `rows` and `dead` are the exact convolutions on Python ints
that `_Ring` ran for a diagonal d with its unit entries first, one r-entry
convolution per first unit coordinate.
"""

from __future__ import annotations

import numpy as np


def values(m, d, counts):
    """The ways sum_i d_i g_i takes each value of Z/m, g_i taking the value g
    in counts[i][g] ways, as an int64 array."""
    a = np.arange(m)
    out = (a == 0).astype(np.int64)
    for di, c in zip(d, counts):
        h = np.bincount(int(di) * a % m, weights=c, minlength=m).astype(np.int64)
        out = h[(a[:, None] - a) % m] @ out
    return out


def exact_values(m, d, counts):
    """values, as a list of exact Python ints: the cyclic convolution of the
    d_i-scaled counts, over their nonzero terms only."""
    out = {0: 1}
    for di, c in zip(d, counts):
        h, acc = [(di * g, k) for g, k in enumerate(c) if k], [0] * m
        for a, x in out.items():
            for b, y in h:
                acc[(a + b) % m] += x * y
        out = {a: x for a, x in enumerate(acc) if x}
    return [out.get(a, 0) for a in range(m)]


def one_count(m):
    """The norm counts of {1}: a point mass at 1."""
    return [int(a == 1) for a in range(m)]


def dist(R, d):
    """dist[g] = #{y : y D y* = g} on D = diag(d), for a _Ring R."""
    return exact_values(R.m, d, [R.norm_count] * len(d))


def rows(R, d, units):
    """rows[q] = #{y : h(y, y) = q} over a level's projective rows y of
    diag(d): y_i0 = 1 for an i0 < units, non-unit norms before it, anything
    after."""
    return [sum(col) for col in zip(*(
        exact_values(R.m, d, [R.nonunit_count] * i0 + [one_count(R.m)]
                     + [R.norm_count] * (len(d) - 1 - i0)) for i0 in range(units)))]


def dead(R, d, units):
    """dead[q] = #{y : h(y, y) = q} over the projective rows y of diag(d) whose
    every coordinate at a unit entry is a unit: at a ramified 2, the rows whose
    complement has no unit-norm vector."""
    return exact_values(R.m, d, [one_count(R.m)] + [R.unit_count] * (units - 1)
                        + [R.norm_count] * (len(d) - units))
