"""The value convolution `hmvol.group_enum._Ring.values` replaced, kept as a
test reference: a float64-weighted np.bincount scales each count table, and
an int64 circulant product convolves it in.  It is exact only while every
scaled count stays below 2^53 and every sum below 2^63; the package's
convolution runs on Python ints and has no bound.
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
