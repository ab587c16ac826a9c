"""The canonicalization `stream_reference.canonical` replaced, kept as a test
reference: its split loop runs over every position, the last 1 x 1 remainder
included, where `canonical` copies that entry instead.  Both must return the
same (D, nd), so that a count meets the same memo keys.
"""

from __future__ import annotations

import numpy as np

from stream_reference import complement


def canonical(R, G):
    m, (K, r) = R.m, G.shape[:2]
    D, P = np.zeros_like(G), np.zeros_like(G)
    P[:, np.arange(r), np.arange(r), 0] = 1
    live, cur = np.arange(K), G
    for s in range(r):
        V, O = R.probes(r - s)
        vals = (np.einsum("pab,kab->kp", O[..., 0], cur[..., 0])
                - R.nu * np.einsum("pab,kab->kp", O[..., 1], cur[..., 1])) % m
        ok = R.arrays.unit[vals]
        found = ok.any(axis=1)
        D[live[~found], s:, s:] = cur[~found]
        live, cur, v = live[found], cur[found], V[ok.argmax(axis=1)[found]]
        if not live.size:
            break
        q, B = complement(R, cur, v)
        P[live, s:] = R.matmul(np.concatenate([v[:, None], B], axis=1), P[live, s:])
        cur = R.matmul(R.matmul(B, cur), R.star(B))
        D[live, s, s, 0] = q
    diag = np.arange(r)
    d = D[:, diag, diag, 0]
    scale = R.arrays.scale[d]
    nd = np.ones(K, dtype=np.int64)
    for i in range(r):
        nd = nd * scale[:, i] % m
    P = R.mul(R.root[scale][:, :, None, :], P)
    order = np.argsort(np.where(R.arrays.unit[d], R.arrays.rep[d], m + diag), axis=1,
                       kind="stable")
    P = np.take_along_axis(P, order[:, :, None, None], axis=1)
    D[:, diag, diag, 0] = np.take_along_axis(R.arrays.rep[d], order, axis=1)
    assert (R.matmul(R.matmul(P, G), R.star(P)) == D).all(), "P G P* != D"
    return D, nd
