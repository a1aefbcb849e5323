"""Exhaustive oracles shared by several test modules."""

import functools
import itertools

import numpy as np


@functools.lru_cache(maxsize=None)
def unit_square_products(p: int, k: int) -> frozenset:
    """Coefficient tuples, in integers mod p, of every u*h^2 with u in
    F_p^* and h a binary form of degree k (the zero form included)."""
    out = set()
    for h in itertools.product(range(p), repeat=k + 1):
        sq = [0] * (2 * k + 1)
        for i, a in enumerate(h):
            for j, b in enumerate(h):
                sq[i + j] += a * b
        out.update(tuple(u * c % p for c in sq) for u in range(1, p))
    return frozenset(out)


def row_echelon(mat: np.ndarray, p: int):
    """Row echelon form mod p with every update reduced, pivots scaled to
    1: the nonzero rows and their pivot columns (entries in [0, p),
    p < 2^31)."""
    m = mat.copy()
    nrows, ncols = m.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.flatnonzero(m[r:, c])
        if not nz.size:
            continue
        if nz[0]:
            m[[r, r + nz[0]]] = m[[r + nz[0], r]]
        m[r, c:] = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        below = r + 1 + np.flatnonzero(m[r + 1:, c])
        if below.size:
            m[below, c:] = (m[below, c:] - m[below, c, None] * m[r, c:]) % p
        pivots.append(c)
    return m[:len(pivots)], pivots
