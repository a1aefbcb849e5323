"""Exhaustive oracles shared by several test modules."""

import functools
import itertools


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
