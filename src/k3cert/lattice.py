"""Integer intersection lattices and p-adic lattice chains.

Matrices are tuples of row tuples of arbitrary-precision integers; a
lattice is given by a square integer matrix whose COLUMNS generate it.
Rank and determinant use fraction-free (Bareiss) elimination, Smith
normal form uses unimodular row/column reduction with deterministic
pivoting (smallest nonzero absolute value, then row-major position).

A chain of lattices with index p at each step and the multiply-by-p
compatibility admits an adapted basis b_1, ..., b_n with the i-th member
generated by b_1, ..., b_{n-1}, p^(i-1) b_n; it is recovered from the
Smith form of the coordinate matrix of the last member in the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ChainHypothesisError


def _as_matrix(m):
    rows = tuple(tuple(int(c) for c in row) for row in m)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k))
                       for j in range(m)) for i in range(n))


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def bareiss_det(m) -> int:
    """Exact determinant: the one gram_rank_disc returns, or 0."""
    return gram_rank_disc(m)[1] or 0


def gram_rank_disc(m):
    """(rank over Q, determinant when full rank else None) for a square
    integer matrix, a Gram matrix in the pipeline, by fraction-free
    elimination."""
    rows = _as_matrix(m)
    n = len(rows)
    work = [list(r) for r in rows]
    rank = 0
    prev = 1
    sign = 1
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, n) if work[i][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            work[row], work[piv] = work[piv], work[row]
            sign = -sign
        for i in range(row + 1, n):
            for j in range(col + 1, n):
                work[i][j] = (work[i][j] * work[row][col]
                              - work[i][col] * work[row][j]) // prev
            work[i][col] = 0
        prev = work[row][col]
        row += 1
        rank += 1
    if rank < n:
        return rank, None
    return rank, sign * prev


def row_basis(m):
    """Indices of the first maximal set of linearly independent rows of an
    integer matrix: each row is kept when it is not in the span of the
    rows kept before it (fraction-free elimination against them, each
    row divided by its content).  For a symmetric matrix the principal
    submatrix on these indices is nonsingular."""
    kept, echelon = [], []  # echelon: (pivot column, reduced row)
    for i, row in enumerate(_as_matrix(m)):
        for col, piv in echelon:
            if row[col]:
                row = [piv[col] * x - row[col] * y for x, y in zip(row, piv)]
                g = math.gcd(*row)
                row = [x // g for x in row] if g else row
        col = next((c for c, x in enumerate(row) if x), None)
        if col is not None:
            kept.append(i)
            echelon.append((col, row))
    return kept


def square_class_equal(d1: int, d2: int) -> bool:
    """Whether two nonzero integers lie in the same rational square class."""
    if d1 == 0 or d2 == 0:
        raise ValueError("square classes are defined for nonzero integers")
    prod = d1 * d2
    if prod < 0:
        return False
    r = math.isqrt(prod)
    return r * r == prod


# -- Smith normal form -------------------------------------------------------


def _snf_pivot(m, s, rows, cols):
    best = None
    for i in range(s, rows):
        for j in range(s, cols):
            v = abs(m[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return best


def smith_normal_form(mat):
    """U M V = D diagonal with d_1 | d_2 | ...; U, V unimodular.

    Pivoting is deterministic: smallest nonzero absolute value, ties by
    row-major position; the diagonal is normalized nonnegative.
    """
    m0 = _as_matrix(mat)
    rows = len(m0)
    cols = len(m0[0]) if rows else 0
    m = [list(r) for r in m0]
    u = [list(r) for r in mat_identity(rows)]
    v = [list(r) for r in mat_identity(cols)]

    def row_op(i, k, f):  # row_i -= f * row_k
        for j in range(cols):
            m[i][j] -= f * m[k][j]
        for j in range(rows):
            u[i][j] -= f * u[k][j]

    def col_op(j, k, f):  # col_j -= f * col_k
        for i in range(rows):
            m[i][j] -= f * m[i][k]
        for i in range(cols):
            v[i][j] -= f * v[i][k]

    def swap_rows(i, k):
        m[i], m[k] = m[k], m[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for r in m:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    s = 0
    while s < min(rows, cols):
        piv = _snf_pivot(m, s, rows, cols)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != s:
            swap_rows(s, pi)
        if pj != s:
            swap_cols(s, pj)
        # Euclid phase: exchange remainders into the pivot until it divides
        # its whole row and column (the pivot strictly shrinks each time,
        # which also keeps coefficient growth tame)
        while True:
            i = next((i for i in range(s + 1, rows)
                      if m[i][s] % m[s][s]), None)
            if i is not None:
                row_op(i, s, m[i][s] // m[s][s])
                swap_rows(s, i)
                continue
            j = next((j for j in range(s + 1, cols)
                      if m[s][j] % m[s][s]), None)
            if j is not None:
                col_op(j, s, m[s][j] // m[s][s])
                swap_cols(s, j)
                continue
            break
        # exact clearing: no remainders can reappear now
        for i in range(s + 1, rows):
            if m[i][s]:
                row_op(i, s, m[i][s] // m[s][s])
        for j in range(s + 1, cols):
            if m[s][j]:
                col_op(j, s, m[s][j] // m[s][s])
        # divisibility: the pivot must divide everything below-right
        bad = next(((i, j) for i in range(s + 1, rows)
                    for j in range(s + 1, cols) if m[i][j] % m[s][s]), None)
        if bad is not None:
            row_op(s, bad[0], -1)  # pull the offending row in and redo
            continue
        if m[s][s] < 0:
            for j in range(cols):
                m[s][j] = -m[s][j]
            for j in range(rows):
                u[s][j] = -u[s][j]
        s += 1
    d = tuple(tuple(m[i][j] for j in range(cols)) for i in range(rows))
    return (tuple(tuple(r) for r in u), d, tuple(tuple(r) for r in v))


def _unimodular_inverse(u):
    if bareiss_det(u) not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return _coordinates(u, mat_identity(len(u)))


def _solve_rational(basis, target_cols):
    """X with basis @ X = target_cols, exact over Q; None if singular."""
    n = len(basis)
    m = len(target_cols[0])
    aug = [[Fraction(basis[i][j]) for j in range(n)]
           + [Fraction(target_cols[i][j]) for j in range(m)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return tuple(tuple(aug[i][n + j] for j in range(m)) for i in range(n))


def lattice_contains(basis, vector) -> bool:
    """Whether the given column vector lies in the lattice spanned by the
    columns of basis."""
    sol = _solve_rational(basis, tuple((x,) for x in vector))
    if sol is None:
        raise ValueError("basis is singular")
    return all(c[0].denominator == 1 for c in sol)


def _coordinates(outer, inner):
    """Integer coordinate matrix C with outer @ C = inner, or None."""
    sol = _solve_rational(outer, inner)
    if sol is None:
        return None
    out = []
    for row in sol:
        ints = []
        for c in row:
            if c.denominator != 1:
                return None
            ints.append(int(c))
        out.append(tuple(ints))
    return tuple(out)


# -- chains ------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeChain:
    """Nested full-rank lattices, columns of each matrix generating one
    member, outermost first."""

    p: int
    bases: tuple

    def __post_init__(self):
        object.__setattr__(self, "bases",
                           tuple(_as_matrix(b) for b in self.bases))
        n = len(self.bases[0])
        for b in self.bases:
            if len(b) != n or any(len(r) != n for r in b):
                raise ValueError("all bases must be square of equal size")
            if bareiss_det(b) == 0:
                raise ValueError("lattice basis is singular")

    @property
    def n(self):
        return len(self.bases[0])

    @property
    def length(self):
        return len(self.bases)


@dataclass(frozen=True)
class AdaptedBasis:
    """Columns b_1..b_n of the outermost lattice realizing the chain as
    <b_1, ..., b_{n-1}, p^(i-1) b_n>."""

    p: int
    basis: tuple

    def member_basis(self, i: int):
        """Generating matrix of the i-th chain member (1-based)."""
        n = len(self.basis)
        scale = self.p ** (i - 1)
        return tuple(tuple(self.basis[r][c] * (scale if c == n - 1 else 1)
                           for c in range(n)) for r in range(n))


def verify_chain(chain: LatticeChain) -> bool:
    """Check inclusions, index p at every step, and the multiply-by-p
    condition (x outside the next member implies px outside the one after)
    on the generating sets."""
    p = chain.p
    bs = chain.bases
    for i in range(len(bs) - 1):
        c = _coordinates(bs[i], bs[i + 1])
        if c is None:
            return False  # not contained
        _, d, _ = smith_normal_form(c)
        divisors = [d[t][t] for t in range(len(d))]
        if sorted(divisors) != [1] * (len(divisors) - 1) + [p]:
            return False  # index is not exactly p
    for i in range(len(bs) - 2):
        ok = False
        for col in range(chain.n):
            gen = tuple(bs[i][r][col] for r in range(chain.n))
            if lattice_contains(bs[i + 1], gen):
                continue
            pgen = tuple(p * x for x in gen)
            if not lattice_contains(bs[i + 1], pgen):
                return False
            if lattice_contains(bs[i + 2], pgen):
                return False
            ok = True
        if not ok:
            return False  # every generator already inside the next member
    return True


def _lattices_equal(a, b) -> bool:
    ca = _coordinates(a, b)
    cb = _coordinates(b, a)
    return ca is not None and cb is not None


def adapted_basis(chain: LatticeChain) -> AdaptedBasis:
    """Basis realizing the whole finite chain, from the Smith form of the
    coordinate matrix of the last member in the first.

    The elementary divisors must come out (1, ..., 1, p^(m-1)); anything
    else violates the chain hypotheses and is reported.
    """
    if not verify_chain(chain):
        raise ChainHypothesisError("chain fails the index-p hypotheses")
    p = chain.p
    m = chain.length
    n = chain.n
    if m == 1:
        return AdaptedBasis(p=p, basis=chain.bases[0])
    coord = _coordinates(chain.bases[0], chain.bases[-1])
    if coord is None:
        raise ChainHypothesisError("last member is not inside the first")
    u, d, v = smith_normal_form(coord)
    divisors = [d[i][i] for i in range(n)]
    expected = [1] * (n - 1) + [p ** (m - 1)]
    if sorted(divisors) != expected:
        bad = next(x for x in sorted(divisors) if x not in (1, p ** (m - 1)))
        raise ChainHypothesisError(
            f"elementary divisors {sorted(divisors)} instead of {expected}; "
            f"offending divisor {bad}")
    # U C V = D, so Lambda_m = B_1 C V = (B_1 U^{-1}) D up to column order
    basis = mat_mul(chain.bases[0], _unimodular_inverse(u))
    # align columns so the p-power lands in the last slot
    order = sorted(range(n), key=lambda j: divisors[j])
    basis = tuple(tuple(row[j] for j in order) for row in basis)
    out = AdaptedBasis(p=p, basis=basis)
    for i in range(1, m + 1):
        if not _lattices_equal(out.member_basis(i), chain.bases[i - 1]):
            raise ChainHypothesisError(
                f"adapted basis fails to reproduce member {i}")
    return out
