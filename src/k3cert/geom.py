"""Tangency geometry of the branch sextic over F_p.

A line is a tritangent exactly when the restriction of f6 to it is a unit
times the square of a binary cubic; the cubic's roots are the contact
points.  Lines are canonicalized by scaling the last nonzero coefficient
to 1 and searched in a deterministic dual-point order, exhaustively over
P^2(F_{p^e}) for the requested field degrees.  The search runs on numpy
arrays of coordinate vectors over F_p: the seven restriction
coefficients of a block of lines are two float64 matrix products of
the digits of the powers of the line coefficients with those of the
sextic's coefficients (exact, as every sum stays below 2^53), and the
u*h^2 test (the formal square root from the leading coefficient, with
one inverse per line from the log tables) runs on those arrays.  Only
the lines that pass are restricted and split once more in scalar
arithmetic on coefficient encodings (plain integers, through FieldCtx's
scalar operations, in every field alike), which also gives their
decomposition and contact points; the certificates hold those
encodings.  A field above the Zech table limit raises
BudgetExceededError.

The decomposition f6 = f3^2 + l f5 (mod p) along a tritangent l happens
in the line's own coordinates: _restrict parametrizes l = 0 by
the two coordinates other than the first nonzero one of l, so the
principal square root r h of the restriction (r the square root of the
unit with the smaller representative in [0, p), h normalized to 1 at its
first nonzero coefficient) is f3 written in those two coordinates, and
f5 = (f6 - f3^2)/l by synthetic division in the first nonzero
coordinate of l.

Smoothness of the sextic (good reduction of the double cover for odd p)
is one rank computation over F_p: f6 and its partials have no common zero
over the algebraic closure exactly when their multiples span all 120
monomials of degree 14 (Lazard's bound 6 + 5 + 5 - 2 for forms of degrees
6, 5, 5, 5 in three variables).  Like the point counts and the tritangent
search, it stops at the Zech table limit: p above 2^22 raises
BudgetExceededError before any matrix is built.  (0 : 0 : 1) is singular
exactly when no form of the system has its z^k term (k its degree), and
is then returned as the witness without a matrix.  For p <= _SCAN_MAX_P
(31) the system is next evaluated at every other point of P^2(F_p) in
the witness order of the matrix path, (0 : 1 : w) by w and then (1 : v :
w) by (v, w), by float64 products with a cached table of monomial values;
the first common zero is the witness, without a matrix, unless a
singular point over an extension comes first in that order, on x = 0 or
over a smaller projection (1 : v'), which one gcd over F_p per line
through (0 : 0 : 1) rules out.  The Macaulay rows are built from the
integer coefficients of f6 and of its partials.  Euler's identity 6 f6
= x fx + y fy + z fz makes 45 of the 210 rows redundant: for p != 3 the
multiples of f6 lie in the span of the partials' multiples, and for p = 3
(where the left side vanishes) the multiples x_k m f_k of the last
nonzero partial f_k do; the matrix keeps 165 rows with the same row
space.  With the columns in descending powers of z, the form of least
degree k with a unit coefficient on z^k (for p != 3 a partial with k = 5,
which exists when a_006, a_105 or a_015 is nonzero; at p = 3, where fz
has no z^5 term, fx or fy, else f6 with k = 6) gives a unit triangular
block, its multiples by every monomial, with pivots at the 55 (or 45)
columns of z-degree >= k.  The other forms' multiples by monomials
divisible by z^k are redundant modulo the block and are dropped; the rest
(80 rows for p != 3) are divided by the block one z-level at a time, a
float64 matrix product per level, exact while p + k (D - k + 1) (p-1)^2 <
2^53, which holds for p <= 2^22 in every degree D <= 30.  Only the
remainder on the 65 (or 75) columns of z-degree below k goes through the
pivot loop, and the rank is the block size plus its rank.  The pivot loop
reduces mod p lazily: only the pivot column and the pivot row are reduced
at each step, and the rows below take one unreduced slice update per
pivot, which changes each entry by less than (p-1)^2.  Entries then stay
below p + ncols*(p-1)^2 in magnitude, and the matrix is stored in the
narrowest of int16, int32 and int64 that holds that bound (at 120
columns: int16 up to p = 17, int32 up to p = 4231; int64 holds it for p
<= 2^22 up to the 496 columns of degree 30).  On a rank deficit the
witness comes from the same echelon form: the rows with a z-free pivot
are binary forms in the ideal (they span the z-free part of the full
matrix's row space, as every block row has a pivot of z-degree >= k), and
a zero of their gcd lifts through the specialised system in z.  Without
such rows a singular curve is found on the line x = 0, and a finite
singular locus off that line from the matrix in a higher degree (at most
30), reduced the same way.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .count import MANDATORY_Q2_LIMIT
from .errors import BudgetExceededError, MathError, SingularReductionError
from .ffield import (
    DEFAULT_ZECH_LIMIT,
    FieldCtx,
    _embed_enc,
    _fq_gcd,
    _fq_roots,
    _sqrt_in_field,
    _zp_divmod,
    _zp_gcd2,
    _zp_mul,
    _zp_trim,
    check_table_budget,
    digit_inv,
    digit_mul,
    digit_powers,
    digits,
    field_create,
)
from .forms import (
    IntForm,
    ModForm,
    _kernel_basis,
    _pivot_split,
    _restrict,
    _square_split,
    reduce_mod,
)


# ---------------------------------------------------------------------------
# lines and binary-form utilities


def _line_at(ctx: FieldCtx, index: int):
    """The coefficient encodings of the line of P^2(F_q) with this index in
    dual-point order, its last nonzero coefficient 1: (a, b, 1) has index
    q*enc(a) + enc(b), then (a, 1, 0) has index q^2 + enc(a), and (1, 0,
    0) comes last."""
    q = ctx.q
    if index < q * q:
        return index // q, index % q, 1
    if index < q * q + q:
        return index - q * q, 1, 0
    return 1, 0, 0


def _binary_roots(ctx: FieldCtx, coeffs):
    """The projective roots of a nonzero binary form with multiplicities,
    from its coefficient encodings (coeffs[i] of u^(n-i) v^i), as (field,
    u0, v0, multiplicity) with u0 and v0 encodings over the smallest
    extension of ctx that holds the root, sorted by field degree and then
    (u0, v0).  The root (0 : 1) shows up through the degree drop of the
    dehomogenization; the other roots are (1 : r) for the roots r of the
    monic dehomogenization (ffield._fq_roots)."""
    f = _zp_trim(list(coeffs))
    if not f:
        raise ValueError("zero binary form has no well-defined roots")
    out = [(ctx, 0, 1, len(coeffs) - len(f))] if len(f) < len(coeffs) else []
    if len(f) > 1:
        inv = ctx._pow(f[-1], -1)
        out += [(ext, 1, r, m) for ext, r, m in
                _fq_roots(ctx, [ctx._mul(c, inv) for c in f])]
    out.sort(key=lambda r: (r[0].d, r[1], r[2]))
    return out


# ---------------------------------------------------------------------------
# certificates


@dataclass
class TritangentCert:
    """A line whose restriction of f6 is a unit times a perfect square, on
    coefficient encodings in the line's field.

    f3 and f5 realize f6 = f3^2 + line*f5 over that field and are present
    only for rational splits (the decomposition needs a square unit);
    contact points carry multiplicities and may live in extension fields,
    each as (field, encodings of the point, multiplicity)."""

    field: FieldCtx  # the line's field F_(p^e)
    line: tuple  # encodings of the coefficients, the last nonzero one 1
    line_field_degree: int  # e
    split_field_degree: int  # 1 when the splits are rational, else 2
    unit: int
    contact_points: tuple  # points with their first nonzero coordinate 1
    f3: ModForm | None
    f5: ModForm | None

    def line_str(self) -> str:
        return "+".join(f"{c}*{v}" for c, v in zip(self.line, "xyz") if c)


@dataclass
class ConicCert:
    """Exact integer identity f6 = scale * q3^2 + q2 * q4 exhibiting a
    conic q2 with six-fold tangency."""

    scale: int
    q2: IntForm
    q3: IntForm
    q4: IntForm


@dataclass
class SingularityReport:
    verdict: str  # smooth | singular
    field: FieldCtx | None = None  # the witness's field
    witness: tuple | None = None  # encodings of its coordinates in field


# ---------------------------------------------------------------------------
# tritangent search and decomposition


def _contact_points(ctx: FieldCtx, h, line):
    """The contact points of a tritangent with multiplicities: the roots of
    the binary form h (coefficient encodings) from _binary_roots, mapped
    through the line's parametrization (_kernel_basis) and normalized, as
    (field, (x, y, z), multiplicity) with encodings over the root's field."""
    roots = _binary_roots(ctx, h)
    basis = {ext: [[_embed_enc(ctx, ext, c) for c in w]
                   for w in _kernel_basis(ctx, line)] for ext, *_ in roots}
    out = []
    for ext, u0, v0, mult in roots:
        pt = [ext._add(ext._mul(u0, a), ext._mul(v0, b))
              for a, b in zip(*basis[ext])]
        inv = ext._pow(next(c for c in pt if c), -1)
        out.append((ext, tuple(ext._mul(c, inv) for c in pt), mult))
    return tuple(out)


def _decompose_mod_line(ctx: FieldCtx, f6: dict, line, h, unit: int):
    """f6 = f3^2 + line*f5 over ctx, on coefficient encodings (f6 and the
    results by monomial, the line and h as lists), from the rational
    square split unit * h^2 of the restriction of f6 to the line.

    _restrict parametrizes the line as s w1 + t w2, where w1 and w2 are 1
    in the non-pivot coordinates j1 and j2 respectively and 0 in the other
    one, so a binary form b(s, t) is the restriction of b(x_j1, x_j2).
    Canonical choice: f3 = r h(x_j1, x_j2) with r the principal square root
    of the unit; f6 - f3^2 vanishes on the line, and the quotient f5 =
    (f6 - f3^2)/line is unique.  It comes from synthetic division in the
    pivot variable x_v: with line = a x_v + L, the terms of x_v-degree e +
    1 of g = f6 - f3^2 give the quotient's terms of degree e, g_(e+1) = a
    q_e + L q_(e+1), and the terms left in x_v-degree 0 are the remainder,
    which must vanish."""
    mul, add = ctx._mul, ctx._add
    r = _sqrt_in_field(ctx, unit)
    pivot, j1, j2 = _pivot_split(line)
    f3 = {tuple(3 - i if v == j1 else i if v == j2 else 0
                for v in range(3)): mul(r, c)
          for i, c in enumerate(h) if c}
    n = 2 * (len(h) - 1)
    levels = [{} for _ in range(n + 1)]  # the terms of g by x_v-degree
    for m, c in f6.items():
        levels[m[pivot]][m] = c
    for m1, c1 in f3.items():
        for m2, c2 in f3.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            level = levels[m[pivot]]
            level[m] = add(level.get(m, 0), mul(c1, c2), -1)
    inv, quotient = ctx._pow(line[pivot], -1), {}
    axis = [tuple(int(v == j) for v in range(3)) for j in range(3)]
    dv = axis[pivot]
    rest = [(axis[j], line[j]) for j in (j1, j2) if line[j]]
    for e in range(n, 0, -1):
        lower = levels[e - 1]
        for m, c in levels[e].items():
            if not c:
                continue
            c = mul(c, inv)
            m = (m[0] - dv[0], m[1] - dv[1], m[2] - dv[2])
            quotient[m] = c
            for dj, lj in rest:
                mj = (m[0] + dj[0], m[1] + dj[1], m[2] + dj[2])
                lower[mj] = add(lower.get(mj, 0), mul(c, lj), -1)
    assert not any(levels[0].values()), "the line does not divide f6 - f3^2"
    return f3, quotient


def decompose_along_line(f6: IntForm, line, p: int):
    """Integer lifts (f3, f5) in [0, p) with f6 = f3^2 + line*f5 (mod p),
    for a line given by its integer coefficient triple.

    The line must be a tritangent of f6 mod p with rational splits."""
    ctx = field_create(p, 1)
    f6p = {m: c % p for m, c in f6.coeffs.items()}
    vec = tuple(c % p for c in line)
    split = _square_split(ctx, _restrict(ctx, f6p, f6.degree, vec))
    if split is None:
        raise MathError(
            "restriction to the line is not a perfect square: not a tritangent")
    if ctx._chi(split[1]) != 1:
        raise MathError(
            "tritangent splits only over the quadratic extension "
            "(non-square unit); the decomposition needs a rational split")
    f3, f5 = _decompose_mod_line(ctx, f6p, vec, *split)
    return IntForm(f3, 3), IntForm(f5, f6.degree - 1)


def _unit_times_square(ctx: FieldCtx, R):
    """Whether each line is u*h^2 with u a unit, given the coordinate
    vectors of its restriction coefficients: R[:, i, line] is the
    coefficient of s^(n-i) t^i.  A zero restriction is not.

    The index of the first nonzero coefficient must be even, 2*j0.  The
    coefficients are shifted to start there: that divides by t^(2 j0) and
    multiplies by s^(2 j0), both squares, so the shifted form is u*h^2
    exactly when the form is.  As in _square_split, h_0 = 1 and
    h_1, ..., h_k (k = n/2) solve the coefficients 1..k of g = R/u; those
    hold by construction, and the coefficients k+1..n are compared with
    the expansion of h^2, k+1 on every line and the others on the lines
    that pass it.  The one inverse per line, of u, goes through the log
    and exp tables."""
    n = R.shape[1] - 1
    k, p = n // 2, ctx.p
    ok = np.full(R.shape[2], n % 2 == 0)
    # the few lines with a zero leading coefficient are shifted apart
    G, moved = R.copy(), np.flatnonzero(~R[:, 0].any(axis=0))
    pad = np.zeros((ctx.d, 2 * n + 2, moved.size), dtype=np.int64)
    pad[:, :n + 1] = R[:, :, moved]
    nonzero = pad.any(axis=0)
    first = np.argmax(nonzero, axis=0)
    ok[moved] &= nonzero.any(axis=0) & (first % 2 == 0)
    G[:, :, moved] = pad[:, first + np.arange(n + 1)[:, None],
                         np.arange(moved.size)]
    inv = digit_inv(ctx, G[:, 0])[:, None]
    g = digit_mul(ctx, G[:, 1:k + 2], inv)
    H = np.zeros((ctx.d, k + 1, R.shape[2]), dtype=np.int64)
    H[0, 0] = 1
    y = g[:, 0]
    for j in range(1, k + 1):
        # y = g_j less the sum of h_a h_(j-a) over 0 < a < j, twice h_j
        H[:, j] = (y + (y & 1) * p) >> 1
        y = (g[:, j] - digit_mul(ctx, H[:, 1:j + 1], H[:, j:0:-1]).sum(
            axis=1)) % p
    ok &= ~y.any(axis=0)  # the coefficient k + 1 of u h^2
    live = np.flatnonzero(ok)
    a, b, starts = _square_terms(n)
    H = H[:, :, live]
    square = np.add.reduceat(digit_mul(ctx, H[:, a], H[:, b]), starts,
                             axis=1) % p
    g = digit_mul(ctx, G[:, k + 2:, live], inv[:, :, live])
    ok[live] = (square == g).all(axis=(0, 1))
    return ok


@functools.lru_cache(maxsize=None)
def _square_terms(n: int):
    """The products h_a h_b of the coefficients k+2..n of h^2 (k = n/2,
    h of degree k, n >= 4): their indices a and b, coefficient by
    coefficient, and where each coefficient's products start."""
    k = n // 2
    terms = [[(a, i - a) for a in range(i - k, k + 1)]
             for i in range(k + 2, n + 1)]
    flat = [t for ts in terms for t in ts]
    starts = np.cumsum([0] + [len(ts) for ts in terms[:-1]])
    return (np.array([a for a, _ in flat]), np.array([b for _, b in flat]),
            starts)


_SEARCH_BLOCK = 1 << 14  # lines per array block of the tritangent search


@functools.lru_cache(maxsize=None)
def _restriction_terms(n: int):
    """Monomial positions, in _monomials(n) order, and integer multipliers
    of the restriction coefficients of a form of degree n in the three
    line families, with position len(monomials) for a missing term.

    (a, b, 1) is parametrized as (s, t, -a s - b t), so the coefficient of
    s^(n-m) t^m is sum_(j,l) (-1)^(j+l) binom(l+j, l) f_(n-m-j, m-l, l+j)
    a^j b^l, indexed [j, m, l]; (a, 1, 0) as (s, -a s, t), whose
    coefficient is sum_j (-1)^j f_(n-m-j, j, m) a^j, indexed [j, m]; and
    (1, 0, 0) as (0, s, t), with coefficient f_(0, n-m, m), indexed [m]."""
    _, index = _monomials(n)
    missing = len(index)
    pos1 = np.full((n + 1,) * 3, missing)
    mult1 = np.zeros((n + 1,) * 3, dtype=np.int64)
    pos2 = np.full((n + 1,) * 2, missing)
    mult2 = np.zeros((n + 1,) * 2, dtype=np.int64)
    for m in range(n + 1):
        for j in range(n - m + 1):
            pos2[j, m] = index[(n - m - j, j, m)]
            mult2[j, m] = (-1) ** j
            for l in range(m + 1):
                pos1[j, m, l] = index[(n - m - j, m - l, l + j)]
                mult1[j, m, l] = (-1) ** (j + l) * math.comb(l + j, l)
    pos3 = np.array([index[(0, n - m, m)] for m in range(n + 1)])
    return (pos1, mult1), (pos2, mult2), pos3


def _restriction_blocks(f: ModForm, q0: int, e: int):
    """The lines of P^2(F_q), q = q0^e, in _line_at order and in blocks:
    the coordinate vectors of the restriction coefficients of f to each
    line of a block, shape (d, n + 1, lines), and whether the line is
    defined over a proper subfield F_{q0^e1}.

    With the digits of the powers x^0..x^n of every element as rows (a
    float64 table of q (n + 1) d entries, 56 q d bytes for a sextic, filled
    in slices of _SEARCH_BLOCK elements), a block of lines (a, b, 1) is
    two matrix products: the rows of a times
    the digits of c t^k t^k', for the coefficients c of _restriction_terms,
    give (reduced mod p) the digits of the coefficient of b^l t^k' in each
    R_m; those times the rows of b give R_m.  The lines (a, 1, 0) take one
    product, the rows of a times the digits of c t^k.  The products run in
    float64: every sum has (n + 1) d terms below p^2, exact below 2^53.  An
    element lies in F_{q0^e1} exactly when it is zero or its log is
    divisible by (q - 1)/(q0^e1 - 1)."""
    ctx, n = f.ctx, f.degree
    q, p, d = ctx.q, ctx.p, ctx.d
    if (n + 1) * d * (p - 1) ** 2 >= 1 << 53:
        raise ValueError(f"the float64 restriction is not exact at p = {p}")
    # subs[i][x]: the element of encoding x lies in the i-th proper
    # subfield; those subfields need not contain each other (e = 6)
    log = ctx.tables()[1]
    subs = [(log < 0) | (log % ((q - 1) // (q0 ** e1 - 1)) == 0)
            for e1 in range(1, e) if e % e1 == 0]
    proper = np.zeros(q, dtype=bool)
    for sub in subs:
        proper |= sub
    monos, _ = _monomials(n)
    coeffs = digits(ctx, [f.coeffs.get(m, 0) for m in monos] + [0])
    (pos1, mult1), (pos2, mult2), pos3 = _restriction_terms(n)
    # U[(s, i), x]: digit i of t^(s+x) for s <= 2d - 2 and x < d, read
    # from the digits of the field's powers t^0..t^(3d-3) (t has the
    # encoding p, and is 0 over F_p)
    deg = np.arange(2 * d - 1)
    U = digits(ctx, [ctx._pow(p % q, s) for s in range(3 * d - 2)])
    U = U[:, np.add.outer(deg, deg[:d])].transpose(1, 0, 2).reshape(
        (2 * d - 1) * d, d)
    # X1[(k, j), (i, m, k', l)]: digit i of the a^j b^l coefficient of R_m
    # times t^k t^k'; X2[(i, m), (k, j)]: of the a^j coefficient times t^k
    C1 = (U @ (coeffs[:, pos1] * mult1 % p).reshape(d, -1) % p).reshape(
        2 * d - 1, d, n + 1, n + 1, n + 1)[np.add.outer(deg[:d], deg[:d])]
    X1 = C1.transpose(0, 3, 2, 4, 1, 5).reshape(
        d * (n + 1), -1).astype(np.float64)
    C2 = U[:d * d] @ (coeffs[:, pos2] * mult2 % p).reshape(d, -1) % p
    X2 = C2.reshape(d, d, n + 1, n + 1).transpose(1, 3, 0, 2).reshape(
        d * (n + 1), d * (n + 1)).astype(np.float64)
    powers = np.empty((q, d * (n + 1)))
    for c0 in range(0, q, _SEARCH_BLOCK):
        enc = np.arange(c0, min(q, c0 + _SEARCH_BLOCK))
        powers[c0:c0 + enc.size] = digit_powers(ctx, n, enc).transpose(
            1, 0, 2).reshape(enc.size, -1)
    rows, cols = max(1, _SEARCH_BLOCK // q), min(q, _SEARCH_BLOCK)
    for r0 in range(0, q, rows):
        W = (powers[r0:r0 + rows] @ X1).astype(np.int64) % p
        W = W.reshape(-1, d * (n + 1), d * (n + 1)).transpose(1, 0, 2).reshape(
            -1, d * (n + 1)).astype(np.float64)
        for c0 in range(0, q, cols):
            R = (W @ powers[c0:c0 + cols].T).astype(np.int64) % p
            skip = np.zeros((min(rows, q - r0), min(cols, q - c0)),
                            dtype=bool)
            for sub in subs:
                skip |= sub[r0:r0 + rows, None] & sub[None, c0:c0 + cols]
            yield R.reshape(d, n + 1, -1), skip.ravel()
    for c0 in range(0, q, _SEARCH_BLOCK):
        R = (X2 @ powers[c0:c0 + _SEARCH_BLOCK].T).astype(np.int64) % p
        yield R.reshape(d, n + 1, -1), proper[c0:c0 + _SEARCH_BLOCK]
    yield coeffs[:, pos3, None], np.array([e > 1])


def _candidate_lines(f: ModForm, q0: int, e: int):
    """Indices, in _line_at order, of the lines of P^2(F_q), q = q0^e, on
    which f restricts to a unit times a square, without the lines defined
    over a proper subfield; consecutive blocks are tested together up to
    _SEARCH_BLOCK lines."""
    start, pending, width = 0, [], 0
    for block in itertools.chain(_restriction_blocks(f, q0, e), [None]):
        if pending and (block is None
                        or width + block[0].shape[2] > _SEARCH_BLOCK):
            ok = _unit_times_square(
                f.ctx, np.concatenate([R for R, _ in pending], axis=2))
            ok &= ~np.concatenate([skip for _, skip in pending])
            yield from (start + np.flatnonzero(ok)).tolist()
            start, pending, width = start + width, [], 0
        if block is not None:
            pending.append(block)
            width += block[0].shape[2]


def find_tritangents(f6: ModForm, search_field_degree: int = 1, *,
                     deep: bool = False):
    """All tritangent lines of f6 over F_{p^e} for e up to the requested
    degree, with contact data; exhaustive over the dual plane.

    Each field is searched with the array test of _candidate_lines; only
    the lines it finds go, once each, through _restrict and _square_split
    on coefficient encodings, whose split also gives the decomposition
    and the contact points; the certificate holds them.  Every q = p^e is
    checked, in order of e, before any field is built: the test needs Zech
    tables, so a field above the Zech limit raises BudgetExceededError
    (check_table_budget, the check FieldCtx.tables makes), and so does a
    field with q^2 above the desk-scale budget MANDATORY_Q2_LIMIT unless
    deep is set (the q^2 + q + 1 lines run at about 2.5e6 per second over
    F_p and 1e6 over F_(p^2) on a 2-core VM).  Each field's
    search holds a float64 table of 56 q d bytes (_restriction_blocks),
    235 MB at q = 2^22 over a prime field, besides the field's tables,
    which the search builds: the first blocks over F_4194301 peak at 360
    MB, against 34 MB for the field and sextic alone.  A line whose
    restriction vanishes identically (a line component of the branch
    locus) is skipped; that configuration is singular and belongs to
    smoothness_check."""
    base = f6.ctx
    for e in range(1, search_field_degree + 1):
        q = base.q ** e
        check_table_budget(q)
        if q ** 2 > MANDATORY_Q2_LIMIT and not deep:
            raise BudgetExceededError(
                f"the tritangent search over F_{q} tests q^2 + q + 1 "
                f"lines, beyond the desk-scale budget q^2 <= "
                f"{MANDATORY_Q2_LIMIT}; pass deep=True (--deep) to run it")
    out = []
    for e in range(1, search_field_degree + 1):
        ctx = field_create(base.p, base.d * e)
        f = f6 if ctx is base else f6.embed(ctx)
        coeffs = f.coeffs
        for index in _candidate_lines(f, base.q, e):
            vec = _line_at(ctx, index)
            split = _square_split(ctx, _restrict(ctx, coeffs, f.degree, vec))
            if split is None:
                raise AssertionError(f"line {index} passed the array test "
                                     "but is not a tritangent")
            h, unit = split
            rational = ctx._chi(unit) == 1
            f3 = f5 = None
            if rational:
                f3, f5 = _decompose_mod_line(ctx, coeffs, vec, h, unit)
                f3, f5 = ModForm(ctx, f3, 3), ModForm(ctx, f5, f.degree - 1)
            out.append(TritangentCert(
                field=ctx,
                line=vec,
                line_field_degree=e,
                split_field_degree=1 if rational else 2,
                unit=unit,
                contact_points=_contact_points(ctx, h, vec),
                f3=f3,
                f5=f5,
            ))
    return out


def verify_conic_identity(cert: ConicCert, f6: IntForm) -> bool:
    """Exact check of f6 = scale * q3^2 + q2 * q4 over Z, on the
    coefficient dicts."""
    if not 2 * cert.q3.degree == cert.q2.degree + cert.q4.degree == f6.degree:
        return False
    rhs: dict = {}
    for a, b, scale in ((cert.q3, cert.q3, cert.scale), (cert.q2, cert.q4, 1)):
        for m1, c1 in a.coeffs.items():
            for m2, c2 in b.coeffs.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                rhs[m] = rhs.get(m, 0) + scale * c1 * c2
    return {m: c for m, c in rhs.items() if c} == f6.coeffs


# ---------------------------------------------------------------------------
# split curves and their intersection numbers, in plain integers mod p


@dataclass
class SplitCurve:
    """A line or conic Q = 0 over F_p with f6 = s h^2 + Q Q' (mod p): its
    preimage on w^2 = f6 splits into the components X+ (w = sqrt(s) h)
    and X- (w = -sqrt(s) h), which are F_p-rational when s is a square
    mod p.  A tritangent with rational splits has s = 1, h = f3 and Q' =
    f5; a conic certificate has its scale, h = q3 and Q' = q4.  Forms are
    {monomial: int in [0, p)}.

    sqrt(s) is c sqrt(n) with n = 1 when s is a square mod p and else the
    least non-square, and c the principal root of s/n in F_p: that fixes
    which component is X+."""

    name: str
    p: int
    degree: int
    curve: dict
    cofactor: dict
    half: dict
    scale: int

    @classmethod
    def from_tritangent(cls, name, cert: TritangentCert):
        """From a certificate over F_p, whose encodings are the forms'
        coefficients in [0, p)."""
        line = dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), cert.line))
        return cls(name, cert.field.p, 1, line, cert.f5.coeffs,
                   cert.f3.coeffs, 1)

    @classmethod
    def from_conic(cls, name, cert: ConicCert, p: int):
        def ints(form):
            return {m: c % p for m, c in form.coeffs.items()}

        return cls(name, p, 2, ints(cert.q2), ints(cert.q4), ints(cert.q3),
                   cert.scale % p)

    @functools.cached_property
    def root(self):
        """(c, n) with sqrt(s) = c sqrt(n)."""
        p = self.p
        ctx = field_create(p, 1)
        n = 1 if ctx._chi(self.scale) >= 0 else next(
            n for n in range(2, p) if ctx._chi(n) < 0)
        return _sqrt_in_field(ctx, self.scale * pow(n, -1, p) % p), n

    @functools.cached_property
    def phi(self):
        """A parametrization P^1 -> curve: three binary forms of degree
        deg Q, as coefficient lists ascending in t.  A line takes
        _kernel_basis; a conic, phi(V) = q2(V) P0 - (grad q2(P0) . V)
        V, the second point of the conic on the line through P0 and V,
        for V = s e_i + t e_j on a coordinate line x_k = 0 with P0_k != 0.
        P0 is (0 : 0 : 1) when it lies on the conic, else the first
        F_p-point on a line through it and (1 : u : 0) by u; a smooth
        conic has p + 1 points, at most two of them on x = 0.  None when
        the conic is singular mod p."""
        p, q2 = self.p, self.curve
        ctx = field_create(p, 1)
        if self.degree == 1:
            basis = _kernel_basis(ctx, tuple(
                q2.get(m, 0) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
            return [list(w) for w in zip(*basis)]
        a = [[0] * 3 for _ in range(3)]  # q2(v) = v^T a v / 2
        for m, c in q2.items():
            i, j = (v for v in range(3) for _ in range(m[v]))
            a[i][j] += c
            a[j][i] += c
        det = sum(a[0][v] * (a[1][v - 2] * a[2][v - 1]
                             - a[1][v - 1] * a[2][v - 2]) for v in range(3))
        if det % p == 0:
            return None
        P0, C = None, q2.get((0, 0, 2), 0)  # C = q2(0, 0, 1)
        if C == 0:
            P0 = (0, 0, 1)
        for u in range(p if P0 is None else 0):
            # q2(1, u, t) = A + B t + C t^2
            A = sum(c * u ** m[1] for m, c in q2.items() if m[2] == 0)
            B = a[0][2] + u * a[1][2]
            disc = (B * B - 4 * A * C) % p
            if ctx._chi(disc) >= 0:
                t = (_sqrt_in_field(ctx, disc) - B) * pow(2 * C, -1, p)
                P0 = (1, u, t % p)
                break
        k = next(v for v in range(3) if P0[v])
        i, j = (v for v in range(3) if v != k)
        g = [sum(a[v][w] * P0[w] for w in range(3)) for v in range(3)]
        quad = [a[i][i] // 2, a[i][j], a[j][j] // 2]  # q2(s e_i + t e_j)
        return [[(P0[v] * x - y) % p for x, y in zip(quad, (
            g[i] * (v == i), g[i] * (v == j) + g[j] * (v == i),
            g[j] * (v == j)))] for v in range(3)]

    @functools.cached_property
    def _images(self):
        return {(0, 0, 0): [1]}

    def image(self, form: dict, n: int):
        """form(phi) for a form of degree n, as a binary form of degree n
        deg Q: its coefficient list ascending in t, untrimmed.  The images
        of the monomials are built degree by degree, one product each, and
        kept for the next form."""
        p, phi, images = self.p, self.phi, self._images
        if (0, 0, n) not in images:
            for m in _monomials(n)[0]:
                v = 0 if m[0] else 1 if m[1] else 2
                lower = (m[0] - (v == 0), m[1] - (v == 1), m[2] - (v == 2))
                if lower not in images:
                    self.image({}, n - 1)
                images[m] = _zp_mul(images[lower], phi[v], p)
        out = [0] * (n * self.degree + 1)
        for m, c in form.items():
            for i, x in enumerate(images[m]):
                out[i] += c * x
        return [c % p for c in out]


def _order_sum(sigma, g, p: int) -> int:
    """The sum of the orders of the nonzero binary form sigma at the roots
    of the binary form g on P^1, infinity (s = 0, a trailing zero of the
    coefficient list) included, by repeated gcds."""
    a, gp = _zp_trim(list(sigma)), _zp_trim(list(g))
    total = len(sigma) - len(a) if len(gp) < len(g) else 0
    while True:
        d = _zp_gcd2(a, gp, p)
        if len(d) < 2:
            return total
        total += len(d) - 1
        a = _zp_divmod(a, d, p)[0]


def _form_gcd(a, b, p: int):
    """The gcd of two binary forms, in the coefficient lists of
    _order_sum: the gcd of the polynomials in t, times s to the smaller
    order at infinity."""
    at, bt = _zp_trim(list(a)), _zp_trim(list(b))
    return _zp_gcd2(at, bt, p) + [0] * min(len(a) - len(at), len(b) - len(bt))


def split_pairing(X: SplitCurve, Y: SplitCurve):
    """X+ . Y+ on the double cover, or None when X is a conic that is
    singular mod p (or lies on Y).

    When sqrt(s_X) and sqrt(s_Y) are c sqrt(n) with different n, Frobenius
    swaps the components of one curve and fixes those of the other, so
    X+ . Y+ = X+ . Y- = deg X deg Y / 2.  Otherwise X+ is parametrized by
    phi and sigma = (c_X h_X - c_Y h_Y)(phi) is the difference of the two
    sheets over it, up to the unit sqrt(n), so X+ meets Y+ at the roots
    of g = Q_Y(phi) where sigma vanishes.  Where Q_Y' is a unit, w -
    sqrt(s_Y) h_Y is a local equation of Y+ (its product with w + sqrt(s_Y)
    h_Y is Q_Y Q_Y'), and the point counts the order of sigma.  Where Q_Y'
    vanishes too, h_Y does not (f6 would be singular there), so w +
    sqrt(s_Y) h_Y is a unit, Q_Y is a local equation, and the point counts
    the order of g.  With c the gcd of g and Q_Y'(phi), that is the
    orders of sigma at the roots of g, less those at the roots of c, plus
    the orders of g at the common roots of c and sigma.  A sigma that
    vanishes identically meets Y+ at every root of g, by Q_Y'(phi) = 0."""
    p, (cx, nx), (cy, ny) = X.p, X.root, Y.root
    if nx != ny:
        return X.degree * Y.degree // 2
    if X.phi is None:
        return None
    g = X.image(Y.curve, Y.degree)
    if not any(g):
        return None
    sigma = [(cx * a - cy * b) % p for a, b in
             zip(X.image(X.half, 3), X.image(Y.half, 3))]
    if not any(sigma):
        return len(g) - 1
    c = _form_gcd(g, X.image(Y.cofactor, 6 - Y.degree), p)
    return (_order_sum(sigma, g, p) - _order_sum(sigma, c, p)
            + _order_sum(g, _form_gcd(c, sigma, p), p))


def class_matrix(curves):
    """The intersection matrix of H and the components X+, X- of each
    split curve, in that order: H^2 = 2, H . X = deg X, X^2 = -2, X+ . X-
    = deg X^2 + 2, and for two curves X+ . Y+ = X- . Y- from split_pairing
    (in the direction Y, X when X, Y does not decide it) and X+ . Y- = X-
    . Y+ = deg X deg Y - X+ . Y+.  Raises MathError naming a pair that
    neither direction decides."""
    n = 1 + 2 * len(curves)
    G = [[0] * n for _ in range(n)]
    G[0][0] = 2
    for i, X in enumerate(curves):
        a = 1 + 2 * i
        G[0][a] = G[a][0] = G[0][a + 1] = G[a + 1][0] = X.degree
        G[a][a] = G[a + 1][a + 1] = -2
        G[a][a + 1] = G[a + 1][a] = X.degree ** 2 + 2
        for j, Y in enumerate(curves[:i]):
            same = split_pairing(X, Y)
            if same is None:
                same = split_pairing(Y, X)
            if same is None:
                raise MathError(
                    f"the pairing of {X.name} and {Y.name} is not decided "
                    f"mod {X.p}: each is a conic singular mod p or lies on "
                    "the other")
            b = 1 + 2 * j
            for r, c, v in ((a, b, same), (a + 1, b + 1, same),
                            (a, b + 1, X.degree * Y.degree - same),
                            (a + 1, b, X.degree * Y.degree - same)):
                G[r][c] = G[c][r] = v
    return G


# ---------------------------------------------------------------------------
# smoothness

# Lazard: forms of degrees 6, 5, 5 (and a fourth of degree 5) in three
# variables without a common projective zero generate every monomial of
# degree 6 + 5 + 5 - 2.
_MACAULAY_DEGREE = 14


@functools.lru_cache(maxsize=None)
def _monomials(degree: int):
    """Monomials of one degree in column order, with their positions.

    Monomials containing z come first (descending power of z); the z-free
    ones x^(degree-i) y^i end the list in order of i, so the tail of a
    row is the coefficient list of a binary form in (x, y)."""
    monos = tuple((degree - c - b, b, c)
                  for c in range(degree, -1, -1) for b in range(degree - c + 1))
    return monos, {m: i for i, m in enumerate(monos)}


@functools.lru_cache(maxsize=None)
def _product_columns(degree: int, form_degree: int) -> np.ndarray:
    """cols[k, j]: the column, in degree `degree`, of the k-th monomial of
    degree form_degree times the j-th monomial of the complementary degree."""
    _, index = _monomials(degree)
    cols = np.array([[index[(a + d, b + e, c + f)]
                      for d, e, f in _monomials(degree - form_degree)[0]]
                     for a, b, c in _monomials(form_degree)[0]], dtype=np.intp)
    cols.setflags(write=False)
    return cols


@functools.lru_cache(maxsize=None)
def _free_of(degree: int, v: int) -> np.ndarray:
    """Positions, in _monomials order, of the monomials of one degree that
    do not contain the variable v."""
    return np.array([j for j, m in enumerate(_monomials(degree)[0])
                     if m[v] == 0], dtype=np.intp)


@functools.lru_cache(maxsize=None)
def _partial_terms():
    """pos[v, j] and mult[v, j]: the partial in x_v of a sextic has, on the
    j-th monomial of degree 5, mult[v, j] times the sextic's coefficient
    at position pos[v, j] (both in _monomials order)."""
    index = _monomials(6)[1]
    monos = _monomials(5)[0]
    pos = np.array([[index[tuple(e + (i == v) for i, e in enumerate(m))]
                     for m in monos] for v in range(3)], dtype=np.intp)
    mult = np.array([[m[v] + 1 for m in monos] for v in range(3)],
                    dtype=np.int64)
    return pos, mult


def _smoothness_system(f6: ModForm):
    """Generators of the ideal of f6 and its partials, as (degree,
    coefficients) pairs with the integer coefficients in [0, p) in
    _monomials order, and the `skip` argument of _macaulay_matrix.

    The partials come from f6's 28 coefficients through _partial_terms.
    Euler's identity 6 f6 = x fx + y fy + z fz makes 45 of the 210 rows in
    degree 14 redundant.  For p != 3 f6 lies in the ideal of its partials,
    so the nonzero partials alone generate it.  For p = 3 the left side
    vanishes: with f_k the last nonzero partial, x_k m f_k = -sum_{i != k}
    x_i m f_i, so the multiples of f_k by monomials containing x_k are
    left out.  The row space, and so the rank and the z-free rows, is the
    same in every degree."""
    p, index = f6.ctx.p, _monomials(6)[1]
    c6 = np.zeros(len(index), dtype=np.int64)
    for m, c in f6.coeffs.items():
        c6[index[m]] = c
    pos, mult = _partial_terms()
    partials = [(v, (5, g)) for v, g in enumerate(c6[pos] * mult % p)
                if g.any()]
    generators = [g for _, g in partials]
    if p != 3:
        return generators, None
    return [(6, c6)] + generators, partials[-1][0] if partials else None


def _macaulay_matrix(system, degree: int, skip=None) -> np.ndarray:
    """Rows: every form of the system, a (degree, coefficients) pair as
    _smoothness_system gives, times every monomial that brings it to
    `degree`, as int64 coefficient vectors over F_p; with skip = v, not
    the multiples of the last form by monomials containing the variable
    v."""
    ncols = len(_monomials(degree)[0])
    blocks = []
    for i, (e, coeffs) in enumerate(system):
        cols = _product_columns(degree, e)
        if skip is not None and i == len(system) - 1:
            cols = cols[:, _free_of(degree - e, skip)]
        block = np.zeros((cols.shape[1], ncols), dtype=np.int64)
        block[np.arange(cols.shape[1]), cols] = coeffs[:, None]
        blocks.append(block)
    return np.vstack(blocks)


def _elimination_dtype(p: int, ncols: int):
    """The narrowest of int16, int32 and int64 that holds p + ncols*(p-1)^2,
    the largest magnitude a lazily reduced elimination reaches (int64 does
    for p <= 2^22 up to the 496 columns of degree 30)."""
    return next(t for t in (np.int16, np.int32, np.int64)
                if p + ncols * (p - 1) ** 2 <= np.iinfo(t).max)


def _row_echelon(mat: np.ndarray, p: int):
    """Row echelon form of a matrix with entries in [0, p), pivots scaled
    to 1; returns the nonzero rows, in the dtype of `mat`, and their pivot
    columns.

    The elimination runs in the dtype of _elimination_dtype with lazy
    reduction: only the pivot column and the pivot row are reduced mod p at
    each step, and the rows below take one unreduced slice update.  Each
    step subtracts less than (p-1)^2 from an entry, at most once per pivot,
    so no entry leaves the dtype.  A pivot row is reduced when it is chosen
    and no later step touches it, so the returned rows are reduced."""
    m = mat.astype(_elimination_dtype(p, mat.shape[1]))
    pivots = []
    for c in range(m.shape[1]):
        r = len(pivots)
        col = m[r:, c]
        col %= p
        nz = col.nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            m[[r, r + nz[0]], c:] = m[[r + nz[0], r], c:]
        row = m[r, c:]
        row %= p
        row *= pow(int(row[0]), -1, p)
        row %= p
        below = m[r + 1:, c:]
        below -= below[:, :1] * row
        pivots.append(c)
    return m[:len(pivots)].astype(mat.dtype), pivots


@functools.lru_cache(maxsize=None)
def _block_rows(form_degrees: tuple, degree: int, skip, i: int, k: int):
    """Rows of _macaulay_matrix for forms of these degrees: those of form
    i, and those of the other forms whose multiplier has z-degree below
    k."""
    zdeg = [np.array([m[2] for m in _monomials(degree - e)[0]])
            for e in form_degrees]
    if skip is not None:
        zdeg[-1] = zdeg[-1][_free_of(degree - form_degrees[-1], skip)]
    owner = np.repeat(np.arange(len(zdeg)), [z.size for z in zdeg])
    zdeg = np.concatenate(zdeg)
    return np.flatnonzero(owner == i), np.flatnonzero((owner != i) & (zdeg < k))


def _reduced_echelon(system, degree: int, skip, p: int):
    """Rank of the Macaulay matrix of a system from _smoothness_system in
    `degree`, and the echelon form of the rows that a unit triangular
    block leaves: (rank, rows, pivots), the rows over the columns of
    z-degree below k.  Some form of the system must have its z^k term (k
    its degree): smoothness_check has ruled out a singular (0 : 0 : 1).

    A form g = u z^k + (terms of lower z-degree) of the system with u != 0
    gives, times the monomials m of degree `degree` - k, rows whose first
    column (columns run by descending z-degree) is m z^k: a triangular
    block with pivots at every column of z-degree >= k.  A multiple m h of
    another form with z^k dividing m is redundant modulo the block and the
    multiples of h of lower z-degree, as z^k h = (g h - (g - u z^k) h)/u;
    so those rows are dropped.  The others are divided by the block one
    z-level at a time from z^degree down to z^k: the block's rows of level
    c are the identity on the level's columns, so subtracting the level's
    coefficients times those rows clears the level and changes only the
    k levels below it, one float64 matrix product per level; the
    remainder is reduced mod p once, at the end.  A z-level has at most
    degree - k + 1 columns, its entries are reduced into (-p, p) before
    they multiply the block's rows (entries in [0, p)), and each column
    takes at most k such updates, one from each of the k levels above it,
    so every entry stays below p + k (degree - k + 1) (p-1)^2 in magnitude,
    which float64 holds exactly for p <= 2^22 up to degree 30.  The rank is
    the block size plus the rank of the remainder on the columns of
    z-degree below k, and the z-free rows of the full matrix span the same
    space as those of the remainder, as the block has no row without a
    pivot of z-degree >= k.

    The form is the one of least (degree, index).  At p = 3 the last form
    can lose multiples to skip, but it never has its z^5 term: with fz
    nonzero the last form is fz, whose z^5 coefficient is 6 a_006 = 0, and
    with fz = 0 every exponent of z in f6 is divisible by 3."""
    # the z^e term comes first in _monomials(e)
    k, i = min((e, i) for i, (e, coeffs) in enumerate(system) if coeffs[0])
    mat = _macaulay_matrix(system, degree, skip)
    own, rest = _block_rows(tuple(e for e, _ in system), degree, skip, i, k)
    u = int(system[i][1][0])
    # transposed, so that a z-level is a slice of contiguous rows
    block = (mat[own] * pow(u, -1, p) % p).T.astype(np.float64, order="C")
    rem = mat[rest].T.astype(np.float64, order="C")

    def level_end(c):  # the columns of z-degree >= c
        return (degree - c + 1) * (degree - c + 2) // 2

    for c in range(degree, k - 1, -1):
        lo, hi, end = level_end(c + 1), level_end(c), level_end(max(c - k, 0))
        np.fmod(rem[lo:hi], p, out=rem[lo:hi])
        rem[hi:end] -= block[hi:end, lo:hi] @ rem[lo:hi]
    size = level_end(k)
    rows, pivots = _row_echelon(
        rem[size:].T.astype(np.int64, order="C") % p, p)
    return size + len(pivots), rows, pivots


def _z_free_forms(rows, pivots, degree: int):
    """From the echelon form of the Macaulay matrix in `degree`: a basis of
    the binary forms in (x, y) in the ideal, the rows with a z-free pivot,
    as coefficient lists (entry i of x^(degree-i) y^i)."""
    first = rows.shape[1] - (degree + 1)
    return [row[first:].tolist() for row, col in zip(rows, pivots)
            if col >= first]


def _binary_gcd(forms, p: int):
    """The gcd of binary forms over F_p given as coefficient lists (_form_gcd
    folded over them)."""
    return functools.reduce(lambda a, b: _form_gcd(a, b, p), forms)


def _lift_through_z(system, ext: FieldCtx, u0: int, v0: int):
    """A common zero (u0 : v0 : w) of the system, for encodings u0 and v0
    over ext, as (field, encodings) over the smallest extension of ext that
    holds w (the least w first), or None when there is none over (u0 :
    v0).  Each form specialises to the polynomial in z whose coefficient of
    z^c is the sum of f_abc u0^a v0^b, one dot product each; the
    specialised system is not identically zero because (0 : 0 : 1), on the
    closure of that line, is not singular."""
    upow, vpow = [1], [1]
    for _ in range(max(e for e, _ in system)):
        upow.append(ext._mul(upow[-1], u0))
        vpow.append(ext._mul(vpow[-1], v0))
    gz = []
    for e, coeffs in system:
        xs, ys = [[] for _ in range(e + 1)], [[] for _ in range(e + 1)]
        for (a, b, c), coef in zip(_monomials(e)[0], coeffs.tolist()):
            if coef:  # in [0, p): the same encoding in every extension
                xs[c].append(coef)
                ys[c].append(ext._mul(upow[a], vpow[b]))
        gz = _fq_gcd(ext, gz, [ext._dot(x, y) for x, y in zip(xs, ys)])
        if len(gz) == 1:
            return None
    field, _, w, _ = _binary_roots(ext, gz)[0]
    return field, (_embed_enc(ext, field, u0), _embed_enc(ext, field, v0), w)


def _singular_witness(ctx: FieldCtx, system, skip, forms):
    """A common zero of a system from _smoothness_system whose Macaulay
    matrix in degree 14 is rank deficient, given the z-free forms of its
    echelon form, as (field, encodings): the point comes with its first
    nonzero coordinate 1, as _binary_roots gives (1 : r) or (0 : 1).

    smoothness_check has ruled out (0 : 0 : 1), so the projection from it
    to the line (x : y) is defined on the singular locus V.  Binary forms
    in the ideal vanish on that projection; each zero of their gcd lifts
    through the gcd of the system specialised at it, and some zero does.
    When V is a curve no nonzero binary form vanishes on its projection,
    but V meets the line x = 0, where a zero of the gcd of the
    restrictions is a witness.  When V is finite, f6 and a general
    combination G of the partials have no common component, so dim
    (S/I)_D <= dim S/(f6, G)_D = 30 for D >= 9 and the 31 binary monomials
    of degree 30 are dependent modulo the ideal: some degree D <= 30 has
    z-free rows.

    So the witness is the first singular point in this order: on x = 0
    first, then by the projection (1 : v) over F_p by v, then over
    extensions; over one projection, the least w over the smallest
    field.  Everything runs on coefficient encodings: the gcds over F_p
    by _form_gcd, the roots by _binary_roots and the lifts over their
    fields by _fq_gcd."""
    p = ctx.p
    if not forms:
        # _restrict parametrizes x = 0 as (0 : s : t)
        g = _binary_gcd([_restrict(ctx, dict(zip(_monomials(e)[0],
                                                 coeffs.tolist())), e,
                                   (1, 0, 0)) for e, coeffs in system], p)
        if len(g) > 1:
            ext, s0, t0, _ = _binary_roots(ctx, g)[0]
            return ext, (0, s0, t0)
        for degree in range(_MACAULAY_DEGREE + 1, 31):
            _, rows, pivots = _reduced_echelon(system, degree, skip, p)
            forms = _z_free_forms(rows, pivots, degree)
            if forms:
                break
        else:
            raise AssertionError("no binary form in the ideal up to degree 30")
    for ext, u0, v0, _ in _binary_roots(ctx, _binary_gcd(forms, p)):
        pt = _lift_through_z(system, ext, u0, v0)
        if pt is not None:
            return pt
    raise AssertionError("no singular point over the zeros of the "
                         "elimination forms")


# smoothness_check first scans P^2(F_p) for a singular point when p is at
# most this bound (measured in BENCH_rational_singular.json)
_SCAN_MAX_P = 31


def _powers_mod(p: int, n: int) -> np.ndarray:
    """t^e mod p for t < n (rows) and e <= 6 (columns)."""
    out = np.ones((n, 7), dtype=np.int64)
    for e in range(1, 7):
        out[:, e] = out[:, e - 1] * np.arange(n) % p
    return out


@functools.lru_cache(maxsize=None)
def _point_table(p: int) -> np.ndarray:
    """The values mod p, in float64, of the monomials of degree 6 and then
    of degree 5 (each in _monomials order) at the points of P^2(F_p) other
    than (0 : 0 : 1), in the witness order of _singular_witness: (0 : 1 :
    w) by w, then (1 : v : w) by (v, w); p^2 + p rows of 49 values."""
    w = np.arange(p)
    x = np.repeat([0, 1], [p, p * p])
    y = np.concatenate([np.ones(p, dtype=np.int64), np.repeat(w, p)])
    z = np.concatenate([w, np.tile(w, p)])
    a, b, c = (np.array(e)[None, :]
               for e in zip(*_monomials(6)[0], *_monomials(5)[0]))
    powers = _powers_mod(p, p)
    table = (powers[x[:, None], a] * powers[y[:, None], b] % p
             * powers[z[:, None], c] % p).astype(np.float64)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _line_terms(n: int) -> np.ndarray:
    """pos[b, c]: the position of x^(n-b-c) y^b z^c in _monomials(n), and
    len(_monomials(n)) where b + c > n."""
    index = _monomials(n)[1]
    pos = np.array([[index.get((n - b - c, b, c), len(index))
                     for c in range(n + 1)] for b in range(n + 1)])
    pos.setflags(write=False)
    return pos


def _no_common_zero_before(system, p: int, v_end: int) -> bool:
    """Whether the system has no common zero, over any extension of F_p,
    on the line x = 0 or on a line (1 : v : w) with v < v_end.

    On each such line the forms restrict to polynomials in w (the point
    at infinity, (0 : 0 : 1), is not a zero), and they have a common zero
    exactly when their gcd over F_p is not 1.  The restriction of a form
    of degree n to (1 : v : w) has the coefficient sum_b f_(n-b-c, b, c)
    v^b on w^c, and to (0 : 1 : w) the coefficient f_(0, n-c, c)."""
    vpow = _powers_mod(p, v_end)
    restrictions = []
    for e, coeffs in system:
        terms = np.append(coeffs, 0)[_line_terms(e)]
        on_x0 = terms[e - np.arange(e + 1), np.arange(e + 1)]
        restrictions.append(
            np.vstack([on_x0, vpow[:, :e + 1] @ terms % p]).tolist())
    for line in zip(*restrictions):
        g = []
        for f in line:
            g = _zp_gcd2(g, f, p)
            if len(g) == 1:
                break
        else:
            return False
    return True


def _rational_witness(system, p: int):
    """The witness of _singular_witness, as integers, when a point of
    P^2(F_p) other than (0 : 0 : 1) is a common zero of the system and
    the order check allows it; otherwise None.

    The forms are evaluated one at a time, each at the points where the
    ones before it vanish: the first at every point of _point_table, by
    one float64 product with its coefficients.  Every value is a sum of at
    most 28 products below p^2, so it is exact, and value / p is an
    integer exactly when p divides the value (a fraction keeps a distance
    of at least 1/p from the integers, far above the rounding error at
    p <= _SCAN_MAX_P).  The first common zero in witness order is taken.
    On x = 0 it is the witness.  At (1 : v : w) it is the witness only
    when no common zero over any extension lies on x = 0 or over a
    projection (1 : v') with v' < v (_no_common_zero_before): such a point
    would come first, as on a sextic singular along a conic that meets x
    = 0 in a conjugate pair."""
    table, hits = _point_table(p), None
    for e, coeffs in system:
        rows = table if hits is None else table[hits]
        vals = (rows[:, :28] if e == 6 else rows[:, 28:]) @ coeffs / p
        zeros = np.flatnonzero(vals == np.floor(vals))
        hits = zeros if hits is None else hits[zeros]
        if not hits.size:
            return None
    if hits[0] < p:
        return 0, 1, int(hits[0])
    v, w = divmod(int(hits[0]) - p, p)
    return (1, v, w) if _no_common_zero_before(system, p, v) else None


def smoothness_check(f6: ModForm) -> SingularityReport:
    """Decide whether f6 and its partials share a projective zero over the
    algebraic closure (singular branch locus means bad reduction).

    f6 is smooth exactly when the degree-14 Macaulay matrix of f6 and its
    nonzero partials (less the rows that Euler's identity makes redundant,
    see _smoothness_system) has full rank 120 over F_p; rank does not change
    under field extension.  p above 2^22 (the Zech table limit
    DEFAULT_ZECH_LIMIT, where point counting and the tritangent search stop
    too) raises BudgetExceededError before any matrix is built; the float64
    division and the int64 elimination below are exact up to there.  When
    no form of the system has its z^k term (k its degree), (0 : 0 : 1) is
    a common zero and is returned as the witness.  For p <= _SCAN_MAX_P
    the system is then evaluated at every other point of P^2(F_p)
    (_rational_witness), in the order in which _singular_witness ranks
    its witnesses: (0 : 1 : w) by w, then (1 : v : w) by (v, w).  The
    first common zero is returned without a matrix when it lies on x = 0,
    or when no common zero over any extension lies on x = 0 or on a line
    (1 : v' : w) with v' < v, which one gcd of the restrictions per line
    decides; so the witness is the one the matrix path gives.  Otherwise,
    and for larger p, the rank is that of the triangular block of a form
    with a unit z-power plus that of the other rows divided by it
    (_reduced_echelon), so the pivot loop runs over at most 75 columns;
    its rows come from the integer coefficients of f6 and its partials.
    A singular verdict carries a common zero over the smallest extension
    that the witness search needed."""
    ctx = f6.ctx
    if ctx.d != 1:
        raise ValueError("smoothness_check needs a form over a prime field")
    if f6.is_zero():
        raise ValueError("zero form")
    if ctx.p > DEFAULT_ZECH_LIMIT:
        raise BudgetExceededError(f"the smoothness test, like point counting, "
                                  f"stops at p <= {DEFAULT_ZECH_LIMIT}")
    system, skip = _smoothness_system(f6)
    if not any(coeffs[0] for _, coeffs in system):  # the z^k terms
        return SingularityReport("singular", ctx, (0, 0, 1))
    if ctx.p <= _SCAN_MAX_P:
        pt = _rational_witness(system, ctx.p)
        if pt is not None:
            return SingularityReport("singular", ctx, pt)
    rank, rows, pivots = _reduced_echelon(system, _MACAULAY_DEGREE, skip,
                                          ctx.p)
    if rank == len(_monomials(_MACAULAY_DEGREE)[0]):
        return SingularityReport("smooth")
    return SingularityReport("singular", *_singular_witness(
        ctx, system, skip, _z_free_forms(rows, pivots, _MACAULAY_DEGREE)))


def assert_good_reduction(f6: IntForm, p: int) -> SingularityReport:
    """Raise SingularReductionError unless the sextic is smooth mod p."""
    ctx = field_create(p, 1)
    f6p = reduce_mod(f6, ctx)
    if f6p.is_zero():
        raise SingularReductionError(f"f6 vanishes identically mod {p}")
    report = smoothness_check(f6p)
    if report.verdict == "singular":
        raise SingularReductionError(
            f"branch sextic is singular mod {p}: witness {report.witness} "
            f"over F_{p}^{report.field.d}")
    return report
