"""Geometry of the branch sextic over F_p: tritangent lines and smoothness.

- Lines and binary forms: _line_at, the dual-point order of the search,
  and _binary_roots.
- Certificates: TritangentCert and SingularityReport.
- A tritangent's contact points (_contact_points, found when a report
  asks) and its decomposition f6 = f3^2 + l f5 mod p
  (decompose_along_line, on forms._decompose_mod_line).
- Arrays of coordinate vectors over F_q (digits, digit_*), on the log
  tables of count.zech_tables.
- The tritangent search, find_tritangents: an array test of every line
  over each field, then the exact split of the lines that pass.  Fields
  with at most _MAP_MAX_LINES lines take one product with a cached
  restriction map and a lookup in a table of the monic squares
  (_mapped_candidates); larger ones stream their lines
  (_restriction_blocks, _unit_times_square).
- Smoothness (smoothness_check, assert_good_reduction): a scan of P^2(F_p)
  for small p (_rational_witness), the rank of a Macaulay matrix in
  degree 14 (_reduced_echelon) and a singular witness (_singular_witness).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .count import (DEFAULT_ZECH_LIMIT, MANDATORY_Q2_LIMIT, check_table_budget,
                    zech_tables)
from .errors import BudgetExceededError, MathError, SingularReductionError
from .ffield import (
    FieldCtx,
    _embed_enc,
    _fq_gcd,
    _fq_roots,
    _zp_gcd2,
    _zp_trim,
    field_create,
)
from .forms import (
    IntForm,
    ModForm,
    _decompose_mod_line,
    _form_gcd,
    _kernel_basis,
    _monomials,
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
    """A line whose restriction of f6 is unit * h^2, on coefficient
    encodings in the line's field.

    f3 and f5 realize f6 = f3^2 + line*f5 over that field and are present
    only for rational splits (the decomposition needs a square unit)."""

    field: FieldCtx  # the line's field F_(p^e)
    line: tuple  # encodings of the coefficients, the last nonzero one 1
    line_field_degree: int  # e
    split_field_degree: int  # 1 when the splits are rational, else 2
    unit: int
    h: tuple  # coefficients of s^(3-i) t^i, the first nonzero one 1
    f3: ModForm | None
    f5: ModForm | None

    def line_str(self) -> str:
        return "+".join(f"{c}*{v}" for c, v in zip(self.line, "xyz") if c)

    def contact_points(self) -> tuple:
        """The contact points with multiplicities, which may live in
        extension fields, each as (field, encodings of the point with its
        first nonzero coordinate 1, multiplicity): the roots of h
        (_contact_points), found on each call, as only the reports that
        print them ask for them."""
        return _contact_points(self.field, self.h, self.line)


@dataclass
class SingularityReport:
    verdict: str  # smooth | singular
    field: FieldCtx | None = None  # the witness's field
    witness: tuple | None = None  # encodings of its coordinates in field


# ---------------------------------------------------------------------------
# contact points and decomposition


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


# ---------------------------------------------------------------------------
# array arithmetic on coordinate vectors: an element is the vector of its
# d base-p digits (a_0, ..., a_{d-1}), the coefficients of sum a_i t^i,
# along the first axis of an int64 array (digit i of every element is the
# contiguous slice x[i]).  Sums are digitwise; products in an extension,
# inverses and powers go through the field's log and exp tables.


def digits(ctx: FieldCtx, enc) -> np.ndarray:
    """Coordinate vectors of the elements with encodings enc, one digit at
    a time (numpy divides by a scalar much faster than by an array)."""
    enc = np.asarray(enc)
    out = np.empty((ctx.d,) + enc.shape, dtype=np.int64)
    for i in range(ctx.d):
        rest = enc // ctx.p
        out[i] = enc - ctx.p * rest
        enc = rest
    return out


def digit_mul(ctx: FieldCtx, x, y) -> np.ndarray:
    """Products of coordinate vectors that broadcast against each other:
    x y mod p over F_p; in an extension, both factors are encoded, their
    logs added and the exp table entry decoded (at d = 2 within a few
    percent of summing the d^2 digit products, 2-core VM)."""
    if ctx.d == 1:
        return x * y % ctx.p
    a, b = _digit_logs(ctx, x), _digit_logs(ctx, y)
    return digits(ctx, np.where((a < 0) | (b < 0), 0,
                                zech_tables(ctx)[0][(a + b) % (ctx.q - 1)]))


def _digit_logs(ctx: FieldCtx, x) -> np.ndarray:
    # logs of coordinate vectors, -1 for zero
    enc = x[-1]
    for digit in x[-2::-1]:
        enc = enc * ctx.p + digit
    return zech_tables(ctx)[1][enc]


def digit_inv(ctx: FieldCtx, x) -> np.ndarray:
    """Inverses of coordinate vectors through the log and exp tables;
    zero maps to zero."""
    logs = _digit_logs(ctx, x)
    return digits(ctx, np.where(logs < 0, 0, zech_tables(ctx)[0][-logs]))


def digit_powers(ctx: FieldCtx, n: int, enc) -> np.ndarray:
    """Coordinate vectors of x^0, ..., x^n for the elements x with
    encodings enc: shape (d, len(enc), n + 1), with 0^0 = 1."""
    exp, log, _ = zech_tables(ctx)
    logs = log[np.asarray(enc)][:, None]
    enc = exp[logs * np.arange(n + 1) % (ctx.q - 1)]
    return digits(ctx, np.where(logs < 0, np.arange(n + 1) == 0, enc))


# ---------------------------------------------------------------------------
# the array test of the tritangent search


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
    float64: every sum has (n + 1) d terms below p^2, exact below 2^53."""
    ctx, n = f.ctx, f.degree
    q, p, d = ctx.q, ctx.p, ctx.d
    if (n + 1) * d * (p - 1) ** 2 >= 1 << 53:
        raise ValueError(f"the float64 restriction is not exact at p = {p}")
    subs = _subfields(ctx, q0, e)
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


def _streamed_candidates(f: ModForm, q0: int, e: int):
    """Indices, in _line_at order, of the lines of P^2(F_q), q = q0^e, on
    which f restricts to a unit times a square, without the lines defined
    over a proper subfield; consecutive blocks of _restriction_blocks are
    tested together by _unit_times_square up to _SEARCH_BLOCK lines."""
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


# fields with at most this many lines q^2 + q + 1, F_3 to F_13, are
# searched through the cached _restriction_map and _square_table; larger
# ones stream their lines through _restriction_blocks.  Per call the map
# path wins on every field measured, by less as q grows (at F_29 405
# against 470 us), but its arrays grow as 1.6 q^2 d kB and its one-time
# build with them: F_13 is the last field at which the caches of all the
# fields under the bound stay within 1 MB, and its build has paid for
# itself after about a dozen searches (BENCH_small_field_search.json)
_MAP_MAX_LINES = 183


@functools.lru_cache(maxsize=None)
def _map_terms():
    """_restriction_terms(6) by monomial and m: the exponent j of a, the
    exponent l of b and the integer multiplier of the term mult a^j b^l
    that each monomial of degree 6, in _monomials order, contributes to
    the coefficient of s^(6-m) t^m of its restriction, multiplier 0 where
    there is none; each of shape (3, 28, 7), for the lines (a, b, 1), (a,
    1, 0) and (1, 0, 0) in turn."""
    (pos1, mult1), (pos2, mult2), pos3 = _restriction_terms(6)
    out = np.zeros((3, 3, 28, 7), dtype=np.int64)
    j, m, l = (pos1 < 28).nonzero()
    out[:, 0, pos1[j, m, l], m] = j, l, mult1[j, m, l]
    j, m = (pos2 < 28).nonzero()
    out[0::2, 1, pos2[j, m], m] = j, mult2[j, m]
    out[2, 2, pos3, np.arange(7)] = 1
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _restriction_map(ctx: FieldCtx) -> np.ndarray:
    """float64, shape (28, L*7*d) for the L = q^2 + q + 1 lines of
    P^2(F_q): entry (monomial, line, m, i), monomials in _monomials(6)
    order and lines in _line_at order, is digit i of the coefficient of
    s^(6-m) t^m in the restriction of that monomial to that line.

    That coefficient is the one term mult a^j b^l of _map_terms, or 0.
    Its log is j log a + l log b + log mult for all lines at once, with
    the log of zero replaced by z = 7 q, above 7 (q - 2), the largest log
    sum of a nonzero term (j + l <= 6): a zero factor with a positive
    exponent, or a zero multiplier, sends the sum to z or beyond.  A
    multiplier mod p lies in F_p, whose encodings are its integers."""
    q, p = ctx.q, ctx.p
    exp, log, _ = zech_tables(ctx)
    z = 7 * q
    log = np.where(log < 0, z, log)
    (ja, jb, mult), x = _map_terms(), log[:q, None, None]
    lm = log[mult % p]
    lg = np.concatenate([
        ((x * ja[0])[:, None] + x * jb[0] + lm[0]).reshape(-1, 28, 7),
        x * ja[1] + lm[1], lm[2:]])
    enc = np.where(lg < z, exp[lg % (q - 1)], 0)
    table = digits(ctx, enc).transpose(2, 1, 3, 0).reshape(28, -1).astype(
        np.float64)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _square_table(ctx: FieldCtx) -> np.ndarray:
    """The coefficients g_1..g_6 of the q^3 monic squares g = h^2, h = (1,
    h1, h2, h3) over F_q, as a table: entry enc(g1) + enc(g2) q + enc(g3)
    q^2 is enc(g4) + enc(g5) q + enc(g6) q^2.  g1, g2 and g3 determine h
    (h1 = g1/2, h2 = (g2 - h1^2)/2, h3 = (g3 - 2 h1 h2)/2, p odd), so every
    entry is set once, and a monic g is a square exactly when its g4, g5,
    g6 are the entry of its g1, g2, g3."""
    q, p, d = ctx.q, ctx.p, ctx.d
    h = digits(ctx, np.arange(q ** 3) // q ** np.arange(3)[::-1, None] % q)
    # h1h1, h1h2, h1h3, h2h2, h2h3, h3h3
    hh = digit_mul(ctx, h[:, [0, 0, 0, 1, 1, 2]], h[:, [0, 1, 2, 1, 2, 2]])
    g = np.stack([2 * h[:, 0], hh[:, 0] + 2 * h[:, 1],
                  2 * (h[:, 2] + hh[:, 1]), hh[:, 3] + 2 * hh[:, 2],
                  2 * hh[:, 4], hh[:, 5]], axis=1) % p
    weight = np.outer(p ** np.arange(d), q ** np.arange(3)).ravel()
    table = np.empty(q ** 3, dtype=np.int64)
    table[weight @ g[:, :3].reshape(3 * d, -1)] = (
        weight @ g[:, 3:].reshape(3 * d, -1))
    table.setflags(write=False)
    return table


def _subfields(ctx: FieldCtx, q0: int, e: int):
    """For each proper subfield F_(q0^e1) of F_q, q = q0^e, whether the
    element of each encoding lies in it; those subfields need not contain
    each other (e = 6).  An element lies in F_(q0^e1) exactly when it is
    zero or its log is divisible by (q - 1)/(q0^e1 - 1)."""
    q, log = ctx.q, zech_tables(ctx)[1]
    return [(log < 0) | (log % ((q - 1) // (q0 ** e1 - 1)) == 0)
            for e1 in range(1, e) if e % e1 == 0]


@functools.lru_cache(maxsize=None)
def _extension_lines(ctx: FieldCtx, q0: int, e: int) -> np.ndarray:
    """Whether each line of P^2(F_q), q = q0^e, in _line_at order, is
    defined over no proper subfield F_(q0^e1)."""
    mask = np.ones(ctx.q * ctx.q + ctx.q + 1, dtype=bool)
    for sub in _subfields(ctx, q0, e):
        mask &= ~np.concatenate([np.outer(sub, sub).ravel(), sub, [True]])
    mask.setflags(write=False)
    return mask


def _mapped_candidates(f: ModForm, q0: int, e: int):
    """_streamed_candidates for a sextic with coefficients in F_p over a
    field with few lines: the restriction digits of every line are (c @
    _restriction_map) mod p, with c the 28 coefficient lifts in [0, p)
    (28 products below p^2, exact in float64).  With i0 the index of the
    first nonzero coefficient, R = t^i0 R' with i0 even is u h^2 exactly
    when R' s^i0 / r_i0 is a monic square: its coefficients, shifted to
    start at i0 and divided through the log and exp tables, are looked up
    in _square_table (a shifted h with trailing zeros is among its h)."""
    ctx = f.ctx
    q, p, d = ctx.q, ctx.p, ctx.d
    exp, log, _ = zech_tables(ctx)
    c = np.zeros(28)
    c[[_monomials(6)[1][m] for m in f.coeffs]] = list(f.coeffs.values())
    digit = (c @ _restriction_map(ctx)).astype(np.int64).reshape(-1, 7, d) % p
    # encodings, then six zero columns for the shift by i0 <= 6
    R = np.zeros((digit.shape[0], 13), dtype=np.int64)
    R[:, :7] = digit[:, :, -1]
    for i in range(d - 2, -1, -1):
        R[:, :7] = R[:, :7] * p + digit[:, :, i]
    i0 = (R != 0).argmax(axis=1)
    G = R[np.arange(R.shape[0])[:, None], i0[:, None] + np.arange(7)]
    lg = log[G]
    g = np.where(lg[:, 1:] < 0, 0, exp[(lg[:, 1:] - lg[:, :1]) % (q - 1)])
    weight = q ** np.arange(3)
    ok = (G[:, 0] != 0) & (i0 % 2 == 0) & _extension_lines(ctx, q0, e)
    ok &= _square_table(ctx)[g[:, :3].dot(weight)] == g[:, 3:].dot(weight)
    return np.flatnonzero(ok).tolist()


def _candidate_lines(f: ModForm, q0: int, e: int):
    """Indices, in _line_at order, of the lines of P^2(F_q), q = q0^e, on
    which the sextic f restricts to a unit times a square, without the
    lines defined over a proper subfield: through the cached map when the
    field has at most _MAP_MAX_LINES lines and f's coefficients lie in
    F_p (their encodings are below p), streamed otherwise."""
    q = f.ctx.q
    if (q * q + q + 1 <= _MAP_MAX_LINES
            and all(c < f.ctx.p for c in f.coeffs.values())):
        return _mapped_candidates(f, q0, e)
    return _streamed_candidates(f, q0, e)


def find_tritangents(f6: ModForm, search_field_degree: int = 1, *,
                     deep: bool = False):
    """All tritangent lines of f6 over F_{p^e} for e up to the requested
    degree, with contact data; exhaustive over the dual plane.

    Each field is searched with the array test of _candidate_lines; only
    the lines it finds go, once each, through _restrict and _square_split
    on coefficient encodings, whose split also gives the decomposition
    and h, from which the certificate finds its contact points when asked.
    Every q = p^e is checked, in order of e, before any field is built:
    the test needs Zech tables, so a field above the Zech limit raises
    BudgetExceededError (check_table_budget, the check count.zech_tables
    makes), and so does a field with q^2 above the desk-scale budget
    MANDATORY_Q2_LIMIT unless deep is set.  On a 2-core VM the map path
    tests a field of F_3 to F_13 in 30-130 us (0.2e6 to 1.5e6 lines per
    second), and the streamed path runs at about 4e6 lines per second
    over F_1009 and 1.9e6 over F_(31^2).  A streamed field's
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
                h=tuple(h),
                f3=f3,
                f5=f5,
            ))
    return out


# ---------------------------------------------------------------------------
# smoothness

# Lazard: forms of degrees 6, 5, 5 (and a fourth of degree 5) in three
# variables without a common projective zero generate every monomial of
# degree 6 + 5 + 5 - 2.
_MACAULAY_DEGREE = 14


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
    the largest magnitude a lazily reduced elimination reaches: at the 120
    columns of degree 14, int16 up to p = 17 and int32 up to p = 4231;
    int64 holds it for p <= 2^22 up to the 496 columns of degree 30."""
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
    z-degree below k (65 or 75 of them in degree 14), and the z-free rows
    of the full matrix span the same space as those of the remainder, as
    the block has no row without a pivot of z-degree >= k.

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
    algebraic closure (singular branch locus means bad reduction); a
    singular verdict carries a common zero over the smallest extension
    that the witness search needed.

    f6 is smooth exactly when the degree-14 Macaulay matrix of its system
    (_smoothness_system) has full rank 120 over F_p; rank does not change
    under field extension.  p above DEFAULT_ZECH_LIMIT, where point
    counting and the tritangent search stop too, raises
    BudgetExceededError before any matrix is built.  The witness is
    (0 : 0 : 1) when no form of the system has its z^k term (k its
    degree); otherwise, for p <= _SCAN_MAX_P, the point _rational_witness
    finds, if any; otherwise the rank comes from _reduced_echelon and a
    deficit's witness from _singular_witness."""
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
