"""Homogeneous trivariate forms over Z, and forms over F_q as data.

A form is a sparse map from exponent triples (a, b, c) with a + b + c =
degree to coefficients; a degree-6 form has at most 28 monomials.  IntForm
has integer coefficients and the arithmetic of obstruct.residual, the one
expansion of f6 - s*h^2 - Q*Q' behind the conic identities and the
obstruction.  ModForm carries a form over one FieldCtx: its field, its
degree and the canonical encodings (ffield) of its nonzero coefficients,
with no arithmetic; every step over F_q reads the encodings.  Over F_p an
encoding is the integer lift in [0, p).  A binary form (a restriction to
a line) is a dense list of coefficient encodings, entry i the
coefficient of s^(n-i) t^i; a line is the triple of its coefficients.

Canonical text serialization lists monomials in descending graded reverse
lexicographic order as ``c*x^a*y^b*z^c`` joined by ``+``; it feeds reports
and cache fingerprints, so it must never change.
"""

from __future__ import annotations

import functools
import math

from .ffield import (FieldCtx, _embed_enc, _fq_mul, _sqrt_in_field, _zp_gcd2,
                     _zp_trim)


def _grevlex_sort_key(mono):
    # within one total degree, descending grevlex is ascending (c, b)
    a, b, c = mono
    return (c, b)


@functools.lru_cache(maxsize=None)
def _monomials(degree: int):
    """Monomials of one degree in column order, with their positions.

    Monomials containing z come first (descending power of z); the z-free
    ones x^(degree-i) y^i end the list in order of i, so the tail of a
    row is the coefficient list of a binary form in (x, y)."""
    monos = tuple((degree - c - b, b, c)
                  for c in range(degree, -1, -1) for b in range(degree - c + 1))
    return monos, {m: i for i, m in enumerate(monos)}


def _check_homogeneous(coeffs, degree):
    for mono in coeffs:
        if len(mono) != 3 or min(mono) < 0:
            raise ValueError(f"bad exponent triple {mono!r}")
        if sum(mono) != degree:
            raise ValueError(
                f"monomial {mono!r} has degree {sum(mono)}, expected {degree}")


def _serialize(coeffs: dict) -> str:
    if not coeffs:
        return "0"
    return "+".join(f"{coeffs[(a, b, c)]}*x^{a}*y^{b}*z^{c}"
                    for (a, b, c) in sorted(coeffs, key=_grevlex_sort_key))


class IntForm:
    """Homogeneous form in x, y, z with integer coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, coeffs: dict, degree: int | None = None):
        clean = {}
        for m, c in coeffs.items():
            c = int(c)
            if c:
                clean[tuple(m)] = c
        if degree is None:
            if not clean:
                raise ValueError("zero form needs an explicit degree")
            degree = sum(next(iter(clean)))
        _check_homogeneous(clean, degree)
        self.degree = degree
        self.coeffs = clean

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (type(other) is IntForm and other.degree == self.degree
                and other.coeffs == self.coeffs)

    __hash__ = None

    @classmethod
    def _exact(cls, coeffs: dict, degree: int):
        """The form with integer coefficients that are known to lie on
        monomials of `degree` (a result of IntForm arithmetic, or a checked
        form's): only the zeros are dropped, as the constructor's checks
        are for input."""
        form = object.__new__(cls)
        form.degree = degree
        form.coeffs = {m: c for m, c in coeffs.items() if c}
        return form

    def __add__(self, other):
        return self - other.scale(-1)

    def __sub__(self, other):
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) - c
        return IntForm._exact(out, self.degree)

    def __mul__(self, other):
        out: dict = {}
        terms = other.coeffs.items()
        for (a1, b1, c1), x in self.coeffs.items():
            for (a2, b2, c2), y in terms:
                m = (a1 + a2, b1 + b2, c1 + c2)
                out[m] = out.get(m, 0) + x * y
        return IntForm._exact(out, self.degree + other.degree)

    def scale(self, k):
        return IntForm._exact({m: c * k for m, c in self.coeffs.items()},
                              self.degree)

    def serialize(self) -> str:
        return _serialize(self.coeffs)

    def __repr__(self):
        return f"IntForm({self.serialize()})"


class ModForm:
    """Homogeneous form in x, y, z over one FieldCtx, as data: the
    encodings of its nonzero coefficients by monomial."""

    __slots__ = ("ctx", "degree", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: dict, degree: int):
        clean = {tuple(m): c for m, c in coeffs.items() if c}
        _check_homogeneous(clean, degree)
        self.ctx = ctx
        self.degree = degree
        self.coeffs = clean

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, ModForm) and other.ctx is self.ctx
                and other.degree == self.degree and other.coeffs == self.coeffs)

    __hash__ = None

    def serialize(self) -> str:
        return _serialize(self.coeffs)

    def embed(self, target: FieldCtx) -> ModForm:
        """The same form over an extension field (ffield._embed_enc)."""
        return ModForm(target, {m: _embed_enc(self.ctx, target, c)
                                for m, c in self.coeffs.items()}, self.degree)

    def __repr__(self):
        return f"ModForm(F{self.ctx.q}; {self.serialize()})"


def reduce_mod(f: IntForm, ctx: FieldCtx) -> ModForm:
    """Coefficientwise reduction of an integer form into F_p."""
    if ctx.d != 1:
        raise ValueError("reduction targets a prime field")
    return ModForm(ctx, {m: c % ctx.p for m, c in f.coeffs.items()}, f.degree)


def _pivot_split(line):
    """The pivot (the first nonzero coordinate of a line's coefficient
    encodings) and the two other coordinates in order."""
    v = next((i for i, c in enumerate(line) if c), None)
    if v is None:
        raise ValueError("zero linear form")
    j1, j2 = (j for j in range(3) if j != v)
    return v, j1, j2


def _restrict(ctx, coeffs: dict, n: int, line) -> list:
    """The restriction f(s w1 + t w2) of a form of degree n, given by its
    coefficient encodings, to the line with coefficient encodings `line`,
    as the encodings of its coefficients of s^(n-i) t^i.

    (w1, w2) is the reduced echelon basis of the line's kernel: with v the
    pivot and j1 < j2 the other coordinates, x_j1 = s, x_j2 = t and x_v =
    A s + B t with A = -l_j1/l_v and B = -l_j2/l_v.  A monomial x_v^a
    x_j1^b x_j2^c contributes binom(a, k) A^(a-k) B^k to the coefficient of
    index c + k; each coefficient is one dot product."""
    v, _, j2 = _pivot_split(line)
    mul = ctx._mul
    A, B = (w[v] for w in _kernel_basis(ctx, line))
    apow, bpow = [1], [1]
    for _ in range(n):
        apow.append(mul(apow[-1], A))
        bpow.append(mul(bpow[-1], B))
    P = [[mul(mul(apow[a - k], bpow[k]), math.comb(a, k) % ctx.p)
          for k in range(a + 1)] for a in range(n + 1)]
    xs, ys = [[] for _ in range(n + 1)], [[] for _ in range(n + 1)]
    for m, c in coeffs.items():
        a, low = m[v], m[j2]
        for k in range(a + 1):
            xs[low + k].append(c)
            ys[low + k].append(P[a][k])
    return [ctx._dot(x, y) for x, y in zip(xs, ys)]


def _kernel_basis(ctx, line):
    """The reduced echelon basis (w1, w2) of the kernel of a line's
    coefficient encodings, as encoding triples (the parametrization of
    _restrict)."""
    v, j1, j2 = _pivot_split(line)
    inv = ctx._pow(line[v], -1)
    out = []
    for j in (j1, j2):
        w = [0, 0, 0]
        w[j], w[v] = 1, ctx._mul(ctx._add(0, line[j], -1), inv)
        out.append(tuple(w))
    return tuple(out)


def _square_split(ctx, g):
    """(h, u) with g = u h^2, h normalized to 1 at its first nonzero
    coefficient, for the coefficient encodings of a binary form g; None
    when g is zero or not of this shape.

    With i0 = 2 j0 the index of the first nonzero coefficient (odd: None)
    and u = g_i0, h_j for j > j0 solves g_(j + j0)/u = 2 h_j + (the
    products h_a h_b with j0 < a, b < j), one dot product each; then u h^2
    is compared with g on every coefficient."""
    n = len(g) - 1
    i0 = next((i for i, c in enumerate(g) if c), 1)
    if n % 2 or i0 % 2:
        return None
    k, j0, u = n // 2, i0 // 2, g[i0]
    mul, dot = ctx._mul, ctx._dot
    uinv, half = ctx._pow(u, -1), ctx._pow(2, -1)
    h = [0] * (k + 1)
    h[j0] = 1
    for j in range(j0 + 1, k + 1):
        inner = dot(h[j0 + 1:j], h[j - 1:j0:-1])
        h[j] = mul(ctx._add(mul(g[j + j0], uinv), inner, -1), half)
    if [mul(c, u) for c in _fq_mul(ctx, h, h)] != list(g):
        return None
    return h, u


def _form_gcd(a, b, p: int):
    """The gcd of two binary forms over F_p given as coefficient lists
    ascending in t (a trailing zero is a factor s, the root at infinity):
    the gcd of the polynomials in t, times s to the smaller order at
    infinity."""
    at, bt = _zp_trim(list(a)), _zp_trim(list(b))
    return _zp_gcd2(at, bt, p) + [0] * min(len(a) - len(at), len(b) - len(bt))


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
