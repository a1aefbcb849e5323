"""Homogeneous trivariate forms over Z and over F_q, plus binary forms.

Trivariate forms are sparse maps from exponent triples (a, b, c) with
a + b + c = degree to coefficients; a degree-6 form has at most 28
monomials.  Binary forms (restrictions to lines) are dense coefficient
vectors.  Integer lifts use representatives in [0, p) throughout.

Canonical text serialization lists monomials in descending graded reverse
lexicographic order as ``c*x^a*y^b*z^c`` joined by ``+``; it feeds reports
and cache fingerprints, so it must never change.
"""

from __future__ import annotations

import math
from typing import Iterable

from .ffield import FieldCtx, FieldElem, _fq_mul, embed_subfield


def _grevlex_sort_key(mono):
    # within one total degree, descending grevlex is ascending (c, b)
    a, b, c = mono
    return (c, b)


def _check_homogeneous(coeffs, degree):
    for mono in coeffs:
        if len(mono) != 3 or min(mono) < 0:
            raise ValueError(f"bad exponent triple {mono!r}")
        if sum(mono) != degree:
            raise ValueError(
                f"monomial {mono!r} has degree {sum(mono)}, expected {degree}")


class _Form:
    """Sparse form in x, y, z: the arithmetic IntForm and ModForm share.

    A subclass fixes the coefficient ring: _coerce checks one coefficient,
    _new builds a form over the same ring, and _int gives the integer a
    coefficient serializes to.  ctx is the coefficient field, None over Z.
    """

    __slots__ = ("degree", "coeffs")
    nvars = 3
    ctx = None

    def __init__(self, coeffs: dict, degree: int | None = None):
        clean = {}
        for m, c in coeffs.items():
            c = self._coerce(c)
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
        return (type(other) is type(self) and other.ctx is self.ctx
                and other.degree == self.degree and other.coeffs == self.coeffs)

    __hash__ = None

    def _check(self, other):
        if other.ctx is not self.ctx:
            raise ValueError("field context mismatch")

    def __add__(self, other):
        self._check(other)
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return self._new(out, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({m: -c for m, c in self.coeffs.items()}, self.degree)

    def __mul__(self, other):
        self._check(other)
        out: dict = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                s = out.get(m)
                out[m] = c1 * c2 if s is None else s + c1 * c2
        return self._new(out, self.degree + other.degree)

    def scale(self, k):
        return self._new({m: c * k for m, c in self.coeffs.items()}, self.degree)

    def square(self):
        return self * self

    def serialize(self) -> str:
        if not self.coeffs:
            return "0"
        return "+".join(f"{self._int(self.coeffs[(a, b, c)])}*x^{a}*y^{b}*z^{c}"
                        for (a, b, c) in sorted(self.coeffs, key=_grevlex_sort_key))


class IntForm(_Form):
    """Homogeneous form in x, y, z with integer coefficients."""

    __slots__ = ()
    _coerce = _int = staticmethod(int)

    def _new(self, coeffs, degree):
        return IntForm(coeffs, degree)

    def apply_int_matrix(self, rows):
        """Substitute variable i by the integer linear form rows[i]."""
        out = IntForm({}, self.degree)
        lin = [IntForm({(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]}, 1)
               for r in rows]
        pows = [{0: IntForm({(0, 0, 0): 1}, 0)} for _ in range(3)]
        for m, c in self.coeffs.items():
            term = IntForm({(0, 0, 0): c}, 0)
            for i, e in enumerate(m):
                memo = pows[i]
                for k in range(max(memo) + 1, e + 1):
                    memo[k] = memo[k - 1] * lin[i]
                term = term * memo[e]
            out = out + term
        return out

    def __repr__(self):
        return f"IntForm({self.serialize()})"


class ModForm(_Form):
    """Homogeneous form in x, y, z with coefficients in one FieldCtx."""

    __slots__ = ("ctx",)
    _int = staticmethod(FieldElem.to_int)

    def __init__(self, ctx: FieldCtx, coeffs: dict, degree: int | None = None):
        self.ctx = ctx
        super().__init__(coeffs, degree)

    def _coerce(self, c):
        if not isinstance(c, FieldElem):
            raise TypeError("ModForm coefficients must be FieldElem")
        if c.ctx is not self.ctx:
            raise ValueError("field context mismatch")
        return c

    def _new(self, coeffs, degree):
        return ModForm(self.ctx, coeffs, degree)

    @classmethod
    def from_int_coeffs(cls, ctx, coeffs: dict, degree: int | None = None):
        return cls(ctx, {m: ctx.from_int(c) for m, c in coeffs.items()}, degree)

    @classmethod
    def from_encs(cls, ctx, encs: dict, degree: int):
        """The form with these coefficient encodings."""
        return cls(ctx, {m: FieldElem(ctx, c) for m, c in encs.items()},
                   degree)

    def encodings(self) -> dict:
        """The coefficient encodings, by monomial."""
        return {m: c.v for m, c in self.coeffs.items()}

    def lift(self) -> IntForm:
        """Integer lift with coefficients in [0, p); prime-field forms only."""
        if self.ctx.d != 1:
            raise ValueError("lift is defined over prime fields only")
        return IntForm({m: c.to_int() for m, c in self.coeffs.items()}, self.degree)

    def embed(self, target: FieldCtx) -> "ModForm":
        """Coefficientwise embedding into an extension field."""
        return ModForm(target, {m: embed_subfield(c, target)
                                for m, c in self.coeffs.items()}, self.degree)

    def __repr__(self):
        return f"ModForm(F{self.ctx.q}; {self.serialize()})"


class BinaryForm:
    """Homogeneous form in two variables (u, v) over a FieldCtx.

    coeffs[i] is the coefficient of u^(degree-i) v^i, stored densely.
    """

    __slots__ = ("ctx", "degree", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable[FieldElem]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("binary form needs at least one coefficient")
        for c in cs:
            if not isinstance(c, FieldElem) or c.ctx is not ctx:
                raise ValueError("field context mismatch")
        self.ctx = ctx
        self.degree = len(cs) - 1
        self.coeffs = cs

    @classmethod
    def from_ints(cls, ctx, ints):
        return cls(ctx, [ctx.from_int(n) for n in ints])

    @classmethod
    def from_encs(cls, ctx, encs):
        """The form with these coefficient encodings."""
        return cls(ctx, [FieldElem(ctx, c) for c in encs])

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, BinaryForm) and other.ctx is self.ctx
                and other.coeffs == self.coeffs)

    __hash__ = None

    def serialize(self) -> str:
        if self.is_zero():
            return "0"
        n = self.degree
        parts = [f"{c.to_int()}*u^{n - i}*v^{i}"
                 for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return "+".join(parts)

    def __repr__(self):
        return f"BinaryForm(F{self.ctx.q}; {self.serialize()})"


def line_coeffs(line, ctx: FieldCtx | None = None) -> tuple:
    """Coefficient triple of a linear form given as a ModForm, a triple of
    FieldElem, or a triple of integers read in ctx."""
    if isinstance(line, ModForm):
        if line.degree != 1:
            raise ValueError("not a linear form")
        ctx = line.ctx
        vec = [ctx.zero(), ctx.zero(), ctx.zero()]
        for m, c in line.coeffs.items():
            vec[m.index(1)] = c
        return tuple(vec)
    vec = tuple(line)
    if len(vec) != 3:
        raise ValueError("need three coefficients")
    if isinstance(vec[0], FieldElem):
        return vec
    return tuple(ctx.from_int(c) for c in vec)


def line_form(ctx, vec) -> ModForm:
    return ModForm(ctx, {(1, 0, 0): vec[0], (0, 1, 0): vec[1], (0, 0, 1): vec[2]}, 1)


# ---------------------------------------------------------------------------
# operations


def reduce_mod(f: IntForm, ctx: FieldCtx) -> ModForm:
    """Coefficientwise reduction of an integer form into F_p."""
    if ctx.d != 1:
        raise ValueError("reduction targets a prime field")
    return ModForm.from_int_coeffs(ctx, f.coeffs, f.degree)


def line_encs(line, ctx: FieldCtx) -> tuple:
    """The coefficient encodings in ctx of a line given as line_coeffs
    takes it."""
    vec = line_coeffs(line, ctx)
    if any(c.ctx is not ctx for c in vec):
        raise ValueError("field context mismatch")
    return tuple(c.v for c in vec)


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
