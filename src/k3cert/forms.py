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

from typing import Iterable

from .ffield import FieldCtx, FieldElem, Poly, embed_subfield, quad_char


def _grevlex_sort_key(mono):
    # within one total degree, descending grevlex is ascending (c, b)
    a, b, c = mono
    return (c, b)


def _check_homogeneous(coeffs, degree):
    for mono in coeffs:
        if len(mono) != 3 or any(e < 0 for e in mono):
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

    def partial(self, var: int) -> "ModForm":
        """Formal partial derivative in variable var (0, 1 or 2)."""
        out = {}
        for m, c in self.coeffs.items():
            if m[var]:
                m2 = list(m)
                m2[var] -= 1
                out[tuple(m2)] = c * self.ctx.from_int(m[var])
        return ModForm(self.ctx, out, max(self.degree - 1, 0))

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
    def from_poly(cls, poly: Poly, degree: int):
        """Rehomogenize a univariate polynomial g(t) = g(v/u) u^(-degree)."""
        if poly.degree > degree:
            raise ValueError("degree too small for the given polynomial")
        return cls(poly.ctx, [poly[i] for i in range(degree + 1)])

    def to_poly(self) -> Poly:
        """Dehomogenize at u = 1: the polynomial sum coeffs[i] t^i."""
        return Poly(self.ctx, list(self.coeffs))

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, BinaryForm) and other.ctx is self.ctx
                and other.coeffs == self.coeffs)

    __hash__ = None

    def __mul__(self, other):
        return BinaryForm.from_poly(self.to_poly() * other.to_poly(),
                                    self.degree + other.degree)

    def __sub__(self, other):
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return BinaryForm.from_poly(self.to_poly() - other.to_poly(), self.degree)

    def __add__(self, other):
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return BinaryForm.from_poly(self.to_poly() + other.to_poly(), self.degree)

    def scale(self, k: FieldElem):
        return BinaryForm(self.ctx, [a * k for a in self.coeffs])

    def u_multiplicity(self) -> int:
        """Largest k with u^k dividing the form (degree+1 if zero)."""
        return self.degree - self.to_poly().degree

    def gcd(self, other: "BinaryForm") -> "BinaryForm":
        """gcd over the same field (monic dehomogenization, plus the common
        power of the first variable)."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        g = self.to_poly().gcd(other.to_poly())
        u_mult = min(self.u_multiplicity(), other.u_multiplicity())
        return BinaryForm.from_poly(g, g.degree + u_mult)

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


def eval_form(f: ModForm, point) -> FieldElem:
    """Evaluate f at a projective point given as a triple of FieldElem."""
    x, y, z = point
    if x.ctx is not f.ctx or y.ctx is not f.ctx or z.ctx is not f.ctx:
        raise ValueError("field context mismatch")
    if x.is_zero() and y.is_zero() and z.is_zero():
        raise ValueError("(0, 0, 0) is not a projective point")
    ctx = f.ctx
    maxes = [max((m[i] for m in f.coeffs), default=0) for i in range(3)]
    pows = []
    for var, e_max in zip(point, maxes):
        cur = [ctx.one()]
        for _ in range(e_max):
            cur.append(cur[-1] * var)
        pows.append(cur)
    acc = ctx.zero()
    for (a, b, c), coef in f.coeffs.items():
        acc = acc + coef * pows[0][a] * pows[1][b] * pows[2][c]
    return acc


def reduce_mod(f: IntForm, ctx: FieldCtx) -> ModForm:
    """Coefficientwise reduction of an integer form into F_p."""
    if ctx.d != 1:
        raise ValueError("reduction targets a prime field")
    return ModForm.from_int_coeffs(ctx, f.coeffs, f.degree)


def line_kernel_basis(line):
    """Reduced echelon basis (v1, v2) of the kernel of the line's coefficients."""
    vec = line_coeffs(line)
    ctx = vec[0].ctx
    pivot = next((i for i, c in enumerate(vec) if not c.is_zero()), None)
    if pivot is None:
        raise ValueError("zero linear form")
    inv = vec[pivot].inverse()
    basis = []
    for j in range(3):
        if j == pivot:
            continue
        v = [ctx.zero()] * 3
        v[j] = ctx.one()
        v[pivot] = -(vec[j] * inv)
        basis.append(tuple(v))
    return tuple(basis)


def restrict_to_line(f: ModForm, line) -> BinaryForm:
    """Restriction of f to the projective line {line = 0}.

    The line is parametrized by the reduced echelon basis (w1, w2) of its
    kernel; the result is f(s w1 + t w2), a binary form of the same degree
    (identically zero exactly when the line divides f).
    """
    w1, w2 = line_kernel_basis(line)
    ctx = f.ctx
    zero = ctx.zero()
    out = [zero] * (f.degree + 1)
    # per-coordinate binomial expansions of (s w1[i] + t w2[i])^e, cached
    memo = [{0: (ctx.one(),)} for _ in range(3)]

    def expand(i, e):
        m = memo[i]
        if e not in m:
            prev = expand(i, e - 1)
            cur = [zero] * (e + 1)
            for k, c in enumerate(prev):
                if c.is_zero():
                    continue
                cur[k] = cur[k] + c * w1[i]
                cur[k + 1] = cur[k + 1] + c * w2[i]
            m[e] = tuple(cur)
        return m[e]

    for (a, b, c), coef in f.coeffs.items():
        ea, eb, ec = expand(0, a), expand(1, b), expand(2, c)
        for i, ca in enumerate(ea):
            if ca.is_zero():
                continue
            for j, cb in enumerate(eb):
                if cb.is_zero():
                    continue
                pref = ca * cb
                for k, cc in enumerate(ec):
                    if cc.is_zero():
                        continue
                    idx = i + j + k
                    out[idx] = out[idx] + coef * pref * cc
    return BinaryForm(ctx, out)


class SquareSplit:
    """Result of perfect_square_split: g = unit * h^2."""

    __slots__ = ("h", "unit", "split_field_degree")

    def __init__(self, h: BinaryForm, unit: FieldElem, split_field_degree: int):
        self.h = h
        self.unit = unit
        self.split_field_degree = split_field_degree

    def __repr__(self):
        return (f"SquareSplit(unit={self.unit.to_int()}, "
                f"e={self.split_field_degree}, h={self.h.serialize()})")


def perfect_square_split(g: BinaryForm):
    """Decide whether g = u * h^2 for a unit u and a binary form h.

    Returns a SquareSplit with h normalized to leading coefficient 1 and
    split_field_degree 1 when u is a square in the coefficient field
    (rational splits) or 2 otherwise; returns None when g is not of this
    shape.  Solved coefficient by coefficient from the leading end, then
    verified by exact re-expansion, so the cost is quadratic in the degree.
    """
    if g.is_zero():
        raise ValueError("zero form")
    ctx = g.ctx
    n = g.degree
    if n % 2:
        return None
    k = n // 2
    c = g.coeffs
    i0 = next(i for i in range(n + 1) if not c[i].is_zero())
    if i0 % 2:
        return None
    j0 = i0 // 2
    u = c[i0]
    uinv = u.inverse()
    two_inv = (ctx.from_int(2)).inverse()
    zero = ctx.zero()
    h = [zero] * (k + 1)
    h[j0] = ctx.one()
    for j in range(j0 + 1, k + 1):
        i = j + j0
        inner = zero
        for a in range(j0 + 1, j):
            b = i - a
            if j0 < b <= k:
                inner = inner + h[a] * h[b]
        # g_i / u = 2 h_j + (terms strictly between j0 and j)
        h[j] = (c[i] * uinv - inner) * two_inv
    # verify u * h^2 == g on all coefficients
    hh = [zero] * (n + 1)
    for a in range(k + 1):
        if h[a].is_zero():
            continue
        for b in range(k + 1):
            if h[b].is_zero():
                continue
            hh[a + b] = hh[a + b] + h[a] * h[b]
    for i in range(n + 1):
        if hh[i] * u != c[i]:
            return None
    e = 1 if quad_char(u) == 1 else 2
    return SquareSplit(BinaryForm(ctx, h), u, e)
