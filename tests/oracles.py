"""Exhaustive oracles shared by several test modules; an independent
reference for restriction and decomposition along a line: the path
through a 3x3 change of coordinates T that sends the line to x
(LinearChange, line_to_x, apply_linear_change, restrict_along and
decompose_mod_line) with the generic grevlex division exact_divide; the
array test of the tritangent search in the discrete-log (Zech)
representation (log_restriction_blocks and log_unit_times_square); the
smoothness test on the full Macaulay matrices, built from the forms'
own coefficients, without the triangular block (macaulay_matrix and
macaulay_smoothness); the chart evaluator and minimal
polynomials that the exhaustive singular-point scan and the field tests
use (chart_value_logs, chart_points, minimal_polynomial); and the
intersection number of two split curves over F_(p^2), where every scale
has its square roots, by root finding (split_pairing_oracle).

The FieldElem, Poly and IntForm versions of the certificate steps that
the program runs on coefficient encodings are kept here as differential
references: the restriction to a line (line_kernel_basis,
restrict_to_line_ref), the square split (perfect_square_split_ref), the
principal square root by factoring (sqrt_ref, poly_roots), the roots of
binary forms and the contact points through the general factoriser on
Poly objects (factor_univariate, split_root, binary_roots_ref,
contact_points_ref), the singular witness (singular_witness_ref, with
z_free_forms_ref, specialize_xy and lift_through_z_ref), the
obstruction (obstruction_ref) and the cyclotomic part by trial division
alone (cyclotomic_part_ref).  They build on an object layer of their
own, on FieldElem coefficients: forms over F_q with arithmetic (ObjForm,
which .mod() turns into the program's ModForm of coefficient encodings
and ObjForm.of reads back), lines as FieldElem triples (line_coeffs,
line_form), the subfield embedding of an element (embed_subfield),
binary forms (BinaryForm) and Poly, binary form arithmetic through Poly
(bf_mul, bf_add, bf_sub, bf_scale, bf_gcd), eval_form, partial,
normalize_point and the quadratic character by Euler's criterion
(quad_char)."""

import collections
import functools
import itertools
import math

import numpy as np

from k3cert.count import _coef_log_matrix, zech_tables
from k3cert.errors import (BudgetExceededError, CommonZeroOnLineError,
                           MathError, NotDivisibleError)
from k3cert.ffield import (
    FieldCtx,
    FieldElem,
    _embed_enc,
    _enc_digits,
    field_create,
)
from k3cert.forms import (
    IntForm,
    ModForm,
    _check_homogeneous,
    _grevlex_sort_key,
    _monomials,
    _serialize,
    reduce_mod,
)
from k3cert.geom import _MACAULAY_DEGREE, _SEARCH_BLOCK
from k3cert.obstruct import ObstructionReport, _solve_mod_p
from k3cert.zeta import (RankBound, _is_zero_poly, euler_phi, poly_divmod,
                         scaled_cyclotomic)


# ---------------------------------------------------------------------------
# the object layer of FieldElem arithmetic that the references below build
# on: forms over F_q (ObjForm), lines, binary forms, univariate polynomials
# (Poly), binary form arithmetic through them, evaluation and partial
# derivatives of forms, the quadratic character by Euler's criterion and
# the normalization of projective points


def embed_subfield(a: FieldElem, target: FieldCtx) -> FieldElem:
    """a in F_(p^d) embedded into F_(p^(de)) along the program's map
    (ffield._embed_enc)."""
    if target.p != a.ctx.p or target.d % a.ctx.d:
        raise ValueError(f"F_{a.ctx.q} does not embed into F_{target.q}")
    return FieldElem(target, _embed_enc(a.ctx, target, a.v))


def frobenius(a: FieldElem) -> FieldElem:
    return a ** a.ctx.p


def elements(ctx: FieldCtx):
    """All elements in canonical encoding order."""
    return [ctx.from_enc(e) for e in range(ctx.q)]


class ObjForm:
    """Homogeneous form in x, y, z with FieldElem coefficients in one
    FieldCtx, with sums, products and scaling."""

    __slots__ = ("ctx", "degree", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: dict, degree: int | None = None):
        clean = {}
        for m, c in coeffs.items():
            if not isinstance(c, FieldElem):
                raise TypeError("ObjForm coefficients must be FieldElem")
            if c.ctx is not ctx:
                raise ValueError("field context mismatch")
            if c:
                clean[tuple(m)] = c
        if degree is None:
            if not clean:
                raise ValueError("zero form needs an explicit degree")
            degree = sum(next(iter(clean)))
        _check_homogeneous(clean, degree)
        self.ctx, self.degree, self.coeffs = ctx, degree, clean

    @classmethod
    def from_int_coeffs(cls, ctx, coeffs: dict, degree: int | None = None):
        return cls(ctx, {m: ctx.from_int(c) for m, c in coeffs.items()}, degree)

    @classmethod
    def of(cls, form: ModForm) -> "ObjForm":
        """The form with the coefficient encodings of a ModForm."""
        return cls(form.ctx, {m: FieldElem(form.ctx, c)
                              for m, c in form.coeffs.items()}, form.degree)

    def mod(self) -> ModForm:
        """The program's ModForm: the coefficient encodings."""
        return ModForm(self.ctx, self.encodings(), self.degree)

    def encodings(self) -> dict:
        return {m: c.v for m, c in self.coeffs.items()}

    def lift(self) -> IntForm:
        """Integer lift with coefficients in [0, p); prime fields only."""
        if self.ctx.d != 1:
            raise ValueError("lift is defined over prime fields only")
        return IntForm(self.encodings(), self.degree)

    def embed(self, target: FieldCtx) -> "ObjForm":
        return ObjForm(target, {m: embed_subfield(c, target)
                                for m, c in self.coeffs.items()}, self.degree)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, ObjForm) and other.ctx is self.ctx
                and other.degree == self.degree and other.coeffs == self.coeffs)

    __hash__ = None

    def __add__(self, other):
        if other.ctx is not self.ctx or other.degree != self.degree:
            raise ValueError("field or degree mismatch")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out[m] + c if m in out else c
        return ObjForm(self.ctx, out, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ObjForm(self.ctx, {m: -c for m, c in self.coeffs.items()},
                       self.degree)

    def __mul__(self, other):
        if other.ctx is not self.ctx:
            raise ValueError("field context mismatch")
        out: dict = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return ObjForm(self.ctx, out, self.degree + other.degree)

    def scale(self, k: FieldElem):
        return ObjForm(self.ctx, {m: c * k for m, c in self.coeffs.items()},
                       self.degree)

    def square(self):
        return self * self

    def serialize(self) -> str:
        return _serialize(self.encodings())

    def __repr__(self):
        return f"ObjForm(F{self.ctx.q}; {self.serialize()})"


def line_coeffs(line, ctx: FieldCtx | None = None) -> tuple:
    """Coefficient triple, as FieldElem, of a linear form given as an
    ObjForm, a triple of FieldElem, or a triple of integers read in ctx."""
    if isinstance(line, ObjForm):
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


def line_form(ctx, vec) -> ObjForm:
    return ObjForm(ctx, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), vec)), 1)


class BinaryForm:
    """Homogeneous form in (u, v) over a FieldCtx: coeffs[i] is the
    FieldElem coefficient of u^(degree-i) v^i."""

    __slots__ = ("ctx", "degree", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("binary form needs at least one coefficient")
        for c in cs:
            if not isinstance(c, FieldElem) or c.ctx is not ctx:
                raise ValueError("field context mismatch")
        self.ctx, self.degree, self.coeffs = ctx, len(cs) - 1, cs

    @classmethod
    def from_ints(cls, ctx, ints):
        return cls(ctx, [ctx.from_int(n) for n in ints])

    @classmethod
    def from_encs(cls, ctx, encs):
        return cls(ctx, [FieldElem(ctx, c) for c in encs])

    def encodings(self) -> list:
        return [c.v for c in self.coeffs]

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, BinaryForm) and other.ctx is self.ctx
                and other.coeffs == self.coeffs)

    __hash__ = None

    def __repr__(self):
        return f"BinaryForm(F{self.ctx.q}; {self.encodings()})"


class Poly:
    """Dense univariate polynomial over a FieldCtx, ascending coefficients.

    Immutable; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("ctx", "c")

    def __init__(self, ctx, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.ctx = ctx
        self.c = tuple(cs)

    @classmethod
    def from_ints(cls, ctx, ints):
        return cls(ctx, [ctx.from_int(n) for n in ints])

    @classmethod
    def x(cls, ctx):
        return cls(ctx, [ctx.zero(), ctx.one()])

    @property
    def degree(self):
        return len(self.c) - 1

    def is_zero(self):
        return not self.c

    def __getitem__(self, i):
        if 0 <= i < len(self.c):
            return self.c[i]
        return self.ctx.zero()

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ctx is self.ctx
                and other.c == self.c)

    def __hash__(self):
        return hash((id(self.ctx), self.c))

    def __add__(self, other):
        n = max(len(self.c), len(other.c))
        return Poly(self.ctx, [self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.c), len(other.c))
        return Poly(self.ctx, [self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return Poly(self.ctx, [-a for a in self.c])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Poly(self.ctx, [])
        z = self.ctx.zero()
        out = [z] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a.is_zero():
                continue
            for j, b in enumerate(other.c):
                out[i + j] = out[i + j] + a * b
        return Poly(self.ctx, out)

    def scale(self, k: FieldElem):
        return Poly(self.ctx, [a * k for a in self.c])

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly(self.ctx, []), self
        inv = other.c[-1].inverse()
        rem = list(self.c)
        out = [self.ctx.zero()] * (len(self.c) - len(other.c) + 1)
        db = other.degree
        for i in range(len(rem) - 1, db - 1, -1):
            coef = rem[i] * inv
            if not coef.is_zero():
                out[i - db] = coef
                for j, b in enumerate(other.c):
                    rem[i - db + j] = rem[i - db + j] - coef * b
        return Poly(self.ctx, out), Poly(self.ctx, rem[:db])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self):
        """(monic multiple, leading coefficient)."""
        if self.is_zero():
            return self, self.ctx.one()
        lead = self.c[-1]
        if lead == self.ctx.one():
            return self, lead
        return self.scale(lead.inverse()), lead

    def derivative(self):
        out = []
        for i in range(1, len(self.c)):
            out.append(self.c[i] * self.ctx.from_int(i))
        return Poly(self.ctx, out)

    def pow_mod(self, n: int, mod: "Poly"):
        r = Poly(self.ctx, [self.ctx.one()])
        base = self % mod
        while n:
            if n & 1:
                r = (r * base) % mod
            base = (base * base) % mod
            n >>= 1
        return r

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()[0]

    def enc_key(self):
        """Sort key: degree, then coefficients leading-to-constant by encoding."""
        return (self.degree, tuple(a.to_int() for a in reversed(self.c)))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{a.to_int()}*t^{i}" for i, a in enumerate(self.c) if not a.is_zero()]
        return "Poly(" + " + ".join(terms) + ")"


def bf_to_poly(bf: BinaryForm) -> Poly:
    """Dehomogenize at u = 1: the polynomial sum coeffs[i] t^i."""
    return Poly(bf.ctx, list(bf.coeffs))


def bf_from_poly(poly: Poly, degree: int) -> BinaryForm:
    """Rehomogenize a univariate polynomial g(t) = g(v/u) u^(-degree)."""
    if poly.degree > degree:
        raise ValueError("degree too small for the given polynomial")
    return BinaryForm(poly.ctx, [poly[i] for i in range(degree + 1)])


def bf_mul(a: BinaryForm, b: BinaryForm) -> BinaryForm:
    return bf_from_poly(bf_to_poly(a) * bf_to_poly(b), a.degree + b.degree)


def bf_add(a: BinaryForm, b: BinaryForm) -> BinaryForm:
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    return bf_from_poly(bf_to_poly(a) + bf_to_poly(b), a.degree)


def bf_sub(a: BinaryForm, b: BinaryForm) -> BinaryForm:
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    return bf_from_poly(bf_to_poly(a) - bf_to_poly(b), a.degree)


def bf_scale(bf: BinaryForm, k: FieldElem) -> BinaryForm:
    return BinaryForm(bf.ctx, [a * k for a in bf.coeffs])


def u_multiplicity(bf: BinaryForm) -> int:
    """Largest k with u^k dividing the form (degree+1 if zero)."""
    return bf.degree - bf_to_poly(bf).degree


def bf_gcd(a: BinaryForm, b: BinaryForm) -> BinaryForm:
    """gcd over the same field (monic dehomogenization, plus the common
    power of the first variable)."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    g = bf_to_poly(a).gcd(bf_to_poly(b))
    return bf_from_poly(g, g.degree + min(u_multiplicity(a),
                                          u_multiplicity(b)))


def eval_form(f: ObjForm, point) -> FieldElem:
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


def partial(f: ObjForm, var: int) -> ObjForm:
    """Formal partial derivative of f in variable var (0, 1 or 2)."""
    out = {}
    for m, c in f.coeffs.items():
        if m[var]:
            m2 = list(m)
            m2[var] -= 1
            out[tuple(m2)] = c * f.ctx.from_int(m[var])
    return ObjForm(f.ctx, out, max(f.degree - 1, 0))


def quad_char(a: FieldElem) -> int:
    """The quadratic character by Euler's criterion: 0 at zero, else +1
    when a^((q-1)/2) = 1 and -1 otherwise."""
    if a.is_zero():
        return 0
    return 1 if a ** ((a.ctx.q - 1) // 2) == a.ctx.one() else -1


def normalize_point(pt):
    """Scale a projective point so its first nonzero coordinate is 1."""
    first = next((i for i in range(3) if not pt[i].is_zero()), None)
    if first is None:
        raise ValueError("(0,0,0) is not a projective point")
    inv = pt[first].inverse()
    return tuple(c * inv for c in pt)


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


class LinearChange:
    """Invertible 3x3 change of coordinates over a FieldCtx.

    Acting on a form f gives f(T v): variable i is replaced by the linear
    form rows[i] in the new variables.
    """

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: FieldCtx, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("need a 3x3 matrix")
        for r in rows:
            for c in r:
                if not isinstance(c, FieldElem) or c.ctx is not ctx:
                    raise ValueError("field context mismatch")
        self.ctx = ctx
        self.rows = rows
        if self.det().is_zero():
            raise ValueError("singular change of coordinates")

    @classmethod
    def from_int_rows(cls, ctx, rows):
        return cls(ctx, [[ctx.from_int(c) for c in r] for r in rows])

    @classmethod
    def identity(cls, ctx):
        return cls.from_int_rows(ctx, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def det(self) -> FieldElem:
        r = self.rows
        return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))

    def inverse(self) -> "LinearChange":
        r = self.rows
        dinv = self.det().inverse()
        cof = [[None] * 3 for _ in range(3)]
        idx = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        for i in range(3):
            for j in range(3):
                i1, i2 = [k for k in range(3) if k != i]
                j1, j2 = [k for k in range(3) if k != j]
                minor = r[i1][j1] * r[i2][j2] - r[i1][j2] * r[i2][j1]
                sign = self.ctx.from_int(1 if (i + j) % 2 == 0 else -1)
                cof[j][i] = minor * sign * dinv  # transposed: adjugate
        return LinearChange(self.ctx, cof)

    def compose(self, other: "LinearChange") -> "LinearChange":
        """Matrix product self @ other."""
        a, b = self.rows, other.rows
        rows = [[sum((a[i][k] * b[k][j] for k in range(3)), self.ctx.zero())
                 for j in range(3)] for i in range(3)]
        return LinearChange(self.ctx, rows)

    def column(self, j: int) -> tuple:
        """The image T e_j of the j-th coordinate point."""
        return tuple(r[j] for r in self.rows)

    def apply_to_point(self, point):
        return tuple(sum((self.rows[i][k] * point[k] for k in range(3)),
                         self.ctx.zero()) for i in range(3))

    def int_rows(self):
        return tuple(tuple(c.to_int() for c in r) for r in self.rows)

    def __repr__(self):
        return f"LinearChange({self.int_rows()})"


def line_to_x(line) -> LinearChange:
    """A change of coordinates T with (line o T) = x.

    Complete the line's coefficient vector to an invertible matrix M by
    standard basis vectors (skipping the pivot column), then T = M^{-1}.
    """
    vec = line_coeffs(line)
    ctx = vec[0].ctx
    pivot = next((i for i, c in enumerate(vec) if not c.is_zero()), None)
    if pivot is None:
        raise ValueError("zero linear form")
    rows = [list(vec)]
    for j in range(3):
        if j != pivot:
            e = [ctx.zero()] * 3
            e[j] = ctx.one()
            rows.append(e)
    return LinearChange(ctx, rows).inverse()


def apply_int_matrix(f: IntForm, rows) -> IntForm:
    """The integer form f with variable i replaced by the integer linear
    form rows[i]."""
    lin = [IntForm(dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), r)), 1)
           for r in rows]
    out = IntForm({}, f.degree)
    for m, c in f.coeffs.items():
        term = IntForm({(0, 0, 0): c}, 0)
        for v, e in enumerate(m):
            for _ in range(e):
                term = term * lin[v]
        out = out + term
    return out


def apply_linear_change(f: ObjForm, T: LinearChange) -> ObjForm:
    """The form f(T v); degree is preserved."""
    if T.ctx is not f.ctx:
        raise ValueError("field context mismatch")
    ctx = f.ctx
    lin = [line_form(ctx, T.rows[i]) for i in range(3)]
    one_form = ObjForm(ctx, {(0, 0, 0): ctx.one()}, 0)
    memo = [{0: one_form} for _ in range(3)]

    def power(i, e):
        m = memo[i]
        if e not in m:
            top = max(m)
            cur = m[top]
            for k in range(top + 1, e + 1):
                cur = cur * lin[i]
                m[k] = cur
        return m[e]

    out = ObjForm(ctx, {}, f.degree)
    for (a, b, c), coef in f.coeffs.items():
        term = power(0, a) * power(1, b) * power(2, c)
        out = out + term.scale(coef)
    return out


def restrict_along(f: ObjForm, w1, w2) -> BinaryForm:
    """The binary form f(s w1 + t w2) of the same degree, for coordinate
    triples w1, w2 over the field of f."""
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


def line_kernel_basis(line):
    """Reduced echelon basis (v1, v2) of the kernel of the line's
    coefficients, as FieldElem triples."""
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


def restrict_to_line_ref(f: ObjForm, line) -> BinaryForm:
    """forms.restrict_to_line in FieldElem arithmetic: f(s v1 + t v2) for
    the kernel basis of line_kernel_basis."""
    return restrict_along(f, *line_kernel_basis(line))


# g = unit * h^2, rational splits (split_field_degree 1) exactly when the
# unit is a square
SquareSplit = collections.namedtuple("SquareSplit",
                                     "h unit split_field_degree")


def perfect_square_split_ref(g: BinaryForm):
    """forms._square_split in FieldElem arithmetic, as a SquareSplit: h
    solved coefficient by coefficient from the first nonzero one, then u
    h^2 re-expanded and compared with g."""
    if g.is_zero():
        raise ValueError("zero form")
    ctx, n, c = g.ctx, g.degree, g.coeffs
    if n % 2:
        return None
    k = n // 2
    i0 = next(i for i in range(n + 1) if not c[i].is_zero())
    if i0 % 2:
        return None
    j0, u = i0 // 2, c[i0]
    uinv, two_inv, zero = u.inverse(), ctx.from_int(2).inverse(), ctx.zero()
    h = [zero] * (k + 1)
    h[j0] = ctx.one()
    for j in range(j0 + 1, k + 1):
        i = j + j0
        inner = zero
        for a in range(j0 + 1, j):
            if j0 < i - a <= k:
                inner = inner + h[a] * h[i - a]
        h[j] = (c[i] * uinv - inner) * two_inv
    hh = [zero] * (n + 1)
    for a in range(k + 1):
        for b in range(k + 1):
            hh[a + b] = hh[a + b] + h[a] * h[b]
    if any(hh[i] * u != c[i] for i in range(n + 1)):
        return None
    return SquareSplit(BinaryForm(ctx, h), u, 1 if quad_char(u) == 1 else 2)



# ---------------------------------------------------------------------------
# the general factoriser on Poly objects: squarefree, distinct-degree and
# equal-degree factorization, and the roots of binary forms through it


def _pth_root_poly(f: Poly) -> Poly:
    """For f with f' = 0, the g with g^p = f."""
    ctx = f.ctx
    p = ctx.p
    root_exp = p ** (ctx.d - 1)  # inverse of Frobenius on F_{p^d}
    out = []
    for i in range(0, f.degree + 1, p):
        out.append(f[i] ** root_exp)
    return Poly(ctx, out)


def _squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    # f monic; classic characteristic-p algorithm
    ctx = f.ctx
    p = ctx.p
    one = Poly(ctx, [ctx.one()])
    out: list[tuple[Poly, int]] = []
    fp = f.derivative()
    if fp.is_zero():
        for g, m in _squarefree_decomposition(_pth_root_poly(f)):
            out.append((g, m * p))
        return out
    c = f.gcd(fp)
    w = (f // c).monic()[0]
    i = 1
    while w != one:
        y = w.gcd(c)
        z = (w // y).monic()[0]
        if z != one:
            out.append((z, i))
        i += 1
        w = y
        c = (c // y).monic()[0]
    if c != one:
        for g, m in _squarefree_decomposition(_pth_root_poly(c)):
            out.append((g, m * p))
    return out


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    # f monic squarefree; returns (product of irreducibles of degree e, e)
    ctx = f.ctx
    out = []
    x = Poly.x(ctx)
    h = x
    rest = f
    e = 0
    while rest.degree > 0:
        e += 1
        if 2 * e > rest.degree:
            out.append((rest, rest.degree))
            break
        h = h.pow_mod(ctx.q, rest)
        g = (h - x).gcd(rest)
        if g.degree > 0:
            out.append((g, e))
            rest = (rest // g).monic()[0]
            h = h % rest
    return out


def _counter_poly(ctx, n: int) -> Poly:
    """n-th polynomial in the deterministic candidate sequence: base-q digits
    of n, coefficients decoded through the canonical encoding."""
    digits = []
    while n:
        digits.append(ctx.from_enc(n % ctx.q))
        n //= ctx.q
    return Poly(ctx, digits)


def _split(f: Poly, e: int) -> Poly:
    """A proper monic factor of f (monic squarefree, every irreducible
    factor of degree e, at least two of them).

    The candidates u run through the counter sequence from x + t, t the
    class of the field generator (from x itself over a prime field):
    either gcd(u, f) or gcd(u^((q^e-1)/2) - 1, f) splits f with
    probability about 1/2 each.  The candidates x + c with c in F_p are
    left out: they never split an f whose roots are Frobenius conjugates
    over F_p, such as an irreducible over F_p lifted to an extension, as
    u(r^p) = u(r)^p has the same quadratic character as u(r)."""
    ctx = f.ctx
    exp = (ctx.q ** e - 1) // 2
    one = Poly(ctx, [ctx.one()])
    n = ctx.q + (ctx.p if ctx.d > 1 else 0)
    while True:
        u = _counter_poly(ctx, n)
        n += 1
        g = u.gcd(f)
        if not 0 < g.degree < f.degree:
            g = (u.pow_mod(exp, f) - one).gcd(f)
        if 0 < g.degree < f.degree:
            return g


def _equal_degree(f: Poly, e: int) -> list[Poly]:
    # f monic squarefree, all irreducible factors of degree e
    if f.degree == e:
        return [f]
    g = _split(f, e)
    rest = (f // g).monic()[0]
    return sorted(_equal_degree(g, e) + _equal_degree(rest, e),
                  key=Poly.enc_key)


def split_root(f: Poly) -> FieldElem:
    """One root of a monic f that is a product of distinct linear factors:
    f is split, and the smaller factor kept, until it is linear."""
    while f.degree > 1:
        g = _split(f, 1)
        rest = (f // g).monic()[0]
        f = min(g, rest, key=lambda h: h.degree)
    return -f[0]


def factor_univariate(f: Poly) -> list[tuple[Poly, int]]:
    """Factor a nonzero univariate polynomial into monic irreducibles.

    Squarefree decomposition, then distinct-degree, then equal-degree
    splitting driven by a counter-based deterministic candidate sequence.
    Output sorted by degree, then by coefficients (leading to constant,
    compared through the canonical integer encoding).
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    fm, _ = f.monic()
    out: list[tuple[Poly, int]] = []
    if fm.degree == 0:
        return out
    for g, m in _squarefree_decomposition(fm):
        for prod, e in _distinct_degree(g):
            for irr in _equal_degree(prod, e):
                out.append((irr, m))
    out.sort(key=lambda fm_: fm_[0].enc_key())
    return out


def binary_roots_ref(bf: BinaryForm):
    """geom._binary_roots through factor_univariate: the root (0 : 1) from
    the degree drop, each linear factor's root, and for an irreducible
    factor of degree e > 1 one root over F_(q^e) by split_root and its
    conjugates r^(q^i); sorted by field degree, then by encoding."""
    ctx = bf.ctx
    if bf.is_zero():
        raise ValueError("zero binary form has no well-defined roots")
    poly = bf_to_poly(bf)
    out = []
    inf_mult = bf.degree - poly.degree
    if inf_mult > 0:
        out.append(((ctx.zero(), ctx.one()), inf_mult, ctx))
    if poly.degree > 0:
        for irr, mult in factor_univariate(poly):
            e = irr.degree
            if e == 1:
                out.append(((ctx.one(), -irr[0]), mult, ctx))
                continue
            ext = field_create(ctx.p, ctx.d * e)
            root = split_root(Poly(ext, [embed_subfield(c, ext)
                                         for c in irr.c]))
            for _ in range(e):
                out.append(((ext.one(), root), mult, ext))
                root = root ** ctx.q
    out.sort(key=lambda r: (r[2].d, r[0][0].to_int(), r[0][1].to_int()))
    return out


def poly_roots(f: Poly) -> list[tuple[FieldElem, int]]:
    """Roots of f in its own field, with multiplicities, sorted by encoding."""
    out = []
    for g, m in factor_univariate(f):
        if g.degree == 1:
            out.append((-g[0], m))
    out.sort(key=lambda rm: rm[0].to_int())
    return out


def sqrt_ref(u: FieldElem) -> FieldElem:
    """The principal square root, the root of t^2 - u with the smaller
    encoding, by factoring."""
    roots = poly_roots(Poly(u.ctx, [-u, u.ctx.zero(), u.ctx.one()]))
    if not roots:
        raise MathError("element is not a square")
    return roots[0][0]


def contact_points_ref(split_h: BinaryForm, line, ctx):
    """geom._contact_points through the general factoriser: the roots of h
    from binary_roots_ref mapped through line_kernel_basis, normalized, as
    (field, encodings, multiplicity) like the program's certificates."""
    v1, v2 = line_kernel_basis(line)
    out = []
    for (u0, v0), mult, root_ctx in binary_roots_ref(split_h):
        w1 = tuple(embed_subfield(c, root_ctx) for c in v1)
        w2 = tuple(embed_subfield(c, root_ctx) for c in v2)
        pt = tuple(u0 * w1[i] + v0 * w2[i] for i in range(3))
        out.append((root_ctx, tuple(c.v for c in normalize_point(pt)), mult))
    return tuple(out)


def obstruction_ref(f6: IntForm, line, f3: IntForm, f5: IntForm, p: int):
    """obstruct.lifts_to_second_order on a line in IntForm and
    BinaryForm arithmetic: G from the form products, the restrictions of
    G, f3 and f5 by restrict_to_line_ref, their gcd as binary forms, the
    7x6 system, and the witness recombined as binary forms; the report
    holds coefficient lists, as the program's does."""
    ctx = field_create(p, 1)
    vec = line_coeffs(line, ctx)
    ell = IntForm({(1, 0, 0): vec[0].to_int(), (0, 1, 0): vec[1].to_int(),
                   (0, 0, 1): vec[2].to_int()}, 1)
    numerator = f6 - f3 * f3 - ell * f5
    if any(c % p for c in numerator.coeffs.values()):
        raise NotDivisibleError("f6 - f3^2 - l*f5 is not divisible by p")
    G = IntForm({m: c // p for m, c in numerator.coeffs.items()}, 6)
    g_bar, f3_bar, f5_bar = (restrict_to_line_ref(
        ObjForm.of(reduce_mod(form, ctx)), vec) for form in (G, f3, f5))
    if f3_bar.is_zero() or f5_bar.is_zero() or bf_gcd(f3_bar, f5_bar).degree:
        raise CommonZeroOnLineError("f3 and f5 share a zero on the line")
    a3, a5 = ([c.to_int() for c in f.coeffs] for f in (f3_bar, f5_bar))
    matrix = [[0] * 6 for _ in range(7)]
    for m in range(7):
        for j in range(4):
            if 0 <= m - j <= 3:
                matrix[m][j] = a3[m - j]
        matrix[m][4] = a5[m] if m <= 5 else 0
        matrix[m][5] = a5[m - 1] if m >= 1 else 0
    g = [c.to_int() for c in g_bar.coeffs]
    sol = _solve_mod_p(matrix, g, p)
    witness = None
    if sol is not None:
        b3, c1 = (BinaryForm.from_ints(ctx, x) for x in (sol[:4], sol[4:]))
        assert bf_add(bf_mul(f3_bar, b3), bf_mul(f5_bar, c1)) == g_bar
        witness = (list(sol[:4]), list(sol[4:]))
    return ObstructionReport(
        p=p, G=G, g_bar=g, f3_bar=a3, f5_bar=a5,
        matrix=tuple(tuple(r) for r in matrix), rhs=tuple(g),
        verdict="nonvanishing" if sol is None else "vanishes",
        witness=witness)


def cyclotomic_part_ref(P):
    """zeta.cyclotomic_part by trial division alone, over every n below 2
    d^2 + 1 with phi(n) <= d."""
    d, cur, per_n, total = P.degree, list(P.coeffs), [], 0
    for n in range(1, 2 * d * d + 1):
        phi = euler_phi(n)
        if phi > d:
            continue
        div, mult = scaled_cyclotomic(n, P.q), 0
        while len(cur) > len(div) - 1:
            quo, rem = poly_divmod(cur, div)
            if quo is None or not _is_zero_poly(rem):
                break
            mult, cur = mult + 1, quo
        if mult:
            per_n.append((n, mult))
            total += phi * mult
    return RankBound(cyclotomic_degree=total, per_n=tuple(per_n))


def decompose_mod_line(f6: ObjForm, line):
    """f6 = f3^2 + line*f5 over the coefficient field of the line.

    Canonical choice: with T the change of coordinates that sends the line
    to x, take the principal square root b3 of the restriction f6(T(0, y,
    z)), move it back (f3 = b3 o T^-1) and divide f6 - f3^2 by the line;
    the quotient is unique, and equals the quotient of f6 o T - b3^2 by x
    moved back, since the line is x o T^-1."""
    ctx = f6.ctx
    vec = line_coeffs(line)
    T = line_to_x(vec)
    restriction = restrict_along(f6, T.column(1), T.column(2))
    split = perfect_square_split_ref(restriction)
    if split is None:
        raise MathError(
            "restriction to the line is not a perfect square: not a tritangent")
    if split.split_field_degree != 1:
        raise MathError(
            "tritangent splits only over the quadratic extension "
            "(non-square unit); the decomposition needs a rational split")
    s = sqrt_ref(split.unit)
    # pick the square root of the restriction with the smaller leading
    # coefficient representative
    lead_pos = next(i for i in range(split.h.degree + 1)
                    if not split.h.coeffs[i].is_zero())
    cand = s * split.h.coeffs[lead_pos]
    if (-cand).to_int() < cand.to_int():
        s = -s
    # the restriction lives in (y, z) after the change of coordinates
    b3 = ObjForm(ctx, {(0, 3 - i, i): s * c
                       for i, c in enumerate(split.h.coeffs)
                       if not c.is_zero()}, 3)
    f3 = apply_linear_change(b3, T.inverse())
    ell = line_form(ctx, vec)
    f5 = exact_divide(f6 - f3 * f3, ell)
    assert f3 * f3 + ell * f5 == f6
    return f3, f5



def _lead_monomial(coeffs):
    """The leading monomial in descending grevlex order."""
    return min(coeffs, key=_grevlex_sort_key)


def exact_divide(f, g):
    """Exact division f / g of forms of the same kind; errors if g does not
    divide f (a broken decomposition upstream).  Integer forms also require
    every coefficient quotient to be exact."""
    if isinstance(f, IntForm) != isinstance(g, IntForm):
        raise TypeError("operands must be the same kind of form")
    integer = isinstance(f, IntForm)
    if not integer and f.ctx is not g.ctx:
        raise ValueError("field context mismatch")
    if g.is_zero():
        raise ZeroDivisionError("division by the zero form")
    if f.is_zero():
        if integer:
            return IntForm({}, max(f.degree - g.degree, 0))
        return ObjForm(f.ctx, {}, max(f.degree - g.degree, 0))
    if f.degree < g.degree:
        raise NotDivisibleError("degree of divisor exceeds degree of dividend")
    lead_g = _lead_monomial(g.coeffs)
    cg = g.coeffs[lead_g]
    rem = dict(f.coeffs)
    quo: dict = {}
    while rem:
        lead_r = _lead_monomial(rem)
        mono = tuple(lead_r[i] - lead_g[i] for i in range(3))
        if any(e < 0 for e in mono):
            raise NotDivisibleError(
                f"leading monomial {lead_r} not divisible by {lead_g}")
        cr = rem[lead_r]
        if integer:
            if cr % cg:
                raise NotDivisibleError(
                    f"coefficient {cr} not divisible by {cg}")
            coef = cr // cg
        else:
            coef = cr / cg
        quo[mono] = coef
        for m2, c2 in g.coeffs.items():
            m = (mono[0] + m2[0], mono[1] + m2[1], mono[2] + m2[2])
            if integer:
                val = rem.get(m, 0) - coef * c2
                if val:
                    rem[m] = val
                else:
                    rem.pop(m, None)
            else:
                val = rem.get(m)
                val = (-(coef * c2)) if val is None else val - coef * c2
                if val.is_zero():
                    rem.pop(m, None)
                else:
                    rem[m] = val
    deg = f.degree - g.degree
    if integer:
        return IntForm(quo, deg)
    return ObjForm(f.ctx, quo, deg)


def macaulay_matrix(system, degree: int) -> np.ndarray:
    """Rows: every form of the system (ObjForms over F_p) times every
    monomial of the complementary degree, as int64 coefficient vectors
    over the monomials of `degree` in the column order of geom."""
    index = _monomials(degree)[1]
    rows = []
    for f in system:
        for a, b, c in _monomials(degree - f.degree)[0]:
            row = [0] * len(index)
            for (d, e, g), coef in f.coeffs.items():
                row[index[(a + d, b + e, c + g)]] = coef.to_int()
            rows.append(row)
    return np.array(rows, dtype=np.int64)


def macaulay_smoothness(f6: ObjForm):
    """Reference for smoothness_check: (verdict, witness, field degree)
    from the full Macaulay matrices of f6 and its nonzero partials (210
    rows in degree 14 when no partial vanishes), reduced by row_echelon in
    every degree, with no triangular block, no dropped rows and no Euler
    skip; the witness by singular_witness_ref on those matrices."""
    ctx = f6.ctx
    system = [f6] + [h for h in (partial(f6, v) for v in range(3))
                     if not h.is_zero()]

    def z_free(degree):
        rows, pivots = row_echelon(macaulay_matrix(system, degree), ctx.p)
        return len(pivots), z_free_forms_ref(ctx, rows, pivots, degree)

    rank, forms = z_free(_MACAULAY_DEGREE)
    if rank == len(_monomials(_MACAULAY_DEGREE)[0]):
        return "smooth", None, None
    if all((0, 0, f.degree) not in f.coeffs for f in system):
        return "singular", (ctx.zero(), ctx.zero(), ctx.one()), 1
    pt = normalize_point(singular_witness_ref(
        system, forms, lambda degree: z_free(degree)[1]))
    return "singular", pt, pt[0].ctx.d


# ---------------------------------------------------------------------------
# the singular witness on ObjForm, BinaryForm and Poly objects, as
# geom._singular_witness took it before it moved to coefficient encodings


def z_free_forms_ref(ctx, rows, pivots, degree: int):
    """geom._z_free_forms as BinaryForms: the rows of an echelon form of
    the Macaulay matrix in `degree` with a z-free pivot."""
    first = rows.shape[1] - (degree + 1)
    return [BinaryForm(ctx, [ctx.from_int(int(c)) for c in row[first:]])
            for row, col in zip(rows, pivots) if col >= first]


def specialize_xy(f: ObjForm, u0: FieldElem, v0: FieldElem) -> Poly:
    """f(u0, v0, z) as a polynomial in z over the field of u0 and v0."""
    ctx = u0.ctx
    out = [ctx.zero()] * (f.degree + 1)
    for (a, b, c), coef in f.coeffs.items():
        out[c] = out[c] + embed_subfield(coef, ctx) * u0 ** a * v0 ** b
    return Poly(ctx, out)


def lift_through_z_ref(system, u0: FieldElem, v0: FieldElem):
    """A common zero (u0 : v0 : w) of the ObjForms of the system, the
    least w over the smallest field, or None when there is none over (u0
    : v0)."""
    gz = functools.reduce(Poly.gcd, [specialize_xy(f, u0, v0)
                                     for f in system], Poly(u0.ctx, []))
    if gz.degree == 0:
        return None
    (_, w), _, ctx = binary_roots_ref(bf_from_poly(gz, gz.degree))[0]
    return embed_subfield(u0, ctx), embed_subfield(v0, ctx), w


def singular_witness_ref(system, forms, z_free):
    """geom._singular_witness on objects: the first common zero of the
    ObjForms of the system on x = 0 (the gcd of their restrictions) when
    the z-free forms of degree 14 are empty, else, or when there is none
    there, the first zero of the gcd of the z-free forms of the least
    degree that has them (z_free(degree) gives them above 14) that lifts
    through the system specialised at it.  The point is not normalized."""
    ctx = system[0].ctx
    if not forms:
        x_line = (ctx.one(), ctx.zero(), ctx.zero())
        g = functools.reduce(bf_gcd, [restrict_to_line_ref(f, x_line)
                                      for f in system])
        if g.degree > 0:
            (s0, t0), _, _ = binary_roots_ref(g)[0]
            return s0.ctx.zero(), s0, t0
        for degree in range(_MACAULAY_DEGREE + 1, 31):
            forms = z_free(degree)
            if forms:
                break
        else:
            raise AssertionError("no binary form in the ideal up to degree 30")
    for (u0, v0), _, _ in binary_roots_ref(functools.reduce(bf_gcd, forms)):
        pt = lift_through_z_ref(system, u0, v0)
        if pt is not None:
            return pt
    raise AssertionError("no singular point over the zeros of the "
                         "elimination forms")


# ---------------------------------------------------------------------------
# Zech arithmetic on arrays of log indices (count.zech_tables): any
# negative value is zero, and results are log indices modulo q - 1 but not
# reduced; the count kernel folds these steps into one Horner loop


def log_mul(a, b):
    """Products of elements given by log arrays."""
    return np.where((a < 0) | (b < 0), -1, a + b)


def log_add(ctx: FieldCtx, a, b):
    """Sums through the Zech table."""
    q1 = ctx.q - 1
    zt = zech_tables(ctx)[2][(a - b) % q1]
    r = np.where(zt < 0, -1, b + zt)
    r = np.where(a < 0, b, r)
    return np.where(b < 0, a, r)


def log_horner(ctx: FieldCtx, coef_logs, xlogs):
    """sum_i c_i x^i by Horner's rule; the logs c_i may be scalars or
    arrays that broadcast against xlogs."""
    acc = np.full(np.shape(xlogs), -1, dtype=np.int64)
    for c in coef_logs[::-1]:
        acc = log_add(ctx, log_mul(acc, xlogs), c)
    return acc


def chart_value_logs(form: ModForm, ctx: FieldCtx, chart: int) -> np.ndarray:
    """Log values of the form over one chart, for oracles and diagnostics.

    chart 0: (1 : y : z), flat array in y-major order over all (y, z);
    chart 1: (0 : 1 : z); chart 2: the single point (0 : 0 : 1).
    Element order within a chart follows the log-index enumeration
    (zero first, then powers of the generator).  Small fields only.
    """
    q = ctx.q
    if chart == 0 and q * q > (1 << 26):
        raise BudgetExceededError("chart materialization is for small fields")
    coef = _coef_log_matrix(ctx, form)
    n = coef.shape[0] - 1
    q1 = q - 1
    if chart == 2:
        c = int(coef[0, n])
        return np.array([c], dtype=np.int64)
    if chart == 1:
        cz = [int(coef[n - c, c]) for c in range(n + 1)]
        return log_horner(ctx, cz, np.arange(q, dtype=np.int64) - 1)
    ylogs = np.arange(q, dtype=np.int64) - 1
    lc = np.stack([log_horner(ctx, coef[:, j], ylogs) for j in range(n + 1)])
    out = np.empty((q, q), dtype=np.int64)
    out[:, 0] = lc[0]
    if q1:
        k = np.arange(q1, dtype=np.int64)
        acc = None
        for j in range(n + 1):
            cj = lc[j][:, None]
            m = np.where(cj < 0, -1, cj + j * k[None, :])
            acc = m if acc is None else log_add(ctx, acc, m)
        out[:, 1:] = acc
    return out.reshape(-1)


def chart_points(ctx: FieldCtx, chart: int):
    """The projective points of a chart in the order used by chart_value_logs."""
    elems = [ctx.zero()] + [ctx.from_enc(int(e)) for e in zech_tables(ctx)[0]]
    one, zero = ctx.one(), ctx.zero()
    if chart == 2:
        return [(zero, zero, one)]
    if chart == 1:
        return [(zero, one, z) for z in elems]
    return [(one, y, z) for y in elems for z in elems]


def minimal_polynomial(a: FieldElem) -> Poly:
    """Minimal polynomial of a over F_p, returned over the prime field."""
    ctx = a.ctx
    prime = field_create(ctx.p, 1)
    orbit = [a]
    b = frobenius(a)
    while b != a:
        orbit.append(b)
        b = frobenius(b)
    poly = Poly(ctx, [ctx.one()])
    for r in orbit:
        poly = poly * Poly(ctx, [-r, ctx.one()])
    ints = []
    for coef in poly.c:
        vec = _enc_digits(coef.v, ctx.p, ctx.d)
        if any(vec[1:]):
            raise AssertionError("minimal polynomial coefficient outside F_p")
        ints.append(vec[0])
    return Poly.from_ints(prime, ints)


# ---------------------------------------------------------------------------
# the tritangent array test on log indices (any negative value is zero)


def log_neg(ctx: FieldCtx, a):
    """Negatives: -1 = g^((q-1)/2)."""
    return np.where(a < 0, -1, a + (ctx.q - 1) // 2)


def log_equal(ctx: FieldCtx, a, b):
    """Elementwise equality of elements given by log arrays."""
    return np.where(a < 0, b < 0, (b >= 0) & ((a - b) % (ctx.q - 1) == 0))


def log_unit_times_square(ctx: FieldCtx, R):
    """Whether each column of coefficient logs, R[i] the coefficient of
    s^(n-i) t^i, is u*h^2 with u a unit; a zero column is not.  The column
    is shifted to start at its first nonzero coefficient, which must have
    an even index; h_0 = 1 and h_1..h_k (k = n/2) solve the coefficients
    1..k of R/u, and the coefficients k+1..n are compared with h^2."""
    n = R.shape[0] - 1
    k = n // 2
    nonzero = R >= 0
    first = np.argmax(nonzero, axis=0)
    ok = nonzero.any(axis=0) & (first % 2 == 0) & (n % 2 == 0)
    G = np.take_along_axis(np.concatenate([R, np.full_like(R, -1)]),
                           first + np.arange(n + 1)[:, None], axis=0)
    g = log_mul(G, -G[0] % (ctx.q - 1))
    h = [np.zeros(R.shape[1], dtype=np.int64)]

    def square_coeff(i, lo, hi):
        # sum of h_a h_(i-a) over lo <= a <= hi
        acc = np.int64(-1)
        for a in range(lo, hi + 1):
            acc = log_add(ctx, acc, log_mul(h[a], h[i - a]))
        return acc

    half = zech_tables(ctx)[1][ctx.from_int(2).inverse().to_int()]
    for j in range(1, k + 1):
        inner = square_coeff(j, 1, j - 1)
        h.append(log_mul(log_add(ctx, g[j], log_neg(ctx, inner)), half))
    for i in range(k + 1, n + 1):
        ok &= log_equal(ctx, g[i], square_coeff(i, i - k, k))
    return ok


def log_restriction_blocks(f: ModForm, q0: int, e: int):
    """The blocks of geom._restriction_blocks with the restriction
    coefficients as logs, shape (n + 1, lines), by Horner's rule in the
    Zech representation: a line (a, b, 1) is parametrized as (s, t, A s +
    B t) with A = -a and B = -b, so the coefficient of s^(n-m) t^m is sum_l
    B^l P_ml(A) with P_ml(A) = sum_j binom(l+j, l) f_(n-m-j, m-l, l+j)
    A^j; (a, 1, 0) as (s, A s, t) and (1, 0, 0) as (0, s, t)."""
    ctx, n = f.ctx, f.degree
    q = ctx.q
    logs = zech_tables(ctx)[1]
    neg = log_neg(ctx, logs)
    steps = [(q - 1) // (q0 ** e1 - 1) for e1 in range(1, e) if e % e1 == 0]

    def sub(x, step):
        return (x < 0) | (x % step == 0)

    def coef(a, b, c, binom=1):
        # log of binom * f_abc; binom is read in the prime field
        x, y = f.coeffs.get((a, b, c)), logs[binom % ctx.p]
        return -1 if x is None or y < 0 else logs[x] + y

    K = np.full((n + 1, n + 1, n + 1, 1), -1, dtype=np.int64)
    T = np.full((n + 1, n + 1, 1), -1, dtype=np.int64)
    for m in range(n + 1):
        for j in range(n - m + 1):
            T[j, m] = coef(n - m - j, j, m)
            for l in range(m + 1):
                K[j, m, l] = coef(n - m - j, m - l, l + j, math.comb(l + j, l))
    rows, cols = max(1, _SEARCH_BLOCK // q), min(q, _SEARCH_BLOCK)
    for r0 in range(0, q, rows):
        P = log_horner(ctx, K, neg[r0:r0 + rows])  # P[m, l, row]
        for c0 in range(0, q, cols):
            R = log_horner(ctx, np.moveaxis(P, 1, 0)[..., None],
                           neg[c0:c0 + cols])
            a, b = logs[r0:r0 + rows, None], logs[None, c0:c0 + cols]
            skip = np.zeros((a.shape[0], b.shape[1]), dtype=bool)
            for s in steps:
                skip |= sub(a, s) & sub(b, s)
            yield R.reshape(n + 1, -1), skip.ravel()
    for c0 in range(0, q, _SEARCH_BLOCK):
        a = logs[c0:c0 + _SEARCH_BLOCK]
        skip = np.zeros(a.shape, dtype=bool)
        for s in steps:
            skip |= sub(a, s)
        yield log_horner(ctx, T, neg[c0:c0 + _SEARCH_BLOCK]), skip
    yield (np.array([[coef(0, n - m, m)] for m in range(n + 1)]),
           np.array([e > 1]))


def split_pairing_oracle(X, Y):
    """X+ . Y+ for two obstruct.SplitCurve over F_(p^2), where sqrt(s) = c
    sqrt(n) with sqrt(n) the principal root: at each root of Q_Y(phi) that
    binary_roots_ref finds where sigma = (sqrt(s_X) h_X - sqrt(s_Y)
    h_Y)(phi) vanishes, the order of sigma, or of Q_Y(phi) where Q_Y'(phi)
    vanishes too, by repeated division by the root's linear factor."""
    ctx = field_create(X.p, 2)
    phi = [Poly(ctx, [ctx.from_int(c) for c in f]) for f in X.phi]

    def image(form):
        out = Poly(ctx, [])
        for m, c in form.coeffs.items():
            term = Poly(ctx, [ctx.from_int(c)])
            for v in range(3):
                for _ in range(m[v]):
                    term = term * phi[v]
            out = out + term
        return bf_from_poly(out, form.degree * X.degree)

    def sheet(curve):
        c, n = curve.root
        return bf_scale(image(curve.half),
                        ctx.from_int(c) * sqrt_ref(ctx.from_int(n)))

    def order(form, root):
        (u0, v0), _, rctx = root
        if u0.is_zero():
            return u_multiplicity(form)
        f = Poly(rctx, [embed_subfield(c, rctx) for c in form.coeffs])
        factor, k = Poly(rctx, [-v0 / u0, rctx.one()]), 0
        while (f % factor).is_zero():
            f, k = f // factor, k + 1
        return k

    g, sigma = image(Y.curve), bf_sub(sheet(X), sheet(Y))
    cofactor = image(Y.cofactor)
    return sum(order(sigma, r) and (order(g, r) if order(cofactor, r)
                                    else order(sigma, r))
               for r in binary_roots_ref(g))
