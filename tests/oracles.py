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
has its square roots, by root finding (split_pairing_oracle)."""

import functools
import itertools
import math

import numpy as np

from k3cert.count import _coef_log_matrix
from k3cert.errors import BudgetExceededError, MathError, NotDivisibleError
from k3cert.ffield import (
    FieldCtx,
    FieldElem,
    Poly,
    embed_subfield,
    field_create,
    log_add,
    log_horner,
    log_mul,
)
from k3cert.forms import (
    BinaryForm,
    IntForm,
    ModForm,
    _grevlex_sort_key,
    line_coeffs,
    line_form,
    perfect_square_split,
    restrict_to_line,
)
from k3cert.geom import (
    _MACAULAY_DEGREE,
    _SEARCH_BLOCK,
    _lift_through_z,
    _monomials,
    _sqrt_in_field,
    _z_free_forms,
    binary_roots,
    normalize_point,
)


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


def apply_linear_change(f: ModForm, T: LinearChange) -> ModForm:
    """The form f(T v); degree is preserved."""
    if T.ctx is not f.ctx:
        raise ValueError("field context mismatch")
    ctx = f.ctx
    lin = [line_form(ctx, T.rows[i]) for i in range(3)]
    one_form = ModForm(ctx, {(0, 0, 0): ctx.one()}, 0)
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

    out = ModForm(ctx, {}, f.degree)
    for (a, b, c), coef in f.coeffs.items():
        term = power(0, a) * power(1, b) * power(2, c)
        out = out + term.scale(coef)
    return out


def restrict_along(f: ModForm, w1, w2) -> BinaryForm:
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


def decompose_mod_line(f6: ModForm, line):
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
    split = perfect_square_split(restriction)
    if split is None:
        raise MathError(
            "restriction to the line is not a perfect square: not a tritangent")
    if split.split_field_degree != 1:
        raise MathError(
            "tritangent splits only over the quadratic extension "
            "(non-square unit); the decomposition needs a rational split")
    s = _sqrt_in_field(split.unit)
    # pick the square root of the restriction with the smaller leading
    # coefficient representative
    lead_pos = next(i for i in range(split.h.degree + 1)
                    if not split.h.coeffs[i].is_zero())
    cand = s * split.h.coeffs[lead_pos]
    if (-cand).to_int() < cand.to_int():
        s = -s
    # the restriction lives in (y, z) after the change of coordinates
    b3 = ModForm(ctx, {(0, 3 - i, i): s * c
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
        return ModForm(f.ctx, {}, max(f.degree - g.degree, 0))
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
    return ModForm(f.ctx, quo, deg)


def macaulay_matrix(system, degree: int) -> np.ndarray:
    """Rows: every form of the system (ModForms over F_p) times every
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


def macaulay_smoothness(f6: ModForm):
    """Reference for smoothness_check: (verdict, witness, field degree)
    from the full Macaulay matrices of f6 and its nonzero partials (210
    rows in degree 14 when no partial vanishes), reduced by row_echelon in
    every degree, with no triangular block, no dropped rows and no Euler
    skip.  The witness search takes the steps of geom._singular_witness
    on those matrices."""
    ctx = f6.ctx
    system = [f6] + [h for h in (f6.partial(v) for v in range(3))
                     if not h.is_zero()]

    def echelon(degree):
        rows, pivots = row_echelon(macaulay_matrix(system, degree), ctx.p)
        return len(pivots), _z_free_forms(ctx, rows, pivots, degree)

    def witness(forms):
        if all((0, 0, f.degree) not in f.coeffs for f in system):
            return ctx.zero(), ctx.zero(), ctx.one()
        if not forms:
            x_line = (ctx.one(), ctx.zero(), ctx.zero())
            g = functools.reduce(BinaryForm.gcd, [restrict_to_line(f, x_line)
                                                  for f in system])
            if g.degree > 0:
                (s0, t0), _, _ = binary_roots(g)[0]
                return s0.ctx.zero(), s0, t0
            degree = _MACAULAY_DEGREE
            while not forms:
                degree += 1
                assert degree <= 30, "no binary form in the ideal"
                forms = echelon(degree)[1]
        for (u0, v0), _, _ in binary_roots(functools.reduce(BinaryForm.gcd,
                                                               forms)):
            pt = _lift_through_z(system, u0, v0)
            if pt is not None:
                return pt

    rank, forms = echelon(_MACAULAY_DEGREE)
    if rank == len(_monomials(_MACAULAY_DEGREE)[0]):
        return "smooth", None, None
    pt = normalize_point(witness(forms))
    return "singular", pt, pt[0].ctx.d


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
    elems = [ctx.zero()] + [ctx.from_enc(int(e)) for e in ctx.tables()[0]]
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
    b = a.frobenius()
    while b != a:
        orbit.append(b)
        b = b.frobenius()
    poly = Poly(ctx, [ctx.one()])
    for r in orbit:
        poly = poly * Poly(ctx, [-r, ctx.one()])
    ints = []
    for coef in poly.c:
        vec = coef.coeffs()
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

    half = ctx.tables()[1][ctx.from_int(2).inverse().to_int()]
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
    logs = ctx.tables()[1]
    neg = log_neg(ctx, logs)
    steps = [(q - 1) // (q0 ** e1 - 1) for e1 in range(1, e) if e % e1 == 0]

    def sub(x, step):
        return (x < 0) | (x % step == 0)

    def coef(a, b, c, binom=1):
        # log of binom * f_abc; binom is read in the prime field
        x, y = f.coeffs.get((a, b, c)), logs[binom % ctx.p]
        return -1 if x is None or y < 0 else logs[x.to_int()] + y

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
    """X+ . Y+ for two geom.SplitCurve over F_(p^2), where sqrt(s) = c
    sqrt(n) with sqrt(n) the principal root: at each root of Q_Y(phi) that
    binary_roots finds where sigma = (sqrt(s_X) h_X - sqrt(s_Y) h_Y)(phi)
    vanishes, the order of sigma, or of Q_Y(phi) where Q_Y'(phi) vanishes
    too, by repeated division by the root's linear factor."""
    ctx = field_create(X.p, 2)
    phi = [Poly(ctx, [ctx.from_int(c) for c in f]) for f in X.phi]

    def image(form, n):
        out = Poly(ctx, [])
        for m, c in form.items():
            term = Poly(ctx, [ctx.from_int(c)])
            for v in range(3):
                for _ in range(m[v]):
                    term = term * phi[v]
            out = out + term
        return BinaryForm.from_poly(out, n * X.degree)

    def sheet(curve):
        c, n = curve.root
        return image(curve.half, 3).scale(
            ctx.from_int(c) * _sqrt_in_field(ctx.from_int(n)))

    def order(form, root):
        (u0, v0), _, rctx = root
        if u0.is_zero():
            return form.u_multiplicity()
        f = Poly(rctx, [embed_subfield(c, rctx) for c in form.coeffs])
        factor, k = Poly(rctx, [-v0 / u0, rctx.one()]), 0
        while (f % factor).is_zero():
            f, k = f // factor, k + 1
        return k

    g, sigma = image(Y.curve, Y.degree), sheet(X) - sheet(Y)
    cofactor = image(Y.cofactor, 6 - Y.degree)
    return sum(order(sigma, r) and (order(g, r) if order(cofactor, r)
                                    else order(sigma, r))
               for r in binary_roots(g))
