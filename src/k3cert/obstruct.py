"""Split curves, their intersection numbers, and the second-order lifting
obstruction of their classes.

A split curve (SplitCurve) is a line or conic Q = 0 with f6 = s*h^2 +
Q*Q' (mod p): a tritangent with rational splits (s = 1, h = f3, Q' =
f5) or a conic certificate (its scale, q3 and q4).  Its preimage on the
double cover splits into two components, whose intersection matrix
(class_matrix) takes one parametrization and a few gcds per pair.

G = (f6 - s*h^2 - Q*Q')/p on integer lifts decides whether the class
extends to the thickening mod p^2: it does exactly when G lies in (p, Q,
h, Q').  Along the curve's parametrization phi (SplitCurve.image; a
line's is the kernel basis of forms._restrict) that asks whether G(phi)
= h(phi)*b + Q'(phi)*c for binary forms b and c of degrees 3 deg Q and
deg Q^2: 6 deg Q + 1 linear equations in 6 deg Q unknowns over F_p, 7 x
6 on a line and 13 x 12 on a conic.  The verdict is independent of the
lifts (they shift G by ideal members) and of the coordinates; the tests
check both.  A nonvanishing obstruction blocks the lift, which is what
certificates build on.  One expansion of f6 - s*h^2 - Q*Q' over Z
(residual) serves the obstruction, where it must be divisible by p, and
the conic identities, where it must vanish.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import CommonZeroOnLineError, MathError, NotDivisibleError
from .ffield import (_sqrt_in_field, _zp_divmod, _zp_gcd2, _zp_mul, _zp_trim,
                     field_create)
from .forms import IntForm, _form_gcd, _kernel_basis, _monomials

_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # the monomials of degree 1


@dataclass
class ObstructionReport:
    """Audit record of one obstruction computation; the binary forms are
    coefficient lists over F_p, entry i the coefficient of u^(n-i) v^i.
    f3_bar and f5_bar are the images of h and Q' (f3 and f5 on a
    tritangent)."""

    p: int
    G: IntForm
    g_bar: list         # G(phi) mod p
    f3_bar: list
    f5_bar: list
    matrix: tuple       # 6 deg Q + 1 rows x 6 deg Q columns over F_p
    rhs: tuple          # g_bar
    verdict: str        # vanishes | nonvanishing
    witness: tuple | None  # (b, c) coefficient lists when solvable

    @property
    def vanishes(self) -> bool:
        return self.verdict == "vanishes"


def binary_str(coeffs) -> str:
    """The report text of a binary form given by its coefficient list:
    c*u^a*v^b for each nonzero coefficient, joined by +, or 0."""
    n = len(coeffs) - 1
    return "+".join(f"{c}*u^{n - i}*v^{i}"
                    for i, c in enumerate(coeffs) if c) or "0"


def residual(f6: IntForm, scale: int, h: IntForm, Q: IntForm,
             cofactor: IntForm) -> IntForm:
    """f6 - scale*h^2 - Q*cofactor over Z: zero for a conic certificate,
    divisible by p for a split curve mod p."""
    return f6 - (h * h).scale(scale) - Q * cofactor


def obstruction_G(f6: IntForm, curve: SplitCurve) -> IntForm:
    """G = (f6 - s*h^2 - Q*Q')/p, exact over Z, from the integer lifts
    the split curve holds.

    Every coefficient of the numerator must be divisible by p (the split
    identity mod p); otherwise the decomposition upstream is broken."""
    p = curve.p
    numerator = residual(f6, curve.scale, curve.half, curve.curve,
                         curve.cofactor)
    if any(c % p for c in numerator.coeffs.values()):
        raise NotDivisibleError(
            "f6 - s*h^2 - Q*Q' is not divisible by p: invalid decomposition")
    return IntForm._exact({m: c // p for m, c in numerator.coeffs.items()},
                          f6.degree)


def _solve_mod_p(matrix, rhs, p):
    """Gaussian elimination over F_p; a solution tuple or None."""
    rows, cols = len(matrix), len(matrix[0])
    a = [list(matrix[r]) + [rhs[r]] for r in range(rows)]
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] % p), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c] % p:
                f = a[i][c]
                a[i] = [(a[i][j] - f * a[r][j]) % p for j in range(cols + 1)]
        piv_cols.append(c)
        r += 1
    for i in range(r, rows):
        if a[i][cols] % p:
            return None
    sol = [0] * cols
    for i, c in enumerate(piv_cols):
        sol[c] = a[i][cols]
    return tuple(sol)


def lifts_to_second_order(f6: IntForm,
                          curve: SplitCurve) -> ObstructionReport:
    """G, then the membership verdict, on a split curve with a
    parametrization (a line, or a conic smooth mod p): the images of G, h
    and Q' (SplitCurve.image), a system whose columns are the shifts of
    h(phi) and then of Q'(phi), and the re-verification of a witness.
    Raises CommonZeroOnLineError when h and Q' share a zero on the curve,
    where f6 would be singular and the formula does not apply, and
    MathError on a conic singular mod p, which has no parametrization."""
    p = curve.p
    if curve.phi is None:
        raise MathError(f"{curve.name} is a conic singular mod {p}: it has "
                        "no parametrization, and the second-order "
                        "obstruction on it is not defined")
    G = obstruction_G(f6, curve)
    g, a3, a5 = (curve.image(form) for form in (G, curve.half,
                                                 curve.cofactor))
    if not any(a3) or not any(a5):
        raise CommonZeroOnLineError(
            "h or Q' vanishes identically on the curve")
    if len(_form_gcd(a3, a5, p)) > 1:
        raise CommonZeroOnLineError(
            "h and Q' share a zero on the curve; the surface would be "
            "singular there and the obstruction formula does not apply")
    shifts = [len(g) - len(a) + 1 for a in (a3, a5)]
    columns = [[0] * j + a + [0] * (k - 1 - j)
               for a, k in zip((a3, a5), shifts) for j in range(k)]
    matrix = tuple(zip(*columns))
    sol = _solve_mod_p(matrix, g, p)
    witness = None
    verdict = "nonvanishing"
    if sol is not None:
        verdict = "vanishes"
        witness = (list(sol[:shifts[0]]), list(sol[shifts[0]:]))
        recombined = [0] * len(g)
        for form, part in zip((a3, a5), witness):
            for i, c in enumerate(_zp_mul(form, part, p)):
                recombined[i] += c
        assert [c % p for c in recombined] == g, \
            "witness failed exact re-verification"
    return ObstructionReport(
        p=p, G=G, g_bar=g, f3_bar=a3, f5_bar=a5, matrix=matrix,
        rhs=tuple(g), verdict=verdict, witness=witness)


# ---------------------------------------------------------------------------
# split curves and their intersection numbers, in plain integers mod p


@dataclass
class ConicCert:
    """Exact integer identity f6 = scale * q3^2 + q2 * q4 exhibiting a
    conic q2 with six-fold tangency."""

    scale: int
    q2: IntForm
    q3: IntForm
    q4: IntForm


def verify_conic_identity(cert: ConicCert, f6: IntForm) -> bool:
    """Exact check of f6 = scale * q3^2 + q2 * q4 over Z: the residual is
    zero."""
    if not 2 * cert.q3.degree == cert.q2.degree + cert.q4.degree == f6.degree:
        return False
    return residual(f6, cert.scale, cert.q3, cert.q2, cert.q4).is_zero()


@dataclass
class SplitCurve:
    """A line or conic Q = 0 over F_p with f6 = s h^2 + Q Q' (mod p): its
    preimage on w^2 = f6 splits into the components X+ (w = sqrt(s) h)
    and X- (w = -sqrt(s) h), which are F_p-rational when s is a square
    mod p.  A tritangent with rational splits has s = 1, h = f3 and Q' =
    f5; a conic certificate has its scale, h = q3 and Q' = q4.  The forms
    are integer lifts, in [0, p) from from_tritangent and from_conic.

    sqrt(s) is c sqrt(n) with n = 1 when s is a square mod p and else the
    least non-square, and c the principal root of s/n in F_p: that fixes
    which component is X+."""

    name: str
    p: int
    degree: int
    curve: IntForm      # Q
    cofactor: IntForm   # Q'
    half: IntForm       # h
    scale: int

    @classmethod
    def from_tritangent(cls, name, cert):
        """From a geom.TritangentCert over F_p, whose encodings are the
        forms' coefficients in [0, p)."""
        line, f3, f5 = (IntForm._exact(coeffs, degree) for coeffs, degree in (
            (dict(zip(_AXES, cert.line)), 1), (cert.f3.coeffs, 3),
            (cert.f5.coeffs, 5)))
        return cls(name, cert.field.p, 1, line, f5, f3, 1)

    @classmethod
    def from_conic(cls, name, cert: ConicCert, p: int):
        def ints(form):
            return IntForm({m: c % p for m, c in form.coeffs.items()},
                           form.degree)

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
        p, q2 = self.p, self.curve.coeffs
        ctx = field_create(p, 1)
        if self.degree == 1:
            basis = _kernel_basis(ctx, tuple(q2.get(m, 0) % p for m in _AXES))
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
        """The images of the monomials of degree at most 3 under phi,
        built degree by degree, one product each."""
        p, phi, images = self.p, self.phi, {(0, 0, 0): [1]}
        for k in range(1, 4):
            for m in _monomials(k)[0]:
                v = 0 if m[0] else 1 if m[1] else 2
                lower = (m[0] - (v == 0), m[1] - (v == 1), m[2] - (v == 2))
                images[m] = _zp_mul(images[lower], phi[v], p)
        return images

    def image(self, form: IntForm):
        """form(phi) mod p for a form of degree n <= 6, as a binary form of
        degree n deg Q: its coefficient list ascending in t, untrimmed.
        The images of the tails under one head (_head_tail) are summed and
        then multiplied by the head's, one product per head: 10 for a
        sextic, where a table of the monomials of degree 6 would take 83."""
        p, images, n = self.p, self._images, form.degree
        split, tails = _head_tail(n), {}
        for m, c in form.coeffs.items():
            head, tail = split[m]
            acc = tails.setdefault(head, [0] * (min(n, 3) * self.degree + 1))
            for i, x in enumerate(images[tail]):
                acc[i] += c * x
        out = [0] * (n * self.degree + 1)
        for head, acc in tails.items():
            for i, x in enumerate(_zp_mul(images[head], acc, p)):
                out[i] += x
        return [c % p for c in out]


@functools.lru_cache(maxsize=None)
def _head_tail(n: int):
    """{monomial: (head, tail)} for the monomials of degree n <= 6, with
    head * tail the monomial and the head of degree max(n - 3, 0)."""
    r = max(n - 3, 0)
    return {(h[0] + t[0], h[1] + t[1], h[2] + t[2]): (h, t)
            for h in _monomials(r)[0] for t in _monomials(n - r)[0]}


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
    g = X.image(Y.curve)
    if not any(g):
        return None
    sigma = [(cx * a - cy * b) % p for a, b in
             zip(X.image(X.half), X.image(Y.half))]
    if not any(sigma):
        return len(g) - 1
    c = _form_gcd(g, X.image(Y.cofactor), p)
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
