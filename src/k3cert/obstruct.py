"""Split curves, their intersection numbers, and the second-order lifting
obstruction for a tritangent split class.

Given integer lifts with f6 = f3^2 + l*f5 (mod p), the integer form
G = (f6 - f3^2 - l*f5)/p decides whether the split class extends to the
thickening mod p^2: it does exactly when G lies in the ideal
(p, l, f3, f5).  Restricted to the line l = 0 mod p, in the line's own
parametrization (forms._restrict), membership collapses to the degree-6
graded piece in two variables: is Gbar a combination f3bar*b3 +
f5bar*c1 with b3 a binary cubic and c1 a binary linear form?  That is a
linear system of seven equations (the binary sextic's coefficients) in
six unknowns over F_p.

The verdict is independent of the integer lifts (they shift G by ideal
members) and of the choice of coordinates; the test suite checks both.
A nonvanishing obstruction blocks the lift, which is what certificates
build on.

The classes the obstruction and the lattice rest on come from split
curves (SplitCurve): tritangents with rational splits and conic
certificates, whose preimages on the double cover split into two
components.  Their intersection matrix (class_matrix) is computed in
plain integers mod p, one parametrization and a few gcds per pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import CommonZeroOnLineError, MathError, NotDivisibleError
from .ffield import (_sqrt_in_field, _zp_divmod, _zp_gcd2, _zp_mul, _zp_trim,
                     field_create)
from .forms import IntForm, _form_gcd, _kernel_basis, _monomials, _restrict


@dataclass
class ObstructionReport:
    """Audit record of one obstruction computation; the binary forms are
    coefficient lists over F_p, entry i the coefficient of u^(n-i) v^i."""

    p: int
    G: IntForm
    g_bar: list         # G mod (p, line), in the line's two coordinates
    f3_bar: list
    f5_bar: list
    matrix: tuple       # 7 rows x 6 columns over F_p
    rhs: tuple          # 7 entries
    verdict: str        # vanishes | nonvanishing
    witness: tuple | None  # (b3 coefficients, c1 coefficients) when solvable

    @property
    def vanishes(self) -> bool:
        return self.verdict == "vanishes"


def binary_str(coeffs) -> str:
    """The report text of a binary form given by its coefficient list:
    c*u^a*v^b for each nonzero coefficient, joined by +, or 0."""
    n = len(coeffs) - 1
    return "+".join(f"{c}*u^{n - i}*v^{i}"
                    for i, c in enumerate(coeffs) if c) or "0"


def obstruction_G(f6: IntForm, line, f3, f5, p: int) -> IntForm:
    """G = (f6 - f3^2 - l*f5)/p, exact over Z, with l the line's
    coefficients in [0, p).  f3 and f5 are forms with integer
    coefficients: IntForms, or ModForms over F_p, whose encodings are
    their lifts in [0, p).

    Every coefficient of the numerator must be divisible by p (the
    decomposition identity mod p); otherwise the decomposition upstream is
    broken."""
    numerator = dict(f6.coeffs)

    def sub(m, c):
        numerator[m] = numerator.get(m, 0) - c

    for m1, c1 in f3.coeffs.items():
        for m2, c2 in f3.coeffs.items():
            sub((m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2]), c1 * c2)
    for (x, y, z), lv in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                             (c % p for c in line)):
        for m, c in f5.coeffs.items():
            sub((m[0] + x, m[1] + y, m[2] + z), lv * c)
    if any(c % p for c in numerator.values()):
        raise NotDivisibleError(
            "f6 - f3^2 - l*f5 is not divisible by p: invalid decomposition")
    return IntForm({m: c // p for m, c in numerator.items()}, f6.degree)


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


def obstruction_vanishes(G: IntForm, line, f3, f5,
                         p: int) -> ObstructionReport:
    """Decide membership of G in (p, l, f3, f5) by the 7x6 linear system,
    for a line given by its integer coefficient triple and f3, f5 as
    obstruction_G takes them.

    Runs on integers mod p: the restrictions to the line (forms._restrict
    over F_p), the gcd of those of f3 and f5 (forms._form_gcd) and the
    re-verification of a witness.  Raises CommonZeroOnLineError when f3
    and f5 share a projective zero on the line; that configuration
    contradicts the smoothness the obstruction formula assumes and must be
    surfaced, not absorbed."""
    ctx = field_create(p, 1)
    vec = tuple(c % p for c in line)
    g, a3, a5 = (_restrict(ctx, {m: c % p for m, c in form.coeffs.items()},
                           form.degree, vec) for form in (G, f3, f5))
    if not any(a3) or not any(a5):
        raise CommonZeroOnLineError(
            "f3 or f5 vanishes identically on the line")
    if len(_form_gcd(a3, a5, p)) > 1:
        raise CommonZeroOnLineError(
            "f3 and f5 share a zero on the line; the surface would be "
            "singular there and the obstruction formula does not apply")
    # unknowns: 4 coefficients of a binary cubic b3, 2 of a linear c1
    matrix = [[0] * 6 for _ in range(7)]
    for j in range(4):
        for m in range(7):
            if 0 <= m - j <= 3:
                matrix[m][j] = a3[m - j]
    for m in range(7):
        if m <= 5:
            matrix[m][4] = a5[m]
        if m >= 1:
            matrix[m][5] = a5[m - 1]
    sol = _solve_mod_p(matrix, g, p)
    witness = None
    verdict = "nonvanishing"
    if sol is not None:
        verdict = "vanishes"
        recombined = [0] * 7
        for form, part in ((a3, sol[:4]), (a5, sol[4:])):
            for i, a in enumerate(form):
                for j, b in enumerate(part):
                    recombined[i + j] += a * b
        assert [c % p for c in recombined] == g, \
            "witness failed exact re-verification"
        witness = (list(sol[:4]), list(sol[4:]))
    return ObstructionReport(
        p=p, G=G, g_bar=g, f3_bar=a3, f5_bar=a5,
        matrix=tuple(tuple(r) for r in matrix), rhs=tuple(g),
        verdict=verdict, witness=witness)


def lifts_to_second_order(f6: IntForm, line, p: int,
                          decomposition) -> ObstructionReport:
    """G, then the membership verdict, for a line given by its integer
    coefficient triple and its decomposition (f3, f5): the canonical pair
    that a TritangentCert over F_p carries, or integer lifts of it
    (geom.decompose_along_line)."""
    f3, f5 = decomposition
    G = obstruction_G(f6, line, f3, f5, p)
    return obstruction_vanishes(G, line, f3, f5, p)


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
    def from_tritangent(cls, name, cert):
        """From a geom.TritangentCert over F_p, whose encodings are the
        forms' coefficients in [0, p)."""
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
