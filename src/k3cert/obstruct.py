"""Second-order lifting obstruction for a tritangent split class.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CommonZeroOnLineError, NotDivisibleError
from .ffield import field_create
from .forms import IntForm, _restrict
from .geom import _form_gcd, decompose_along_line


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
    over F_p), the gcd of those of f3 and f5 (geom._form_gcd) and the
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
                          decomposition=None) -> ObstructionReport:
    """Full pipeline: canonical decomposition along the line, then G, then
    the membership verdict, for a line given by its integer coefficient
    triple.  `decomposition`, the canonical (f3, f5) that a TritangentCert
    over F_p already carries (or their integer lifts), saves computing it
    again."""
    f3, f5 = (decompose_along_line(f6, line, p) if decomposition is None
              else decomposition)
    G = obstruction_G(f6, line, f3, f5, p)
    return obstruction_vanishes(G, line, f3, f5, p)
