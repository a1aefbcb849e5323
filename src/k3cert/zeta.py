"""Frobenius characteristic polynomial on H^2 from point-count traces.

The polynomial P has degree 22 for a K3 surface and factors as
P = (t - q)^k R, where k counts the known q-eigenvalues contributed by
explicit divisor classes and R satisfies the functional-equation
reciprocity a_{n-i} = sign * q^{n-2i} * a_i (n = 22 - k).  Newton's
identities convert the first m = n/2 power sums (traces with the known
part removed) into the leading half of R; reciprocity supplies the rest.

Everything is exact integer arithmetic.  Every division in the Newton
recursion is asserted exact; a remainder means the traces are wrong and
aborts immediately.  The Weil check (FrobeniusPoly.weil_valid) decides
whether every root of R has absolute value q by a Sturm count on integer
pseudo-remainders, so eigenvalues of any multiplicity pass.  Each
polynomial is validated once: the result is kept on the FrobeniusPoly
instance, so cyclotomic_part and predicted_count reuse the check that
determine_sign ran.  newton_above_hodge is the exact p-adic check on P
(Mazur's theorem): a divisibility test on each coefficient.

The Picard rank bound is the total multiplicity of eigenvalues of the
form q * (root of unity), found by trial division of P by the scaled
cyclotomic polynomials q^phi(n) Phi_n(t/q), each tried only after P
vanishes at the image of q zeta_n in a prime field F_l with l = 1 (mod
n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import InconsistentTracesError, MathError
from .ffield import factorize, is_prime

H2_DIM = 22


# -- exact integer polynomials, descending coefficient lists ----------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_pow(a, n):
    out = [1]
    base = list(a)
    while n:
        if n & 1:
            out = poly_mul(out, base)
        base = poly_mul(base, base)
        n >>= 1
    return out


def poly_divmod(num, den):
    """Exact-integer division by a monic-leading divisor (descending lists)."""
    num = list(num)
    n, m = len(num) - 1, len(den) - 1
    if n < m:
        return [0], num
    lead = den[0]
    quo = [0] * (n - m + 1)
    for i in range(n - m + 1):
        c = num[i]
        if c % lead:
            return None, num  # not exactly divisible over Z
        c //= lead
        quo[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    rem = num[n - m + 1:]
    while len(rem) > 1 and rem[0] == 0:
        rem.pop(0)
    return quo, rem


def _is_zero_poly(a):
    return all(c == 0 for c in a)


def _horner(a, x):
    acc = 0
    for c in a:
        acc = acc * x + c
    return acc


def _neg_prem(a, b):
    """-c * (a mod b) for some integer c > 0, divided by its content:
    pseudo-division that scales by |lc(b)|, so signs are kept."""
    a, s = list(a), abs(b[0])
    while len(a) >= len(b):
        c = a.pop(0) * s // b[0]
        a = [s * x for x in a]
        for i, y in enumerate(b[1:]):
            a[i] -= c * y
    while a and a[0] == 0:
        a.pop(0)
    g = math.gcd(*a)
    return [-x // g for x in a]


def _sign_changes(seq, x):
    signs = [v > 0 for v in (_horner(s, x) for s in seq) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _roots_on_circle(r, q) -> bool:
    """Whether every complex root of the monic integer polynomial r
    (descending) has absolute value q, decided exactly.

    With the factors t - q and t + q divided out, such a polynomial pairs
    each root l with q^2/l = conj(l), so it has degree 2h, satisfies
    a_{2h-i} = q^{2h-2i} a_i, and equals t^h V(t + q^2/t) for a monic V of
    degree h; l lies on the circle exactly when l + q^2/l is real and in
    (-2q, 2q).  V's Sturm sequence counts its distinct roots there, and
    they are all of V's roots when the count is h - deg gcd(V, V')."""
    for root in (q, -q):
        while _horner(r, root) == 0:
            r = poly_divmod(r, [1, -root])[0]
    n = len(r) - 1
    h = n // 2
    if n % 2 or any(r[n - i] != q ** (n - 2 * i) * r[i] for i in range(h)):
        return False
    if h == 0:
        return True
    # t^k + (q^2/t)^k = w_k(t + q^2/t): w_0 = 2, w_1 = u,
    # w_(k+1) = u w_k - q^2 w_(k-1) (ascending lists)
    w = [[2], [0, 1]]
    for _ in range(h - 1):
        w.append([0] + w[-1])
        for i, c in enumerate(w[-3]):
            w[-1][i] -= q * q * c
    v = [0] * (h + 1)
    v[0] = r[h]
    for k in range(1, h + 1):
        for i, c in enumerate(w[k]):
            v[i] += r[h - k] * c
    seq = [v[::-1], [i * c for i, c in enumerate(v)][:0:-1]]
    while len(seq[-1]) > 1:
        rem = _neg_prem(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(rem)
    distinct = h - (len(seq[-1]) - 1)
    return _sign_changes(seq, -2 * q) - _sign_changes(seq, 2 * q) == distinct


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for r in factorize(n):
        out -= out // r
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Phi_n as a descending integer coefficient tuple."""
    if n == 1:
        return (1, -1)
    num = [1] + [0] * (n - 1) + [-1]  # t^n - 1
    for d in range(1, n):
        if n % d == 0:
            quo, rem = poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert quo is not None and _is_zero_poly(rem)
            num = quo
    return tuple(num)


def scaled_cyclotomic(n: int, q: int) -> list:
    """q^phi(n) * Phi_n(t/q): monic integer polynomial with roots q * zeta."""
    phi = cyclotomic_polynomial(n)
    return [c * q ** i for i, c in enumerate(phi)]


# -- Newton's identities -----------------------------------------------------


def elementary_from_power_sums(ps):
    """e_1..e_m from p_1..p_m; every division must be exact over Z."""
    e = [1]
    for k in range(1, len(ps) + 1):
        acc = 0
        for i in range(k):
            acc += (-1) ** i * e[i] * ps[k - i - 1]
        acc *= (-1) ** (k + 1)
        if acc % k:
            raise InconsistentTracesError(
                f"Newton recursion non-integral at step {k}: {acc}/{k}")
        e.append(acc // k)
    return e


def power_sums_from_coeffs(coeffs_desc, count):
    """p_1..p_count for the monic polynomial with the given coefficients."""
    n = len(coeffs_desc) - 1
    e = [(-1) ** i * coeffs_desc[i] for i in range(n + 1)]
    ps = []
    for k in range(1, count + 1):
        if k <= n:
            acc = (-1) ** (k + 1) * k * e[k]
            for i in range(1, k):
                acc += (-1) ** (i + 1) * e[i] * ps[k - i - 1]
        else:
            acc = 0
            for i in range(1, n + 1):
                acc += (-1) ** (i + 1) * e[i] * ps[k - i - 1]
        ps.append(acc)
    return ps


# -- the characteristic polynomial -------------------------------------------


@dataclass(frozen=True)
class FrobeniusPoly:
    """(t - q)^k R(t), monic of total degree `degree`, coefficients exact."""

    q: int
    degree: int
    k: int
    sign: int
    coeffs: tuple  # descending, length degree + 1

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1 or self.coeffs[0] != 1:
            raise ValueError("coefficient list must be monic of full degree")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @functools.cached_property
    def r_coeffs(self) -> tuple:
        """Coefficients of R = P / (t - q)^k (descending)."""
        rem = list(self.coeffs)
        for _ in range(self.k):
            quo, r = poly_divmod(rem, [1, -self.q])
            if quo is None or not _is_zero_poly(r):
                raise MathError("(t - q)^k does not divide the polynomial")
            rem = quo
        return tuple(rem)

    @functools.cached_property
    def weil_valid(self) -> bool:
        """Exact Weil check, computed once per instance: |P(0)| = q^degree,
        (t - q)^k divides P, R is reciprocal with this sign, and every root
        of R has absolute value q."""
        q, n = self.q, self.degree - self.k
        if abs(self.coeffs[-1]) != q ** self.degree:
            return False
        try:
            r = self.r_coeffs
        except MathError:
            return False
        for i in range(n // 2 + 1):
            if r[n - i] != self.sign * q ** (n - 2 * i) * r[i]:
                return False
        return _roots_on_circle(r, q)

    def serialize(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return (f"FrobeniusPoly(q={self.q}, k={self.k}, sign={self.sign:+d}, "
                f"deg={self.degree})")


def char_poly_from_traces(traces, q: int, degree: int = H2_DIM, k: int = 0,
                          sign: int = 1) -> FrobeniusPoly:
    """Reconstruct P = (t - q)^k R from the first m = (degree - k)/2 traces.

    Subtracts the known k q-eigenvalues from each trace, runs Newton's
    identities for the leading half of R and fills the rest through the
    reciprocity a_{n-i} = sign q^{n-2i} a_i.  With sign = -1 the middle
    coefficient must come out zero; anything else is rejected.
    """
    n = degree - k
    if n < 0 or n % 2:
        raise ValueError("degree - k must be even and nonnegative")
    m = n // 2
    if len(traces) != m:
        raise ValueError(f"need exactly {m} traces, got {len(traces)}")
    ps = [traces[i] - k * q ** (i + 1) for i in range(m)]
    e = elementary_from_power_sums(ps)
    a = [None] * (n + 1)
    for i in range(m + 1):
        a[i] = (-1) ** i * e[i] if i <= m else None
    for i in range(m + 1):
        want = sign * q ** (n - 2 * i) * a[i]
        if a[n - i] is not None and a[n - i] != want:
            raise InconsistentTracesError(
                f"reciprocity with sign {sign:+d} forces coefficient "
                f"a_{n - i} = {want}, Newton gives {a[n - i]}")
        a[n - i] = want
    coeffs = poly_mul(a, poly_pow([1, -q], k))
    return FrobeniusPoly(q=q, degree=degree, k=k, sign=sign,
                         coeffs=tuple(coeffs))


def newton_above_hodge(P: FrobeniusPoly) -> bool:
    """Mazur's theorem for a K3 surface with good reduction that lifts to
    characteristic 0 (the double cover lifts through f6): the Newton
    polygon of P lies on or above the Hodge polygon, slopes 0, 1, 2 with
    multiplicities 1, 20, 1.  With P = sum (-1)^i e_i t^(22-i) that is
    q^(i-1) | e_i for 2 <= i <= 21 (reciprocity makes i <= 11 enough, and
    the Weil check gives |e_22| = q^22)."""
    return all(c % P.q ** (i - 1) == 0
               for i, c in enumerate(P.coeffs[2:-1], start=2))


def determine_sign(traces, q: int, degree: int = H2_DIM, k: int = 0):
    """Try both functional-equation signs; a sign survives when the
    reconstruction succeeds and passes the Weil check.  Returns the list of
    surviving (sign, polynomial) pairs; an empty list means the input is
    inconsistent, two entries mean more traces are needed.

    Only the Weil test is applied here, so a survivor need not come from
    a K3 surface: cli._zeta_data also drops the signs whose polynomial
    fails newton_above_hodge (Mazur's bound), and callers that need the
    polynomials certify keeps must apply that check too."""
    out = []
    for sign in (1, -1):
        try:
            P = char_poly_from_traces(traces, q, degree, k, sign)
        except MathError:
            continue
        if P.weil_valid:
            out.append((sign, P))
    return out


@dataclass(frozen=True)
class RankBound:
    """Cyclotomic eigenvalue count: the Picard rank upper bound."""

    cyclotomic_degree: int
    per_n: tuple  # ((n, multiplicity of Phi_n), ...) with multiplicity > 0


@functools.lru_cache(maxsize=None)
def _admissible_orders(d: int) -> tuple:
    """The n with phi(n) <= d, ascending; phi(n) >= sqrt(n/2), so n <= 2
    d^2 (43 values for d = 22, the largest 66)."""
    return tuple(n for n in range(1, 2 * d * d + 1) if euler_phi(n) <= d)


@functools.lru_cache(maxsize=None)
def _evaluation_point(n: int):
    """(l, w): the least prime l = 1 (mod n) and an element w of
    multiplicative order n mod l, x^((l-1)/n) for the least x that gives
    one."""
    ell = n + 1
    while not is_prime(ell):
        ell += n
    for x in range(1, ell):
        w = pow(x, (ell - 1) // n, ell)
        if all(pow(w, n // r, ell) != 1 for r in factorize(n)):
            return ell, w
    raise AssertionError("F_l^* is cyclic")  # unreachable


def cyclotomic_part(P: FrobeniusPoly) -> RankBound:
    """Multiplicity of eigenvalues q * (root of unity) in P.

    For each n with phi(n) <= degree, counts exact trial divisions of P by
    q^phi(n) Phi_n(t/q); the total, weighted by phi(n), bounds the Picard
    rank of the reduction from above.  A division is tried only when the
    quotient left so far vanishes at q w mod l (_evaluation_point): zeta_n
    -> w is a ring map Z[zeta_n] -> F_l, so a nonzero residue proves that
    q^phi(n) Phi_n(t/q), whose root is q zeta_n, does not divide it.
    """
    if not P.weil_valid:
        raise MathError("polynomial fails Weil validation")
    cur = list(P.coeffs)
    per_n = []
    total = 0
    for n in _admissible_orders(P.degree):
        ell, w = _evaluation_point(n)
        x, phi, mult = P.q * w % ell, euler_phi(n), 0
        while len(cur) > phi:
            acc = 0
            for c in cur:
                acc = (acc * x + c) % ell
            if acc:
                break
            quo, rem = poly_divmod(cur, scaled_cyclotomic(n, P.q))
            if quo is None or not _is_zero_poly(rem):
                break
            mult += 1
            cur = quo
        if mult:
            per_n.append((n, mult))
            total += phi * mult
    return RankBound(cyclotomic_degree=total, per_n=tuple(per_n))


def artin_tate_value(P: FrobeniusPoly, rho: int):
    """q R1(q) / q^(22 - rho) with R1 = P / (t - q)^rho, as a fraction
    (numerator, denominator) in lowest terms.  When rho is the multiplicity
    of t = q in P, the Artin-Tate formula (Milne 1975; Tate's conjecture
    holds for these surfaces) makes it |Br(X)| |disc NS(X)|, with |Br(X)|
    a square (Liu-Lorenzini-Raynaud 2005)."""
    rem = list(P.coeffs)
    for _ in range(rho):
        rem, r = poly_divmod(rem, [1, -P.q])
        if rem is None or not _is_zero_poly(r):
            raise MathError(f"(t - q)^{rho} does not divide the polynomial")
    num, den = P.q * _horner(rem, P.q), P.q ** (P.degree - rho)
    g = math.gcd(num, den)
    return num // g, den // g


def predicted_count(P: FrobeniusPoly, d: int) -> int:
    """N_d implied by P: recover the power sum t_d by reverse Newton and
    return 1 + t_d + q^(2d)."""
    if not P.weil_valid:
        raise MathError("polynomial fails Weil validation")
    t_d = power_sums_from_coeffs(list(P.coeffs), d)[-1]
    return 1 + t_d + P.q ** (2 * d)
