"""Exact scalar arithmetic in F_p and F_{p^d} for odd primes p, on plain
integers.

- is_prime and factorize: integer helpers.
- _zp_*: dense polynomials over Z/p as int lists, ascending.
- FieldCtx, built and cached by field_create: one field with its
  deterministic modulus (_lex_least_irreducible) and its scalar
  operations (_add, _mul, _dot, _pow, _chi) on canonical encodings,
  enc(a) = sum a_i p^i over the coefficient vector of a.  FieldElem wraps
  an encoding as an element with operators.
- _fq_*: polynomials over a FieldCtx as lists of encodings, down to their
  roots over the smallest extensions that hold them (_fq_roots).
- _embed_enc: encodings mapped into an extension.

The log tables of the point count are in count, and the arithmetic on
arrays of coordinate vectors of the tritangent search is in geom.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import MathError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3 * 10^24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at desk scale."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# dense polynomials over Z/p (plain int lists, ascending), used for the
# modulus search, the log tables and the products, inverses and norms of
# extension elements


def _zp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return _zp_trim([c % p for c in out])


def _zp_mod(a, m, p):
    # m monic; the entries are reduced mod p once, at the end
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = a.pop() % p
        if c:
            off = len(a) - dm
            for i in range(dm):
                a[off + i] -= c * m[i]
    return _zp_trim([c % p for c in a])


def _zp_powmod(a, n, m, p):
    r = [1]
    a = _zp_mod(a, m, p)
    while n:
        if n & 1:
            r = _zp_mod(_zp_mul(r, a, p), m, p)
        a = _zp_mod(_zp_mul(a, a, p), m, p)
        n >>= 1
    return r


def _zp_monic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [(c * inv) % p for c in a]


def _zp_gcd2(a, b, p):
    a, b = _zp_trim(list(a)), _zp_trim(list(b))
    while b:
        a, b = b, _zp_mod(a, _zp_monic(b, p), p)
    return _zp_monic(a, p) if a else a


def _zp_divmod(a, b, p):
    """Quotient and remainder of a by a nonzero b."""
    a, b = list(a), _zp_trim(list(b))
    inv, db = pow(b[-1], -1, p), len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db:
        c = a[-1] * inv % p
        off = len(a) - 1 - db
        quo[off] = c
        if c:
            for i in range(db):
                a[off + i] = (a[off + i] - c * b[i]) % p
        a.pop()
    return _zp_trim(quo), _zp_trim(a)


def _zp_inverse(a, m, p):
    """The inverse of a modulo m, for a coprime to m, by the extended
    Euclidean algorithm: s a = r (mod m) is kept for each remainder r down
    to the nonzero constant gcd."""
    r0, r1, s0, s1 = _zp_trim(list(m)), _zp_trim(list(a)), [], [1]
    while len(r1) > 1:
        quo, rem = _zp_divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, rem, s1, _zp_sub(s0, _zp_mul(quo, s1, p), p)
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in s1]


def _zp_resultant(f, g, p):
    """Res(f, g) mod p by Euclid's algorithm: with n = deg f, k = deg g > 0
    and r = f mod g, Res(f, g) = (-1)^(n k) lc(g)^(n - deg r) Res(g, r);
    Res(f, c) = c^n for a constant c, and 0 when g = 0."""
    f, g, out = _zp_trim(list(f)), _zp_trim(list(g)), 1
    while len(g) > 1:
        r = _zp_divmod(f, g, p)[1]
        if not r:
            return 0
        n, k = len(f) - 1, len(g) - 1
        out = out * (-1) ** (n * k) * pow(g[-1], n - len(r) + 1, p) % p
        f, g = g, r
    return out * pow(g[0], len(f) - 1, p) % p if g else 0


def _zp_sub(a, b, p):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    return _zp_trim(out)


def _is_irreducible_zp(m, p, d):
    # m monic of degree d; test x^{p^d} == x mod m and
    # gcd(x^{p^{d/r}} - x, m) == 1 for every prime r | d
    x = [0, 1]
    frob = [x]
    cur = x
    for _ in range(d):
        cur = _zp_powmod(cur, p, m, p)
        frob.append(cur)
    if frob[d] != _zp_mod(x, m, p):
        return False
    for r in factorize(d):
        diff = _zp_sub(frob[d // r], x, p)
        if len(_zp_gcd2(diff, m, p)) != 1:
            return False
    return True


def _enc_digits(e, p, d):
    """The d base-p digits of e, least significant first: the coefficient
    vector (a_0, ..., a_{d-1}) of the element with encoding e."""
    out = []
    for _ in range(d):
        e, r = divmod(e, p)
        out.append(r)
    return out


def _digits_enc(a, p):
    """Encoding sum a_i p^i of a coefficient list with entries in [0, p)."""
    e = 0
    for c in reversed(a):
        e = e * p + c
    return e


def _lex_least_irreducible(p, d):
    """Monic irreducible t^d + c_{d-1} t^{d-1} + ... + c_0 with the
    lexicographically least (c_0, c_1, ..., c_{d-1}): the constant term is
    the most significant digit.  Returns ascending tuple including the
    leading 1.

    For d >= 2 an irreducible has no root in F_p, so c_0 != 0 and the
    scan starts at the first code with c_0 = 1; Rabin's test then rejects
    every reducible candidate, in time polynomial in d and log p."""
    if d == 1:
        return (0, 1)  # t itself
    for code in range(p ** (d - 1), p ** d):
        # c_0 is the most significant digit of code, so ascending codes
        # order (c_0, ..., c_{d-1}) lexicographically
        m = _enc_digits(code, p, d)[::-1] + [1]  # (c_0, ..., c_{d-1}, 1)
        if _is_irreducible_zp(m, p, d):
            return tuple(m)
    raise AssertionError("no irreducible found")  # impossible


# ---------------------------------------------------------------------------


class FieldElem:
    """Element of a FieldCtx, stored as its canonical encoding v in [0, q)."""

    __slots__ = ("ctx", "v")

    def __init__(self, ctx, v):
        self.ctx = ctx
        self.v = v

    def _check(self, other):
        if not isinstance(other, FieldElem) or other.ctx is not self.ctx:
            raise ValueError("field context mismatch")

    def __add__(self, other):
        self._check(other)
        return FieldElem(self.ctx, self.ctx._add(self.v, other.v))

    def __sub__(self, other):
        self._check(other)
        return FieldElem(self.ctx, self.ctx._add(self.v, other.v, -1))

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx._add(0, self.v, -1))

    def __mul__(self, other):
        self._check(other)
        return FieldElem(self.ctx, self.ctx._mul(self.v, other.v))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n):
        return FieldElem(self.ctx, self.ctx._pow(self.v, n))

    def inverse(self):
        if not self.v:
            raise ZeroDivisionError("inverse of zero")
        return self ** -1

    def is_zero(self):
        return not self.v

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, other):
        return (isinstance(other, FieldElem) and other.ctx is self.ctx
                and other.v == self.v)

    def __hash__(self):
        return hash((id(self.ctx), self.v))

    def to_int(self) -> int:
        """Canonical integer encoding sum a_i p^i of the coefficient vector."""
        return self.v

    def __repr__(self):
        return f"F{self.ctx.q}:{self.v}"


class FieldCtx:
    """Arithmetic context for F_{p^d}; build via field_create."""

    __slots__ = ("p", "d", "q", "modulus")

    def __init__(self, p, d):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("p = 2 is excluded (the method requires an odd prime)")
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        self.p, self.d, self.q = p, d, p ** d
        self.modulus = _lex_least_irreducible(p, d)

    # -- operations on encodings ---------------------------------------------

    def _add(self, a, b, sign=1):
        """Encoding of a + sign * b, digit by digit."""
        p = self.p
        if self.d == 1:
            return (a + sign * b) % p
        out, unit = 0, 1
        for _ in range(self.d):
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + sign * y) % p * unit
            unit *= p
        return out

    def _mul(self, a, b):
        p, d = self.p, self.d
        if d == 1:
            return a * b % p
        if not (a and b):
            return 0
        acc = [0] * (2 * d - 1)
        dy = _enc_digits(b, p, d)
        for i, x in enumerate(_enc_digits(a, p, d)):
            if x:
                for j, y in enumerate(dy, i):
                    acc[j] += x * y
        return self._reduce(acc)

    def _pow(self, a, n):
        if not a:
            if n < 0:
                raise ZeroDivisionError("0 to a negative power")
            return int(n == 0)
        p, q1 = self.p, self.q - 1
        if self.d == 1:
            return pow(a, n, p)
        x = _enc_digits(a, p, self.d)
        if n < 0:  # invert by extended Euclid, not by the power q - 2
            x, n = _zp_inverse(x, self.modulus, p), -n
        return _digits_enc(_zp_powmod(x, n % q1, self.modulus, p), p)

    def _dot(self, xs, ys):
        """Encoding of the sum of the products x y over two sequences of
        encodings: the products are summed unreduced and reduced once,
        mod p over F_p; in an extension the digit products are summed into
        one integer list, which is reduced mod the modulus from the top and
        then mod p."""
        p, d = self.p, self.d
        if d == 1:
            return sum(map(operator.mul, xs, ys)) % p
        acc = [0] * (2 * d - 1)
        for x, y in zip(xs, ys):
            if x and y:
                dy = _enc_digits(y, p, d)
                for i, a in enumerate(_enc_digits(x, p, d)):
                    if a:
                        for j, b in enumerate(dy, i):
                            acc[j] += a * b
        return self._reduce(acc)

    def _reduce(self, acc):
        """Encoding of sum acc[i] t^i for an unreduced integer list of
        length 2d - 1 (d > 1), reduced mod the modulus from the top and
        then mod p."""
        p, d, m = self.p, self.d, self.modulus
        for k in range(2 * d - 2, d - 1, -1):
            c = acc[k] % p
            if c:
                for i in range(k - d, k):
                    acc[i] -= c * m[i - k + d]
        e = 0
        for c in reversed(acc[:d]):
            e = e * p + c % p
        return e

    def _chi(self, a):
        """Quadratic character of the element of encoding a: 0 at zero, +1
        on squares, -1 on non-squares.

        a^((q-1)/2) is the Legendre symbol of the norm N(a) =
        a^((q-1)/(p-1)) in F_p, as (q-1)/2 = ((q-1)/(p-1)) ((p-1)/2); with
        the modulus m monic, N(a) = Res(m, a), computed by Euclid's
        algorithm instead of a power of degree q (over F_p, m = t and N(a)
        = a)."""
        if not a:
            return 0
        p = self.p
        norm = a if self.d == 1 else _zp_resultant(
            self.modulus, _enc_digits(a, p, self.d), p)
        return 1 if pow(norm, (p - 1) // 2, p) == 1 else -1

    # -- element constructors ------------------------------------------------

    def zero(self):
        return FieldElem(self, 0)

    def one(self):
        return FieldElem(self, 1)

    def from_int(self, n: int) -> FieldElem:
        """The image of the integer n (an element of the prime subfield)."""
        return FieldElem(self, int(n) % self.p)

    def from_enc(self, e: int) -> FieldElem:
        """Element with canonical encoding e in [0, q)."""
        if not 0 <= e < self.q:
            raise ValueError("encoding out of range")
        return FieldElem(self, int(e))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, d={self.d})"


@functools.lru_cache(maxsize=None)
def _field_create_cached(p, d):
    return FieldCtx(p, d)


def field_create(p: int, d: int) -> FieldCtx:
    """Create (or fetch the cached) F_{p^d} context, p an odd prime.

    Equal parameters always return the identical context object, so
    element contexts can be compared by identity."""
    return _field_create_cached(int(p), int(d))


# ---------------------------------------------------------------------------
# dense polynomials over a FieldCtx on encodings (plain int lists,
# ascending): the _zp_* arithmetic through the context's scalar
# operations, and the roots of a polynomial with their fields (the
# contact points of a tritangent, the singular witness, the subfield
# embeddings)


def _fq_mul(ctx, a, b):
    """The product of two coefficient lists, one dot product per
    coefficient, untrimmed."""
    if not a or not b:
        return []
    rb = b[::-1]
    out = []
    for i in range(len(a) + len(b) - 1):
        lo, hi = max(0, i - len(b) + 1), min(i, len(a) - 1)
        out.append(ctx._dot(a[lo:hi + 1],
                            rb[len(b) - 1 - i + lo:len(b) - i + hi]))
    return out


def _fq_divmod(ctx, a, b):
    """Quotient and remainder of a by a nonzero trimmed b."""
    a, db = list(a), len(b) - 1
    inv = 1 if b[-1] == 1 else ctx._pow(b[-1], -1)
    quo = [0] * max(len(a) - db, 0)
    while len(a) > db:
        c = ctx._mul(a.pop(), inv)
        off = len(a) - db
        quo[off] = c
        if c:
            for i in range(db):
                a[off + i] = ctx._add(a[off + i], ctx._mul(c, b[i]), -1)
    return _zp_trim(quo), _zp_trim(a)


def _fq_gcd(ctx, a, b):
    """The monic gcd; [] when both are zero."""
    a, b = _zp_trim(list(a)), _zp_trim(list(b))
    while b:
        a, b = b, _fq_divmod(ctx, a, b)[1]
    if not a:
        return a
    inv = ctx._pow(a[-1], -1)
    return [ctx._mul(c, inv) for c in a]


def _fq_powmod(ctx, a, n, m):
    """a^n mod m, for m of positive degree."""
    r, a = [1], _fq_divmod(ctx, a, m)[1]
    while n:
        if n & 1:
            r = _fq_divmod(ctx, _fq_mul(ctx, r, a), m)[1]
        a = _fq_divmod(ctx, _fq_mul(ctx, a, a), m)[1]
        n >>= 1
    return r


def _fq_sub(ctx, a, b):
    """a - b, trimmed."""
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _zp_trim([ctx._add(x, y, -1) for x, y in zip(a, b)])


def _sqrt_in_field(ctx: FieldCtx, u: int) -> int:
    """Principal square root of the element of encoding u: the root whose
    encoding is smaller.

    One root is u^((q+1)/4) when q = 3 (mod 4); otherwise Tonelli-Shanks
    with q - 1 = 2^s t (t odd) and the first non-square by encoding, from p
    on when the field is not prime (every element of F_p is a square in
    an even-degree extension, and F_p's non-squares stay non-squares in an
    odd-degree one)."""
    chi = ctx._chi(u)
    if chi == 0:
        return u
    if chi < 0:
        raise MathError("element is not a square")
    q, mul, power = ctx.q, ctx._mul, ctx._pow
    if q % 4 == 3:
        r = power(u, (q + 1) // 4)
    else:
        s, t = 0, q - 1
        while t % 2 == 0:
            s, t = s + 1, t // 2
        candidates = range(2 if ctx.d == 1 else ctx.p, q)
        z = next(z for z in candidates if ctx._chi(z) < 0)
        c, r, b = power(z, t), power(u, (t + 1) // 2), power(u, t)
        # invariant: r^2 = u b, and b has order 2^i < 2^s
        while b != 1:
            i, b2 = 0, b
            while b2 != 1:
                i, b2 = i + 1, mul(b2, b2)
            g = power(c, 1 << (s - i - 1))
            r, c, s = mul(r, g), mul(g, g), i
            b = mul(b, c)
    return min(r, ctx._add(0, r, -1))


def _fq_factor(ctx, g):
    """A proper monic factor of a monic g of degree at least 2 that is a
    product of distinct linear factors over ctx: gcd(g, u) or gcd(g,
    u^((q-1)/2) - 1) for the candidates u = t + c, c by encoding from p on
    and then below p.  The elements of F_p come last, as they never
    separate roots that are conjugate over a subfield (u(r^p) = u(r)^p has
    the same quadratic character as u(r)), and some c = -r makes gcd(g,
    u) a proper factor."""
    half = (ctx.q - 1) // 2
    for c in itertools.chain(range(ctx.p, ctx.q), range(ctx.p)):
        u = [c, 1]
        for w in (u, _fq_sub(ctx, _fq_powmod(ctx, u, half, g), [1])):
            d = _fq_gcd(ctx, g, w)
            if 2 <= len(d) < len(g):
                return d
    raise AssertionError("no candidate splits a product of linear factors")


def _fq_split(ctx, g):
    """The roots of a monic g that is a product of distinct linear factors
    over ctx: a quadratic t^2 + b t + c by the quadratic formula (-b +- s)/2,
    s the principal square root of b^2 - 4c; a higher degree by
    _fq_factor."""
    if len(g) < 3:
        return [ctx._add(0, g[0], -1)] if len(g) == 2 else []
    if len(g) == 3:
        mul, add = ctx._mul, ctx._add
        disc = add(mul(g[1], g[1]), mul(4 % ctx.p, g[0]), -1)
        s = _sqrt_in_field(ctx, disc)
        half = ctx._pow(2, -1)
        return [mul(add(s, g[1], -1), half),
                mul(add(add(0, s, -1), g[1], -1), half)]
    d = _fq_factor(ctx, g)
    return _fq_split(ctx, d) + _fq_split(ctx, _fq_divmod(ctx, g, d)[0])


def _fq_pth_root(ctx, f):
    """The g with g^p = f, for f with f' = 0: the coefficients of the
    powers t^(p i), each to the power q/p (the inverse of Frobenius)."""
    return [ctx._pow(c, ctx.q // ctx.p) for c in f[::ctx.p]]


def _fq_squarefree(ctx, f):
    """[(g, m), ...] with f = prod g^m for a monic f, each g monic,
    squarefree and coprime to the others: the characteristic-p algorithm,
    gcds with the derivative, and a p-th root where the derivative
    vanishes."""
    p = ctx.p
    fp = _zp_trim([ctx._mul(c, i % p) for i, c in enumerate(f)][1:])
    if not fp:
        return [(g, m * p)
                for g, m in _fq_squarefree(ctx, _fq_pth_root(ctx, f))]
    out = []
    c = _fq_gcd(ctx, f, fp)
    w, i = _fq_divmod(ctx, f, c)[0], 1
    while len(w) > 1:
        y = _fq_gcd(ctx, w, c)
        z = _fq_divmod(ctx, w, y)[0]
        if len(z) > 1:
            out.append((z, i))
        w, c, i = y, _fq_divmod(ctx, c, y)[0], i + 1
    if len(c) > 1:
        out += [(g, m * p)
                for g, m in _fq_squarefree(ctx, _fq_pth_root(ctx, c))]
    return out


def _fq_roots(ctx, f):
    """The roots of a monic f of positive degree with multiplicities, each
    over the smallest extension F_(q^e) of ctx that holds it, as (field,
    encoding, multiplicity).  Each squarefree part is split by degree, the
    product of its irreducible factors of degree e being gcd(g, t^(q^e) -
    t) (the rest of g is irreducible once its degree is below 2e), and
    that product splits into distinct linear factors over F_(q^e)
    (_fq_split)."""
    out = []
    for g, m in _fq_squarefree(ctx, f):
        h, e = [0, 1], 0
        while len(g) > 1:
            e += 1
            if 2 * e > len(g) - 1:
                d, e, g = g, len(g) - 1, [1]
            else:
                h = _fq_powmod(ctx, h, ctx.q, g)
                d = _fq_gcd(ctx, g, _fq_sub(ctx, h, [0, 1]))
                if len(d) > 1:
                    g = _fq_divmod(ctx, g, d)[0]
                    h = _fq_divmod(ctx, h, g)[1]
            if len(d) > 1:
                ext = field_create(ctx.p, ctx.d * e)
                out += [(ext, r, m) for r in _fq_split(
                    ext, [_embed_enc(ctx, ext, c) for c in d])]
    return out


# ---------------------------------------------------------------------------
# subfield embeddings


@functools.lru_cache(maxsize=None)
def _embedding_powers(src: FieldCtx, target: FieldCtx):
    """The encodings in target of the images 1, beta, ..., beta^(d-1) of
    the powers of t in src (d = src.d), beta the least root of the source
    modulus by encoding; field_create makes both contexts singletons."""
    beta = min(r for _, r, _ in _fq_roots(target, list(src.modulus)))
    powers = [1]
    for _ in range(src.d - 1):
        powers.append(target._mul(powers[-1], beta))
    return tuple(powers)


def _embed_enc(src: FieldCtx, target: FieldCtx, a: int) -> int:
    """The encoding in target of the image of the element of encoding a in
    src, for src a subfield of target (src.d divides target.d), under the
    canonical ring map: it fixes F_p and sends the class of t to the least
    root (by encoding) of the source modulus in the target, so the image
    has the same minimal polynomial over F_p."""
    if src is target or src.d == 1:  # F_p has the same encodings in target
        return a
    return target._dot(_enc_digits(a, src.p, src.d),
                       _embedding_powers(src, target))
