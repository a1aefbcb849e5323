import random

import numpy as np
import pytest

from k3cert.count import DEFAULT_ZECH_LIMIT, zech_tables
from k3cert.errors import BudgetExceededError
from k3cert.ffield import (
    FieldCtx,
    _digits_enc,
    _zp_powmod,
    _enc_digits,
    field_create,
)
from k3cert.geom import digit_inv, digit_mul, digit_powers, digits

from oracles import (Poly, elements, embed_subfield, factor_univariate,
                     frobenius, minimal_polynomial, poly_roots)


def quad_char(a):
    """The program's quadratic character (FieldCtx._chi) of an element."""
    return a.ctx._chi(a.v)


def _coeffs(a):
    """The coefficient vector (a_0, ..., a_(d-1)) of an element."""
    return _enc_digits(a.v, a.ctx.p, a.ctx.d)


def test_create_prime_field():
    F5 = field_create(5, 1)
    assert F5.q == 5
    assert F5.modulus == (0, 1)  # the polynomial t


def test_create_f25_generator_order():
    F25 = field_create(5, 2)
    g = F25.from_enc(int(zech_tables(F25)[0][1]))  # exp[1]
    assert g ** 24 == F25.one()
    for k in range(1, 24):
        assert g ** k != F25.one()


def test_create_rejects_composite_and_two():
    with pytest.raises(ValueError):
        field_create(4, 1)
    with pytest.raises(ValueError):
        field_create(2, 3)
    with pytest.raises(ValueError):
        field_create(5, 0)


def test_zech_limit_budget():
    # a fresh context has no tables until an array kernel asks for them,
    # and scalar arithmetic never does; above the limit asking raises
    ctx = FieldCtx(5, 4)
    built = zech_tables.cache_info().currsize
    a, b = ctx.from_enc(7), ctx.from_enc(311)
    assert (a * b / a == b and quad_char(a) in (1, -1)
            and a ** 624 == ctx.one())
    assert zech_tables.cache_info().currsize == built
    digit_mul(ctx, digits(ctx, [7]), digits(ctx, [311]))
    assert zech_tables.cache_info().currsize == built + 1
    big = FieldCtx(2053, 2)  # q = 4214809, the least p^2 above 2^22
    assert big.q > DEFAULT_ZECH_LIMIT
    c = big.from_enc(123456)
    assert c * c.inverse() == big.one() and quad_char(c * c) == 1
    with pytest.raises(BudgetExceededError, match=str(DEFAULT_ZECH_LIMIT)):
        zech_tables(big)
    assert zech_tables.cache_info().currsize == built + 1


def test_prime_field_arithmetic():
    F5 = field_create(5, 1)
    three, four, two = F5.from_int(3), F5.from_int(4), F5.from_int(2)
    assert (three + four).to_int() == 2
    assert (two ** 4) == F5.one()
    assert (three - four).to_int() == 4
    assert (three * four).to_int() == 2
    assert (three / four).to_int() == 2  # 3 * 4^{-1} = 3 * 4 = 12 = 2


def test_f9_all_units_satisfy_inverse_identity():
    F9 = field_create(3, 2)
    for a in elements(F9):
        if a.is_zero():
            continue
        assert a * a ** (F9.q - 2) == F9.one()


def test_context_mismatch_raises():
    F5 = field_create(5, 1)
    F25 = field_create(5, 2)
    with pytest.raises(ValueError):
        F5.from_int(1) + F25.from_int(1)


def test_division_by_zero():
    F5 = field_create(5, 1)
    with pytest.raises(ZeroDivisionError):
        F5.from_int(1) / F5.zero()


def test_quad_char_examples():
    F5 = field_create(5, 1)
    assert quad_char(F5.zero()) == 0
    assert quad_char(F5.from_int(4)) == 1
    # squares mod 5 are {1, 4}
    assert quad_char(F5.from_int(2)) == -1
    assert quad_char(F5.from_int(3)) == -1


@pytest.mark.parametrize("p,d", [(3, 2), (5, 1), (5, 2), (7, 1)])
def test_quad_char_multiplicative(p, d):
    ctx = field_create(p, d)
    els = [a for a in elements(ctx) if not a.is_zero()]
    for a in els:
        for b in els:
            assert quad_char(a * b) == quad_char(a) * quad_char(b)
        assert quad_char(a ** 6) == 1


def test_exp_log_tables_inverse_bijections():
    import numpy as np
    for p, d in [(3, 3), (5, 2), (7, 1)]:
        exp, log, _ = zech_tables(field_create(p, d))
        assert np.array_equal(log[exp], np.arange(len(exp)))
        assert sorted(exp.tolist()) == list(range(1, p ** d))


@pytest.mark.parametrize("p, d", [(7, 1), (5, 2), (3, 3), (3, 6)])
def test_digit_arithmetic_matches_elements(p, d):
    # products (mod p over F_p, the log tables in every extension, d = 2
    # included), inverses and powers on coordinate vectors agree with
    # scalar field arithmetic, zero included
    ctx = field_create(p, d)
    rng = random.Random(10 * p + d)
    xs = [0, 1, 0] + [rng.randrange(ctx.q) for _ in range(150)]
    ys = [0, 0, 1] + [rng.randrange(ctx.q) for _ in range(150)]
    x, y = digits(ctx, xs), digits(ctx, ys)
    assert x.shape == (d, len(xs))
    assert [_digits_enc(c.tolist(), p) for c in x.T] == xs
    elems = [(ctx.from_enc(a), ctx.from_enc(b)) for a, b in zip(xs, ys)]
    assert digit_mul(ctx, x, y).T.tolist() == [
        _coeffs(a * b) for a, b in elems]
    assert digit_inv(ctx, x).T.tolist() == [
        _coeffs(a.inverse() if a else a) for a, _ in elems]
    powers = digit_powers(ctx, 3, xs)
    assert powers.transpose(1, 2, 0).tolist() == [
        [_coeffs(a ** i) if a or i else _coeffs(ctx.one())
         for i in range(4)] for a, _ in elems]


def test_poly_rep_matches_zech_rep():
    # scalar products, powers, inverses and characters on coefficient
    # lists agree with the lookups in the field's log tables
    rng = random.Random(7)
    for p, d in ((7, 1), (5, 2), (3, 3)):
        q = p ** d
        q1 = q - 1
        F = field_create(p, d)
        exp, log, _ = zech_tables(F)
        with pytest.raises(ZeroDivisionError):
            F.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            F.zero() ** -1
        assert F.zero() ** 0 == F.one() and F.zero() ** 5 == F.zero()
        other = FieldCtx(p, d)  # an equal field that field_create did not make
        for _ in range(200):
            x, y = rng.randrange(q), rng.randrange(q)
            a, b = F.from_enc(x), F.from_enc(y)
            assert (a * b).to_int() == (
                exp[(log[x] + log[y]) % q1] if x and y else 0)
            assert (a + b) - b == a and (a - b) + b == a
            assert (-a + a).is_zero() and -a == F.from_int(-1) * a
            assert quad_char(a) == (
                0 if not x else 1 if exp[q1 // 2 * log[x] % q1] == 1 else -1)
            for n in (0, 1, 2, q - 1, 3 * q ** 2 + 5, -1, -q - 2):
                if x:
                    assert (a ** n).to_int() == exp[n * log[x] % q1], (p, d, n)
                elif n >= 0:
                    assert (a ** n).to_int() == int(n == 0)
            if x:
                assert a.inverse().to_int() == exp[-log[x] % q1]
                assert a * a.inverse() == F.one()
                assert (a ** -3) * (a ** 3) == F.one()
            digits_x = [x // p ** i % p for i in range(d)]
            assert _coeffs(a) == digits_x and _digits_enc(digits_x, p) == x
            assert (a == b) == (x == y)
            assert a != other.from_enc(x)  # different contexts never agree
            assert a == F.from_enc(x) and hash(a) == hash(F.from_enc(x))


def test_poly_rep_inverse_and_character_match_powers():
    # an inverse is an extended Euclid on coefficient lists and the
    # quadratic character the Legendre symbol of the norm; they equal the
    # powers a^(q-2) and a^((q-1)/2), above the Zech limit too
    rng = random.Random(11)
    for d in (2, 3):
        ctx = field_create(4231, d)
        p, q = ctx.p, ctx.q
        with pytest.raises(ZeroDivisionError):
            ctx.zero().inverse()
        assert quad_char(ctx.zero()) == 0
        chars = set()
        for _ in range(60):
            a = ctx.from_enc(rng.randrange(1, q))
            x = _coeffs(a)
            inv = _digits_enc(_zp_powmod(x, q - 2, ctx.modulus, p), p)
            half = _digits_enc(_zp_powmod(x, (q - 1) // 2, ctx.modulus, p), p)
            assert a.inverse().to_int() == inv and a * a.inverse() == ctx.one()
            assert (a ** -2).to_int() == (a.inverse() * a.inverse()).to_int()
            assert half in (1, p - 1)  # the encodings of 1 and -1
            assert quad_char(a) == (1 if half == 1 else -1)
            chars.add(quad_char(a))
            assert quad_char(a * a) == 1
        assert chars == {1, -1}


def test_frobenius_is_additive_and_multiplicative():
    rng = random.Random(11)
    for p, d in [(3, 3), (5, 2)]:
        ctx = field_create(p, d)
        for _ in range(100):
            a = ctx.from_enc(rng.randrange(ctx.q))
            b = ctx.from_enc(rng.randrange(ctx.q))
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_embed_constant():
    F5 = field_create(5, 1)
    F25 = field_create(5, 2)
    img = embed_subfield(F5.from_int(2), F25)
    assert img == F25.from_int(2)


def test_embed_preserves_multiplicative_order():
    F9 = field_create(3, 2)
    F81 = field_create(3, 4)
    g = F9.from_enc(int(zech_tables(F9)[0][1]))  # exp[1]
    img = embed_subfield(g, F81)
    assert img ** 8 == F81.one()
    for k in range(1, 8):
        assert img ** k != F81.one()


def test_embed_is_ring_homomorphism():
    F9 = field_create(3, 2)
    F81 = field_create(3, 4)
    rng = random.Random(3)
    for _ in range(50):
        a = F9.from_enc(rng.randrange(9))
        b = F9.from_enc(rng.randrange(9))
        assert embed_subfield(a + b, F81) == embed_subfield(a, F81) + embed_subfield(b, F81)
        assert embed_subfield(a * b, F81) == embed_subfield(a, F81) * embed_subfield(b, F81)


def test_embed_roundtrip_minimal_polynomials():
    F25 = field_create(5, 2)
    F625 = field_create(5, 4)
    rng = random.Random(19)
    for _ in range(50):
        a = F25.from_enc(rng.randrange(25))
        img = embed_subfield(a, F625)
        assert minimal_polynomial(a) == minimal_polynomial(img)


def test_embed_rejects_bad_degrees():
    F25 = field_create(5, 2)
    F125 = field_create(5, 3)
    with pytest.raises(ValueError):
        embed_subfield(F25.from_enc(5), F125)  # the class of t


def test_factor_t2_minus_1_over_f3():
    F3 = field_create(3, 1)
    f = Poly.from_ints(F3, [-1, 0, 1])
    facs = factor_univariate(f)
    assert len(facs) == 2
    assert all(m == 1 for _, m in facs)
    prods = sorted(g.c[0].to_int() for g, _ in facs)
    assert prods == [1, 2]  # t - 1 = t + 2 and t + 1


def test_factor_t2_plus_1_over_f3_irreducible():
    F3 = field_create(3, 1)
    f = Poly.from_ints(F3, [1, 0, 1])
    facs = factor_univariate(f)
    assert facs == [(f, 1)]


def test_factor_recovers_random_product_over_f5():
    F5 = field_create(5, 1)
    irs = [
        Poly.from_ints(F5, [2, 1]),          # t + 2
        Poly.from_ints(F5, [3, 1]),          # t + 3
        Poly.from_ints(F5, [2, 0, 1]),       # t^2 + 2 (irreducible)
        Poly.from_ints(F5, [1, 1, 0, 1]),    # t^3 + t + 1 (irreducible mod 5)
    ]
    prod = Poly.from_ints(F5, [3])
    mults = [2, 1, 1, 3]
    for g, m in zip(irs, mults):
        for _ in range(m):
            prod = prod * g
    facs = factor_univariate(prod)
    assert sorted((g.enc_key(), m) for g, m in facs) == \
        sorted((g.enc_key(), m) for g, m in zip(irs, mults))


def test_factor_remultiplies_to_input():
    rng = random.Random(23)
    for p, d in [(3, 1), (5, 1), (3, 2)]:
        ctx = field_create(p, d)
        for _ in range(20):
            deg = rng.randrange(1, 9)
            coeffs = [ctx.from_enc(rng.randrange(ctx.q)) for _ in range(deg)]
            coeffs.append(ctx.from_enc(rng.randrange(1, ctx.q)))
            f = Poly(ctx, coeffs)
            facs = factor_univariate(f)
            prod = Poly(ctx, [f.c[-1]])
            for g, m in facs:
                for _ in range(m):
                    prod = prod * g
            assert prod == f


def test_factor_zero_rejected():
    F3 = field_create(3, 1)
    with pytest.raises(ValueError):
        factor_univariate(Poly(F3, []))


def test_poly_roots_with_multiplicity():
    F7 = field_create(7, 1)
    # (t - 2)^2 (t - 3)
    f = Poly.from_ints(F7, [-2, 1]) * Poly.from_ints(F7, [-2, 1]) * Poly.from_ints(F7, [-3, 1])
    roots = poly_roots(f)
    assert [(r.to_int(), m) for r, m in roots] == [(2, 2), (3, 1)]


def _exhaustive_modulus(p, d):
    """Reference search: the first monic irreducible over every code in
    range(p^d), whose most significant digit is c_0."""
    from k3cert.ffield import _is_irreducible_zp
    for code in range(p ** d):
        digits = []
        x = code
        for _ in range(d):
            digits.append(x % p)
            x //= p
        m = list(reversed(digits)) + [1]
        if _is_irreducible_zp(m, p, d):
            return tuple(m)
    return None


def test_deterministic_modulus_and_tables():
    # same parameters give the identical cached context
    a = field_create(3, 5)
    b = field_create(3, 5)
    assert a is b
    # the modulus is the lex-least irreducible: recompute independently
    assert a.modulus == _exhaustive_modulus(3, 5)


def test_modulus_order_and_pinned_values():
    from k3cert.ffield import _lex_least_irreducible
    # least in (c_0, ..., c_{d-1}): t^2 + t + 1, not t^2 + 2
    assert _lex_least_irreducible(5, 2) == (1, 1, 1)
    assert _lex_least_irreducible(3, 8) == (1, 0, 0, 0, 0, 1, 1, 0, 1)
    assert _lex_least_irreducible(3, 10) == (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)
    assert _lex_least_irreducible(5, 6) == (1, 0, 0, 0, 1, 1, 1)
    assert _lex_least_irreducible(7, 5) == (1, 0, 0, 0, 3, 1)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
        d = 2
        while p ** d <= 3 ** 7:
            assert _lex_least_irreducible(p, d) == _exhaustive_modulus(p, d), (p, d)
            d += 1


def test_quadratic_moduli_at_large_primes():
    # t^2 + c t + 1 with the least c whose discriminant c^2 - 4 is a
    # non-square (Euler's criterion); building F_(p^2) takes no pass over
    # F_p, so it is quick at the largest primes the program takes
    for p, want in ((4194301, (1, 5, 1)), ((1 << 31) - 1, (1, 0, 1))):
        c = next(c for c in range(p)
                 if pow(c * c - 4, (p - 1) // 2, p) == p - 1)
        assert field_create(p, 2).modulus == want == (1, c, 1)
