import random

import pytest

from k3cert.errors import NotDivisibleError
from k3cert.ffield import field_create
from k3cert.forms import IntForm, _restrict, _square_split, reduce_mod

import data
from oracles import (
    BinaryForm,
    LinearChange,
    ObjForm,
    apply_linear_change,
    bf_mul,
    bf_scale,
    eval_form,
    exact_divide,
    line_coeffs,
    line_to_x,
    restrict_along,
    unit_square_products,
)


def _mod(ctx, coeffs, degree=None):
    return ObjForm.from_int_coeffs(ctx, coeffs, degree)


def _restriction(f, line):
    """forms._restrict of an ObjForm as a BinaryForm."""
    return BinaryForm.from_encs(f.ctx, _restrict(
        f.ctx, f.encodings(), f.degree,
        [c.v for c in line_coeffs(line, f.ctx)]))


def _split(g):
    """forms._square_split of a BinaryForm: (h as a BinaryForm, unit) or
    None."""
    split = _square_split(g.ctx, g.encodings())
    return split and (BinaryForm.from_encs(g.ctx, split[0]),
                      g.ctx.from_enc(split[1]))


def _random_form(ctx, degree, rng, sparsity=0.6):
    out = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            c = degree - a - b
            if rng.random() < sparsity:
                out[(a, b, c)] = ctx.from_enc(rng.randrange(ctx.q))
    return ObjForm(ctx, out, degree)


def test_eval_at_first_basis_point_gives_leading_coefficient():
    F5 = field_create(5, 1)
    f = _mod(F5, {(6, 0, 0): 3, (5, 1, 0): 1})
    P = (F5.one(), F5.zero(), F5.zero())
    assert eval_form(f, P).to_int() == 3


def test_eval_surface_a_branch_point():
    F5 = field_create(5, 1)
    f6 = _mod(F5, data.F6_A)
    P = (F5.one(), F5.zero(), F5.zero())
    assert eval_form(f6, P).is_zero()


def test_eval_surface_b_at_010():
    F3 = field_create(3, 1)
    f6 = _mod(F3, data.F6_B_MOD3)
    P = (F3.zero(), F3.one(), F3.zero())
    assert eval_form(f6, P).to_int() == 1


def test_eval_homogeneity():
    F7 = field_create(7, 1)
    rng = random.Random(5)
    f = _random_form(F7, 6, rng)
    for _ in range(20):
        P = tuple(F7.from_enc(rng.randrange(7)) for _ in range(3))
        if all(c.is_zero() for c in P):
            continue
        lam = F7.from_enc(rng.randrange(1, 7))
        lp = tuple(lam * c for c in P)
        assert eval_form(f, lp) == eval_form(f, P) * lam ** 6


def test_reduce_mod_basics():
    F3 = field_create(3, 1)
    f = IntForm({(0, 6, 0): 4})
    assert reduce_mod(f, F3) == _mod(F3, {(0, 6, 0): 1}).mod()
    f6 = IntForm(data.F6_A)
    F5 = field_create(5, 1)
    r = reduce_mod(f6, F5)
    assert r.coeffs[(5, 1, 0)] == 1
    assert reduce_mod(f6 - f6, F5).is_zero()


def test_linear_change_identity_and_composition():
    F5 = field_create(5, 1)
    rng = random.Random(9)
    f = _random_form(F5, 4, rng)
    assert apply_linear_change(f, LinearChange.identity(F5)) == f
    for _ in range(10):
        t1 = _random_invertible(F5, rng)
        t2 = _random_invertible(F5, rng)
        lhs = apply_linear_change(apply_linear_change(f, t1), t2)
        rhs = apply_linear_change(f, t1.compose(t2))
        assert lhs == rhs


def _random_invertible(ctx, rng):
    while True:
        rows = [[ctx.from_enc(rng.randrange(ctx.q)) for _ in range(3)]
                for _ in range(3)]
        try:
            return LinearChange(ctx, rows)
        except ValueError:
            continue


def test_eval_respects_linear_change():
    F5 = field_create(5, 1)
    rng = random.Random(13)
    for _ in range(10):
        f = _random_form(F5, 5, rng)
        T = _random_invertible(F5, rng)
        P = tuple(F5.from_enc(rng.randrange(1, 5)) for _ in range(3))
        assert eval_form(apply_linear_change(f, T), P) == eval_form(f, T.apply_to_point(P))


def test_line_to_x_sends_line_to_x():
    F3 = field_create(3, 1)
    ell = _mod(F3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    T = line_to_x(ell)
    assert apply_linear_change(ell, T) == _mod(F3, {(1, 0, 0): 1})


def test_surface_c_transported_is_square_mod_x():
    # sending x+y+z to the coordinate x makes f6 mod (3, x) a perfect square
    F3 = field_create(3, 1)
    f6 = ObjForm.of(reduce_mod(IntForm(data.F6_C), F3))
    ell = _mod(F3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    g = apply_linear_change(f6, line_to_x(ell))
    restriction = _restriction(g, _mod(F3, {(1, 0, 0): 1}))
    assert _split(restriction) is not None


def test_restrict_along_matches_change_then_restrict_to_x():
    # f(s T e_1 + t T e_2) is the restriction of f o T to x = 0, for random
    # invertible T over F_p and F_{p^2}, forms of degree 3, 5 and 6; and
    # _restriction(f, l) is that restriction for T = line_to_x(l)
    rng = random.Random(17)
    for p, d in ((3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2)):
        ctx = field_create(p, d)
        x_form = _mod(ctx, {(1, 0, 0): 1})
        for degree in (3, 5, 6):
            for _ in range(3):
                f = _random_form(ctx, degree, rng)
                T = _random_invertible(ctx, rng)
                assert (restrict_along(f, T.column(1), T.column(2))
                        == _restriction(apply_linear_change(f, T), x_form))
                ell = T.rows[0]
                T = line_to_x(ell)
                assert (_restriction(f, ell)
                        == restrict_along(f, T.column(1), T.column(2))
                        == _restriction(apply_linear_change(f, T), x_form))


def test_restriction_keeps_powers_of_unrestricted_variable():
    # f = z^3 * g restricted to y = 0 keeps the z^3 factor
    F5 = field_create(5, 1)
    g = _mod(F5, {(2, 1, 0): 1, (1, 1, 1): 2, (0, 0, 3): 3})
    z3 = _mod(F5, {(0, 0, 3): 1})
    f = z3 * g
    line_y = _mod(F5, {(0, 1, 0): 1})
    r = _restriction(f, line_y)
    # parametrization of {y = 0} is (s, 0, t); the t-degree is at least 3
    assert all(r.coeffs[i].is_zero() for i in range(3))


def test_restriction_of_tritangent_is_square_with_expected_contacts():
    F5 = field_create(5, 1)
    f6 = _mod(F5, data.F6_A)
    line = _mod(F5, {(0, 1, 0): 3, (0, 0, 1): 1})  # z - 2y = z + 3y
    r = _restriction(f6, line)
    h, unit = _split(r)
    assert unit == F5.one()
    # h = s^2 t + 4 s t^2 = st(s + 4t): roots (1:0), (0:1), (1:1)
    assert [c.to_int() for c in h.coeffs] == [0, 1, 4, 0]


def test_restriction_generic_line_not_square():
    F5 = field_create(5, 1)
    f6 = _mod(F5, data.F6_A)
    line_x = _mod(F5, {(1, 0, 0): 1})
    r = _restriction(f6, line_x)
    assert _split(r) is None


def test_restriction_vanishes_iff_line_divides():
    F3 = field_create(3, 1)
    rng = random.Random(31)
    ell = _mod(F3, {(1, 0, 0): 1, (0, 1, 0): 2})
    g = _random_form(F3, 5, rng)
    while g.is_zero():
        g = _random_form(F3, 5, rng)
    f = ell * g
    assert _restriction(f, ell).is_zero()
    h = _random_form(F3, 6, rng)
    if not _restriction(h, ell).is_zero():
        # h not divisible: exact_divide must fail
        with pytest.raises(NotDivisibleError):
            exact_divide(h, ell)


def test_exact_divide_examples():
    F5 = field_create(5, 1)
    f = _mod(F5, {(2, 1, 0): 1, (1, 2, 0): 1})  # x^2 y + x y^2
    g = _mod(F5, {(1, 0, 0): 1, (0, 1, 0): 1})  # x + y
    assert exact_divide(f, g) == _mod(F5, {(1, 1, 0): 1})
    with pytest.raises(NotDivisibleError):
        exact_divide(_mod(F5, {(2, 0, 0): 1}), _mod(F5, {(0, 1, 0): 1}))


def test_exact_divide_integer_by_constant_p():
    # G = (f6 - f3^2 - l f5)/p for synthetic data
    f3 = IntForm({(3, 0, 0): 1, (0, 3, 0): 2})
    f5 = IntForm({(0, 0, 5): 1, (2, 2, 1): 4})
    ell = IntForm({(1, 0, 0): 1})
    extra = IntForm({(2, 2, 2): 7})
    f6 = f3 * f3 + ell * f5 + extra.scale(3)
    num = f6 - f3 * f3 - ell * f5
    G = exact_divide(num, IntForm({(0, 0, 0): 3}, 0))
    assert G == extra
    with pytest.raises(NotDivisibleError):
        exact_divide(f6, IntForm({(0, 0, 0): 3}, 0))


def test_exact_divide_random_products():
    rng = random.Random(17)
    F7 = field_create(7, 1)
    for _ in range(20):
        f = _random_form(F7, rng.randrange(1, 4), rng)
        g = _random_form(F7, rng.randrange(1, 4), rng)
        if f.is_zero() or g.is_zero():
            continue
        assert exact_divide(f * g, g) == f
    # integer version
    for _ in range(20):
        fc = {(a, b, 2 - a - b): rng.randrange(-9, 10)
              for a in range(3) for b in range(3 - a)}
        gc = {(a, b, 1 - a - b): rng.randrange(-9, 10)
              for a in range(2) for b in range(2 - a)}
        f, g = IntForm(fc, 2), IntForm(gc, 1)
        if f.is_zero() or g.is_zero():
            continue
        assert exact_divide(f * g, g) == f


def test_perfect_square_split_examples():
    F5 = field_create(5, 1)
    h = BinaryForm.from_ints(F5, [1, 0, 0, 1])  # s^3 + t^3
    g = bf_mul(h, h)
    assert _split(g) == (h, F5.one())
    # 2 is a non-residue mod 5: the unit is kept, not absorbed into h
    assert _split(bf_scale(g, F5.from_int(2))) == (h, F5.from_int(2))
    # h is normalized to 1 at its first nonzero coefficient
    t3 = BinaryForm.from_ints(F5, [0, 0, 0, 3])  # 3 t^3
    assert _split(bf_mul(t3, t3)) == (
        BinaryForm.from_ints(F5, [0, 0, 0, 1]), F5.from_int(4))


def test_perfect_square_split_reexpands():
    rng = random.Random(41)
    for p, d in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        ctx = field_create(p, d)
        for _ in range(25):
            k = rng.randrange(1, 4)
            h = BinaryForm(ctx, [ctx.from_enc(rng.randrange(ctx.q))
                                 for _ in range(k + 1)])
            if h.is_zero():
                continue
            u = ctx.from_enc(rng.randrange(1, ctx.q))
            g = bf_scale(bf_mul(h, h), u)
            split_h, unit = _split(g)
            assert bf_scale(bf_mul(split_h, split_h), unit) == g


def test_perfect_square_split_not_square_matches_exhaustive():
    # for q <= 7 and k <= 3, a NotSquare verdict means no (u, h) exists
    rng = random.Random(43)
    for p in (3, 5, 7):
        ctx = field_create(p, 1)
        for _ in range(40):
            k = rng.randrange(1, 4)
            g = BinaryForm(ctx, [ctx.from_enc(rng.randrange(ctx.q))
                                 for _ in range(2 * k + 1)])
            if g.is_zero():
                continue
            found = tuple(c.to_int() for c in g.coeffs) in \
                unit_square_products(p, k)
            assert (_split(g) is None) == (not found)


def test_serialization_is_grevlex_descending():
    f = IntForm({(0, 0, 6): 4, (6, 0, 0): 1, (3, 3, 0): -2, (3, 0, 3): 5})
    s = f.serialize()
    assert s == "1*x^6*y^0*z^0+-2*x^3*y^3*z^0+5*x^3*y^0*z^3+4*x^0*y^0*z^6"
    F5 = field_create(5, 1)
    assert reduce_mod(f, F5).serialize() == \
        "1*x^6*y^0*z^0+3*x^3*y^3*z^0+0*x^3*y^0*z^3+4*x^0*y^0*z^6".replace("+0*x^3*y^0*z^3", "")


def test_lift_roundtrip():
    # over F_p the encodings are the integer lifts in [0, p)
    F5 = field_create(5, 1)
    f = IntForm(data.F6_A)
    assert IntForm(reduce_mod(f, F5).coeffs, 6) == f
