"""The certificate steps on coefficient encodings against their FieldElem
references in oracles.py: restriction, square split, decomposition,
contact points, roots of binary forms and the obstruction on seeded
dense and sparse sextics at p = 3, 5 and 7, over F_p and F_(p^2); the
cyclotomic part on planted factors; and that a warm certify builds no
FieldElem object."""

import random

import pytest

from k3cert import geom
from k3cert.errors import CommonZeroOnLineError, MathError
from k3cert.ffield import FieldElem, field_create
from k3cert.forms import IntForm, _restrict, _square_split, reduce_mod
from k3cert.geom import decompose_along_line, find_tritangents
from k3cert.obstruct import lifts_to_second_order
from k3cert.zeta import (FrobeniusPoly, _admissible_orders, cyclotomic_part,
                         euler_phi, poly_mul, poly_pow, scaled_cyclotomic)

from oracles import (
    BinaryForm,
    ObjForm,
    bf_mul,
    bf_scale,
    binary_roots_ref,
    contact_points_ref,
    cyclotomic_part_ref,
    decompose_mod_line,
    elements,
    obstruction_ref,
    perfect_square_split_ref,
    quad_char,
    restrict_to_line_ref,
)
from test_cli import _with_all_counts, run
from test_obstruct import line_curve

PRIMES = (3, 5, 7)


def _int_form(rng, degree, density=1.0, bound=9):
    return IntForm({(a, b, degree - a - b): rng.randint(-bound, bound)
                    for a in range(degree + 1) for b in range(degree + 1 - a)
                    if rng.random() < density}, degree)


def _sextics(seed):
    """(p, f6 mod p): four dense and four sparse sextics per prime."""
    rng = random.Random(seed)
    for p in PRIMES:
        for density in (1.0, 0.3):
            for _ in range(4):
                f = _int_form(rng, 6, density)
                if any(c % p for c in f.coeffs.values()):
                    yield p, reduce_mod(f, field_create(p, 1))


def _elem(ctx, rng, nonzero=False):
    return ctx.from_enc(rng.randrange(1 if nonzero else 0, ctx.q))


def _line(ctx, rng):
    while True:
        line = tuple(_elem(ctx, rng) for _ in range(3))
        if any(line):
            return line


def _encs(elems):
    return [c.v for c in elems]


def _split_key(split):
    return None if split is None else (split.h, split.unit)


def test_restriction_matches_reference_over_fp_and_fp2():
    rng = random.Random(11)
    for p, f6 in _sextics(1):
        for e in (1, 2):
            ctx = field_create(p, e)
            f = ObjForm.of(f6.embed(ctx))
            # and a sextic whose coefficients need the extension
            g = ObjForm(ctx, {m: _elem(ctx, rng) for m in f6.coeffs}, 6)
            for _ in range(4):
                line = _line(ctx, rng)
                for form in (f, g):
                    got = _restrict(ctx, form.encodings(), form.degree,
                                    _encs(line))
                    assert BinaryForm.from_encs(ctx, got) == \
                        restrict_to_line_ref(form, line)


def test_square_split_matches_reference():
    # u h^2 with u a square (rational splits) and a non-square, h with
    # leading zeros, and the same forms with one coefficient changed
    rng = random.Random(12)
    degrees = set()
    for p in PRIMES:
        for e in (1, 2):
            ctx = field_create(p, e)
            for j in range(4):
                for _ in range(5):
                    h = BinaryForm(ctx, [ctx.zero()] * j + [
                        _elem(ctx, rng, nonzero=not i)
                        for i in range(4 - j)])
                    g = bf_scale(bf_mul(h, h), _elem(ctx, rng, nonzero=True))
                    bumped = list(g.coeffs)
                    i = rng.randrange(7)
                    bumped[i] = bumped[i] + _elem(ctx, rng, nonzero=True)
                    for form in (g, BinaryForm(ctx, bumped)):
                        if form.is_zero():
                            continue
                        split = _square_split(ctx, form.encodings())
                        want = perfect_square_split_ref(form)
                        assert _split_key(want) == (split and (
                            BinaryForm.from_encs(ctx, split[0]),
                            ctx.from_enc(split[1])))
                        if want is not None:
                            degrees.add(want.split_field_degree)
    assert degrees == {1, 2}


def _planted(p, rng, nonsquare):
    """s f3^2 + l f5 over F_p: the line l is a tritangent whose split is
    rational exactly when s is a square."""
    ctx = field_create(p, 1)
    s = next(c for c in range(1, p)
             if (quad_char(ctx.from_int(c)) < 0) == nonsquare)
    f3, f5 = (ObjForm.of(reduce_mod(_int_form(rng, d), ctx)) for d in (3, 5))
    line = _line(ctx, rng)
    ell = ObjForm(ctx, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), line)), 1)
    return ((f3 * f3).scale(ctx.from_int(s)) + ell * f5).mod()


def test_certificates_match_references():
    # every certificate of the search over F_p and F_(p^2): its split, its
    # contact points (through the general factoriser) and, for a rational
    # split, its decomposition (through a change of coordinates)
    rng = random.Random(13)
    cases = list(_sextics(2)) + [(p, _planted(p, rng, nonsquare))
                                 for p in PRIMES for nonsquare in (0, 1)
                                 for _ in range(2)]
    seen = set()
    for p, f6 in cases:
        if f6.is_zero():
            continue
        for cert in find_tritangents(f6, 2):
            ctx = cert.field
            f = ObjForm.of(f6.embed(ctx))
            line = tuple(map(ctx.from_enc, cert.line))
            split = perfect_square_split_ref(restrict_to_line_ref(f, line))
            assert (split.unit.v, split.split_field_degree) == (
                cert.unit, cert.split_field_degree)
            assert cert.contact_points() == contact_points_ref(split.h, line,
                                                             ctx)
            if cert.f3 is not None:
                assert (cert.f3, cert.f5) == tuple(
                    g.mod() for g in decompose_mod_line(f, line))
                if ctx.d == 1:
                    assert decompose_along_line(
                        IntForm(f6.coeffs, 6), cert.line, p) == (
                        IntForm(cert.f3.coeffs, 3), IntForm(cert.f5.coeffs, 5))
            seen.add((cert.line_field_degree, cert.split_field_degree))
    assert seen == {(1, 1), (1, 2), (2, 1), (2, 2)}


def _irreducible(ctx, rng, degree):
    """A monic polynomial of degree 2 or 3 over ctx without a root there,
    as coefficient FieldElems ascending."""
    while True:
        f = [_elem(ctx, rng) for _ in range(degree)] + [ctx.one()]
        if not any(sum((c * x ** i for i, c in enumerate(f)), ctx.zero())
                   .is_zero() for x in elements(ctx)):
            return f


def _poly_mul(a, b):
    zero = a[0].ctx.zero()
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def test_contact_points_match_the_factoriser():
    # h of degree 3 built from its factors: an irreducible cubic, a root
    # times an irreducible quadratic, three roots with repeats, and the
    # same with the root (0 : 1) (a drop in the degree of h(1, t))
    rng = random.Random(14)
    root_degrees = set()
    for p in PRIMES:
        for d in (1, 2):
            ctx = field_create(p, d)
            one = ctx.one()

            def linear():
                return [-_elem(ctx, rng), one]

            shapes = [
                lambda: _irreducible(ctx, rng, 3),
                lambda: _poly_mul(linear(), _irreducible(ctx, rng, 2)),
                lambda: _poly_mul(_poly_mul(linear(), linear()), linear()),
                lambda: (lambda r: _poly_mul(_poly_mul(r, r), r))(linear()),
                lambda: _poly_mul(*[[-_elem(ctx, rng), one]] * 2),
                lambda: _irreducible(ctx, rng, 2),
                lambda: linear(),
                lambda: [one],
            ]
            for shape in shapes:
                for _ in range(2):
                    coeffs = shape()
                    coeffs += [ctx.zero()] * (4 - len(coeffs))
                    h = bf_scale(BinaryForm(ctx, coeffs), _elem(ctx, rng, True))
                    line = _line(ctx, rng)
                    got = geom._contact_points(ctx, h.encodings(),
                                               _encs(line))
                    assert got == contact_points_ref(h, line, ctx)
                    root_degrees |= {field.d // d for field, _, _ in got}
    assert root_degrees == {1, 2, 3}


def test_binary_roots_match_the_factoriser():
    # forms of degree up to 12 from random factors of degree 1 to 4, some
    # repeated (p-th powers included), times powers of u: the roots, their
    # fields and multiplicities as the general factoriser finds them
    rng = random.Random(16)
    for p in PRIMES:
        for d in (1, 2):
            ctx = field_create(p, d)
            for _ in range(6):
                coeffs = [ctx.one()]
                for _ in range(rng.randint(1, 3)):
                    factor = [_elem(ctx, rng)
                              for _ in range(rng.randint(1, 4))]
                    for _ in range(rng.choice((1, 1, 2, p))):
                        coeffs = _poly_mul(coeffs, factor + [ctx.one()])
                coeffs += [ctx.zero()] * rng.randint(0, 2)
                bf = bf_scale(BinaryForm(ctx, coeffs), _elem(ctx, rng, True))
                got = geom._binary_roots(ctx, bf.encodings())
                assert [((FieldElem(ext, u0), FieldElem(ext, v0)), m, ext)
                         for ext, u0, v0, m in got] == binary_roots_ref(bf)


def test_obstruction_matches_reference():
    # f6 = F3^2 + L F5 over Z lifts the split class (the obstruction
    # vanishes, with a witness); adding p times a dense or sparse sextic
    # usually blocks it
    rng = random.Random(15)
    verdicts = set()
    for p in PRIMES:
        for trial in range(12):
            F3, F5 = _int_form(rng, 3, bound=4), _int_form(rng, 5, bound=4)
            line = tuple(rng.randrange(p) for _ in range(3))
            if not any(line):
                continue
            L = IntForm(dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), line)), 1)
            f6 = F3 * F3 + L * F5
            if trial % 2:
                f6 = f6 + _int_form(rng, 6, (1.0, 0.3)[trial % 4 // 2]
                                    ).scale(p)
            try:
                dec = decompose_along_line(f6, line, p)
            except MathError:  # not a tritangent mod p, or no rational split
                continue
            try:
                want = obstruction_ref(f6, line, *dec, p)
            except CommonZeroOnLineError:
                with pytest.raises(CommonZeroOnLineError):
                    lifts_to_second_order(f6, line_curve(line, *dec, p))
                continue
            got = lifts_to_second_order(f6, line_curve(line, *dec, p))
            assert got == want
            assert (got.witness is None) == (got.verdict == "nonvanishing")
            verdicts.add(got.verdict)
    assert verdicts == {"vanishes", "nonvanishing"}


@pytest.mark.parametrize("q", [3, 5])
def test_cyclotomic_part_finds_every_planted_factor(q):
    # P = (Phi_n^q)^m S^j (t - q)^r with S = t^2 - t + q^2, whose roots
    # have absolute value q but are not q times a root of unity (their
    # real part is 1/2), for every n with phi(n) <= 22 and m = 1, 2
    S = [1, -1, q * q]
    for n in _admissible_orders(22):
        for m in (1, 2):
            rest = 22 - m * euler_phi(n)
            if rest < 0:
                continue
            coeffs = poly_mul(poly_pow(scaled_cyclotomic(n, q), m),
                              poly_mul(poly_pow(S, rest // 2),
                                       poly_pow([1, -q], rest % 2)))
            P = FrobeniusPoly(q=q, degree=22, k=0,
                              sign=coeffs[-1] // q ** 22, coeffs=tuple(coeffs))
            want = {n: m}
            if rest % 2:
                want[1] = want.get(1, 0) + 1
            bound = cyclotomic_part(P)
            assert dict(bound.per_n) == want, (n, m)
            assert bound == cyclotomic_part_ref(P)


# FieldElem objects built by one warm `certify --line-degree 2` of each
# bundled surface with every count supplied.  With the certificate steps
# on FieldElem, Poly and ModForm arithmetic they were 381, 1746 and 1050;
# with the steps on coefficient encodings and their results wrapped in
# objects, 97, 151 and 107.  The certificates, witnesses and reports now
# hold the encodings themselves, and any object built fails.
FIELD_ELEMS = {"rank1-p3": 0, "rank3-conics": 0, "rank1-p5": 0}


@pytest.mark.parametrize("name", sorted(FIELD_ELEMS))
def test_warm_certify_builds_few_field_elements(tmp_path, capsys,
                                                monkeypatch, name):
    p = 5 if name == "rank1-p5" else 3
    argv = ["certify", "--spec", _with_all_counts(tmp_path, name), "--prime",
            str(p), "--line-degree", "2", "--json"]
    assert run(argv) == 0  # fills the field, table and embedding caches
    built, init = [0], FieldElem.__init__

    def counting(self, ctx, v):
        built[0] += 1
        init(self, ctx, v)

    monkeypatch.setattr(FieldElem, "__init__", counting)
    assert run(argv) == 0
    capsys.readouterr()
    assert built[0] == FIELD_ELEMS[name], built[0]
