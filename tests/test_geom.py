import dataclasses
import functools
import itertools
import math
import random

import numpy as np
import pytest

from k3cert import ffield, geom
from k3cert.errors import BudgetExceededError, MathError
from k3cert.count import DEFAULT_ZECH_LIMIT, zech_tables
from k3cert.ffield import FieldCtx, field_create, is_prime
from k3cert.forms import IntForm, _monomials, _square_split, reduce_mod
from k3cert.geom import (
    _macaulay_matrix,
    _row_echelon,
    assert_good_reduction,
    decompose_along_line,
    digits,
    find_tritangents,
    smoothness_check,
)
from k3cert.obstruct import (
    ConicCert,
    SplitCurve,
    class_matrix,
    split_pairing,
    verify_conic_identity,
)

import data
from oracles import (
    BinaryForm,
    LinearChange,
    ObjForm,
    Poly,
    apply_int_matrix,
    apply_linear_change,
    bf_mul,
    bf_scale,
    chart_points,
    chart_value_logs,
    contact_points_ref,
    decompose_mod_line,
    elements,
    eval_form,
    line_form,
    log_restriction_blocks,
    log_unit_times_square,
    macaulay_matrix,
    macaulay_smoothness,
    normalize_point,
    partial,
    perfect_square_split_ref,
    poly_roots,
    quad_char,
    restrict_to_line_ref,
    row_echelon,
    singular_witness_ref,
    split_pairing_oracle,
    z_free_forms_ref,
)
from test_parity_corpus import singular_families


# the largest prime below the Zech table limit 2^22, beyond which the
# smoothness test, like counting and the tritangent search, stops
_LARGEST_PRIME = 4194301


def _mod(ctx, coeffs, degree=None):
    return ObjForm.from_int_coeffs(ctx, coeffs, degree)


def _pt_ints(pt):
    return tuple(c.to_int() for c in pt)


def _elems(ctx, encs):
    return tuple(map(ctx.from_enc, encs))


def _line_form(cert):
    """A certificate's line as a linear ObjForm over its field."""
    return line_form(cert.field, _elems(cert.field, cert.line))


def _report(rep):
    """A SingularityReport as macaulay_smoothness gives it: (verdict,
    witness as FieldElems, field degree)."""
    if rep.verdict == "smooth":
        return "smooth", None, None
    return rep.verdict, _elems(rep.field, rep.witness), rep.field.d


# -- tritangents --------------------------------------------------------------


def test_find_tritangents_surface_a():
    F5 = field_create(5, 1)
    f6 = reduce_mod(IntForm(data.F6_A), F5)
    certs = find_tritangents(f6, 1)
    lines = {t.line for t in certs}
    assert (0, 3, 1) in lines  # z - 2y = 0 stored as 3y + z
    cert = next(t for t in certs if t.line == (0, 3, 1))
    assert cert.split_field_degree == 1
    pts = {pt for _, pt, _ in cert.contact_points()}
    assert pts == {(1, 0, 0), (1, 3, 1), (0, 1, 2)}
    assert all(m == 1 for *_, m in cert.contact_points())
    # the decomposition attached to the certificate re-verifies
    f3, f5 = ObjForm.of(cert.f3), ObjForm.of(cert.f5)
    assert f3 * f3 + _line_form(cert) * f5 == ObjForm.of(f6)


def test_find_tritangents_surface_b():
    F3 = field_create(3, 1)
    f6 = reduce_mod(IntForm(data.F6_B), F3)
    certs = find_tritangents(f6, 1)
    lines = {t.line for t in certs}
    assert (1, 0, 0) in lines  # the line x = 0
    cert = next(t for t in certs if t.line == (1, 0, 0))
    # restriction is y^6: one triple contact at (0 : 0 : 1)
    assert cert.contact_points() == ((F3, (0, 0, 1), 3),)


def test_find_tritangents_surface_c():
    F3 = field_create(3, 1)
    f6 = reduce_mod(IntForm(data.F6_C), F3)
    certs = find_tritangents(f6, 1)
    lines = {t.line for t in certs}
    assert (1, 1, 1) in lines  # x + y + z = 0


def test_tritangent_certs_reverify():
    F3 = field_create(3, 1)
    f6 = reduce_mod(IntForm(data.F6_C), F3)
    for cert in find_tritangents(f6, 1):
        ell = _line_form(cert)
        f = ObjForm.of(f6)
        if cert.f3 is not None:
            f3, f5 = ObjForm.of(cert.f3), ObjForm.of(cert.f5)
            assert f3 * f3 + ell * f5 == f
        for ctx, pt, _ in cert.contact_points():
            pt = _elems(ctx, pt)
            femb = f if ctx is F3 else f.embed(ctx)
            lemb = ell if ctx is F3 else ell.embed(ctx)
            assert eval_form(femb, pt).is_zero()
            assert eval_form(lemb, pt).is_zero()


def test_tritangent_set_invariant_under_coordinate_change():
    rng = random.Random(3)
    F5 = field_create(5, 1)
    f6 = reduce_mod(IntForm(data.F6_A), F5)
    base_lines = {t.line for t in find_tritangents(f6, 1)}
    for _ in range(3):
        T = _random_invertible(F5, rng)
        g = apply_linear_change(ObjForm.of(f6), T)
        moved = set()
        for cert in find_tritangents(g.mod(), 1):
            # a line l of g corresponds to l o T^{-1} for f6
            vec = _elems(F5, cert.line)
            tinv = T.inverse()
            back = tuple(sum((vec[i] * tinv.rows[i][j] for i in range(3)),
                             F5.zero()) for j in range(3))
            last = next(c for c in reversed(back) if not c.is_zero())
            moved.add(tuple((c / last).to_int() for c in back))
        assert moved == base_lines


def _random_invertible(ctx, rng):
    while True:
        rows = [[ctx.from_enc(rng.randrange(ctx.q)) for _ in range(3)]
                for _ in range(3)]
        try:
            return LinearChange(ctx, rows)
        except ValueError:
            continue


def test_find_tritangents_extension_field():
    # x^6 + y^6 + z^6 over F_7 has no rational tritangent; over F_49 the
    # lines x = zeta*y (zeta^6 = -1) and their permutations are tritangents
    F7 = field_create(7, 1)
    f6 = _mod(F7, {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1})
    certs = find_tritangents(f6.mod(), 2)
    assert certs and all(c.line_field_degree == 2 for c in certs)
    F49 = field_create(7, 2)
    f = f6.embed(F49)
    for cert in certs:
        assert cert.field is F49
        line = _elems(F49, cert.line)
        # the scalar oracle: the restriction is unit * h^2 ...
        r = restrict_to_line_ref(f, line)
        split = perfect_square_split_ref(r)
        assert split is not None and split.unit.v == cert.unit
        assert bf_scale(bf_mul(split.h, split.h), split.unit) == r
        # ... on a line not defined over F_7 ...
        assert not all(c ** 7 == c for c in line)
        # ... touching f6 at the contact points
        ell = line_form(F49, line)
        for ctx, pt, _ in cert.contact_points():
            pt = _elems(ctx, pt)
            assert eval_form(f if ctx is F49 else f.embed(ctx), pt).is_zero()
            assert eval_form(ell if ctx is F49 else ell.embed(ctx), pt).is_zero()


def _oracle_tritangents(f6, max_e):
    """The per-line search: every line of P^2(F_{p^e}) in dual-point order
    through the FieldElem references of restrict_to_line,
    perfect_square_split and the contact points, skipping zero
    restrictions and lines defined over a proper subfield; the
    certificates and, apart, their contact points."""
    p = f6.ctx.p
    out, contacts = [], []
    for e in range(1, max_e + 1):
        ctx = field_create(p, e)
        f = ObjForm.of(f6 if ctx is f6.ctx else f6.embed(ctx))
        els = elements(ctx)
        one, zero = ctx.one(), ctx.zero()
        lines = ([(a, b, one) for a in els for b in els]
                 + [(a, one, zero) for a in els] + [(one, zero, zero)])
        for vec in lines:
            if any(e % e1 == 0 and all(c ** (p ** e1) == c for c in vec)
                   for e1 in range(1, e)):
                continue
            r = restrict_to_line_ref(f, vec)
            if r.is_zero():
                continue
            split = perfect_square_split_ref(r)
            if split is None:
                continue
            f3 = f5 = None
            if split.split_field_degree == 1:
                f3, f5 = (g.mod() for g in decompose_mod_line(f, vec))
            out.append(geom.TritangentCert(
                field=ctx, line=tuple(c.v for c in vec), line_field_degree=e,
                split_field_degree=split.split_field_degree,
                unit=split.unit.v, h=tuple(split.h.encodings()),
                f3=f3, f5=f5))
            contacts.append(contact_points_ref(split.h, vec, ctx))
    return out, contacts


def _random_sextic(ctx, rng, density=1.0):
    return _mod(ctx, {(a, b, 6 - a - b): rng.randrange(ctx.p)
                      for a in range(7) for b in range(7 - a)
                      if rng.random() < density}, 6).mod()


def _degenerate_sextics(ctx, rng):
    """Sextics over F_p whose restriction to x = 0 is degenerate for the
    u*h^2 test, and the same moved off x = 0 by a coordinate change."""
    p = ctx.p
    x, y, z = (line_form(ctx, tuple(ctx.from_int(int(i == j))
                                    for j in range(3))) for i in range(3))
    f5 = _mod(ctx, {(a, b, 5 - a - b): rng.randrange(p)
                    for a in range(6) for b in range(6 - a)}, 5)
    h = y * y + y * z.scale(ctx.from_int(2)) + z * z.scale(ctx.from_int(3))
    nonres = next(ctx.from_int(c) for c in range(2, p)
                  if pow(c, (p - 1) // 2, p) != 1)
    degenerate = [
        x * f5,  # x = 0 is a line component: zero restriction
        _mod(ctx, {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1}, 6),
        _mod(ctx, {(6, 0, 0): 1, (0, 5, 1): 2, (0, 1, 5): 1,
                   (1, 4, 1): 3}, 6),  # odd leading index on x = 0
        z * z * (h * h) + x * f5,  # leading index 2 on x = 0
        y * y * (h * h) + x * f5,  # u-multiplicity 2 on x = 0
        z * z * z * z * h + x * f5,  # 4, h is not a square
        (z * z * z * z * (y + z) * (y + z)).scale(nonres) + x * f5,  # 4
        (z * z * z) * (z * z * z) + x * f5,  # 6
    ]
    T = _random_invertible(ctx, rng)
    return [f.mod() for f in degenerate] + [
        apply_linear_change(f, T).mod() for f in degenerate]


def test_array_search_matches_per_line_oracle():
    rng = random.Random(61)
    cases = [(reduce_mod(IntForm(f), field_create(p, 1)), 2)
             for f, p in ((data.F6_A, 5), (data.F6_B, 3), (data.F6_C, 3))]
    for p in (3, 5, 7, 11, 13):
        cases += [(_random_sextic(field_create(p, 1), rng, density), 1)
                  for density in (1.0, 0.3)]
    for p in (3, 5):
        cases += [(_random_sextic(field_create(p, 1), rng, density), 2)
                  for density in (1.0, 0.4)]
    for p in (5, 7):
        cases += [(f, 1) for f in _degenerate_sextics(field_create(p, 1), rng)]
    F3 = field_create(3, 1)
    cases.append((_mod(F3, {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1},
                       6).mod(), 2))
    # the rational tritangent y = 0 must not come back in the F_9 search
    g3 = _mod(F3, {(3, 0, 0): 1, (1, 0, 2): 1, (0, 0, 3): 1}, 3)
    g5 = _mod(F3, {(a, b, 5 - a - b): rng.randrange(3)
                   for a in range(6) for b in range(6 - a)}, 5)
    cases.append(((g3 * g3 + _mod(F3, {(0, 1, 0): 1}, 1) * g5).mod(), 2))
    found = 0
    for f6, e in cases:
        certs = find_tritangents(f6, e)
        want, contacts = _oracle_tritangents(f6, e)
        assert certs == want, (f6, e)
        assert [c.contact_points() for c in certs] == contacts, (f6, e)
        found += len(certs)
    assert found > len(cases)


def _streamed_lines(f, q0, e):
    """The lines that the streamed search keeps: _unit_times_square on each
    block of _restriction_blocks, without the lines over a subfield."""
    return np.flatnonzero(np.concatenate([
        geom._unit_times_square(f.ctx, R) & ~skip
        for R, skip in geom._restriction_blocks(f, q0, e)])).tolist()


def test_map_search_matches_streamed_search():
    # on every field F_(p^e), e = 1, 2, with at most _MAP_MAX_LINES lines,
    # and on the first field above the bound, the map path returns exactly
    # the lines of the streamed path: dense and sparse sextics, planted
    # tritangents f3^2 + l f5 with l over F_p and f3^2 + l l' g4 with l over
    # F_q and l' its conjugate (so that the sextic stays over F_p), and the
    # degenerate restrictions
    rng = random.Random(97)
    fields = sorted((p ** e, p, e) for p in range(3, 30) if is_prime(p)
                    for e in (1, 2))
    below = [f for f in fields if f[0] ** 2 + f[0] + 1 <= geom._MAP_MAX_LINES]
    above = fields[len(below)]
    assert 9 in [q for q, _, _ in below] and above[0] < 25
    for q, p, e in below + [above]:
        base, ctx = field_create(p, 1), field_create(p, e)
        # the last coordinate is not in F_p when e = 2
        vec = (rng.randrange(q), rng.randrange(p if e > 1 else 0, q), 1)
        line = tuple(map(ctx.from_enc, vec))
        conj = line_form(ctx, tuple(c ** p for c in line))
        planted = (_random_form(base, 3, rng).embed(ctx).square()
                   + line_form(ctx, line) * conj
                   * _random_form(base, 4, rng).embed(ctx)).mod()
        ell = line_form(base, tuple(map(base.from_enc, (
            rng.randrange(p), rng.randrange(p), 1))))
        sextics = [_random_sextic(base, rng, density)
                   for density in (1.0, 1.0, 0.3, 0.3)]
        sextics.append((_random_form(base, 3, rng).square()
                        + ell * _random_form(base, 5, rng)).mod())
        sextics += _degenerate_sextics(base, rng)
        for f in [planted] + [g if e == 1 else g.embed(ctx) for g in sextics]:
            got = geom._mapped_candidates(f, p, e)
            assert got == _streamed_lines(f, p, e), (q, f)
            if f is planted:
                assert vec in [geom._line_at(ctx, i) for i in got], q


def _log_digits(ctx, logs):
    """Coordinate vectors, digit axis first, of elements given by logs."""
    exp = zech_tables(ctx)[0]
    return digits(ctx, np.where(logs < 0, 0, exp[logs % (ctx.q - 1)]))


def test_digit_array_test_matches_log_oracle():
    # the restriction blocks and u*h^2 verdicts of the search in F_p
    # coordinates equal those of the Zech-log reference, over prime bases
    # and bases F_(p^2), for dense, sparse and tritangent-bearing sextics
    # and for the degenerate restrictions (zero, odd leading index, leading
    # zeros before a square or a non-square); the search fields run to
    # F_(3^6), whose subfields F_9 and F_27 do not contain each other
    rng = random.Random(83)
    cases = []
    for p, d, e in ((3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 1),
                    (5, 1, 2), (7, 1, 1), (7, 1, 2), (11, 1, 2), (13, 1, 1),
                    (101, 1, 1), (3, 2, 1), (3, 2, 2), (5, 2, 1), (7, 2, 1)):
        base = field_create(p, d)
        line = _random_form(base, 1, rng)
        cases += [(_random_form(base, 6, rng), e),
                  (_random_form(base, 6, rng, 0.3), e),
                  (_random_form(base, 3, rng).square()
                   + line * _random_form(base, 5, rng), e)]
    cases.append((_random_form(field_create(3, 1), 6, rng), 6))
    for p in (5, 7):
        ctx = field_create(p, 1)
        x, y, z = (line_form(ctx, tuple(ctx.from_int(int(i == j))
                                        for j in range(3))) for i in range(3))
        f5 = _random_form(ctx, 5, rng)
        h = y * y + y * z.scale(ctx.from_int(2)) + z * z.scale(ctx.from_int(3))
        nonres = next(ctx.from_int(c) for c in range(2, p)
                      if pow(c, (p - 1) // 2, p) != 1)
        cases += [(f, 1) for f in (
            x * f5, z * z * (h * h) + x * f5, y * y * (h * h) + x * f5,
            z * z * z * z * h + x * f5,
            (z * z * z * z * (y + z) * (y + z)).scale(nonres) + x * f5,
            (z * z * z) * (z * z * z) + x * f5,
            _mod(ctx, {(6, 0, 0): 1, (0, 5, 1): 2, (0, 1, 5): 1,
                       (1, 4, 1): 3}, 6))]
    found = 0
    for f, e in cases:
        base = f.ctx
        ctx = field_create(base.p, base.d * e)
        g = (f if ctx is base else f.embed(ctx)).mod()
        blocks = list(geom._restriction_blocks(g, base.q, e))
        reference = list(log_restriction_blocks(g, base.q, e))
        assert len(blocks) == len(reference)
        hit = False
        for (R, skip), (L, log_skip) in zip(blocks, reference):
            assert np.array_equal(R, _log_digits(ctx, L)), (f, e)
            assert np.array_equal(skip, log_skip)
            ok = geom._unit_times_square(ctx, R)
            assert np.array_equal(ok, log_unit_times_square(ctx, L)), (f, e)
            hit |= ok.any()
        found += hit
    assert 2 * found > len(cases)  # most cases have a line that passes


def test_search_keeps_lines_over_two_unnested_subfields():
    # F_9 and F_27 lie in F_729 but not in each other, so a line (a, b, 1)
    # with a in F_9 and b in F_27, neither in F_3, is defined over F_729
    # only: the search over F_729 from the base F_3 must test it
    rng = random.Random(606)
    ctx = field_create(3, 6)
    g = ctx.from_enc(int(zech_tables(ctx)[0][1]))  # exp[1]
    vec = (g ** 91, g ** 28, ctx.one())  # of orders 8 and 26
    f = (_random_form(ctx, 3, rng).square()
         + line_form(ctx, vec) * _random_form(ctx, 5, rng))
    assert tuple(c.v for c in vec) in [
        geom._line_at(ctx, i) for i in geom._candidate_lines(f.mod(), 3, 6)]


def test_digit_square_test_matches_scalar_split():
    # on restrictions built as u (t^j h)^2, with their coefficients
    # perturbed, as t times a square and at random, the u*h^2 verdicts equal
    # the log reference and the scalar split _square_split
    rng = random.Random(89)
    for p, d in ((3, 1), (7, 1), (101, 1), (3, 2), (5, 2), (3, 4), (11, 2)):
        ctx = field_create(p, d)
        zero, columns = ctx.zero(), []

        def rand(nonzero=False):
            return ctx.from_enc(rng.randrange(1 if nonzero else 0, ctx.q))

        for j in range(4):
            for _ in range(6):
                h = BinaryForm(ctx, [zero] * j
                               + [rand() for _ in range(4 - j)])
                c = list(bf_scale(bf_mul(h, h), rand(True)).coeffs)
                columns.append(c)
                i = rng.randrange(7)
                columns.append(c[:i] + [c[i] + rand(True)] + c[i + 1:])
                columns.append([zero] + c[:6])
        columns += [[rand() for _ in range(7)] for _ in range(40)]
        columns.append([zero] * 7)
        R = digits(ctx, np.array([[c.to_int() for c in col]
                                  for col in columns]).T)
        log = zech_tables(ctx)[1]
        logs = np.array([[log[c.to_int()] for c in col]
                         for col in columns]).T
        ok = geom._unit_times_square(ctx, R)
        assert np.array_equal(ok, log_unit_times_square(ctx, logs))
        want = [any(not c.is_zero() for c in col) and _square_split(
            ctx, [c.v for c in col]) is not None for col in columns]
        assert ok.tolist() == want, (p, d)
        assert 0 < ok.sum() < len(columns)


def test_search_above_zech_limit_raises(monkeypatch):
    # every field is checked before any is searched: F_2053 is within the
    # limit, F_(2053^2) (q = 4214809) is not, and nothing is built
    def never(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(geom, "_candidate_lines", never)
    base = FieldCtx(2053, 1)
    built = zech_tables.cache_info().currsize
    f6 = _mod(base, {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1}, 6).mod()
    with pytest.raises(AssertionError, match="search started"):
        find_tritangents(f6, 1)
    with pytest.raises(BudgetExceededError, match="F_4214809.*4194304"):
        find_tritangents(f6, 2, deep=True)
    assert zech_tables.cache_info().currsize == built
    big = field_create(4194319, 1)  # a prime above the default limit 2^22
    with pytest.raises(BudgetExceededError, match=str(1 << 22)):
        find_tritangents(_mod(big, {(6, 0, 0): 1, (0, 0, 6): 1}, 6).mod(), 1)


def test_search_above_desk_budget_raises(monkeypatch):
    # q^2 above MANDATORY_Q2_LIMIT is refused before any line is tested,
    # unless deep is set; every field of the search is checked first
    def never(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(geom, "_candidate_lines", never)
    fermat = {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1}
    f6 = _mod(field_create(1000003, 1), fermat).mod()
    with pytest.raises(BudgetExceededError, match="--deep"):
        find_tritangents(f6, 1)
    with pytest.raises(AssertionError, match="search started"):
        find_tritangents(f6, 1, deep=True)
    # F_31^4 (q^2 = 31^8) is beyond the budget, F_31^2 and F_31^3 are not
    with pytest.raises(BudgetExceededError, match="F_923521"):
        find_tritangents(_mod(field_create(31, 1), fermat).mod(), 4)


def test_search_refused_before_any_field_is_built(monkeypatch):
    # the limits are checked on q = p^e in order of e before any field is
    # built: F_(5^7) (q^2 above the desk budget) and, with deep, F_(5^10)
    # (above the Zech limit) are refused without a search for a modulus of
    # any degree up to 40
    built = []

    def recording(p, d):
        built.append(d)
        return field_create(p, d)

    monkeypatch.setattr(geom, "field_create", recording)
    f6 = reduce_mod(IntForm(data.F6_A), field_create(5, 1))
    with pytest.raises(BudgetExceededError, match="F_78125 tests"):
        find_tritangents(f6, 40)
    with pytest.raises(BudgetExceededError, match="F_9765625 needs Zech"):
        find_tritangents(f6, 40, deep=True)
    assert built == []


@pytest.mark.deep
def test_searches_within_desk_budget_run():
    # the largest searches below the budget (about 0.5 s and 1.1 s on a
    # 2-core VM) need no deep
    for p, e in ((1009, 1), (31, 2)):
        ctx = field_create(p, 1)
        f6 = reduce_mod(IntForm(data.F6_C), ctx)
        for cert in find_tritangents(f6, e):
            assert cert.line_field_degree <= e


# -- decomposition ------------------------------------------------------------


def test_decompose_surface_b_along_x():
    f6 = IntForm(data.F6_B)
    f3, f5 = decompose_along_line(f6, (1, 0, 0), 3)
    F3 = field_create(3, 1)
    lhs = reduce_mod(f3 * f3 + IntForm({(1, 0, 0): 1}) * f5, F3)
    assert lhs == reduce_mod(f6, F3)
    assert all(0 <= c < 3 for c in f3.coeffs.values())
    assert all(0 <= c < 3 for c in f5.coeffs.values())
    # the published pair also satisfies the identity (decomposition is not
    # unique); verified as a check, not required as output
    k3, k5 = IntForm(data.F3_B_KNOWN), IntForm(data.F5_B_KNOWN)
    lhs2 = reduce_mod(k3 * k3 + IntForm({(1, 0, 0): 1}) * k5, F3)
    assert lhs2 == reduce_mod(f6, F3)


def test_decompose_surface_c_along_tritangent():
    f6 = IntForm(data.F6_C)
    f3, f5 = decompose_along_line(f6, (1, 1, 1), 3)
    F3 = field_create(3, 1)
    ell = IntForm({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert reduce_mod(f3 * f3 + ell * f5, F3) == reduce_mod(f6, F3)
    # the published pair verifies too
    k3, k5 = IntForm(data.F3_C_KNOWN), IntForm(data.F5_C_KNOWN)
    assert reduce_mod(k3 * k3 + ell * k5, F3) == reduce_mod(f6, F3)


def test_decompose_synthetic_roundtrip():
    rng = random.Random(29)
    p = 7
    F7 = field_create(p, 1)
    for _ in range(5):
        f3 = IntForm({(a, b, 3 - a - b): rng.randrange(p)
                      for a in range(4) for b in range(4 - a)}, 3)
        f5 = IntForm({(a, b, 5 - a - b): rng.randrange(p)
                      for a in range(6) for b in range(6 - a)}, 5)
        ell_vec = (1, rng.randrange(p), rng.randrange(p))
        ell = IntForm({(1, 0, 0): ell_vec[0], (0, 1, 0): ell_vec[1],
                       (0, 0, 1): ell_vec[2]}, 1)
        f6 = f3 * f3 + ell * f5
        if reduce_mod(f6, F7).is_zero():
            continue
        try:
            g3, g5 = decompose_along_line(f6, ell_vec, p)
        except MathError:
            continue  # the constructed f3 may restrict to zero on the line
        assert reduce_mod(g3 * g3 + ell * g5, F7) == reduce_mod(f6, F7)
        # two valid decompositions differ by the line dividing f3^2 - g3^2
        d = reduce_mod(f3 * f3 - g3 * g3, F7)
        if not d.is_zero():
            assert restrict_to_line_ref(
                ObjForm.of(d), tuple(F7.from_int(c) for c in ell_vec)).is_zero()


def test_decompose_rejects_non_tangent():
    f6 = IntForm(data.F6_A)
    with pytest.raises(MathError):
        decompose_along_line(f6, (1, 0, 0), 5)  # x = 0 is not a tritangent


def _random_form(ctx, degree, rng, density=1.0):
    return ObjForm(ctx, {(a, b, degree - a - b):
                         ctx.from_enc(rng.randrange(ctx.q))
                         for a in range(degree + 1)
                         for b in range(degree + 1 - a)
                         if density == 1.0 or rng.random() < density}, degree)


def test_decomposition_matches_coordinate_change_oracle():
    # on f3^2 + l*f5 with random f3, f5 and l, the decomposition from the
    # split in the line's own coordinates equals the reference that moves
    # the line to x and restricts and splits again: decompose_along_line
    # for lines over F_p, and the certificates of find_tritangents for
    # lines over F_p and F_{p^2}
    rng = random.Random(71)
    compared = 0
    for p in (3, 5, 7, 11, 13):
        for d in (1, 2):
            ctx = field_create(p, d)
            for _ in range(4 if d == 1 else 2):
                vec = (0, 0, 0)
                while all(c == 0 for c in vec):
                    vec = tuple(rng.randrange(ctx.q) for _ in range(3))
                line = tuple(ctx.from_enc(c) for c in vec)
                f6 = (_random_form(ctx, 3, rng).square()
                      + line_form(ctx, line) * _random_form(ctx, 5, rng))
                if f6.is_zero() or restrict_to_line_ref(f6, line).is_zero():
                    continue
                want = decompose_mod_line(f6, line)
                if d == 1:
                    assert decompose_along_line(f6.lift(), vec, p) == tuple(
                        g.lift() for g in want)
                certs = find_tritangents(f6.mod(), 1)
                last = next(c for c in reversed(line) if not c.is_zero())
                assert tuple((c / last).v for c in line) in {
                    c.line for c in certs}
                for cert in certs:
                    if cert.f3 is not None:
                        assert (cert.f3, cert.f5) == tuple(
                            g.mod() for g in decompose_mod_line(
                                f6, _elems(ctx, cert.line)))
                        compared += 1
    assert compared >= 30


def test_one_square_split_per_tritangent(monkeypatch):
    # find_tritangents restricts and splits each line that the array test
    # finds once; the decomposition reuses that split
    calls = []
    split = geom._square_split

    def counting(ctx, g):
        calls.append(g)
        return split(ctx, g)

    monkeypatch.setattr(geom, "_square_split", counting)
    cases = [(reduce_mod(IntForm(f), field_create(p, 1)), 2)
             for f, p in ((data.F6_A, 5), (data.F6_B, 3), (data.F6_C, 3))]
    F7 = field_create(7, 1)
    cases.append((_mod(F7, {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1}).mod(),
                  2))
    rational = 0
    for f6, e in cases:
        calls.clear()
        certs = find_tritangents(f6, e)
        assert certs and len(calls) == len(certs)
        rational += sum(c.f3 is not None for c in certs)
    assert rational > 0


def test_principal_square_root_matches_factoring():
    # the closed form (u^((q+1)/4), or Tonelli-Shanks when q = 1 mod 4)
    # picks the root of t^2 - u with the smaller encoding
    def by_factoring(u):
        roots = poly_roots(Poly(u.ctx, [-u, u.ctx.zero(), u.ctx.one()]))
        return roots[0][0] if roots else None

    for p, d in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2),
                 (3, 4)):
        ctx = field_create(p, d)
        squares = {x * x for x in elements(ctx)}
        for u in elements(ctx):
            if u in squares:
                assert ffield._sqrt_in_field(ctx, u.v) == by_factoring(u).v, (
                    p, d, u)
            else:
                with pytest.raises(MathError, match="not a square"):
                    ffield._sqrt_in_field(ctx, u.v)
    rng = random.Random(41)
    # 1000033 = 1 (mod 4) takes the Tonelli-Shanks path at a large prime
    for p in (1000003, 1000033, (1 << 31) - 1):
        ctx = field_create(p, 1)
        for _ in range(10):
            x = ctx.from_enc(rng.randrange(1, p))
            assert ffield._sqrt_in_field(ctx, (x * x).v) == by_factoring(
                x * x).v, p


# -- conic identities ---------------------------------------------------------


def test_conic_identities_surface_c():
    f6 = IntForm(data.F6_C)
    c1 = ConicCert(scale=data.CONIC1_C, q2=IntForm(data.CONIC1_Q2),
                   q3=IntForm(data.CONIC1_Q3), q4=IntForm(data.CONIC1_Q4))
    c2 = ConicCert(scale=data.CONIC2_C, q2=IntForm(data.CONIC2_Q2),
                   q3=IntForm(data.CONIC2_Q3), q4=IntForm(data.CONIC2_Q4))
    assert verify_conic_identity(c1, f6)
    assert verify_conic_identity(c2, f6)
    # each part of the identity matters: one coefficient more in any of
    # scale, q2, q3 and q4 breaks it
    for change in ({"scale": c1.scale + 1},
                   {"q2": c1.q2 + IntForm({(1, 1, 0): 1}, 2)},
                   {"q3": c1.q3 + IntForm({(0, 3, 0): 1}, 3)},
                   {"q4": c1.q4 + IntForm({(0, 0, 4): 1}, 4)}):
        perturbed = dataclasses.replace(c1, **change)
        assert not verify_conic_identity(perturbed, f6), change


# -- split curves and their intersection numbers ------------------------------


@functools.lru_cache(maxsize=None)
def _split_surfaces():
    """Seeded f6 = s q3^2 + q2 q4 at p = 5 and 7, smooth mod p, with q2
    smooth mod p and a tritangent over F_p with rational splits, four with
    s a square mod p and four with s a non-square: (p, conic certificate,
    f6)."""
    rng = random.Random(2026)
    found = {1: [], -1: []}
    while min(map(len, found.values())) < 4:
        p = rng.choice((5, 7))
        ctx = field_create(p, 1)
        s = rng.randrange(1, p)
        q2, q3, q4 = (_random_int_form(rng, d) for d in (2, 3, 4))
        f6 = IntForm({m: s * c for m, c in (q3 * q3).coeffs.items()}, 6) \
            + q2 * q4
        f = reduce_mod(f6, ctx)
        if (not f.is_zero() and smoothness_check(f).verdict == "smooth"
                and SplitCurve.from_conic("C", ConicCert(s, q2, q3, q4),
                                          p).phi is not None
                and any(c.split_field_degree == 1
                        for c in find_tritangents(f, 1))):
            found[quad_char(ctx.from_int(s))].append(
                (p, ConicCert(s, q2, q3, q4), f6))
    return found[1][:4] + found[-1][:4]


def _random_int_form(rng, degree):
    return IntForm({(a, b, degree - a - b): rng.randrange(-3, 4)
                    for a in range(degree + 1)
                    for b in range(degree + 1 - a)}, degree)


def _split_curves(p, conic, f6):
    certs = find_tritangents(reduce_mod(f6, field_create(p, 1)), 1)
    return [SplitCurve.from_conic("C", conic, p)] + [
        SplitCurve.from_tritangent(c.line_str(), c) for c in certs
        if c.split_field_degree == 1]


def _flipped(curve):
    """The same curve with its components swapped."""
    return dataclasses.replace(curve, half=IntForm(
        {m: -c % curve.p for m, c in curve.half.coeffs.items()}, 3))


def test_split_pairing_matches_oracle_over_the_quadratic_extension():
    # the integer-list pairing against root finding over F_(p^2); when one
    # scale is a square mod p and the other is not, Frobenius swaps the
    # components of one curve, so the oracle's X+ . Y+ and X+ . Y- agree
    decided = 0
    for p, conic, f6 in _split_surfaces():
        for X, Y in itertools.permutations(_split_curves(p, conic, f6), 2):
            fast, slow = split_pairing(X, Y), split_pairing_oracle(X, Y)
            if X.root[1] == Y.root[1]:
                assert fast == slow, (X.name, Y.name)
            elif slow is not None:
                assert fast == slow == split_pairing_oracle(X, _flipped(Y))
            decided += slow is not None
    assert decided >= 16


def test_split_pairing_sum_rule_and_symmetry():
    for p, conic, f6 in _split_surfaces():
        curves = _split_curves(p, conic, f6)
        for X, Y in itertools.combinations(curves, 2):
            same = split_pairing(X, Y)
            if same is not None:
                assert same + split_pairing(X, _flipped(Y)) == \
                    X.degree * Y.degree
                assert split_pairing(Y, X) in (None, same)
        G = class_matrix(curves)
        assert all(sum(G[0][1 + 2 * i:3 + 2 * i]) == 2 * X.degree
                   for i, X in enumerate(curves))


def _pair_invariants(curves, key):
    """For each pair of curves, by their keys: the unordered pair (X+ . Y+,
    X+ . Y-), which does not depend on the +- labels."""
    G = class_matrix(curves)
    return {frozenset((key(X), key(Y))): sorted(G[1 + 2 * i][1 + 2 * j:
                                                              3 + 2 * j])
            for i, X in enumerate(curves) for j, Y in enumerate(curves[:i])}


def test_class_matrix_invariant_under_coordinate_changes():
    # f6(M v) and the conic q2(M v), q3(M v), q4(M v) have the same
    # intersection numbers, the line l of f6 going to M^T l
    rng = random.Random(77)
    for n in range(20):
        p, conic, f6 = _split_surfaces()[n % 8]
        while True:
            M = [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(3)]
            det = round(np.linalg.det(np.array(M)))
            if det % p:
                break

        def key(curve, T=None):
            if curve.degree == 2:
                return "C"
            line = [curve.curve.coeffs.get(m, 0)
                    for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
            if T is not None:
                line = [sum(T[j][i] * line[j] for j in range(3)) % p
                        for i in range(3)]
            last = max(i for i in range(3) if line[i])
            return tuple(c * pow(line[last], -1, p) % p for c in line)

        moved = ConicCert(conic.scale, *(apply_int_matrix(f, M) for f in
                                         (conic.q2, conic.q3, conic.q4)))
        before = _pair_invariants(_split_curves(p, conic, f6),
                                  functools.partial(key, T=M))
        after = _pair_invariants(
            _split_curves(p, moved, apply_int_matrix(f6, M)), key)
        assert before == after, n


# -- smoothness ---------------------------------------------------------------


def _exhaustive_singular(f6: ObjForm, max_degree: int):
    """Oracle: scan P^2(F_{p^e}) directly for common zeros of f6 and its
    partials, using the vectorized chart evaluator."""
    base = f6.ctx
    polys = [f6] + [partial(f6, v) for v in range(3)]
    hits = []
    for e in range(1, max_degree + 1):
        ctx = field_create(base.p, base.d * e)
        for chart in (0, 1, 2):
            mask = None
            for g in polys:
                if g.is_zero():
                    continue
                logs = chart_value_logs(g.mod(), ctx, chart)
                zero = logs < 0
                mask = zero if mask is None else (mask & zero)
            idx = np.nonzero(mask)[0]
            if len(idx):
                pts = chart_points(ctx, chart)
                hits.extend((normalize_point(pts[i]), e) for i in idx)
        if hits:
            return hits
    return hits


def test_smoothness_surface_c():
    F3 = field_create(3, 1)
    f6 = reduce_mod(IntForm(data.F6_C), F3)
    assert smoothness_check(f6).verdict == "smooth"
    assert_good_reduction(IntForm(data.F6_C), 3)


def test_smoothness_x6_singular():
    F5 = field_create(5, 1)
    f6 = _mod(F5, {(6, 0, 0): 1})
    rep = smoothness_check(f6.mod())
    assert rep.verdict == "singular"
    assert rep.witness[0] == 0  # the witness lies on x = 0


def test_smoothness_fermat_sextic():
    F7 = field_create(7, 1)
    f6 = _mod(F7, {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1})
    assert smoothness_check(f6.mod()).verdict == "smooth"
    assert not _exhaustive_singular(f6, 2)


def test_smoothness_cube_of_conic():
    # all partials vanish mod 3; the singular locus is the conic itself
    F3 = field_create(3, 1)
    conic = _mod(F3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    f6 = conic * conic * conic
    rep = smoothness_check(f6.mod())
    assert rep.verdict == "singular"


def test_smoothness_node():
    # f6 with a double point at (0:0:1); the witness must satisfy the system
    F5 = field_create(5, 1)
    f6 = _mod(F5, {(2, 0, 4): 1, (0, 2, 4): 1, (6, 0, 0): 1, (0, 6, 0): 2})
    _assert_singular_witness(f6, smoothness_check(f6.mod()))
    # (0:0:1) itself is singular and within reach of the exhaustive oracle
    assert any(_pt_ints(pt) == (0, 0, 1) for pt, _ in _exhaustive_singular(f6, 1))


def test_smoothness_matches_exhaustive_on_random_sextics():
    rng = random.Random(61)
    for p in (3, 5):
        ctx = field_create(p, 1)
        for _ in range(20):
            coeffs = {}
            for a in range(7):
                for b in range(7 - a):
                    if rng.random() < 0.55:
                        coeffs[(a, b, 6 - a - b)] = rng.randrange(1, p)
            if not coeffs:
                continue
            f6 = _mod(ctx, coeffs, 6)
            rep = smoothness_check(f6.mod())
            found = _exhaustive_singular(f6, 3)
            if rep.verdict == "smooth":
                assert not found
            else:
                # the reported witness satisfies the whole system
                _assert_singular_witness(f6, rep)
                if rep.field.d <= 3:
                    assert found


def _assert_singular_witness(f6: ObjForm, rep):
    """The reported witness is a common zero of f6 and all its partials."""
    assert rep.verdict == "singular"
    wctx = rep.field
    femb = f6 if wctx is f6.ctx else f6.embed(wctx)
    pt = _elems(wctx, rep.witness)
    for g in [femb] + [partial(femb, v) for v in range(3)]:
        assert g.is_zero() or eval_form(g, pt).is_zero()


def _lines_product(ctx, lines):
    f = _mod(ctx, {(0, 0, 0): 1}, 0)
    for a, b, c in lines:
        f = f * _mod(ctx, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}, 1)
    return f


def test_smoothness_structured_singular_cases(monkeypatch):
    build = geom._macaulay_matrix
    cases = []
    # positive-dimensional singular locus: g^2 h with g, h conics
    for p in (5, 7):
        ctx = field_create(p, 1)
        g = _mod(ctx, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
        h = _mod(ctx, {(1, 1, 0): 1, (0, 0, 2): 2, (2, 0, 0): 3})
        cases.append(("g^2 h", g * g * h))
    # cube of a conic mod 3: every partial vanishes identically
    F3 = field_create(3, 1)
    conic = _mod(F3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    cases.append(("conic^3", conic * conic * conic))
    # conic times quartic: singular where they meet
    F7 = field_create(7, 1)
    cases.append(("conic*quartic",
                  _mod(F7, {(1, 0, 1): 1, (0, 2, 0): 6})
                  * _mod(F7, {(4, 0, 0): 1, (0, 4, 0): 2, (0, 0, 4): 3,
                              (2, 1, 1): 1})))
    for name, f6 in cases:
        rep = smoothness_check(f6.mod())
        assert _exhaustive_singular(f6, 2), name
        _assert_singular_witness(f6, rep)

    # six lines in general position: 15 rational nodes, none on x = 0,
    # with 15 distinct projections from (0 : 0 : 1), so no binary form of
    # degree 14 vanishes on them and the witness needs the degree-15 matrix
    # (on the Macaulay path, which the scan of P^2(F_23) otherwise spares)
    F23 = field_create(23, 1)
    f6 = _lines_product(F23, [(1, 21, 2), (1, 14, 22), (1, 17, 13),
                              (1, 12, 13), (1, 12, 4), (1, 15, 21)])
    hits = _exhaustive_singular(f6, 1)
    assert len(hits) == 15 and all(not pt[0].is_zero() for pt, _ in hits)
    scanned = smoothness_check(f6.mod())
    degrees = []

    def recording(system, degree, skip):
        degrees.append(degree)
        return build(system, degree, skip)

    monkeypatch.setattr(geom, "_macaulay_matrix", recording)
    monkeypatch.setattr(geom, "_SCAN_MAX_P", 0)
    rep = smoothness_check(f6.mod())
    _assert_singular_witness(f6, rep)
    assert (_elems(F23, rep.witness), 1) in hits and degrees == [14, 15]
    assert (scanned.field, scanned.witness) == (F23, rep.witness)
    monkeypatch.undo()

    # a node at (0 : 0 : 1) is returned as it is
    f6 = _mod(F7, {(1, 1, 4): 1, (6, 0, 0): 1, (0, 6, 0): 1, (5, 0, 1): 2})
    rep = smoothness_check(f6.mod())
    _assert_singular_witness(f6, rep)
    assert (rep.field, rep.witness) == (F7, (0, 0, 1))

    # nodes only at the conjugate points (1 : +-sqrt 2 : 0) over F_25
    F5 = field_create(5, 1)
    pair = _mod(F5, {(0, 2, 0): 1, (2, 0, 0): -2})
    f6 = (pair * pair * _mod(F5, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
          + _mod(F5, {(0, 0, 6): 1, (3, 0, 3): 1}))
    hits = _exhaustive_singular(f6, 2)
    assert {e for _, e in hits} == {2} and len(hits) == 2
    rep = smoothness_check(f6.mod())
    _assert_singular_witness(f6, rep)
    assert rep.field.d == 2 and (_elems(rep.field, rep.witness), 2) in hits


def test_scan_witness_matches_the_macaulay_path(monkeypatch):
    # at every prime up to the scan bound, smoothness_check gives the
    # witness and field degree of the Macaulay path (forced by a bound of
    # 0).  A node at an F_p-point is settled by the scan, without a matrix;
    # a singular point over F_(p^2) that precedes the first F_p-point in
    # witness order sends the sextic to the matrix: g^2 h with g meeting
    # x = 0 in a conjugate pair, and a conjugate pair of nodes over the
    # projection (1 : v0) with a rational node over (1 : v1), v0 < v1
    bound, build = geom._SCAN_MAX_P, geom._macaulay_matrix
    built = []

    def recording(*args):
        built.append(args[1])
        return build(*args)

    def never(*args):
        raise AssertionError("a Macaulay matrix was built")

    rng = random.Random(29)
    cases = []
    for p in filter(is_prime, range(3, bound + 1)):
        ctx = field_create(p, 1)

        def form(degree):
            return _mod(ctx, {m: rng.randrange(p)
                              for m in _monomials(degree)[0]}, degree)

        def lin(a, b, c):
            return _mod(ctx, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}, 1)

        n = next(t for t in range(2, p) if pow(t, (p - 1) // 2, p) == p - 1)
        for _ in range(2):
            # Y and Z vanish at (1 : v : w), then at (0 : 1 : w)
            v, w = rng.randrange(p), rng.randrange(p)
            for Y, Z in ((lin(-v, 1, 0), lin(-w, 0, 1)),
                         (lin(1, 0, 0), lin(0, -w, 1))):
                cases.append(("node", None, Y * Y * form(4)
                              + Y * Z * form(4) + Z * Z * form(4)))
        g = _mod(ctx, {(0, 2, 0): 1, (0, 0, 2): -n, **{
            m: rng.randrange(p) for m in ((2, 0, 0), (1, 1, 0), (1, 0, 1))}})
        cases.append(("x = 0 pair", (0, 1), g * g * form(2)))
        v0 = rng.randrange(p - 1)
        v1, w1 = rng.randrange(v0 + 1, p), rng.randrange(p)
        pair = (lin(-v0, 1, 0), _mod(ctx, {(0, 0, 2): 1, (2, 0, 0): -n}))
        node = (lin(-v1, 1, 0), lin(-w1, 0, 1))
        f6 = _mod(ctx, {}, 6)
        for a, b in itertools.product(
                (pair[0] * pair[0], pair[0] * pair[1], pair[1] * pair[1]),
                (node[0] * node[0], node[0] * node[1], node[1] * node[1])):
            f6 = f6 + a * b * form(6 - a.degree - b.degree)
        cases.append(("pair before node", (1, v0), f6))
        cases.append(("conic*quartic", None, form(2) * form(4)))
    conic = _mod(field_create(3, 1),
                 {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    cases.append(("conic^3", (0, 1), conic * conic * conic))
    cases.append(("six lines", None, _lines_product(field_create(23, 1), [
        (1, 21, 2), (1, 14, 22), (1, 17, 13), (1, 12, 13), (1, 12, 4),
        (1, 15, 21)])))

    settled, handed_over = [], []
    for kind, projection, f6 in cases:
        monkeypatch.setattr(geom, "_SCAN_MAX_P", 0)
        monkeypatch.setattr(geom, "_macaulay_matrix", build)
        want = smoothness_check(f6.mod())
        monkeypatch.setattr(geom, "_SCAN_MAX_P", bound)
        # a witness over F_p is found by the scan, never by a matrix
        monkeypatch.setattr(geom, "_macaulay_matrix",
                            never if want.field.d == 1 else recording)
        built.clear()
        rep = smoothness_check(f6.mod())
        assert rep == want, (kind, f6)
        _assert_singular_witness(f6, rep)
        if rep.field.d == 1:
            settled.append(kind)
        else:
            assert built[:1] == [14], kind
        if projection is not None and rep.field.d == 2:
            # over the expected projection, where the scan (which found a
            # later F_p-point) handed over to the matrix
            assert rep.witness[:2] == projection, kind
            handed_over.append(kind)
    # most random nodes are the first singular point, and most conjugate
    # pairs come before the first F_p-point (10 primes up to 31)
    primes = sum(map(is_prime, range(3, bound + 1)))
    assert settled.count("node") >= 3 * primes
    assert handed_over.count("pair before node") >= primes - 2
    assert handed_over.count("x = 0 pair") >= primes - 2


def test_ported_witness_matches_the_object_reference(monkeypatch):
    # the witness search on coefficient encodings against the object
    # reference it replaced (oracles.singular_witness_ref), on the same
    # echelon forms: the same point over the same field, a common zero of
    # f6 and its partials; the scan of P^2(F_p) is off, so that the matrix
    # path runs at p <= 7 too
    monkeypatch.setattr(geom, "_SCAN_MAX_P", 0)
    rng = random.Random(18)
    degrees, compared = set(), 0
    for p in (3, 5, 7, 37, 41, 101):
        ctx = field_create(p, 1)
        for kind, f in singular_families(p, rng):
            f6 = reduce_mod(f, ctx)
            if f6.is_zero():
                continue
            rep = smoothness_check(f6)
            _assert_singular_witness(ObjForm.of(f6), rep)
            system, skip = geom._smoothness_system(f6)
            if not any(coeffs[0] for _, coeffs in system):
                continue  # (0 : 0 : 1), returned before any matrix

            def z_free(degree):
                _, rows, pivots = geom._reduced_echelon(system, degree, skip,
                                                        p)
                return z_free_forms_ref(ctx, rows, pivots, degree)

            polys = [_mod(ctx, dict(zip(_monomials(e)[0], c.tolist())), e)
                     for e, c in system]
            want = normalize_point(singular_witness_ref(polys, z_free(14),
                                                        z_free))
            assert (rep.field, rep.witness) == \
                (want[0].ctx, tuple(c.v for c in want)), (p, kind)
            degrees.add(rep.field.d)
            compared += 1
    assert compared >= 30 and len(degrees) >= 2, (compared, degrees)


def test_witness_over_quadratic_extension_splits_in_few_steps(monkeypatch):
    # g^2 h with g(0, y, z) irreducible over F_p: the witness lies on x = 0
    # over F_(p^2), where the root finder must not try x + c for every c
    # in F_p (those never split Frobenius conjugates); the witnesses were
    # recorded before the change of candidates, which at p = 4231 took
    # 4236 modular powers of polynomials
    calls = []
    powmod = ffield._fq_powmod

    def counting(ctx, a, n, m):
        calls.append(n)
        return powmod(ctx, a, n, m)

    monkeypatch.setattr(ffield, "_fq_powmod", counting)
    g = IntForm({(2, 0, 0): 3, (1, 1, 0): -2, (1, 0, 1): 5, (0, 2, 0): 1,
                 (0, 1, 1): 1, (0, 0, 2): 2}, 2)
    h = IntForm({(2, 0, 0): 1, (1, 1, 0): 4, (1, 0, 1): -3, (0, 2, 0): -7,
                 (0, 1, 1): 2, (0, 0, 2): 5}, 2)
    for p, witness in ((101, (0, 1, 380)), (4231, (0, 1, 8596334))):
        calls.clear()
        rep = smoothness_check(reduce_mod(g * g * h, field_create(p, 1)))
        assert rep.verdict == "singular" and rep.field.d == 2
        assert rep.witness == witness
        assert len(calls) <= 10, (p, len(calls))


def test_witness_over_a_large_extension_asks_for_no_tables(tables_asked):
    # _binary_roots splits an irreducible factor over F_(p^e) with scalar
    # arithmetic: a witness over F_(5^9) leaves that field, with its
    # 1953124 units, without tables
    rng = random.Random(1)

    def form(degree):
        return IntForm({(a, b, degree - a - b): rng.randint(-4, 4)
                        for a in range(degree + 1)
                        for b in range(degree + 1 - a)}, degree)

    sextics = [form(3) * form(3) for _ in range(17)]
    rep = smoothness_check(reduce_mod(sextics[16], field_create(5, 1)))
    assert rep.verdict == "singular" and rep.field is field_create(5, 9)
    assert rep.witness == (1, 180324, 1431381)
    assert tables_asked == []


def test_smoothness_prime_bound(monkeypatch):
    # like point counting and the tritangent search, the smoothness test
    # stops at the Zech table limit 2^22: beyond it BudgetExceededError
    # comes before any matrix is built, and up to it a node at (0 : 0 : 1)
    # is returned without a matrix
    def never(*args):
        raise AssertionError("a Macaulay matrix was built")

    monkeypatch.setattr(geom, "_macaulay_matrix", never)
    node = {(1, 1, 4): 1, (6, 0, 0): 1, (0, 6, 0): 1}
    assert is_prime(4194319)
    f6 = _mod(field_create(_LARGEST_PRIME, 1), node)
    rep = smoothness_check(f6.mod())
    _assert_singular_witness(f6, rep)
    assert rep.witness == (0, 0, 1) and rep.field.d == 1
    for p in (4194319, (1 << 31) - 1):
        f6 = _mod(field_create(p, 1), node)
        with pytest.raises(BudgetExceededError, match=str(1 << 22)):
            smoothness_check(f6.mod())
    # only forms over the prime field are accepted
    F25 = field_create(5, 2)
    with pytest.raises(ValueError, match="prime field"):
        smoothness_check(_mod(F25, {(6, 0, 0): 1, (0, 6, 0): 1,
                                    (0, 0, 6): 1}).mod())


def _int_system(forms):
    """ObjForms over F_p as the (degree, coefficients) pairs of
    geom._smoothness_system."""
    return [(f.degree, np.array([f.coeffs[m].to_int() if m in f.coeffs else 0
                                 for m in _monomials(f.degree)[0]]))
            for f in forms]


def test_macaulay_matrix_rows_are_form_multiples():
    # each row is the coefficient vector of (monomial) * (form), with the
    # z-free monomials x^(14-i) y^i in the last 15 columns; the integer
    # partials of the smoothness system are those of the oracle partial
    F7 = field_create(7, 1)
    f6 = _mod(F7, {(6, 0, 0): 1, (0, 6, 0): 3, (0, 0, 6): 1, (2, 2, 2): 5,
                   (1, 0, 5): 2, (3, 3, 0): 4})
    system = [f6] + [partial(f6, v) for v in range(3)]
    generators, skip = geom._smoothness_system(f6.mod())
    assert skip is None and [(e, c.tolist()) for e, c in generators] == \
        [(e, c.tolist()) for e, c in _int_system(system[1:])]
    mat = _macaulay_matrix(_int_system(system), 14)
    monos, index = _monomials(14)
    assert mat.shape == (45 + 3 * 55, 120)
    assert monos[-15:] == tuple((14 - i, i, 0) for i in range(15))
    expected = []
    for f in system:
        for mult in _monomials(14 - f.degree)[0]:
            prod = f * _mod(F7, {mult: 1}, 14 - f.degree)
            row = [0] * 120
            for m, c in prod.coeffs.items():
                row[index[m]] = c.to_int()
            expected.append(row)
    assert mat.tolist() == expected


def _assert_echelon_matches_oracle(mat, p):
    rows, pivots = _row_echelon(mat, p)
    want_rows, want_pivots = row_echelon(mat, p)
    assert pivots == want_pivots
    assert rows.dtype == want_rows.dtype and np.array_equal(rows, want_rows)


def _lazy_threshold_primes(ncols, bits):
    """The largest prime with p + ncols*(p-1)^2 < 2^bits and the next
    prime: for bits = 15 and 31, the last primes of int16 and int32
    elimination and the first beyond."""
    p = math.isqrt(((1 << bits) - 1) // ncols) + 1
    while p + ncols * (p - 1) ** 2 >= 1 << bits or not is_prime(p):
        p -= 1
    q = p + 1
    while not is_prime(q):
        q += 1
    assert q + ncols * (q - 1) ** 2 >= 1 << bits
    return p, q


def test_lazy_row_echelon_matches_oracle():
    # rows and pivots equal those of the eagerly reduced elimination on
    # Macaulay matrices of random, sparse and singular sextics, up to the
    # largest prime below the Zech table limit, and on rank-deficient
    # matrices
    rng = random.Random(7)
    monos = _monomials(6)[0]
    for p in (3, 5, 7, 11, 1000003, _LARGEST_PRIME):
        ctx = field_create(p, 1)

        def rand_form(degree, density=1.0):
            return _mod(ctx, {m: rng.randrange(p) for m in _monomials(degree)[0]
                              if rng.random() < density}, degree)

        g = rand_form(2)
        sextics = [rand_form(6), rand_form(6), rand_form(6, 0.25),
                   g * g * rand_form(2), rand_form(2) * rand_form(4),
                   _mod(ctx, {m: rng.randrange(p) for m in monos
                              if m[2] < 5}, 6)]  # node at (0 : 0 : 1)
        for f6 in sextics:
            if f6.is_zero():
                continue
            system = [f6] + [h for h in (partial(f6, v) for v in range(3))
                             if not h.is_zero()]
            _assert_echelon_matches_oracle(macaulay_matrix(system, 14), p)
        for nrows, ncols, rank in ((40, 30, 12), (25, 60, 25), (60, 120, 45)):
            left = np.array([[rng.randrange(p) for _ in range(rank)]
                             for _ in range(nrows)], dtype=object)
            right = np.array([[rng.randrange(p) if rng.random() < 0.6 else 0
                               for _ in range(ncols)] for _ in range(rank)],
                             dtype=object)
            mat = (left @ right % p).astype(np.int64)
            mat[rng.randrange(nrows)] = 0
            assert len(row_echelon(mat, p)[1]) <= rank
            _assert_echelon_matches_oracle(mat, p)
    # the largest growth: every pivot subtracts (p-1)^2 from the entry in
    # column n-2 of the last row, whose reduced value the last column shows
    # after scaling; int64 holds it at the 120 columns of degree 14 and the
    # 496 of degree 30
    for degree in (14, 30):
        n = len(_monomials(degree)[0])
        _assert_echelon_matches_oracle(_growth_matrix(n, _LARGEST_PRIME),
                                       _LARGEST_PRIME)


def _growth_matrix(n, p):
    """(n-1) x n with n-2 pivots, each subtracting (p-1)^2 from the entry
    in column n-2 of the last row."""
    mat = np.zeros((n - 1, n), dtype=np.int64)
    mat[np.arange(n - 2), np.arange(n - 2)] = 1
    mat[:, n - 2] = mat[-1, :n - 2] = p - 1
    mat[-1, n - 1] = 1
    return mat


def test_row_echelon_dtype_boundaries_match_oracle():
    # the elimination runs in the narrowest of int16, int32 and int64 that
    # holds p + ncols*(p-1)^2: at the 120 columns of degree 14, int16 up
    # to p = 17 and int32 up to p = 4231
    assert [geom._elimination_dtype(p, 120) for p in (17, 19, 4231, 4241)] \
        == [np.int16, np.int32, np.int32, np.int64]
    rng = np.random.default_rng(13)
    fixed = (3, 5, 7, 17, 19, 23, 4231, 4241, 1000003)
    for degree in range(14, 31):
        n = len(_monomials(degree)[0])
        # the primes on both sides of the int16 and int32 bounds at this
        # width, and the largest prime the smoothness test takes
        edges = [q for bits in (15, 31)
                 for q in _lazy_threshold_primes(n, bits)] + [_LARGEST_PRIME]
        for p in edges + list(fixed if degree in (14, 30) else ()):
            # 24 rows of rank at most 10, a fifth of the entries of the
            # right factor zero
            left = rng.integers(0, p, (24, 10))
            right = rng.integers(0, p, (10, n)) * (rng.random((10, n)) < 0.8)
            mat = sum(np.outer(left[:, k], right[k]) % p
                      for k in range(10)) % p
            _assert_echelon_matches_oracle(mat, p)
        if degree in (14, 15, 30):
            for p in edges[:4]:
                _assert_echelon_matches_oracle(_growth_matrix(n, p), p)


def test_elimination_is_exact_up_to_the_zech_limit():
    # at the largest prime the smoothness test takes, in every degree it
    # eliminates in (14 to 30): the float64 division by a block of z-power
    # k in {5, 6} stays below 2^53, and the lazily reduced pivot loop below
    # the int64 maximum even over all the columns of the degree
    p = _LARGEST_PRIME
    assert is_prime(p) and not any(is_prime(n) for n in
                                   range(p + 1, DEFAULT_ZECH_LIMIT + 1))
    for degree in range(14, 31):
        for k in (5, 6):
            assert p + k * (degree - k + 1) * (p - 1) ** 2 < 1 << 53
        n = len(_monomials(degree)[0])
        assert p + n * (p - 1) ** 2 <= np.iinfo(np.int64).max
        assert geom._elimination_dtype(p, n) is np.int64


def test_smoothness_matches_full_macaulay_oracle(monkeypatch):
    # smoothness_check leaves out the rows that Euler's identity makes
    # redundant, takes the multiples of a form with a unit z-power as a
    # triangular block, drops the rows that the block makes redundant and
    # eliminates only what is left; the full matrices (210 rows in degree
    # 14) reduced by the eager oracle in every degree give the same
    # verdict, witness and field degree.  The pivot loop sees the 65
    # columns of z-degree below 5 when a partial has a unit z^5 (p = 3:
    # fx or fy) and the 75 below z^6 for f6's block at p = 3; without a
    # unit z-power (then (0 : 0 : 1) is singular) it does not run.  The
    # scan of P^2(F_p) for a singular point, which can settle a sextic
    # before any matrix, must not change the witness either
    widths = []
    row_echelon_ = geom._row_echelon
    scan_max_p = geom._SCAN_MAX_P

    def recording(mat, p):
        widths.append(mat.shape[1])
        return row_echelon_(mat, p)

    monkeypatch.setattr(geom, "_row_echelon", recording)
    rng = random.Random(23)
    for p in (3, 5, 7, 11, 17, 19, 23, 101, 4231, 4241, 1000003,
              _LARGEST_PRIME):
        ctx = field_create(p, 1)

        def form(degree, keep=lambda m: True, density=1.0):
            return _mod(ctx, {m: rng.randrange(p)
                              for m in _monomials(degree)[0]
                              if keep(m) and rng.random() < density}, degree)

        sextics = [_mod(ctx, {m: 1}, 6) for m in ((6, 0, 0), (0, 0, 6))]
        for _ in range(3 if p <= 101 else 1):
            # g meets x = 0 in rational points, so the witness of g^2 h is
            # rational (over F_(p^2) beyond the Zech limit it takes seconds)
            g = _mod(ctx, {(0, 1, 1): 1, (2, 0, 0): rng.randrange(p),
                           (1, 1, 0): rng.randrange(p), (1, 0, 1): 1}, 2)
            f3 = form(3)
            sextics += [form(6), form(6, density=0.2), g * g * form(2),
                        form(6, lambda m: m[2] < 5),  # a node at (0 : 0 : 1)
                        form(6, lambda m: m[2] != 5),  # p = 3: f6's block
                        f3 * f3 + form(1) * form(5),
                        form(6, lambda m: m[0] == 0)]  # fx = 0
            if p == 3:  # every partial of a cube vanishes
                c = form(2)
                sextics += [c * c * c, c * c * c + form(6, density=0.1)]
        for f6 in sextics:
            if f6.is_zero():
                continue
            partials = [h for h in (partial(f6, v) for v in range(3))
                        if not h.is_zero()]
            if len(partials) == 3:
                generators, skip = geom._smoothness_system(f6.mod())
                assert _macaulay_matrix(generators, 14, skip).shape == \
                    (165, 120)
            want = macaulay_smoothness(f6)
            # with the scan of P^2(F_p) up to its bound, then on the
            # Macaulay path alone, whose pivot widths are checked below
            for bound in (scan_max_p, 0):
                monkeypatch.setattr(geom, "_SCAN_MAX_P", bound)
                widths.clear()
                rep = smoothness_check(f6.mod())
                assert _report(rep) == want, (p, bound, f6)
            z5 = any((0, 0, 5) in h.coeffs for h in partials)
            if not z5 and (p != 3 or (0, 0, 6) not in f6.coeffs):
                assert widths == [] and rep.witness == (0, 0, 1), (p, f6)
            else:
                assert widths[0] == (65 if z5 else 75), (p, f6)
