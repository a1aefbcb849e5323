import itertools
import random

import pytest

from k3cert.errors import CommonZeroOnLineError, NotDivisibleError
from k3cert.ffield import field_create
from k3cert.forms import IntForm, reduce_mod
from k3cert.geom import decompose_along_line, smoothness_check
from k3cert.obstruct import (ConicCert, SplitCurve, lifts_to_second_order,
                             obstruction_G)

import data
from oracles import BinaryForm, apply_int_matrix, bf_add, bf_mul, bf_sub

LINE_X = (1, 0, 0)
LINE_C = (1, 1, 1)


def line_curve(line, f3, f5, p):
    """The split curve of a line, given by its coefficient triple, with
    f6 = f3^2 + l*f5 (mod p), holding the integer lifts f3 and f5 as they
    are given."""
    ell = IntForm(dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), line)), 1)
    return SplitCurve("L", p, 1, ell, f5, f3, 1)


def _with_G(G, line, f3, f5, p):
    """The sextic f3^2 + l*f5 + p*G, whose G along the line is G."""
    return f3 * f3 + line_curve(line, f3, f5, p).curve * f5 + G.scale(p)


def test_obstruction_g_trivial_cases():
    f3 = IntForm({(3, 0, 0): 1, (0, 3, 0): 2})
    f5 = IntForm({(0, 0, 5): 1, (2, 2, 1): 4})
    ell = IntForm({(1, 0, 0): 1})
    f6 = f3 * f3 + ell * f5
    curve = line_curve(LINE_X, f3, f5, 7)
    G = obstruction_G(f6, curve)
    assert G.is_zero()
    mono = IntForm({(2, 2, 2): 1})
    f6b = f6 + mono.scale(7)
    assert obstruction_G(f6b, curve) == mono
    with pytest.raises(NotDivisibleError):
        obstruction_G(f6 + IntForm({(2, 2, 2): 1}, 6), curve)


def test_surface_b_obstruction_nonvanishing():
    f6 = IntForm(data.F6_B)
    report = lifts_to_second_order(f6, line_curve(
        LINE_X, *decompose_along_line(f6, LINE_X, 3), 3))
    assert report.verdict == "nonvanishing"
    # G contains the monomial y^2 z^4 with unit coefficient: the printed
    # lift has it 3 mod 9, so G picks it up with coefficient 1 mod 3
    assert report.G.coeffs.get((0, 2, 4), 0) % 3 == 1
    assert len(report.matrix) == 7 and len(report.matrix[0]) == 6


def test_surface_b_obstruction_with_published_decomposition():
    # the published (f3, f5) pair gives the same verdict
    f6 = IntForm(data.F6_B)
    f3 = IntForm(data.F3_B_KNOWN)
    f5 = IntForm(data.F5_B_KNOWN)
    report = lifts_to_second_order(f6, line_curve(LINE_X, f3, f5, 3))
    assert report.verdict == "nonvanishing"


def test_surface_c_obstruction_nonvanishing():
    f6 = IntForm(data.F6_C)
    report = lifts_to_second_order(f6, line_curve(
        LINE_C, *decompose_along_line(f6, LINE_C, 3), 3))
    assert report.verdict == "nonvanishing"
    assert len(report.matrix) == 7 and len(report.matrix[0]) == 6


def _recombines(report, b3, c1):
    """Whether f3_bar b3 + f5_bar c1 = g_bar for the report's coefficient
    lists over F_p and binary forms b3 and c1."""
    f3_bar, f5_bar, g_bar = (BinaryForm.from_ints(b3.ctx, c) for c in (
        report.f3_bar, report.f5_bar, report.g_bar))
    return bf_add(bf_mul(f3_bar, b3), bf_mul(f5_bar, c1)) == g_bar


def test_surface_c_gbar_matches_published_class():
    # the published reduced class (variables x, y on the line x+y+z=0)
    # transported to this implementation's coordinates must agree up to the
    # ideal spanned by f3bar, f5bar
    F3 = field_create(3, 1)
    f3, f5 = decompose_along_line(IntForm(data.F6_C), LINE_C, 3)
    report = lifts_to_second_order(IntForm(data.F6_C),
                                   line_curve(LINE_C, f3, f5, 3))
    # transport: restrict_to_line parametrizes x+y+z = 0 as (-y-z, y, z)
    # in its parameters (y, z); substitute x = -(y+z) in the class
    pub = {}
    for (i, j), c in data.GBAR_C_XY.items():
        # (-(y+z))^i * y^j expanded into (y, z)
        term = {(0, 0): c}
        for _ in range(i):
            nxt = {}
            for (b, cc), v in term.items():
                nxt[(b + 1, cc)] = nxt.get((b + 1, cc), 0) - v
                nxt[(b, cc + 1)] = nxt.get((b, cc + 1), 0) - v
            term = nxt
        for (b, cc), v in term.items():
            pub[(b + j, cc)] = pub.get((b + j, cc), 0) + v
    pub_coeffs = [pub.get((6 - i, i), 0) % 3 for i in range(7)]
    pub_bar = BinaryForm.from_ints(F3, pub_coeffs)
    diff = bf_sub(BinaryForm.from_ints(F3, report.g_bar), pub_bar)
    # difference must lie in the span: solvable system with rhs = diff
    from k3cert.obstruct import _solve_mod_p
    rhs = [c.to_int() for c in diff.coeffs]
    assert _solve_mod_p(report.matrix, rhs, 3) is not None
    # with the published decomposition the reduced class agrees on the nose
    k3, k5 = IntForm(data.F3_C_KNOWN), IntForm(data.F5_C_KNOWN)
    report_pub = lifts_to_second_order(IntForm(data.F6_C),
                                       line_curve(LINE_C, k3, k5, 3))
    assert report_pub.g_bar == pub_coeffs
    assert report_pub.verdict == "nonvanishing"


def test_ideal_member_vanishes():
    rng = random.Random(11)
    p = 3
    for _ in range(5):
        f3 = IntForm({(a, b, 3 - a - b): rng.randrange(p)
                      for a in range(4) for b in range(4 - a)}, 3)
        f5 = IntForm({(a, b, 5 - a - b): rng.randrange(p)
                      for a in range(6) for b in range(6 - a)}, 5)
        cubic = IntForm({(a, b, 3 - a - b): rng.randrange(p)
                         for a in range(4) for b in range(4 - a)}, 3)
        lin = IntForm({(1, 0, 0): rng.randrange(p), (0, 1, 0): rng.randrange(p),
                       (0, 0, 1): rng.randrange(p)}, 1)
        ell = IntForm({(1, 0, 0): 1}, 1)
        quintic = IntForm({(a, b, 5 - a - b): rng.randrange(p)
                           for a in range(6) for b in range(6 - a)}, 5)
        anything = IntForm({(a, b, 6 - a - b): rng.randrange(p)
                            for a in range(7) for b in range(7 - a)}, 6)
        G = f3 * cubic + f5 * lin + ell * quintic + anything.scale(p)
        try:
            report = lifts_to_second_order(_with_G(G, LINE_X, f3, f5, p),
                                           line_curve(LINE_X, f3, f5, p))
        except CommonZeroOnLineError:
            continue
        assert report.verdict == "vanishes"
        b3, c1 = (BinaryForm.from_ints(field_create(p, 1), c)
                  for c in report.witness)
        assert _recombines(report, b3, c1)


def test_verdict_invariant_under_lift_perturbation():
    rng = random.Random(13)
    f6 = IntForm(data.F6_B)
    f3, f5 = decompose_along_line(f6, LINE_X, 3)
    base = lifts_to_second_order(f6, line_curve(LINE_X, f3, f5, 3)).verdict
    for _ in range(20):
        d3 = IntForm({(a, b, 3 - a - b): rng.randrange(-4, 5)
                      for a in range(4) for b in range(4 - a)}, 3)
        d5 = IntForm({(a, b, 5 - a - b): rng.randrange(-4, 5)
                      for a in range(6) for b in range(6 - a)}, 5)
        g3 = f3 + d3.scale(3)
        g5 = f5 + d5.scale(3)
        rep = lifts_to_second_order(f6, line_curve(LINE_X, g3, g5, 3))
        assert rep.verdict == base


def test_verdict_invariant_under_coordinate_change():
    rng = random.Random(17)
    p = 3
    f6 = IntForm(data.F6_C)
    f3, f5 = decompose_along_line(f6, LINE_C, p)
    ell = IntForm({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, 1)
    base = lifts_to_second_order(f6, line_curve(LINE_C, f3, f5, p)).verdict
    ctx = field_create(p, 1)
    done = 0
    while done < 20:
        rows = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
               - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
               + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
        if det % p == 0:
            continue
        f6t = apply_int_matrix(f6, rows)
        f3t = apply_int_matrix(f3, rows)
        f5t = apply_int_matrix(f5, rows)
        # the line transforms by the transpose action on coefficients
        lt = [sum(ell.coeffs.get(tuple(1 if t == i else 0 for t in range(3)), 0)
                  * rows[i][j] for i in range(3)) % p for j in range(3)]
        if all(c == 0 for c in lt):
            continue
        rep = lifts_to_second_order(f6t, line_curve(lt, f3t, f5t, p))
        assert rep.verdict == base
        done += 1


def test_brute_force_oracle_p3():
    # exhaustive enumeration of all candidate (b3, c1) pairs agrees with the
    # linear-algebra verdict
    F3 = field_create(3, 1)
    cases = []
    f6 = IntForm(data.F6_B)
    f3, f5 = decompose_along_line(f6, LINE_X, 3)
    cases.append((f6, LINE_X, f3, f5))
    f3c = IntForm({(3, 0, 0): 1, (0, 0, 3): 2, (0, 3, 0): 1})
    f5c = IntForm({(0, 5, 0): 1, (0, 0, 5): 1, (0, 3, 2): 2})
    cubic = IntForm({(0, 2, 1): 2, (0, 0, 3): 1}, 3)
    lin = IntForm({(0, 1, 0): 1}, 1)
    cases.append((_with_G(f3c * cubic + f5c * lin, LINE_X, f3c, f5c, 3),
                  LINE_X, f3c, f5c))
    for f6, line, a3, a5 in cases:
        report = lifts_to_second_order(f6, line_curve(line, a3, a5, 3))
        found = None
        for b3c in itertools.product(range(3), repeat=4):
            for c1c in itertools.product(range(3), repeat=2):
                b3 = BinaryForm.from_ints(F3, b3c)
                c1 = BinaryForm.from_ints(F3, c1c)
                if _recombines(report, b3, c1):
                    found = (b3, c1)
                    break
            if found:
                break
        assert (found is not None) == report.vanishes


def test_common_zero_is_a_distinct_error():
    # f3 and f5 built to share the zero (0:0:1) on the line x = 0
    f3 = IntForm({(0, 3, 0): 1, (1, 0, 2): 1}, 3)
    f5 = IntForm({(0, 5, 0): 1, (1, 0, 4): 2}, 5)
    G = IntForm({(0, 6, 0): 1}, 6)
    with pytest.raises(CommonZeroOnLineError):
        lifts_to_second_order(_with_G(G, LINE_X, f3, f5, 3),
                              line_curve(LINE_X, f3, f5, 3))


def _random_form(rng, degree, bound=3):
    return IntForm({(a, b, degree - a - b): rng.randint(-bound, bound)
                    for a in range(degree + 1)
                    for b in range(degree + 1 - a)}, degree)


def test_conic_obstruction_vanishes_on_conic_certificates():
    # a conic certificate is an identity over Z, so its split class lifts
    # to every order and the obstruction along the conic vanishes, by a
    # system of 13 equations in 12 unknowns; f6 + p*R keeps the split
    # mod p but shifts G by R, which usually blocks the lift
    f6 = IntForm(data.F6_C)
    for i, (s, q2, q3, q4) in enumerate((
            (data.CONIC1_C, data.CONIC1_Q2, data.CONIC1_Q3, data.CONIC1_Q4),
            (data.CONIC2_C, data.CONIC2_Q2, data.CONIC2_Q3, data.CONIC2_Q4)),
            start=1):
        cert = ConicCert(s, IntForm(q2), IntForm(q3), IntForm(q4))
        report = lifts_to_second_order(
            f6, SplitCurve.from_conic(f"C{i}", cert, 3))
        assert report.vanishes
        assert (len(report.matrix), len(report.matrix[0])) == (13, 12)
    rng = random.Random(33)
    for p in (3, 5, 7):
        ctx, kept, blocked = field_create(p, 1), 0, 0
        while kept < 5:
            cert = ConicCert(rng.randrange(1, p), *(
                _random_form(rng, d) for d in (2, 3, 4)))
            f6 = (cert.q3 * cert.q3).scale(cert.scale) + cert.q2 * cert.q4
            curve = SplitCurve.from_conic("C", cert, p)
            if (curve.phi is None
                    or smoothness_check(reduce_mod(f6, ctx)).verdict
                    != "smooth"):
                continue
            R = _random_form(rng, 6)
            report = lifts_to_second_order(f6 + R.scale(p * p), curve)
            assert report.vanishes, (p, kept)
            assert (len(report.matrix), len(report.matrix[0])) == (13, 12)
            blocked += not lifts_to_second_order(f6 + R.scale(p),
                                                 curve).vanishes
            kept += 1
        assert blocked, p
