"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line per criterion (run with -s to see them live)."""

import json
import random
import time
from contextlib import contextmanager

import pytest

from k3cert.cli import run
from k3cert.count import CacheStore, count_points, count_series, trace_from_count
from k3cert.errors import CommonZeroOnLineError
from k3cert.ffield import field_create
from k3cert.forms import IntForm, _square_split, reduce_mod
from k3cert.geom import decompose_along_line, find_tritangents
from k3cert.lattice import gram_rank_disc
from k3cert.obstruct import (ConicCert, lifts_to_second_order,
                             verify_conic_identity)
from k3cert.zeta import (cyclotomic_part, determine_sign, newton_above_hodge,
                         predicted_count)

import data
from oracles import apply_int_matrix, unit_square_products
from test_cli import SURFACES
from test_obstruct import line_curve


@contextmanager
def criterion(n, detail):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL - {detail}")
        raise
    print(f"criterion {n}: PASS - {detail}")


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance") / "counts.jsonl"


@pytest.fixture(scope="module")
def series_a(cache_path):
    start = time.perf_counter()
    s = count_series(IntForm(data.F6_A), 5, 6, CacheStore(cache_path))
    return s, time.perf_counter() - start


@pytest.fixture(scope="module")
def series_b(cache_path):
    s = count_series(IntForm(data.F6_B), 3, 9, CacheStore(cache_path))
    return s


@pytest.fixture(scope="module")
def series_c(cache_path):
    s = count_series(IntForm(data.F6_C), 3, 9, CacheStore(cache_path))
    return s


@pytest.fixture(scope="module")
def traces_a(series_a):
    s, _ = series_a
    traces = s.traces()
    for d in (7, 8, 9, 10):
        traces.append(trace_from_count(data.COUNTS_A[d - 1], 5 ** d))
    return traces


@pytest.fixture(scope="module")
def traces_b(series_b):
    traces = series_b.traces()
    traces.append(trace_from_count(data.COUNTS_B[9], 3 ** 10))
    return traces


def k3_signs(traces, q, k):
    """The signs certify keeps: Weil-valid (determine_sign) and with the
    Newton polygon above the Hodge polygon (newton_above_hodge)."""
    return [(sign, P) for sign, P in determine_sign(traces, q=q, degree=22,
                                                    k=k)
            if newton_above_hodge(P)]


@pytest.fixture(scope="module")
def poly_a(traces_a):
    return k3_signs(traces_a, 5, 2)


@pytest.fixture(scope="module")
def poly_b(traces_b):
    return k3_signs(traces_b, 3, 2)


@pytest.fixture(scope="module")
def poly_c(series_c):
    return k3_signs(series_c.traces(), 3, 4)


def test_criterion_1_counts_surface_a(series_a):
    s, elapsed = series_a
    with criterion(1, f"p=5 counts d=1..6 exact in {elapsed:.1f}s"):
        assert s.counts() == data.COUNTS_A[:6]
        assert elapsed <= 300.0


def test_criterion_2_counts_surface_b(series_b, cache_path):
    with criterion(2, "p=3 counts d=1..9 exact; d=10 injected as external"):
        assert series_b.counts() == data.COUNTS_B[:9]
        # the d = 10 value rides in as an external injection (the deep
        # recomputation lives in the opt-in test below)
        ext = count_series(IntForm(data.F6_B), 3, 10, CacheStore(cache_path),
                           external={10: data.COUNTS_B[9]})
        assert ext.counts() == data.COUNTS_B
        assert ext.counts()[9] == 3486675052
        assert ext.sources[9] == "external"


@pytest.mark.deep
def test_criterion_2_deep_count_b_d10():
    start = time.perf_counter()
    rec = count_points(IntForm(data.F6_B), 3, 10, deep=True)
    elapsed = time.perf_counter() - start
    with criterion("2-deep", f"p=3 d=10 computed in {elapsed:.0f}s"):
        assert rec.N == 3486675052
        assert elapsed <= 1800.0


def test_criterion_3_char_poly_surface_a(poly_a):
    with criterion(3, "unique sign +1 and printed degree-20 factor, exact"):
        assert [s for s, _ in poly_a] == [1]
        P = poly_a[0][1]
        assert P.r_coeffs == tuple(data.R20_A)


def test_criterion_4_char_poly_surface_b(poly_b):
    with criterion(4, "printed (t-3)^2 * degree-20 polynomial, exact"):
        assert [s for s, _ in poly_b] == [1]
        assert poly_b[0][1].r_coeffs == tuple(data.R20_B)


def test_criterion_5_char_poly_surface_c(poly_c):
    with criterion(5, "own counts d=1..9, k=4: printed degree-18 factor"):
        assert [s for s, _ in poly_c] == [1]
        assert poly_c[0][1].r_coeffs == tuple(data.R18_C)


def test_criterion_6_rank_bounds(poly_a, poly_b, poly_c):
    with criterion(6, "cyclotomic rank bounds 2, 2, 4"):
        assert cyclotomic_part(poly_a[0][1]).cyclotomic_degree == 2
        assert cyclotomic_part(poly_b[0][1]).cyclotomic_degree == 2
        assert cyclotomic_part(poly_c[0][1]).cyclotomic_degree == 4


def test_criterion_7_tritangents():
    with criterion(7, "tritangent lines and contact points, exact"):
        F5 = field_create(5, 1)
        certs = find_tritangents(reduce_mod(IntForm(data.F6_A), F5), 1)
        target = [(0, 3, 1)]
        found = [c for c in certs if c.line == (0, 3, 1)]
        assert len(found) == 1
        pts = {pt for _, pt, _ in found[0].contact_points()}
        assert pts == {(1, 0, 0), (1, 3, 1), (0, 1, 2)}

        F3 = field_create(3, 1)
        certs_b = find_tritangents(reduce_mod(IntForm(data.F6_B), F3), 1)
        assert any(c.line == (1, 0, 0) for c in certs_b)
        certs_c = find_tritangents(reduce_mod(IntForm(data.F6_C), F3), 1)
        assert any(c.line == (1, 1, 1) for c in certs_c)


def test_criterion_8_conic_identities():
    with criterion(8, "both conic identities exact over Z; gram rank 3"):
        f6 = IntForm(data.F6_C)
        c1 = ConicCert(scale=data.CONIC1_C, q2=IntForm(data.CONIC1_Q2),
                       q3=IntForm(data.CONIC1_Q3), q4=IntForm(data.CONIC1_Q4))
        c2 = ConicCert(scale=data.CONIC2_C, q2=IntForm(data.CONIC2_Q2),
                       q3=IntForm(data.CONIC2_Q3), q4=IntForm(data.CONIC2_Q4))
        assert verify_conic_identity(c1, f6)
        assert verify_conic_identity(c2, f6)
        rank, _ = gram_rank_disc(data.GRAM_C)
        assert rank == 3


def test_criterion_9_obstructions_and_certificates(cache_path, series_b,
                                                   series_c, capsys):
    with criterion(9, "nonvanishing obstructions; rank 1 and rank 3 proved"):
        # surface C: unsolvable 7x6 system
        f3, f5 = decompose_along_line(IntForm(data.F6_C), (1, 1, 1), 3)
        rep_c = lifts_to_second_order(IntForm(data.F6_C),
                                      line_curve((1, 1, 1), f3, f5, 3))
        assert rep_c.verdict == "nonvanishing"
        assert len(rep_c.matrix) == 7 and len(rep_c.matrix[0]) == 6
        # surface B: the y^2 z^4 lift makes the obstruction bite
        f3b, f5b = decompose_along_line(IntForm(data.F6_B), (1, 0, 0), 3)
        assert lifts_to_second_order(IntForm(data.F6_B), line_curve(
            (1, 0, 0), f3b, f5b, 3)).verdict == "nonvanishing"
        # end-to-end certificates through the CLI, reusing the count cache
        code = run(["certify", "--spec", str(SURFACES / "rank1-p3.txt"),
                    "--prime", "3", "--cache", str(cache_path), "--json"])
        out_b = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out_b["verdict"] == "rank = 1 proved"
        code = run(["certify", "--spec", str(SURFACES / "rank3-conics.txt"),
                    "--prime", "3", "--cache", str(cache_path), "--json"])
        out_c = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out_c["verdict"] == "rank = 3 proved"


def test_criterion_10_property_suites(series_a, series_b, series_c,
                                      poly_a, poly_b, poly_c):
    sa, _ = series_a
    with criterion(10, "Weil bounds, count round-trips, invariances, "
                       "lattice and square-split property suites"):
        # trace/Weil bound on every computed count
        for series in (sa, series_b, series_c):
            for rec in series.records:
                assert abs(rec.trace) <= 22 * rec.q
        # predicted counts agree with every measured count
        Pa, Pb, Pc = poly_a[0][1], poly_b[0][1], poly_c[0][1]
        for d in range(1, 11):
            assert predicted_count(Pa, d) == data.COUNTS_A[d - 1]
        for rec in series_b.records:
            assert predicted_count(Pb, rec.d) == rec.N
        for rec in series_c.records:
            assert predicted_count(Pc, rec.d) == rec.N
        # obstruction verdict invariance: 20 lift perturbations
        rng = random.Random(2024)
        f6b = IntForm(data.F6_B)
        f3, f5 = decompose_along_line(f6b, (1, 0, 0), 3)
        base = lifts_to_second_order(
            f6b, line_curve((1, 0, 0), f3, f5, 3)).verdict
        for _ in range(20):
            d3 = IntForm({(a, b, 3 - a - b): rng.randrange(-5, 6)
                          for a in range(4) for b in range(4 - a)}, 3)
            d5 = IntForm({(a, b, 5 - a - b): rng.randrange(-5, 6)
                          for a in range(6) for b in range(6 - a)}, 5)
            g3, g5 = f3 + d3.scale(3), f5 + d5.scale(3)
            rep = lifts_to_second_order(
                f6b, line_curve((1, 0, 0), g3, g5, 3))
            assert rep.verdict == base
        # obstruction verdict invariance: 20 coordinate changes
        f6c = IntForm(data.F6_C)
        f3c, f5c = decompose_along_line(f6c, (1, 1, 1), 3)
        base_c = lifts_to_second_order(
            f6c, line_curve((1, 1, 1), f3c, f5c, 3)).verdict
        done = 0
        while done < 20:
            rows = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
            det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                   - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                   + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
            if det % 3 == 0:
                continue
            f6t = apply_int_matrix(f6c, rows)
            f3t = apply_int_matrix(f3c, rows)
            f5t = apply_int_matrix(f5c, rows)
            lt = tuple(sum(rows[i][j] for i in range(3)) % 3 for j in range(3))
            if all(c == 0 for c in lt):
                continue
            try:
                rep = lifts_to_second_order(
                    f6t, line_curve(lt, f3t, f5t, 3))
            except CommonZeroOnLineError:
                continue
            assert rep.verdict == base_c
            done += 1
        # adapted bases on 50 random valid chains
        from test_lattice import test_adapted_basis_fifty_random_chains
        test_adapted_basis_fifty_random_chains()
        # Smith form re-multiplication on 100 random matrices
        from test_lattice import test_snf_random_rectangular
        test_snf_random_rectangular()
        # perfect-square detection against exhaustive search for q <= 7
        for p in (3, 5, 7):
            ctx = field_create(p, 1)
            for _ in range(15):
                k = rng.randrange(1, 4)
                g = [rng.randrange(p) for _ in range(2 * k + 1)]
                if not any(g):
                    continue
                split = _square_split(ctx, g)
                assert (split is not None) == (tuple(g) in
                                               unit_square_products(p, k))
