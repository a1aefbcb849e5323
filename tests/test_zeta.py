import ast
import random
from pathlib import Path

import pytest

from k3cert.errors import InconsistentTracesError, MathError
from k3cert.zeta import (
    FrobeniusPoly,
    artin_tate_value,
    char_poly_from_traces,
    cyclotomic_part,
    cyclotomic_polynomial,
    determine_sign,
    elementary_from_power_sums,
    newton_above_hodge,
    poly_mul,
    poly_pow,
    power_sums_from_coeffs,
    predicted_count,
    scaled_cyclotomic,
)

import data


def _expected_poly(q, k, r_desc):
    return tuple(poly_mul(list(r_desc), poly_pow([1, -q], k)))


def test_trivial_no_traces():
    P = char_poly_from_traces([], q=5, degree=2, k=2, sign=1)
    assert P.coeffs == (1, -10, 25)
    assert P.r_coeffs == (1,)


def test_surface_a_polynomial_exact():
    P = char_poly_from_traces(data.TRACES_A, q=5, degree=22, k=2, sign=1)
    assert P.r_coeffs == tuple(data.R20_A)
    assert P.coeffs == _expected_poly(5, 2, data.R20_A)
    assert P.weil_valid


def test_surface_b_polynomial_exact():
    traces = [data.COUNTS_B[i] - 1 - 9 ** (i + 1) for i in range(10)]
    P = char_poly_from_traces(traces, q=3, degree=22, k=2, sign=1)
    assert P.r_coeffs == tuple(data.R20_B)


def test_surface_c_polynomial_exact():
    P = char_poly_from_traces(data.TRACES_C, q=3, degree=22, k=4, sign=1)
    assert P.r_coeffs == tuple(data.R18_C)


def test_surface_c_traces_consistent():
    # frozen traces match the printed degree-18 factor plus (t-3)^4
    full = _expected_poly(3, 4, data.R18_C)
    ps = power_sums_from_coeffs(list(full), 9)
    assert ps == data.TRACES_C
    assert [1 + t + 9 ** (i + 1) for i, t in enumerate(ps)] == data.COUNTS_C


def test_wrong_trace_count_rejected():
    with pytest.raises(ValueError):
        char_poly_from_traces(data.TRACES_A[:9], q=5, degree=22, k=2)


def test_inconsistent_traces_raise():
    bad = list(data.TRACES_A)
    bad[2] += 1
    with pytest.raises(InconsistentTracesError):
        char_poly_from_traces(bad, q=5, degree=22, k=2, sign=1)


def test_determine_sign_surface_a():
    res = determine_sign(data.TRACES_A, q=5, degree=22, k=2)
    assert [s for s, _ in res] == [1]
    assert res[0][1].r_coeffs == tuple(data.R20_A)


def test_determine_sign_synthetic_roundtrip():
    # build eigenvalues explicitly from scaled cyclotomics; the constructing
    # sign must survive and reproduce the polynomial exactly
    q = 7
    k = 2
    for ns, true_sign in [((3, 4, 4, 6, 5, 8, 12), 1),
                          ((1, 2, 3, 4, 6, 5, 8, 12), -1)]:
        r = [1]
        for n in ns:
            r = poly_mul(r, scaled_cyclotomic(n, q))
        full = poly_mul(r, poly_pow([1, -q], k))
        deg = len(full) - 1
        assert deg == 22
        n_ = deg - k
        assert all(r[n_ - i] == true_sign * q ** (n_ - 2 * i) * r[i]
                   for i in range(n_ // 2 + 1))
        traces = power_sums_from_coeffs(full, n_ // 2)
        res = dict(determine_sign(traces, q=q, degree=deg, k=k))
        assert true_sign in res
        assert res[true_sign].coeffs == tuple(full)


def test_determine_sign_ambiguous_zero_traces():
    res = determine_sign([0], q=5, degree=2, k=0)
    assert sorted(s for s, _ in res) == [-1, 1]
    polys = sorted(P.coeffs for _, P in res)
    assert polys == [(1, 0, -25), (1, 0, 25)]


def _frobenius(q, k, r_desc, sign=1):
    coeffs = poly_mul(list(r_desc), poly_pow([1, -q], k))
    return FrobeniusPoly(q=q, degree=len(coeffs) - 1, k=k, sign=sign,
                         coeffs=tuple(coeffs))


def test_weil_validate_cases():
    P = char_poly_from_traces(data.TRACES_A, q=5, degree=22, k=2, sign=1)
    assert P.weil_valid
    P22 = FrobeniusPoly(q=5, degree=22, k=22, sign=1,
                        coeffs=tuple(poly_pow([1, -5], 22)))
    assert P22.weil_valid
    bad = FrobeniusPoly(q=5, degree=22, k=21, sign=1,
                        coeffs=tuple(poly_mul(poly_pow([1, -5], 21), [1, -10])))
    assert not bad.weil_valid
    # an eigenvalue pair of multiplicity 3, which a floating-point root
    # test loses
    for q in (3, 5, 27):
        assert _frobenius(q, 16, poly_pow([1, 0, q * q], 3)).weil_valid
    # real roots off the circle, reciprocal with sign +1 and |P(0)| = q^n:
    # t^2 + 7t + 9 (roots (-7 +- sqrt 13)/2 at q = 3), alone and cubed next
    # to valid factors, and (t - 1)^2 (t - 25)^2 at q = 5
    assert not _frobenius(3, 0, [1, 7, 9]).weil_valid
    r = poly_mul(poly_pow([1, 7, 9], 3), poly_pow([1, 0, 9], 2))
    assert not _frobenius(3, 2, r).weil_valid
    assert not _frobenius(5, 0, poly_pow([1, -26, 25], 2)).weil_valid


def test_cyclotomic_part_values():
    Pa = char_poly_from_traces(data.TRACES_A, q=5, degree=22, k=2, sign=1)
    ra = cyclotomic_part(Pa)
    assert ra.cyclotomic_degree == 2
    assert ra.per_n == ((1, 2),)

    traces_b = [data.COUNTS_B[i] - 1 - 9 ** (i + 1) for i in range(10)]
    Pb = char_poly_from_traces(traces_b, q=3, degree=22, k=2, sign=1)
    assert cyclotomic_part(Pb).cyclotomic_degree == 2

    Pc = char_poly_from_traces(data.TRACES_C, q=3, degree=22, k=4, sign=1)
    assert cyclotomic_part(Pc).cyclotomic_degree == 4

    P22 = FrobeniusPoly(q=5, degree=22, k=22, sign=1,
                        coeffs=tuple(poly_pow([1, -5], 22)))
    assert cyclotomic_part(P22).cyclotomic_degree == 22


def test_artin_tate_values_of_the_bundled_surfaces():
    # q R1(q) / q^(22 - rho) at rho = the multiplicity of t = q: 5 for A
    # and B, det [[2, 1], [1, -2]] up to sign, and 72 for C
    Pa = char_poly_from_traces(data.TRACES_A, q=5, degree=22, k=2, sign=1)
    traces_b = [data.COUNTS_B[i] - 1 - 9 ** (i + 1) for i in range(10)]
    Pb = char_poly_from_traces(traces_b, q=3, degree=22, k=2, sign=1)
    Pc = char_poly_from_traces(data.TRACES_C, q=3, degree=22, k=4, sign=1)
    assert [artin_tate_value(P, rho) for P, rho in
            ((Pa, 2), (Pb, 2), (Pc, 4))] == [(5, 1), (5, 1), (72, 1)]
    # (t - 5)^2 (t + 5)^20: 5 * 10^20 / 5^20 = 5 * 2^20; t = 5 is not a
    # triple root
    P = FrobeniusPoly(q=5, degree=22, k=2, sign=1, coeffs=tuple(
        poly_mul(poly_pow([1, -5], 2), poly_pow([1, 5], 20))))
    assert artin_tate_value(P, 2) == (5 * 2 ** 20, 1)
    with pytest.raises(MathError):
        artin_tate_value(P, 3)


def test_cyclotomic_part_rejects_invalid():
    bad = FrobeniusPoly(q=5, degree=22, k=21, sign=1,
                        coeffs=tuple(poly_mul(poly_pow([1, -5], 21), [1, -10])))
    with pytest.raises(MathError):
        cyclotomic_part(bad)


def test_cyclotomic_part_invariant_under_functional_involution():
    # the involution R(t) -> t^n R(q^2/t) / (sign q^n) permutes the
    # eigenvalues by lambda -> q^2/lambda; the rank bound cannot change
    for traces, q, k in [(data.TRACES_C, 3, 4), (data.TRACES_A, 5, 2)]:
        P = char_poly_from_traces(traces, q=q, degree=22, k=k, sign=1)
        n = 22 - k
        r = list(P.r_coeffs)
        raw = [r[n - j] * q ** (2 * j) for j in range(n + 1)]  # t^n R(q^2/t)
        div = P.sign * q ** n
        assert all(c % div == 0 for c in raw)
        r_star = [c // div for c in raw]
        P_star = FrobeniusPoly(q=q, degree=22, k=k, sign=P.sign,
                               coeffs=tuple(poly_mul(r_star, poly_pow([1, -q], k))))
        assert cyclotomic_part(P_star) == cyclotomic_part(P)


def test_predicted_count_examples():
    Pa = char_poly_from_traces(data.TRACES_A, q=5, degree=22, k=2, sign=1)
    assert predicted_count(Pa, 7) == 6103312501
    assert predicted_count(Pa, 1) == 41
    for d in range(1, 11):
        assert predicted_count(Pa, d) == data.COUNTS_A[d - 1]
    P22 = FrobeniusPoly(q=5, degree=22, k=22, sign=1,
                        coeffs=tuple(poly_pow([1, -5], 22)))
    assert predicted_count(P22, 1) == 1 + 22 * 5 + 25


def test_newton_roundtrip_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(1, 23)
        roots = [rng.randrange(-9, 10) for _ in range(n)]
        poly = [1]
        for r in roots:
            poly = poly_mul(poly, [1, -r])
        ps = power_sums_from_coeffs(poly, n)
        e = elementary_from_power_sums(ps)
        rebuilt = [(-1) ** i * e[i] for i in range(n + 1)]
        assert rebuilt == poly


def test_negative_sign_needs_zero_middle():
    # with sign -1 the middle coefficient must vanish
    with pytest.raises(InconsistentTracesError):
        char_poly_from_traces(data.TRACES_A, q=5, degree=22, k=2, sign=-1)


def test_cyclotomic_polynomials_sanity():
    assert cyclotomic_polynomial(1) == (1, -1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert scaled_cyclotomic(4, 3) == [1, 0, 9]


@pytest.mark.parametrize("r_desc", [
    # (t+3)^4 (t^2+9)^8 and (t^2+9)^3 (t^2-2t+9)^7: eigenvalues of
    # multiplicity up to 8, which a floating-point root test loses
    poly_mul(poly_pow([1, 3], 4), poly_pow([1, 0, 9], 8)),
    poly_mul(poly_pow([1, 0, 9], 3), poly_pow([1, -2, 9], 7)),
])
def test_repeated_eigenvalues_keep_their_sign(r_desc):
    full = poly_mul(r_desc, poly_pow([1, -3], 2))
    traces = power_sums_from_coeffs(full, 10)
    res = dict(determine_sign(traces, q=3, degree=22, k=2))
    assert 1 in res
    assert res[1].coeffs == tuple(full)
    assert cyclotomic_part(res[1]).cyclotomic_degree >= 2
    for d in range(1, 12):
        assert predicted_count(res[1], d) == 1 + power_sums_from_coeffs(
            full, d)[-1] + 9 ** d


def test_weil_check_matches_construction():
    # products of factors t -+ q, t^2 - a t + q^2 with |a| < 2q (roots on
    # |t| = q) and |a| > 2q (real roots off it); valid exactly when no
    # factor of the last kind is used
    rng = random.Random(11)
    for _ in range(400):
        q = rng.choice([3, 5, 7, 9, 25])
        r, sign, valid = [1], 1, True
        for _ in range(rng.randrange(0, 11)):
            u = rng.random()
            if u < 0.7:
                r = poly_mul(r, [1, -rng.randrange(1 - 2 * q, 2 * q), q * q])
            elif u < 0.85:
                root = rng.choice([q, -q])
                r, sign = poly_mul(r, [1, -root]), sign * (-1 if root > 0 else 1)
            else:
                a = rng.choice([1, -1]) * (2 * q + rng.randrange(1, 5))
                r, valid = poly_mul(r, [1, -a, q * q]), False
        assert _frobenius(q, 0, r, sign).weil_valid == valid, (q, r)
        assert not _frobenius(q, 0, r, -sign).weil_valid


def test_zeta_imports_no_floating_point_code():
    tree = ast.parse((Path(__file__).parents[1] / "src" / "k3cert"
                      / "zeta.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    assert not names & {"numpy", "fractions"}


def test_newton_above_hodge_rejects_perturbed_counts():
    # every count N_d, d <= m, of the three surfaces moved by +-1 .. +-81:
    # where a sign still passes the Weil check, its polynomial dips below
    # the Hodge polygon; the true polynomials do not
    survived = 0
    for counts, q, k in ((data.COUNTS_A, 5, 2), (data.COUNTS_B, 3, 2),
                         (data.COUNTS_C, 3, 4)):
        m = (22 - k) // 2
        traces = [counts[i] - 1 - q ** (2 * i + 2) for i in range(m)]
        assert [newton_above_hodge(P) for _, P in
                determine_sign(traces, q=q, k=k)] == [True]
        for d in range(m):
            for delta in (1, 2, 3, 6, 9, 18, 27, 81):
                for moved in (delta, -delta):
                    bad = list(traces)
                    bad[d] += moved
                    for _, P in determine_sign(bad, q=q, k=k):
                        survived += 1
                        assert not newton_above_hodge(P), (q, d + 1, moved)
    assert survived == 39


def test_newton_above_hodge_bound_is_exact():
    # two unit-root pairs at q = 3: Weil-valid, e_2 a 3-adic unit, so the
    # check fails at i = 2, where a bound of i - 2 would pass it; the
    # repeated unit-root factor of the Weil tests fails it at i = 3
    r = poly_mul(poly_mul([1, -1, 9], [1, -2, 9]), poly_pow([1, -3], 16))
    P = _frobenius(3, 2, r)
    assert P.weil_valid and P.coeffs[2] % 3
    assert all(c % 3 ** (i - 2) == 0 for i, c in enumerate(P.coeffs[2:-1], 2))
    assert not newton_above_hodge(P)
    r = poly_mul(poly_pow([1, 0, 9], 3), poly_pow([1, -2, 9], 7))
    assert _frobenius(3, 2, r).weil_valid
    assert not newton_above_hodge(_frobenius(3, 2, r))
    # one unit-root pair (an ordinary surface) and a supersingular one pass
    assert newton_above_hodge(_frobenius(3, 2, poly_mul(
        [1, -1, 9], poly_pow([1, -3], 18))))
    assert newton_above_hodge(_frobenius(3, 16, poly_pow([1, 0, 9], 3)))
