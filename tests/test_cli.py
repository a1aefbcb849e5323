import collections
import hashlib
import json
import random
from pathlib import Path

import pytest

from k3cert import cli, geom, zeta
from k3cert.cli import load_surface_file, parse_surface_spec, run
from k3cert.forms import IntForm

import data
from test_bench_spans import PERFBENCH, _load
from test_parity_corpus import sextic

SURFACES = Path(__file__).resolve().parent.parent / "surfaces"


def _write_fully_external_spec(tmp_path, name="all-external"):
    lines = [f"name: {name}", "k: 2"]
    for (a, b, c), v in sorted(data.F6_B.items()):
        lines.append(f"f6: {a} {b} {c} {v}")
    for d, n in enumerate(data.COUNTS_B, start=1):
        lines.append(f"external: {d} {n}")
    path = tmp_path / "surface.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def serialize_surface_spec(spec) -> str:
    """A surface file that parses back to spec."""
    out = [f"name: {spec.name}"]
    for (a, b, c) in sorted(spec.f6.coeffs):
        out.append(f"f6: {a} {b} {c} {spec.f6.coeffs[(a, b, c)]}")
    if spec.k is not None:
        out.append(f"k: {spec.k}")
    for d in sorted(spec.external_counts):
        out.append(f"external: {d} {spec.external_counts[d]}")
    for row in spec.gram or ():
        out.append("gram: " + " ".join(str(x) for x in row))
    for i, cert in enumerate(spec.conics, start=1):
        out.append(f"conic.{i}.scale: {cert.scale}")
        for fld in ("q2", "q3", "q4"):
            form = getattr(cert, fld)
            for (a, b, c) in sorted(form.coeffs):
                out.append(f"conic.{i}.{fld}: {a} {b} {c} "
                           f"{form.coeffs[(a, b, c)]}")
    return "\n".join(out) + "\n"


def test_parse_serialize_roundtrip():
    for fname in ("rank1-p5.txt", "rank1-p3.txt", "rank3-conics.txt"):
        spec = load_surface_file(str(SURFACES / fname))
        again = parse_surface_spec(serialize_surface_spec(spec))
        assert again.name == spec.name
        assert again.f6 == spec.f6
        assert again.k == spec.k
        assert again.external_counts == spec.external_counts
        assert again.gram == spec.gram
        assert len(again.conics) == len(spec.conics)
        for c1, c2 in zip(again.conics, spec.conics):
            assert (c1.scale, c1.q2, c1.q3, c1.q4) == \
                (c2.scale, c2.q2, c2.q3, c2.q4)


def test_bundled_files_match_reference_data():
    a = load_surface_file(str(SURFACES / "rank1-p5.txt"))
    assert a.f6 == IntForm(data.F6_A)
    assert a.external_counts == {d: data.COUNTS_A[d - 1] for d in (7, 8, 9, 10)}
    b = load_surface_file(str(SURFACES / "rank1-p3.txt"))
    assert b.f6 == IntForm(data.F6_B)
    c = load_surface_file(str(SURFACES / "rank3-conics.txt"))
    assert c.f6 == IntForm(data.F6_C)
    assert c.gram == tuple(tuple(r) for r in data.GRAM_C)
    assert c.k == 4


def test_count_stage_prints_counts(capsys):
    code = run(["count", "--spec", str(SURFACES / "rank1-p5.txt"),
                "--prime", "5", "--dmax", "3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["N"] for c in out["counts"]] == [41, 751, 15626]
    assert [c["trace"] for c in out["counts"]] == [15, 125, 0]


def test_count_of_a_singular_sextic_reports_the_singular_point(tmp_path,
                                                                capsys):
    # the Weil bound holds only for good reduction: the square of a cubic
    # (the corpus's "cubic^2" kind) breaks it at d = 2 with an exact
    # count, and count names the singular point, not a wrong count
    path = tmp_path / "cubic-squared.txt"
    path.write_text(dict(sextic("singular", 5, 0))["cubic^2"])
    assert run(["count", "--spec", str(path), "--prime", "5",
                "--dmax", "2"]) == 2
    assert capsys.readouterr().err == (
        "mathematical error: branch sextic is singular mod 5: witness "
        "(0, 1, 0) over F_5^1\n")


def test_wrong_count_of_a_smooth_sextic_is_reported_as_wrong(tmp_path,
                                                             capsys):
    path = tmp_path / "wrong-count.txt"
    path.write_text((SURFACES / "rank1-p5.txt").read_text()
                    + "external: 1 1000\n")
    assert run(["count", "--spec", str(path), "--prime", "5",
                "--dmax", "2"]) == 2
    assert capsys.readouterr().err == (
        "mathematical error: trace 974 violates |t| <= 22 q = 110; the "
        "count is wrong\n")


def test_tritangent_stage_reports_line(capsys):
    code = run(["tritangent", "--spec", str(SURFACES / "rank1-p3.txt"),
                "--prime", "3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["smooth"] == "smooth"
    assert [t["line"] for t in out["tritangents"]] == ["1*x"]


def test_prime_two_is_usage_error(capsys):
    code = run(["count", "--spec", str(SURFACES / "rank1-p5.txt"),
                "--prime", "2", "--dmax", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "p = 2" in err and "odd" in err


def test_composite_prime_rejected(capsys):
    code = run(["count", "--spec", str(SURFACES / "rank1-p5.txt"),
                "--prime", "9", "--dmax", "1"])
    assert code == 1


def test_prime_above_rank_test_bound_is_usage_error(capsys):
    # 2147483659 is the least prime above 2^31
    for command in ("certify", "tritangent", "obstruct"):
        code = run([command, "--spec", str(SURFACES / "rank1-p3.txt"),
                    "--prime", "2147483659"])
        err = capsys.readouterr().err
        assert code == 1, command
        assert "usage error" in err and "2^31" in err


def test_prime_above_zech_limit_is_math_error(capsys):
    # 4194319 is the least prime above 2^22: from there on the smoothness
    # test, like counting and the tritangent search, reports the budget
    for command in ("certify", "tritangent", "obstruct"):
        for p in ("4194319", str((1 << 31) - 1)):
            code = run([command, "--spec", str(SURFACES / "rank1-p3.txt"),
                        "--prime", p])
            err = capsys.readouterr().err
            assert code == 2, (command, p)
            assert "mathematical error" in err and str(1 << 22) in err


def test_tritangent_search_beyond_desk_budget_needs_deep(capsys,
                                                        monkeypatch):
    # at p = 1000003 the search would test about 1e12 lines: tritangent
    # and obstruct stop with exit code 2 before testing any
    def never(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(geom, "_candidate_lines", never)
    for command in ("tritangent", "obstruct"):
        code = run([command, "--spec", str(SURFACES / "rank1-p3.txt"),
                    "--prime", "1000003", "--json"])
        err = capsys.readouterr().err
        assert code == 2, command
        assert "desk-scale budget" in err and "--deep" in err


def test_line_degree_below_one_is_usage_error(capsys):
    for command in ("certify", "tritangent"):
        for degree in ("0", "-1"):
            code = run([command, "--spec", str(SURFACES / "rank1-p3.txt"),
                        "--prime", "3", "--line-degree", degree])
            err = capsys.readouterr().err
            assert code == 1, (command, degree)
            assert "--line-degree" in err


def test_singular_reduction_is_math_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("name: cusp\nf6: 6 0 0 1\n")  # w^2 = x^6
    code = run(["tritangent", "--spec", str(path), "--prime", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "singular" in err


def test_zero_reduction_is_math_error(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("name: zero\nf6: 6 0 0 5\n")
    for stage in ("count", "zeta", "tritangent", "obstruct", "certify"):
        code = run([stage, "--spec", str(path), "--prime", "5"])
        assert code == 2, stage
        assert capsys.readouterr().err == (
            "mathematical error: f6 vanishes identically mod 5\n"), stage


@pytest.mark.parametrize("extra_line, options", [
    ("external: 10", []),
    ("external: 0 5", []),
    ("f6: 0 5 0 1", []),
    ("f6: -1 7 0 1", []),
    ("k: two", []),
    ("conic.x.q2: 2 0 0 1", []),
    ("conic.1: 2 0 0 1", []),
    ("conic.1.q5: 2 0 0 1", []),
    ("conic.1.q2: 1 0 0 1", []),
    ("gram: 1 a", []),
    ("", ["count", "--dmax", "-1"]),
    ("", ["count", "--dmax", "0"]),
    ("k: 24", ["zeta"]),
    ("k: 3", ["certify"]),
    ("conic.1.q2: 2 0 0 2\nconic.1.q2: 2 0 0 7", []),
])
def test_malformed_input_is_usage_error(tmp_path, capsys, extra_line,
                                        options):
    path = tmp_path / "surface.txt"
    path.write_text((SURFACES / "rank1-p3.txt").read_text()
                    + extra_line + "\n")
    stage, *rest = options or ["count", "--dmax", "1"]
    code = run([stage, "--spec", str(path), "--prime", "3"] + rest)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("usage error:") and "Traceback" not in err
    if extra_line:
        # the error names the offending line, the last one added
        assert repr(extra_line.splitlines()[-1]) in err


def test_workers_below_one_is_usage_error(capsys):
    for stage, value in (("count", "0"), ("zeta", "-3"), ("certify", "0")):
        code = run([stage, "--spec", str(SURFACES / "rank1-p3.txt"),
                    "--prime", "3", "--workers", value])
        assert code == 1
        assert capsys.readouterr().err == (
            f"usage error: --workers must be at least 1, got {value}\n")


def test_unknown_stage_is_usage_error(capsys):
    code = run(["frobenify", "--spec", "x", "--prime", "3"])
    assert code == 1


_OWN_OPTIONS = {
    "count": ["--dmax", "--cache", "--deep", "--workers"],
    "zeta": ["--cache", "--deep", "--workers"],
    "tritangent": ["--deep", "--line-degree"],
    "obstruct": ["--deep"],
    "lattice": ["--deep"],
    "certify": ["--cache", "--deep", "--workers", "--line-degree"],
}


@pytest.mark.parametrize("command", list(_OWN_OPTIONS))
def test_each_command_accepts_only_the_options_it_reads(tmp_path, capsys,
                                                        command):
    # an option a command would ignore (obstruct --line-degree 2 searches
    # only F_p) is a usage error, not a silent no-op
    values = {"--dmax": ["1"], "--cache": [str(tmp_path / "c.jsonl")],
              "--deep": [], "--workers": ["1"], "--k": ["2"],
              "--line-degree": ["1"]}
    base = [command, "--spec", str(_write_fully_external_spec(tmp_path)),
            "--prime", "3", "--json"]

    def argv(options):
        return base + [v for o in options for v in [o] + values[o]]

    own = _OWN_OPTIONS[command]
    assert run(argv(own)) == 0, command
    assert json.loads(capsys.readouterr().out)["stage"] == command
    for option in sorted(set(values) - set(own)):
        assert run(argv([option])) == 1, (command, option)
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {option}" in err, (command, option)


@pytest.mark.parametrize("command", [c for c in _OWN_OPTIONS if c != "count"])
def test_search_refusal_names_an_option_the_command_accepts(
        tmp_path, capsys, monkeypatch, command):
    # a tritangent search above the desk-scale budget exits 2 and asks for
    # --deep; every command that searches must then accept --deep and run
    monkeypatch.setattr(geom, "MANDATORY_Q2_LIMIT", 8)  # q^2 = 9 at p = 3
    base = [command, "--spec", str(_write_fully_external_spec(tmp_path)),
            "--prime", "3", "--json"]
    assert run(base) == 2
    err = capsys.readouterr().err
    assert "(--deep)" in err and "--deep" in _OWN_OPTIONS[command], err
    assert run(base + ["--deep"]) == 0
    assert json.loads(capsys.readouterr().out)["stage"] == command


def test_non_symmetric_gram_is_usage_error(tmp_path, capsys):
    text = (SURFACES / "rank3-conics.txt").read_text()
    path = tmp_path / "asymmetric.txt"
    path.write_text(text.replace("gram: -2 6 2 2", "gram: -2 7 2 2"))
    for stage in ("lattice", "certify"):
        assert run([stage, "--spec", str(path), "--prime", "3"]) == 1
        assert capsys.readouterr().err == (
            "usage error: gram matrix is not symmetric: entries (1, 2) and "
            "(2, 1) are 7 and 6\n"), stage


def test_no_consistent_sign_is_math_error(tmp_path, capsys):
    # N_1 of B moved from 19 to 20: neither sign passes the Weil test
    counts = list(data.COUNTS_B)
    counts[0] += 1
    path = tmp_path / "moved.txt"
    path.write_text((SURFACES / "rank1-p3.txt").read_text() + "".join(
        f"external: {d} {n}\n" for d, n in enumerate(counts, start=1)))
    for stage in ("zeta", "certify"):
        assert run([stage, "--spec", str(path), "--prime", "3"]) == 2, stage
        assert capsys.readouterr().err == (
            "mathematical error: no functional-equation sign is consistent "
            "with the traces; counts or k are wrong\n"), stage


def test_certify_all_external_counts(tmp_path, capsys):
    path = _write_fully_external_spec(tmp_path)
    code = run(["certify", "--spec", str(path), "--prime", "3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "rank = 1 proved"
    assert all(c["source"] == "external" for c in out["counts"])
    assert out["rank_upper_bound_reduction"] == 2
    assert out["sign"] == 1
    assert any("nonvanishing" in s for s in out["chain"])


def test_certify_checks_external_counts_beyond_m(tmp_path, capsys):
    # N_11 and N_12 are not used to build the polynomial (m = 10); they
    # must still agree with the counts it predicts, in certify and in zeta
    text = (SURFACES / "rank1-p3.txt").read_text()
    text += "".join(f"external: {d} {n}\n" for d, n in
                    enumerate(data.COUNTS_B[:9], start=1))
    path = tmp_path / "beyond.txt"
    path.write_text(text + "external: 11 12345\n")
    for stage in ("certify", "zeta"):
        assert run([stage, "--spec", str(path), "--prime", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mathematical error: char poly predicts N_11 = ")
        assert err.endswith(", measured 12345\n")

    path.write_text(text)
    assert run(["certify", "--spec", str(path), "--prime", "3", "--json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    P = zeta.FrobeniusPoly(q=3, degree=22, k=2, sign=1, coeffs=tuple(
        int(c) for c in plain["char_poly"].split(",")))
    extra = {d: zeta.predicted_count(P, d) for d in (11, 12)}
    path.write_text(text + "".join(f"external: {d} {n}\n"
                                   for d, n in extra.items()))
    assert run(["certify", "--spec", str(path), "--prime", "3", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == plain["verdict"] == "rank = 1 proved"
    i = plain["chain"].index(
        "determine_sign: unique consistent sign +1") + 1
    assert out["chain"] == plain["chain"][:i] + [
        "predicted_count: the polynomial, built from d <= 10, also "
        "reproduces the external count(s) at d = 11, 12"] + plain["chain"][i:]
    assert run(["zeta", "--spec", str(path), "--prime", "3", "--json"]) == 0
    signs = json.loads(capsys.readouterr().out)["signs"]
    assert [s["char_poly"] for s in signs] == [plain["char_poly"]]


def test_certify_rejects_counts_below_the_hodge_polygon(tmp_path, capsys):
    # N_6 of B moved by 6 still passes Newton and the Weil test with sign
    # +1, with the true rank bound and a wrong char_poly; 3^5 does not
    # divide its e_6
    counts = list(data.COUNTS_B[:9])
    counts[5] += 6
    path = tmp_path / "moved.txt"
    path.write_text((SURFACES / "rank1-p3.txt").read_text() + "".join(
        f"external: {d} {n}\n" for d, n in enumerate(counts, start=1)))
    for stage in ("certify", "zeta"):
        assert run([stage, "--spec", str(path), "--prime", "3"]) == 2
        assert capsys.readouterr().err == (
            "mathematical error: the polynomial of sign +1 fails "
            "newton_above_hodge: its Newton polygon dips below the Hodge "
            "polygon\n")


def test_external_count_beyond_m_settles_an_ambiguous_sign(tmp_path, capsys,
                                                          monkeypatch):
    # with k = 20 (m = 1) the trace t_1 = 60 = 20q allows both signs; an
    # external N_2 keeps the sign whose polynomial predicts it, and the
    # chain says that the count, not the traces, made the choice.  No
    # bundled surface exhibits 20 classes over F_3, so the derived lattice
    # is given rank 20 and determinant -6, the Artin-Tate value q R1(q) /
    # q^2 of the sign +1 polynomial (t - 3)^20 (t^2 + 9)
    derive = cli._class_lattice
    monkeypatch.setattr(cli, "_class_lattice", lambda *args: {
        **derive(*args), "rational_rank": 20, "rational_disc": -6})
    text = "".join(line + "\n" for line in
                   (SURFACES / "rank1-p3.txt").read_text().splitlines()
                   if not line.startswith(("k:", "external:")))
    text += "k: 20\nexternal: 1 70\n"
    both = zeta.determine_sign([60], q=3, degree=22, k=20)
    assert sorted(s for s, _ in both) == [-1, 1]
    path = tmp_path / "ambiguous.txt"
    path.write_text(text)
    assert run(["certify", "--spec", str(path), "--prime", "3", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["sign"], out["verdict"]) == ("ambiguous", "evidence-only")

    for sign, P in both:
        path.write_text(text + f"external: 2 {zeta.predicted_count(P, 2)}\n")
        assert run(["certify", "--spec", str(path), "--prime", "3",
                    "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["sign"], out["char_poly"]) == (sign, P.serialize())
        assert (f"determine_sign: sign {sign:+d}; the traces also allow "
                f"{-sign:+d}, which the external count(s) above d = 1 rule "
                "out") in out["chain"]
        assert run(["zeta", "--spec", str(path), "--prime", "3",
                    "--json"]) == 0
        signs = json.loads(capsys.readouterr().out)["signs"]
        assert [s["sign"] for s in signs] == [sign]

    path.write_text(text + "external: 2 12345\n")
    for stage in ("certify", "zeta"):
        assert run([stage, "--spec", str(path), "--prime", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mathematical error: char poly predicts N_2 = ")
        assert err.endswith(", measured 12345\n")


def test_certify_reports_are_deterministic(tmp_path, capsys):
    path = _write_fully_external_spec(tmp_path)
    outputs = []
    for _ in range(2):
        code = run(["certify", "--spec", str(path), "--prime", "3", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        del report["timing_ms"]  # the single timing field
        outputs.append(json.dumps(report, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_zeta_stage_with_externals(tmp_path, capsys):
    path = _write_fully_external_spec(tmp_path)
    code = run(["zeta", "--spec", str(path), "--prime", "3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["signs"]) == 1
    entry = out["signs"][0]
    assert entry["sign"] == 1
    assert entry["rank_upper_bound"] == 2
    expected = ",".join(str(c) for c in data.R20_B)
    assert entry["factor"] == expected


def test_lattice_stage(capsys):
    code = run(["lattice", "--spec", str(SURFACES / "rank3-conics.txt"),
                "--prime", "3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["classes"] == ["H", "C1+", "C1-", "C2+", "C2-",
                              "D[1*x+1*y+1*z]+", "D[1*x+1*y+1*z]-"]
    assert [row[1:5] for row in out["matrix"][1:5]] == data.GRAM_C
    assert out["rank_over_closure"] == 3 and out["gram_claim"] == "matches"
    assert (out["rational_rank"], out["rational_disc"]) == (4, -72)


def _certify_json(argv, capsys):
    code = run(["certify"] + argv + ["--json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if code == 0 else captured.err


@pytest.mark.parametrize("rows, claim", [
    (["2 0 0", "0 -2 0", "0 0 -2"], "differs"),
    (["-2 6 2 2", "6 -2 2 2", "2 2 -2 5", "2 2 5 -2"], "differs"),
    ([], None),
])
def test_no_verdict_reads_gram(tmp_path, capsys, rows, claim):
    # diag(2, -2, -2) once proved rank 3 with gram_disc 8, and the 6 -> 5
    # change (rank 4) crossed the bounds; the lower bound is the rank of
    # the derived conic block, and the report says whether a claim matches
    path = tmp_path / "claims.txt"
    path.write_text("".join(
        line + "\n" for line in Path(_with_all_counts(
            tmp_path, "rank3-conics")).read_text().splitlines()
        if not line.startswith("gram:")) + "".join(f"gram: {r}\n"
                                                    for r in rows))
    code, out = _certify_json(["--spec", str(path), "--prime", "3"], capsys)
    assert code == 0
    assert out["verdict"] == "rank = 3 proved"
    assert (out["rank_lower_bound"], out["k"]) == (3, 4)
    assert out["lattice"].get("gram_claim") == claim


@pytest.mark.parametrize("name, claim", [
    ("rank3-conics", 6), ("rank3-conics", 8), ("rank3-conics", 10),
    ("rank3-conics", 22), ("rank1-p5", 4), ("rank1-p3", 4), ("rank1-p5", 22),
    ("rank1-p3", 22),
])
def test_k_claim_above_the_derived_k_is_refused(tmp_path, capsys, name,
                                                claim):
    # k: 22 once skipped every count; k: 6, 8 and 10 on rank3-conics and
    # k: 4 on the rank-1 surfaces failed only as traces without a sign
    p, derived = BUNDLED[name][0], 4 if name == "rank3-conics" else 2
    path = Path(_with_all_counts(tmp_path, name))
    path.write_text(path.read_text().replace(f"k: {derived}\n",
                                             f"k: {claim}\n"))
    for stage in ("zeta", "certify"):
        assert run([stage, "--spec", str(path), "--prime", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"mathematical error: k: {claim} claims more than the derived "
            f"k = {derived}: the F_{p}-rational classes have rank "
            f"{derived}\n"), stage


def test_bundled_classes_derive_k_and_the_artin_tate_value(tmp_path, capsys):
    expected = {"rank1-p5": (2, "H, D[3*y+1*z]+", "5"),
                "rank1-p3": (2, "H, D[1*x]+", "5"),
                "rank3-conics": (4, "H, C1+, C2+, D[1*x+1*y+1*z]+", "72")}
    for name, (p, _) in BUNDLED.items():
        path = Path(_with_all_counts(tmp_path, name))
        path.write_text("".join(line + "\n" for line in
                                path.read_text().splitlines()
                                if not line.startswith("k:")))
        code, out = _certify_json(["--spec", str(path), "--prime", str(p)],
                                  capsys)
        k, basis, value = expected[name]
        assert code == 0 and out["k"] == k
        assert ", ".join(out["lattice"]["rational_basis"]) == basis
        assert out["artin_tate"] == value
        assert (f"artin_tate: t = {p} has multiplicity {k} in P, the rank of "
                f"the F_{p}-rational classes, and |det| = {value} of {basis} "
                f"lies in the square class of q R1(q) / q^(22 - {k}) = "
                f"{value} = |Br| |disc NS|: the classes have finite index in "
                "NS of the reduction") in out["chain"]


def test_artin_tate_mismatch_is_math_error(tmp_path, capsys, monkeypatch):
    derive = cli._class_lattice
    monkeypatch.setattr(cli, "_class_lattice", lambda *args: {
        **derive(*args), "rational_disc": -7})
    assert run(["certify", "--spec", _with_all_counts(tmp_path, "rank1-p3"),
                "--prime", "3"]) == 2
    assert capsys.readouterr().err == (
        "mathematical error: artin_tate: t = 3 has multiplicity 2 in P, but "
        "|det| = 7 of the F_3-rational classes H, D[1*x]+ and q R1(q) / "
        "q^(22 - 2) = 5 lie in different square classes\n")


def test_undecided_pair_is_math_error(tmp_path, capsys):
    # conic 1 restated as conic 3: a curve lies on the other in both
    # directions, so their pairing is not decided
    path = Path(_with_all_counts(tmp_path, "rank3-conics"))
    text = path.read_text()
    path.write_text(text + "".join(line.replace("conic.1.", "conic.3.") + "\n"
                                   for line in text.splitlines()
                                   if line.startswith("conic.1.")))
    for stage in ("lattice", "certify"):
        assert run([stage, "--spec", str(path), "--prime", "3"]) == 2
        assert capsys.readouterr().err == (
            "mathematical error: the pairing of C3 and C1 is not decided mod "
            "3: each is a conic singular mod p or lies on the other\n"), stage


def test_cache_roundtrip_via_cli(tmp_path, capsys):
    cache = tmp_path / "counts.jsonl"
    args = ["count", "--spec", str(SURFACES / "rank1-p5.txt"), "--prime", "5",
            "--dmax", "2", "--cache", str(cache), "--json"]
    assert run(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert [c["source"] for c in first["counts"]] == ["computed", "computed"]
    assert run(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert [c["source"] for c in second["counts"]] == ["cached", "cached"]
    assert [c["N"] for c in second["counts"]] == [c["N"] for c in first["counts"]]


def test_external_count_contradicting_the_cache_is_math_error(tmp_path,
                                                             capsys):
    # N_1 = 41 is in the cache; an external: line with another N_1 for the
    # same surface and p is refused, naming d and both values, and the
    # value the cache holds is accepted as external
    cache = tmp_path / "counts.jsonl"
    surface = SURFACES / "rank1-p5.txt"
    args = ["--prime", "5", "--dmax", "2", "--cache", str(cache)]
    assert run(["count", "--spec", str(surface)] + args) == 0
    capsys.readouterr()
    path = tmp_path / "external.txt"
    for n, code in ((43, 2), (41, 0)):
        path.write_text(surface.read_text() + f"external: 1 {n}\n")
        assert run(["count", "--spec", str(path), "--json"] + args) == code
        out, err = capsys.readouterr()
        if code:
            assert "N_1 = 43 contradicts N_1 = 41" in err
        else:
            assert [c["source"] for c in json.loads(out)["counts"]] == \
                ["external", "cached"]
    assert run(["count", "--spec", str(surface), "--json"] + args) == 0
    assert [c["N"] for c in json.loads(capsys.readouterr().out)["counts"]][
        0] == 41


def test_truncated_cache_line_is_usage_error(tmp_path, capsys):
    cache = tmp_path / "counts.jsonl"
    args = ["count", "--spec", str(SURFACES / "rank1-p5.txt"), "--prime", "5",
            "--dmax", "2", "--cache", str(cache), "--json"]
    assert run(args) == 0
    capsys.readouterr()
    text = cache.read_text()
    cache.write_text(text[:-20])  # cut the second record short
    assert run(args) == 1
    err = capsys.readouterr().err
    assert f"{cache}, line 2" in err
    assert "Traceback" not in err


def test_cache_without_final_newline_survives_an_append(tmp_path, capsys):
    # a cache whose last record ends without a newline (written by another
    # tool, or cut after its last brace) got the next record on the same
    # line, and every later run refused the whole file as corrupt
    cache = tmp_path / "counts.jsonl"
    args = ["count", "--spec", str(SURFACES / "rank1-p3.txt"), "--prime", "3",
            "--cache", str(cache), "--json"]
    assert run(args + ["--dmax", "2"]) == 0
    capsys.readouterr()
    cache.write_text(cache.read_text().rstrip("\n"))
    assert run(args + ["--dmax", "3"]) == 0
    capsys.readouterr()
    assert run(args + ["--dmax", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [row["source"] for row in out["counts"]] == ["cached"] * 3


@pytest.mark.parametrize("case, line", [
    ("repeated", None), ("contradicting", 3), ("float", 1), ("bool", 1)])
def test_cache_reads_only_consistent_integer_counts(tmp_path, capsys, case,
                                                    line):
    # a count read from the cache is a JSON integer ("N": 41.75 was read as
    # 41, "N": true as 1), and a key that comes again repeats its N (a
    # second record with N = 801 against the computed 751 was read, the
    # last one winning); a record repeated as it is stays readable
    cache = tmp_path / "counts.jsonl"
    args = ["count", "--spec", str(SURFACES / "rank1-p5.txt"), "--prime", "5",
            "--dmax", "2", "--cache", str(cache), "--json"]
    assert run(args) == 0
    first = json.loads(capsys.readouterr().out)
    records = [json.loads(text) for text in cache.read_text().splitlines()]
    if case == "repeated":
        records.append(records[1])
    elif case == "contradicting":
        records.append(dict(records[1], N=records[1]["N"] + 50))
    else:
        records[0]["N"] = records[0]["N"] + 0.75 if case == "float" else True
    cache.write_text("".join(json.dumps(r) + "\n" for r in records))
    rc = run(args)
    out, err = capsys.readouterr()
    if line is None:
        assert rc == 0, err
        assert [(c["N"], c["source"]) for c in json.loads(out)["counts"]] == \
            [(c["N"], "cached") for c in first["counts"]]
    else:
        assert rc == 1 and f"{cache}, line {line}" in err, err
        assert "Traceback" not in err


def test_missing_file_is_usage_error(capsys):
    code = run(["count", "--spec", "/nonexistent/file.txt", "--prime", "5"])
    assert code == 1


@pytest.mark.parametrize("line, repeat", [
    ("name: rank3-conics", "name: other"),
    ("k: 4", "k: 2"),
    ("conic.1.scale: 1", "conic.1.scale: 3"),
    ("external: 1 19", "external: 1 20"),
])
def test_repeated_entry_must_restate_its_value(tmp_path, capsys, line,
                                               repeat):
    # a single-valued entry may be repeated with its value (a copy of a
    # file plus its counts restates them); another value is a usage error
    # that quotes the line, never a silent replacement
    text = (SURFACES / "rank3-conics.txt").read_text() + "external: 1 19\n"
    assert serialize_surface_spec(parse_surface_spec(text + line + "\n")) \
        == serialize_surface_spec(parse_surface_spec(text))
    path = tmp_path / "surface.txt"
    path.write_text(text + repeat + "\n")
    code = run(["count", "--spec", str(path), "--prime", "3", "--dmax", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage error" in err and repr(repeat) in err and "twice" in err


def test_parser_is_reused_after_a_usage_error(capsys):
    # the parser is built once per process; a usage error must not leave
    # it in a state that breaks the next call
    assert run(["certify", "--spec", str(SURFACES / "rank1-p3.txt")]) == 1
    assert "usage error" in capsys.readouterr().err
    assert cli.build_parser() is cli.build_parser()
    code = run(["tritangent", "--spec", str(SURFACES / "rank1-p3.txt"),
                "--prime", "3", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["tritangents"]


def test_one_decomposition_per_rational_tritangent(tmp_path, capsys,
                                                   monkeypatch):
    # certify and obstruct reuse the certificate's decomposition for the
    # obstruction instead of decomposing again
    calls = []
    decompose = geom._decompose_mod_line

    def counting(f6, line, *args):
        calls.append(line)
        return decompose(f6, line, *args)

    monkeypatch.setattr(geom, "_decompose_mod_line", counting)
    spec = _write_fully_external_spec(tmp_path)
    for argv in (["certify", "--spec", str(spec), "--prime", "3",
                  "--line-degree", "2"],
                 ["obstruct", "--spec", str(SURFACES / "rank1-p3.txt"),
                  "--prime", "3"],
                 ["obstruct", "--spec", str(SURFACES / "rank3-conics.txt"),
                  "--prime", "3"]):
        calls.clear()
        assert run(argv + ["--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        rational = [t for t in out["tritangents"]
                    if t["split_field_degree"] == 1]
        assert rational and len(calls) == len(rational), argv[0]


def test_one_root_solve_per_sign_candidate(tmp_path, capsys, monkeypatch):
    # each polynomial is Weil-validated once: determine_sign runs the
    # root-modulus test of each sign candidate, and predicted_count and
    # cyclotomic_part reuse that check
    calls = []
    on_circle = zeta._roots_on_circle

    def counting(r, q):
        calls.append(len(r))
        return on_circle(r, q)

    monkeypatch.setattr(zeta, "_roots_on_circle", counting)
    spec = _write_fully_external_spec(tmp_path)
    assert run(["certify", "--spec", str(spec), "--prime", "3",
                "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "rank = 1 proved"
    assert 1 <= len(calls) <= 2


# sha256 of the outputs of _pinned_calls, recorded before the lazy
# elimination and the one-pass decomposition, re-recorded when certify
# dropped its chain line on the counts d <= m, again when it added the
# newton_above_hodge line, and again when certify derived its classes
# (the lattice and artin_tate fields and their chain lines in, the
# bound_is_even and gram_rank fields out; every verdict, polynomial,
# count, certificate and obstruction the same); a certificate, witness or
# verdict that changes changes it
PINNED_DIGEST = (
    "b4453164e6ea5af3fd4380532f7cbc07b737dbb85a08a268179da5bf59329475")


# sha256 of the outputs of _contact_calls, recorded before the array test
# moved to F_p coordinates and the root finder to one split per factor
CONTACT_DIGEST = (
    "f5bcabb5167c965741279a13c58e62827a1344553519ae1d4c1cb3d47925d412")


# sha256 of the outputs of _all_command_calls, recorded at the commit
# before certify and the stage commands came to share one helper per fact,
# and re-recorded when the classes came to be derived: the lattice
# command reports the class lattice, zeta its rational basis and no
# bound_is_even, certify as in PINNED_DIGEST
ALL_COMMANDS_DIGEST = (
    "80fff1d2077bbfb02c92b4f6856e2a6ebf262ef8ab7f8bd9a4785bde73824aff")

# each bundled surface: its prime and every count of the reference data
BUNDLED = {"rank1-p5": (5, data.COUNTS_A), "rank1-p3": (3, data.COUNTS_B),
           "rank3-conics": (3, data.COUNTS_C)}


def _with_all_counts(tmp_path, name):
    """A copy of bundled surface `name` with every count of the reference
    data supplied as an external: line."""
    path = tmp_path / f"{name}.txt"
    path.write_text((SURFACES / f"{name}.txt").read_text() + "".join(
        f"external: {d} {n}\n"
        for d, n in enumerate(BUNDLED[name][1], start=1)))
    return str(path)


def _pinned_calls(tmp_path):
    """obstruct on 24 seeded random dense sextics at p = 3, 5, 7 (a
    quarter built with a rational tritangent, a quarter singular) and
    certify --line-degree 2 on the three bundled surfaces with every count
    supplied."""
    rng = random.Random(20240607)

    def form(degree):
        return IntForm({(a, b, degree - a - b): rng.randrange(-4, 5)
                        for a in range(degree + 1)
                        for b in range(degree + 1 - a)}, degree)

    calls = []
    for i in range(24):
        f6 = form(6)
        if i % 4 == 1:  # a rational tritangent line
            f3 = form(3)
            ell = IntForm({(1, 0, 0): 1, (0, 1, 0): rng.randrange(-3, 4),
                           (0, 0, 1): rng.randrange(-3, 4)}, 1)
            f6 = f3 * f3 + ell * form(5)
        elif i % 8 == 2:  # a node at (0 : 0 : 1)
            f6 = IntForm({m: c for m, c in f6.coeffs.items()
                          if m[2] < 5}, 6)
        elif i % 8 == 6:  # singular along a conic
            g = form(2)
            f6 = g * g * form(2)
        path = tmp_path / f"sextic-{i}.txt"
        path.write_text(serialize_surface_spec(
            parse_surface_spec(f"name: s{i}\n" + "".join(
                f"f6: {a} {b} {c} {v}\n"
                for (a, b, c), v in f6.coeffs.items()))))
        calls.append(["obstruct", "--spec", str(path),
                      "--prime", str((3, 5, 7)[i % 3]), "--json"])
    for name, (p, _) in BUNDLED.items():
        calls.append(["certify", "--spec", _with_all_counts(tmp_path, name),
                      "--prime", str(p), "--json", "--line-degree", "2"])
    return calls


def _contact_calls(tmp_path):
    """tritangent --line-degree 2 on seeded sextics f3^2 + x f5 at p = 3,
    5, 7 with f3(0, y, z) an irreducible cubic or a linear form times an
    irreducible quadratic, so that contact points lie in F_(p^3) and
    F_(p^2)."""
    rng = random.Random(20261018)

    def form(degree):
        return IntForm({(a, b, degree - a - b): rng.randrange(-4, 5)
                        for a in range(degree + 1)
                        for b in range(degree + 1 - a)}, degree)

    calls = []
    for i in range(12):
        p = (3, 5, 7)[i % 3]
        if i % 2:  # y^3 + a y z^2 + b z^3 without a root
            a, b = next((a, b) for a in range(p) for b in range(1, p)
                        if all((t ** 3 + a * t + b) % p for t in range(p)))
            cubic = {(0, 3, 0): 1, (0, 1, 2): a, (0, 0, 3): b}
        else:  # z (y^2 - n z^2) with n a non-residue
            n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)
            cubic = {(0, 2, 1): 1, (0, 0, 3): -n}
        f3 = IntForm(cubic, 3) + IntForm({(1, 0, 0): 1}) * form(2)
        f6 = f3 * f3 + IntForm({(1, 0, 0): 1}) * form(5)
        path = tmp_path / f"contact-{i}.txt"
        path.write_text(f"name: c{i}\n" + "".join(
            f"f6: {a} {b} {c} {v}\n" for (a, b, c), v in f6.coeffs.items()))
        calls.append(["tritangent", "--spec", str(path), "--prime", str(p),
                      "--json", "--line-degree", "2"])
    return calls


def _all_command_calls(tmp_path):
    """Every command, in text and --json form, on the three bundled
    surfaces: count --dmax 2 on the files as they are, the others with
    every count supplied, tritangent and certify at --line-degree 2."""
    calls = []
    for name, (p, _) in BUNDLED.items():
        supplied = _with_all_counts(tmp_path, name)
        for argv in (["count", "--spec", str(SURFACES / f"{name}.txt"),
                      "--dmax", "2"],
                     ["zeta", "--spec", supplied],
                     ["tritangent", "--spec", supplied, "--line-degree", "2"],
                     ["obstruct", "--spec", supplied],
                     ["lattice", "--spec", supplied],
                     ["certify", "--spec", supplied, "--line-degree", "2"]):
            for form in ([], ["--json"]):
                calls.append(argv + ["--prime", str(p)] + form)
    return calls


def _digest(calls, capsys):
    outputs = []
    for argv in calls:
        code = run(argv)
        captured = capsys.readouterr()
        report = captured.out
        if code == 0 and "--json" in argv:
            report = json.loads(report)
            del report["timing_ms"]
        elif code == 0:  # the text form: drop the top-level timing line
            report = [line for line in report.splitlines()
                      if not line.startswith("timing_ms: ")]
        outputs.append([code, report, captured.err])
    return outputs, hashlib.sha256(
        json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def test_pinned_outputs(tmp_path, capsys):
    outputs, digest = _digest(_pinned_calls(tmp_path), capsys)
    codes = [o[0] for o in outputs]
    assert codes.count(2) >= 4 and codes.count(0) >= 15
    assert digest == PINNED_DIGEST


def test_pinned_contact_points_in_extensions(tmp_path, capsys):
    outputs, digest = _digest(_contact_calls(tmp_path), capsys)
    degrees = {c["field_degree"] for code, report, _ in outputs if code == 0
               for cert in report["tritangents"] for c in cert["contacts"]}
    assert {2, 3} <= degrees
    assert digest == CONTACT_DIGEST


def test_contact_points_ask_for_no_tables(tmp_path, capsys, tables_asked):
    # contact points over F_(p^3) are found with scalar arithmetic: only
    # the fields the search runs over, F_p and F_(p^2), ask for Zech tables
    # (recorded, as other tests count over F_125 in this process)
    call = _contact_calls(tmp_path)[1]
    assert call[call.index("--prime") + 1] == "5" and run(call) == 0
    report = json.loads(capsys.readouterr().out)
    assert 3 in {c["field_degree"] for cert in report["tritangents"]
                 for c in cert["contacts"]}
    assert set(tables_asked) == {(5, 1), (5, 2)}


def test_contact_points_only_where_printed(tmp_path, capsys, monkeypatch):
    # a certificate finds its contact points when a report prints them:
    # once per tritangent in tritangent and certify, never in obstruct,
    # lattice or zeta
    calls, contact_points = [], geom._contact_points
    monkeypatch.setattr(geom, "_contact_points",
                        lambda *args: calls.append(args) or contact_points(
                            *args))
    printed = 0
    for name, (p, _) in BUNDLED.items():
        supplied = _with_all_counts(tmp_path, name)
        for command in ("obstruct", "lattice", "zeta", "tritangent",
                        "certify"):
            calls.clear()
            assert run([command, "--spec", supplied, "--prime", str(p),
                        "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            if command in ("tritangent", "certify"):
                assert len(calls) == len(report["tritangents"]) > 0
                printed += len(calls)
            else:
                assert calls == [], (name, command)
    assert printed >= 6


def test_pinned_outputs_of_every_command(tmp_path, capsys):
    outputs, digest = _digest(_all_command_calls(tmp_path), capsys)
    assert [o[0] for o in outputs] == [0] * len(outputs)
    assert digest == ALL_COMMANDS_DIGEST


def test_one_layer_call_per_fact(tmp_path, capsys, monkeypatch):
    # certify and obstruct run each layer as often as the facts need it,
    # and reach it through the cli names the benchmark's span wrappers
    # replace: a layer function captured elsewhere would go uncounted
    spans = _load(PERFBENCH / "spans.py", "perfbench_spans")
    names = [attr for mod, attr, _ in spans.WRAPPED if mod == "cli"]
    calls = collections.Counter()
    for name in names + ["field_create", "CacheStore"]:
        def counting(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counting)
    zeta_facts = {"CacheStore": 1, "count_series": 1, "determine_sign": 1,
                  "cyclotomic_part": 1}
    search = {"assert_good_reduction": 1, "field_create": 1,
              "find_tritangents": 1}
    # one rank over the closure of Q, one determinant of the F_p basis
    lattice = {"gram_rank_disc": 2}
    expected = {
        "rank1-p5": {**zeta_facts, **search, **lattice,
                     "lifts_to_second_order": 1},
        "rank1-p3": {**zeta_facts, **search, **lattice,
                     "lifts_to_second_order": 1},
        "rank3-conics": {**zeta_facts, **search, **lattice,
                         "lifts_to_second_order": 1,
                         "verify_conic_identity": 2},
    }
    for name, (p, _) in BUNDLED.items():
        calls.clear()
        assert run(["certify", "--spec", _with_all_counts(tmp_path, name),
                    "--prime", str(p), "--line-degree", "2",
                    "--cache", str(tmp_path / "counts.jsonl")]) == 0
        assert dict(calls) == expected[name], name
    calls.clear()
    assert run(["obstruct", "--spec", str(SURFACES / "rank1-p3.txt"),
                "--prime", "3"]) == 0
    assert dict(calls) == {**search, "lifts_to_second_order": 1}
    capsys.readouterr()
