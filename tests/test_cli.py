import json
from pathlib import Path

from k3cert.cli import (
    load_surface_file,
    parse_surface_spec,
    run,
    serialize_surface_spec,
)
from k3cert.forms import IntForm

import data

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
    code = run(["tritangent", "--spec", str(path), "--prime", "5"])
    assert code == 2


def test_unknown_stage_is_usage_error(capsys):
    code = run(["frobenify", "--spec", "x", "--prime", "3"])
    assert code == 1


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
    assert all(c["identity_verified"] for c in out["conics"])
    assert out["gram"]["rank"] == 3


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


def test_missing_file_is_usage_error(capsys):
    code = run(["count", "--spec", "/nonexistent/file.txt", "--prime", "5"])
    assert code == 1
