"""The benchmark's span wrappers name pipeline functions by module and
attribute (perfbench/spans.py), and its checks (perfbench/checks.py)
evaluate reports with the program's own field and geometry code; a renamed
or broken one fails every benchmark run, which the test suite does not
otherwise start."""

import importlib
import importlib.util
import json
import random
from pathlib import Path

from k3cert import geom
from k3cert.cli import load_surface_file, run
from k3cert.count import CacheStore, fingerprint_mod_p
from k3cert.forms import IntForm

import data
from test_count import _fork_for_small_counts

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
QUARTICS = [(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)]


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _k3cert(name):
    return importlib.import_module(f"k3cert.{name}")


def test_span_wrapper_targets_exist():
    spans = _load(PERFBENCH / "spans.py", "perfbench_spans")
    assert spans.WRAPPED and spans.FIELD_CREATE_CALLERS
    for mod, attr, _ in spans.WRAPPED:
        assert callable(getattr(_k3cert(mod), attr, None)), (mod, attr)
    for mod in spans.FIELD_CREATE_CALLERS:
        assert callable(getattr(_k3cert(mod), "field_create", None)), mod
    assert callable(_k3cert("ffield")._field_create_cached.cache_info)
    store = _k3cert("cli").CacheStore
    assert callable(store) and callable(getattr(store, "put", None))


def test_field_create_span_per_built_field(monkeypatch):
    # the benchmark's wrapper keys a field_create span by the first two
    # arguments and spans only calls that build a field; a change to
    # field_create's signature must fail here before a traced run
    recorder = _install_spans(monkeypatch)
    cli = _k3cert("cli")
    p, d = 8191, 2  # a field that no other test builds
    ctx = cli.field_create(p, d)
    assert cli.field_create(p, d) is ctx  # a cache hit: no span
    assert [(s["name"], s["key"]) for s in recorder.spans] == [
        ("ffield.field_create", f"p{p}d{d}")]


def _install_spans(monkeypatch):
    """The benchmark's span wrappers on a recorder, enabled, with every
    name they replace restored after the test."""
    spans = _load(PERFBENCH / "spans.py", "perfbench_spans")
    mods = {m: _k3cert(m) for m in ("cli", "count", "geom")}
    for mod, attr, _ in spans.WRAPPED:
        monkeypatch.setattr(mods[mod], attr, getattr(mods[mod], attr))
    monkeypatch.setattr(mods["cli"], "CacheStore", mods["cli"].CacheStore)
    for mod in spans.FIELD_CREATE_CALLERS:
        monkeypatch.setattr(mods[mod], "field_create",
                            mods[mod].field_create)
    recorder = spans.Recorder()
    spans.install(recorder)
    recorder.enabled = True
    return recorder


def test_per_layer_span_keys(tmp_path, capsys, monkeypatch):
    # the per-layer metrics read spans by (name, key), and the key comes
    # from the position of an argument: on the screen workload's two
    # commands, a warm certify --line-degree 2 with one computed count and
    # an obstruct, the spans the metrics read must all be there
    spec = tmp_path / "rank1-p3.txt"
    spec.write_text((PERFBENCH.parent / "surfaces" / "rank1-p3.txt").read_text()
                    + "".join(f"external: {d} {n}\n" for d, n in
                              enumerate(data.COUNTS_B[1:9], start=2)))
    certify = ["certify", "--spec", str(spec), "-p", "3", "--line-degree", "2"]
    assert run(certify) == 0  # warm
    recorder = _install_spans(monkeypatch)
    assert run(certify) == 0
    assert run(["obstruct", "--spec", str(spec), "-p", "3"]) == 0
    capsys.readouterr()
    keys = {(s["name"], s["key"]) for s in recorder.spans}
    assert {("geom.find_tritangents", "e1"), ("geom.find_tritangents", "e2"),
            ("geom.assert_good_reduction", None),
            ("obstruct.lifts_to_second_order", None),
            ("count.count_points", "p3d1")} <= keys, keys


def test_benchmark_checks_accept_obstruct_reports(tmp_path, capsys,
                                                  monkeypatch):
    # the benchmark's checks evaluate singular witnesses with the field
    # arithmetic and re-derive decompositions with geom, so a change to
    # either must still pass them on correct obstruct reports
    monkeypatch.syspath_prepend(str(PERFBENCH))  # checks imports reference
    checks = _load(PERFBENCH / "checks.py", "perfbench_checks")
    g = IntForm({(2, 0, 0): 3, (1, 1, 0): -2, (1, 0, 1): 5, (0, 2, 0): 1,
                 (0, 1, 1): 1, (0, 0, 2): 2}, 2)
    h = IntForm({(2, 0, 0): 1, (1, 1, 0): 4, (1, 0, 1): -3, (0, 2, 0): -7,
                 (0, 1, 1): 2, (0, 0, 2): 5}, 2)
    singular = tmp_path / "g2h.txt"  # witness (0 : 1 : 380) over F_(101^2)
    singular.write_text("name: g2h\n" + "".join(
        f"f6: {a} {b} {c} {n}\n" for (a, b, c), n in (g * g * h).coeffs.items()))
    # a node at (1 : 2 : 3) mod 7, which smoothness_check finds by its
    # scan of P^2(F_7), without a Macaulay matrix
    rng = random.Random(1)
    Y = IntForm({(1, 0, 0): -2, (0, 1, 0): 1}, 1)
    Z = IntForm({(1, 0, 0): -3, (0, 0, 1): 1}, 1)
    node = sum((a * b * IntForm({m: rng.randint(-3, 3) for m in QUARTICS}, 4)
                for a, b in ((Y, Y), (Y, Z), (Z, Z))), IntForm({}, 6))
    scanned = tmp_path / "node.txt"
    scanned.write_text("name: node\n" + "".join(
        f"f6: {a} {b} {c} {n}\n" for (a, b, c), n in node.coeffs.items()))
    rational = PERFBENCH.parent / "surfaces" / "rank1-p5.txt"
    for path, p, want in ((singular, 101, ["singular"]),
                          (scanned, 7, ["singular"]),
                          (rational, 5, [["3*y+1*z", 1, "nonvanishing"]])):
        with monkeypatch.context() as patch:
            if path == scanned:
                patch.setattr(geom, "_macaulay_matrix", _no_matrix)
            rc = run(["obstruct", "--spec", str(path), "-p", str(p), "--json"])
        out, err = capsys.readouterr()
        assert rc == (2 if want == ["singular"] else 0), err
        if path == scanned:
            assert "witness (1, 2, 3) over F_7^1" in err
        f6 = load_surface_file(str(path)).f6.coeffs
        errors, summary = checks.check_obstruct(f6, p, rc, out, err)
        assert errors == [] and summary == want


def _no_matrix(*args):
    raise AssertionError("a Macaulay matrix was built")


def test_benchmark_checks_accept_certify_reports(tmp_path, capsys,
                                                 monkeypatch):
    # the two certify command lines of the benchmark (one count workload
    # process, and the warm --line-degree 2 call of the screen workload)
    # must parse and pass its certify check: a dropped option or a changed
    # report field fails every benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))  # checks imports reference
    checks = _load(PERFBENCH / "checks.py", "perfbench_checks")
    spec = tmp_path / "rank1-p3.txt"
    spec.write_text((PERFBENCH.parent / "surfaces" / "rank1-p3.txt").read_text()
                    + "".join(f"external: {d} {n}\n" for d, n in
                              enumerate(data.COUNTS_B[:9], start=1)))
    for i, extra in enumerate((["--workers", "2"], ["--line-degree", "2"])):
        cache = tmp_path / f"cache-{i}.jsonl"
        rc = run(["certify", "--spec", str(spec), "-p", "3", "--json",
                  "--cache", str(cache)] + extra)
        out, err = capsys.readouterr()
        assert checks.check_certify("rank1-p3", rc, out, ["external"] * 10,
                                    cache_path=cache) == [], (extra, err)
    # the benchmark's own surface files, read as they are (rank3-conics
    # keeps its old gram: rows, and each its k: line), with every count
    # external: a claim that became fatal, or a k that moved, fails here
    reference = _load(PERFBENCH / "reference.py", "perfbench_reference")
    for path in sorted((PERFBENCH / "surfaces").glob("*.txt")):
        name = path.stem
        p = reference.SURFACES[name][0]
        spec = tmp_path / path.name
        spec.write_text(path.read_text() + "".join(
            f"external: {d} {n}\n"
            for d, n in enumerate(reference.COUNTS[name], start=1)))
        rc = run(["certify", "--spec", str(spec), "-p", str(p), "--json"])
        out, err = capsys.readouterr()
        m = (22 - reference.SURFACES[name][1]) // 2
        assert checks.check_certify(name, rc, out, ["external"] * m) == [], \
            (name, err)


def test_benchmark_checks_accept_forked_counts(tmp_path, capsys, monkeypatch):
    # the certify-parallel command line with counts d <= 5 made by the CLI
    # through the forked split (as if two CPUs were usable and every count
    # large enough), the rest external, must pass the benchmark's check
    monkeypatch.syspath_prepend(str(PERFBENCH))  # checks imports reference
    checks = _load(PERFBENCH / "checks.py", "perfbench_checks")
    forks = _fork_for_small_counts(monkeypatch, cpus=2)
    spec = tmp_path / "rank1-p3.txt"
    spec.write_text((PERFBENCH.parent / "surfaces" / "rank1-p3.txt").read_text()
                    + "".join(f"external: {d} {n}\n" for d, n in
                              enumerate(data.COUNTS_B[5:9], start=6)))
    cache = tmp_path / "cache.jsonl"
    rc = run(["certify", "--spec", str(spec), "-p", "3", "--json",
              "--cache", str(cache), "--workers", "2"])
    out, err = capsys.readouterr()
    assert checks.check_certify("rank1-p3", rc, out,
                                ["computed"] * 5 + ["external"] * 5,
                                cache_path=cache) == [], err
    assert len(forks) == 5  # one child for each counted degree


def test_benchmark_setup_writes_every_workload(tmp_path, monkeypatch):
    # perfbench/child.py's setup, at smoke size, writes inputs that the
    # program reads back: a surface file per bundled surface (and for screen
    # six sextics and a count cache); a deletion or rename in the program
    # that breaks the benchmark's set-up fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))  # child imports its siblings
    child = _load(PERFBENCH / "child.py", "perfbench_child")
    for workload in ("certify-cold", "certify-parallel", "screen"):
        out = tmp_path / workload
        child.setup(workload, 1, out, True)
        for name, (p, *_) in child.SURFACES.items():
            f6 = load_surface_file(str(out / f"{name}.txt")).f6
            if workload == "screen":
                store = CacheStore(out / "cache.jsonl")
                assert store.get(fingerprint_mod_p(f6, p), p, 1) == \
                    child.COUNTS[name][0]
        if workload == "screen":
            manifest = json.loads((out / "manifest.json").read_text())
            assert len(manifest) == 6
            for entry in manifest:
                load_surface_file(str(out / entry["file"]))
