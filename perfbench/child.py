"""Child-process entry points: the benchmark's work that runs inside a
Python process with the program imported.

    child.py setup  --workload W --seed S --dir D [--smoke]
    child.py certify --spans OUT -- <k3cert argv>
    child.py screen --dir D --seconds T --trace 0|1 --seed S

`setup` writes a workload's inputs; `certify` runs one traced certify call
and writes its spans; `screen` runs the whole screen workload in this one
process.  Each prints a JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

import checks
import spans
from reference import COUNTS, SURFACES

HERE = Path(__file__).resolve().parent
MONOMIALS = [(a, b, 6 - a - b) for a in range(7) for b in range(7 - a)]
SCREEN_PRIMES = (3, 5, 7)
SCREEN_LINE_DEGREE = 2
SEXTICS = 60
CERTIFY_REPEATS = 8  # warm certify calls per surface and pass


def top_counted_degree(p, smoke):
    """The largest degree the cold workloads count; above it the reference
    count is supplied as an `external:` line."""
    if smoke:
        return 5 if p == 3 else 3
    return 8 if p == 3 else 5


def timed_passes(one_pass, seconds):
    """Repeat one_pass() while another pass as long as the last one would
    end less than half a pass after `seconds`; at least one pass."""
    passes, start = [], time.perf_counter()
    while True:
        passes.append(one_pass())
        if time.perf_counter() - start + passes[-1]["pass_s"] / 2 > seconds:
            return passes


def surface_text(name, externals):
    text = (HERE / "surfaces" / f"{name}.txt").read_text()
    return text + "".join(f"external: {d} {COUNTS[name][d - 1]}\n"
                          for d in externals)


def m_degrees(name):
    return (22 - SURFACES[name][1]) // 2


def random_sextic(rng, p):
    """A dense integer sextic with coefficients in [-9, 9], not zero mod p."""
    while True:
        f6 = {m: rng.randint(-9, 9) for m in MONOMIALS}
        if any(c % p for c in f6.values()):
            return f6


def setup(workload, seed, out, smoke):
    """Write the workload's inputs into `out`; returns facts for provenance."""
    import numpy

    import k3cert.cli
    import k3cert.count
    from k3cert.count import CacheStore, fingerprint_mod_p

    out.mkdir(parents=True, exist_ok=True)
    if workload == "screen":
        cache = out / "cache.jsonl"
        cache.unlink(missing_ok=True)
        store = CacheStore(cache)
        for name in SURFACES:
            (out / f"{name}.txt").write_text(surface_text(name, ()))
            spec = k3cert.cli.load_surface_file(str(out / f"{name}.txt"))
            p = SURFACES[name][0]
            fp = fingerprint_mod_p(spec.f6, p)
            for d in range(1, m_degrees(name) + 1):
                store.put(fp, p, d, COUNTS[name][d - 1], "external")
        rng = random.Random(seed)
        manifest = []
        for i in range(6 if smoke else SEXTICS):
            p = SCREEN_PRIMES[i % len(SCREEN_PRIMES)]
            f6 = random_sextic(rng, p)
            path = out / f"sextic-{i:03d}.txt"
            path.write_text(f"name: sextic-{i:03d}\n" + "".join(
                f"f6: {a} {b} {c} {f6[(a, b, c)]}\n" for a, b, c in MONOMIALS))
            manifest.append({"file": path.name, "p": p})
        (out / "manifest.json").write_text(json.dumps(manifest))
    else:
        for name in SURFACES:
            p = SURFACES[name][0]
            top = top_counted_degree(p, smoke)
            (out / f"{name}.txt").write_text(
                surface_text(name, range(top + 1, m_degrees(name) + 1)))
    return {"count_block_elems": getattr(k3cert.count, "_BLOCK_ELEMS", None),
            "numpy": numpy.__version__}


# ---------------------------------------------------------------------------
# in-process runs


def run_cli(argv):
    """One cli.run call with its output captured: (rc, stdout, stderr, s)."""
    from k3cert import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def without_timing(stdout):
    """A report with its one nondeterministic field removed."""
    rep = checks.load_report(stdout)
    return stdout if rep is None else json.dumps(
        {k: v for k, v in rep.items() if k != "timing_ms"})


def certify_traced(spans_out, argv):
    rec = spans.Recorder()
    spans.install(rec)
    rec.enabled = True
    rc, out, err, _ = run_cli(argv)
    rec.enabled = False
    sys.stdout.write(out)
    sys.stderr.write(err)
    Path(spans_out).write_text(json.dumps(rec.spans))
    return rc


def screen(work, seconds, trace, seed):
    """Warm certify on the three surfaces, CERTIFY_REPEATS times, then
    obstruct on every sextic; after an untimed first pass, passes repeat
    for `seconds` (traced: one untraced and one traced pass)."""
    manifest = json.loads((work / "manifest.json").read_text())
    sextics = [(work / e["file"], e["p"]) for e in manifest]
    names = list(SURFACES)
    random.Random(seed).shuffle(names)
    rec = spans.Recorder()
    if trace:
        spans.install(rec)

    def certify_argv(name):
        return ["certify", "--spec", str(work / f"{name}.txt"), "-p",
                str(SURFACES[name][0]), "--json", "--cache",
                str(work / "cache.jsonl"), "--line-degree",
                str(SCREEN_LINE_DEGREE)]

    def one_pass():
        # certify rounds are spread over the pass, between chunks of sextics
        ops = []
        t0 = time.perf_counter()
        chunk = -(-len(sextics) // CERTIFY_REPEATS)
        for r in range(CERTIFY_REPEATS):
            for name in names:
                ops.append(("certify", name) + run_cli(certify_argv(name)))
            for path, p in sextics[r * chunk:(r + 1) * chunk]:
                ops.append(("sextic", str(p)) + run_cli(
                    ["obstruct", "--spec", str(path), "-p", str(p), "--json"]))
        return {"pass_s": time.perf_counter() - t0, "ops": ops}

    # an untimed first pass fills the program's caches and this process's
    # memory; its outputs are checked against the reference data, and every
    # timed pass must reproduce them
    warm = one_pass()
    if trace:
        passes = [one_pass()]
        rec.enabled = True
        passes.append(one_pass())
        rec.enabled = False
    else:
        passes = timed_passes(one_pass, seconds)

    from k3cert.cli import parse_surface_spec

    f6s = [parse_surface_spec(path.read_text()).f6.coeffs for path, _ in sextics]
    errors, verdicts = [], []
    failed = 0
    f6_iter = iter(f6s)
    for kind, label, rc, out, err, _ in warm["ops"]:
        if kind == "certify":
            errs = checks.check_certify(label, rc, out,
                                        ["cached"] * m_degrees(label))
        else:
            errs, summary = checks.check_obstruct(
                next(f6_iter), int(label), rc, out, err)
            verdicts.append([int(label), summary])
        failed += bool(errs)
        errors.extend(errs)
    reference = [(op[2], without_timing(op[3])) for op in warm["ops"]]
    for ps in passes:
        for ref, (kind, label, rc, out, _, _) in zip(reference, ps["ops"]):
            if (rc, without_timing(out)) != ref:
                failed += 1
                errors.append(f"{kind} {label}: output differs from the first pass")
    attempted = len(warm["ops"]) * (1 + len(passes))

    result = {
        "attempted": attempted, "failed": failed, "errors": errors[:20],
        "verdicts": verdicts,
        "outcomes": checks.outcome_counts(
            (kind, rc, out) for kind, _, rc, out, _, _ in passes[-1]["ops"]),
        "passes": [{
            "pass_s": ps["pass_s"],
            "ops": [{"kind": kind, "label": label, "rc": rc, "wall_s": wall,
                     "timing_s": checks.report_timing_s(rc, out)}
                    for kind, label, rc, out, _, wall in ps["ops"]],
        } for ps in passes],
        "spans": rec.spans,
    }
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--workload", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--dir", required=True)
    s.add_argument("--smoke", action="store_true")
    c = sub.add_parser("certify")
    c.add_argument("--spans", required=True)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    r = sub.add_parser("screen")
    r.add_argument("--dir", required=True)
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    if args.cmd == "setup":
        print(json.dumps(setup(args.workload, args.seed, Path(args.dir),
                               args.smoke)))
        return 0
    if args.cmd == "certify":
        rest = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return certify_traced(args.spans, rest)
    print(json.dumps(screen(Path(args.dir), args.seconds, args.trace,
                            args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
