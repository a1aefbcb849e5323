#!/usr/bin/env python3
"""k3cert benchmark: time to a certified Picard rank, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root; the program is imported from `src/`.
Workloads:

  certify-cold      `k3cert certify --json` on the three bundled surfaces,
                    each call a fresh process with one worker and an empty
                    --cache file; counts d <= 8 at p = 3 and d <= 5 at p = 5,
                    the higher degrees are supplied as `external:` lines.
  certify-parallel  the same calls with --workers 2.
  screen            one process: warm `certify --line-degree 2` with a
                    pre-filled count cache, then `obstruct` on seeded random
                    dense integer sextics, p cycling through 3, 5, 7.

A run sets up SETUP_REPEATS times (a fresh interpreter that imports the
program and writes the inputs; the median is `setup_s`), then times passes
over the inputs for about --seconds and reports medians (screen first
makes one untimed pass, so that its calls are warm).  Every operation is
checked against the reference data; the last line of output is the JSON
result, the line before it the provenance.  With --trace 1 the run makes
one untraced pass and one traced pass (the count workloads add a traced
pass at the other worker count, for the parallel efficiency) and reports
the per-layer metrics from the spans recorded by spans.py.  Spans,
samples, provenance and the result are written to
.perfbench_work/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from child import m_degrees, timed_passes, top_counted_degree  # noqa: E402
from reference import DEFAULT_SEED, SCREEN_VERDICT_DIGEST, SURFACES  # noqa: E402

WORKLOADS = {"certify-cold": 1, "certify-parallel": 2, "screen": None}
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s", "pass_s": "s",
    **{f"certify_s.{n}": "s" for n in SURFACES},
    "verdicts_per_s": "1/s", "peak_rss_mb": "MB",
}
MPTS_KEYS = ("p3d7", "p3d8", "p5d5")
PER_LAYER = {
    "count.count_series_s": "s", "count.count_points_s": "s",
    **{f"count.mpts_s.{k}": "Mpts/s" for k in MPTS_KEYS},
    "count.parallel_efficiency": "ratio",
    "count.cache_hits": "count", "count.cache_misses": "count",
    "count.cache_s": "s", "ffield.field_create_s": "s", "cli.startup_s": "s",
    "zeta.determine_sign_s": "s", "zeta.cyclotomic_part_s": "s",
    "zeta.predicted_count_s": "s",
    "geom.smoothness_s.smooth": "s", "geom.smoothness_s.singular": "s",
    "geom.find_tritangents_s.e1": "s", "geom.find_tritangents_s.e2": "s",
    "geom.verify_conic_identity_s": "s",
    "geom.singular_share": "ratio", "geom.rational_tritangent_share": "ratio",
    "obstruct.lifts_to_second_order_s": "s",
    "obstruct.nonvanishing_share": "ratio", "lattice.gram_rank_disc_s": "s",
    "trace.overhead_s": "s", "trace.uncovered_s": "s",
    "trace.count_ffield_share": "ratio", "check.failed_share": "ratio",
}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv):
    """Run a child to completion: (rc, wall seconds, stdout, stderr).

    The child leads its own process group, so that on a timeout its
    counting workers are killed with it."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT, env=child_env(),
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child did not finish in {CHILD_TIMEOUT_S} s: {argv}")
    return proc.returncode, time.perf_counter() - t0, out, err


def children_peak_rss_kb():
    """Largest resident set of any child (or its descendants) so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the count workloads: one certify process per surface


def run_count_pass(work, names, workers, traced, smoke):
    ops = []
    t0 = time.perf_counter()
    for name in names:
        p = SURFACES[name][0]
        cache = work / f"cache-{name}.jsonl"
        cache.write_text("")
        k3 = ["certify", "--spec", str(work / "inputs" / f"{name}.txt"), "-p",
              str(p), "--json", "--cache", str(cache), "--workers", str(workers)]
        span_file = work / f"spans-{name}.json"
        span_file.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(HERE / "child.py"), "certify",
                    "--spans", str(span_file), "--"] + k3
        else:
            argv = [sys.executable, "-m", "k3cert.cli"] + k3
        rc, wall, out, err = spawn(argv)
        top = top_counted_degree(p, smoke)
        sources = ["computed"] * top + ["external"] * (m_degrees(name) - top)
        errors = checks.check_certify(name, rc, out, sources, cache)
        if rc != 0:
            errors.append(f"{name}: stderr {err.strip()[-300:]!r}")
        ops.append({"kind": "certify", "label": name, "rc": rc, "wall_s": wall,
                    "stdout": out, "errors": errors,
                    "timing_s": checks.report_timing_s(rc, out),
                    "spans": json.loads(span_file.read_text())
                    if span_file.exists() else []})
    return {"pass_s": time.perf_counter() - t0, "workers": workers, "ops": ops}


def run_count(work, workers, seed, seconds, trace, smoke):
    names = list(SURFACES)
    random.Random(seed).shuffle(names)
    if trace:
        passes = [run_count_pass(work, names, workers, False, smoke),
                  run_count_pass(work, names, workers, True, smoke),
                  run_count_pass(work, names, 3 - workers, True, smoke)]
    else:
        passes = timed_passes(
            lambda: run_count_pass(work, names, workers, False, smoke), seconds)
    ops = [op for ps in passes for op in ps["ops"]]
    data = {
        "attempted": len(ops), "failed": sum(bool(op["errors"]) for op in ops),
        "errors": [e for op in ops for e in op["errors"]],
        "pass_s": [ps["pass_s"] for ps in passes],
        "certify_s": {n: [op["wall_s"] for op in ops if op["label"] == n]
                      for n in SURFACES},
        "verdicts_per_s": [len(ps["ops"]) / ps["pass_s"] for ps in passes],
        "peak_rss_kb": children_peak_rss_kb(),
        "passes": passes,
    }
    if trace:
        plain, traced, _ = passes
        by_workers = {ps["workers"]: [op["spans"] for op in ps["ops"]]
                      for ps in passes[1:]}
        data["trace"] = {
            "plain_s": plain["pass_s"], "traced_s": traced["pass_s"],
            "span_lists": by_workers[workers], "by_workers": by_workers,
            "outcomes": checks.outcome_counts(
                (op["kind"], op["rc"], op["stdout"]) for op in traced["ops"]),
            "startup_s": cli_overhead_s(plain)}
    return data


def cli_overhead_s(one_pass):
    """Seconds of a pass spent outside the reports' own timing_ms: process
    start-up and import for a fresh process, argument and file handling
    and report output for an in-process call."""
    return sum(op["wall_s"] - op["timing_s"] for op in one_pass["ops"])


# ---------------------------------------------------------------------------
# the screen workload: one process


def run_screen(work, seed, seconds, trace, smoke):
    rc, _, out, err = spawn(
        [sys.executable, str(HERE / "child.py"), "screen", "--dir",
         str(work / "inputs"), "--seconds", str(seconds), "--trace",
         str(int(trace)), "--seed", str(seed)])
    if rc != 0:
        raise BenchError(f"screen child failed with exit code {rc}: {err[-2000:]}")
    res = last_json(out)
    errors = list(res["errors"])
    failed = res["failed"]
    digest = hashlib.sha256(json.dumps(res["verdicts"]).encode()).hexdigest()
    if (seed == DEFAULT_SEED and not smoke and SCREEN_VERDICT_DIGEST
            and digest != SCREEN_VERDICT_DIGEST):
        errors.append(f"screen verdict digest {digest} differs from the one "
                      f"recorded for seed {DEFAULT_SEED}")
        failed = max(failed, 1)
    passes = res["passes"]
    data = {
        "attempted": res["attempted"], "failed": failed, "errors": errors,
        "verdict_digest": digest,
        "pass_s": [ps["pass_s"] for ps in passes],
        "certify_s": {n: [op["wall_s"] for ps in passes for op in ps["ops"]
                          if op["label"] == n] for n in SURFACES},
        "verdicts_per_s": [
            len(walls) / sum(walls) for walls in
            ([op["wall_s"] for op in ps["ops"] if op["kind"] == "sextic"]
             for ps in passes)],
        "peak_rss_kb": children_peak_rss_kb(),
        "passes": passes,
    }
    if trace:
        plain, traced = passes
        data["trace"] = {
            "plain_s": plain["pass_s"], "traced_s": traced["pass_s"],
            "span_lists": [res["spans"]], "by_workers": {},
            "outcomes": res["outcomes"], "startup_s": cli_overhead_s(plain)}
    return data


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(setup_walls, data):
    med = statistics.median
    return {
        "setup_s": med(setup_walls),
        "pass_s": med(data["pass_s"]),
        **{f"certify_s.{n}": med(v) for n, v in data["certify_s"].items()},
        "verdicts_per_s": med(data["verdicts_per_s"]),
        "peak_rss_mb": data["peak_rss_kb"] / 1024,
    }


def per_layer_metrics(trace, failed_share):
    """Per-layer metrics of a traced run: self seconds per layer in the
    traced pass, rates, shares and counts."""
    summary = spans.summarize(trace["span_lists"])
    layers = summary["layers"]
    by_workers, outcomes = trace["by_workers"], trace["outcomes"]
    traced_s = trace["traced_s"]

    def self_s(name, key=None, outcome=None, source=layers):
        return sum((v["self_s"] for (n, k, o), v in source.items()
                    if n == name and (key is None or k == key)
                    and (outcome is None or o == outcome)), 0.0)

    def mpts(key):
        t = self_s("count.count_points", key)
        p, d = (int(x) for x in key[1:].split("d"))
        q = p ** d
        return (q * q + q + 1) / t / 1e6 if t else 0.0

    efficiency = 0.0
    if by_workers:
        t1, t2 = (self_s("count.count_points",
                         source=spans.summarize(by_workers[w])["layers"])
                  for w in (1, 2))
        efficiency = t1 / (2 * t2) if t2 else 0.0
    count_s = sum(self_s(n) for n in ("count.count_series",
                                      "count.count_points", "count.CacheStore",
                                      "count.CacheStore.put"))
    field_s = self_s("ffield.field_create")
    sextics = outcomes["sextics"]
    return {
        "count.count_series_s": self_s("count.count_series"),
        "count.count_points_s": self_s("count.count_points"),
        **{f"count.mpts_s.{k}": mpts(k) for k in MPTS_KEYS},
        "count.parallel_efficiency": efficiency,
        "count.cache_hits": outcomes["cached"],
        "count.cache_misses": outcomes["computed"],
        "count.cache_s": self_s("count.CacheStore") + self_s("count.CacheStore.put"),
        "ffield.field_create_s": field_s,
        "cli.startup_s": trace["startup_s"],
        "zeta.determine_sign_s": self_s("zeta.determine_sign"),
        "zeta.cyclotomic_part_s": self_s("zeta.cyclotomic_part"),
        "zeta.predicted_count_s": self_s("zeta.predicted_count"),
        "geom.smoothness_s.smooth": self_s("geom.assert_good_reduction", outcome="ok"),
        "geom.smoothness_s.singular": self_s("geom.assert_good_reduction",
                                             outcome="raised"),
        "geom.find_tritangents_s.e1": self_s("geom.find_tritangents", "e1"),
        "geom.find_tritangents_s.e2": self_s("geom.find_tritangents", "e2"),
        "geom.verify_conic_identity_s": self_s("geom.verify_conic_identity"),
        "geom.singular_share": outcomes["singular"] / sextics if sextics else 0.0,
        "geom.rational_tritangent_share":
            outcomes["rational_split"] / sextics if sextics else 0.0,
        "obstruct.lifts_to_second_order_s": self_s("obstruct.lifts_to_second_order"),
        "obstruct.nonvanishing_share":
            outcomes["nonvanishing"] / outcomes["obstructions"]
            if outcomes["obstructions"] else 0.0,
        "lattice.gram_rank_disc_s": self_s("lattice.gram_rank_disc"),
        "trace.overhead_s": traced_s - trace["plain_s"],
        "trace.uncovered_s": traced_s - summary["root_s"],
        "trace.count_ffield_share": (count_s + field_s) / traced_s,
        "check.failed_share": failed_share,
    }


# ---------------------------------------------------------------------------
# provenance


def provenance(facts):
    """Where a result was measured: program version, machine and runtime."""
    src = sorted((ROOT / "src" / "k3cert").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    block = facts.get("count_block_elems")
    return {
        "commit": commit, "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "caches": caches,
        "python": platform.python_version(), "numpy": facts.get("numpy"),
        "count_block_bytes": None if block is None else block * 8,
        "note": "count_block_bytes is computed from the kernel's int64 block "
                "size (one such array per temporary), compared here with the "
                "cache sizes above; no bytes-moved figure was measured",
    }


# ---------------------------------------------------------------------------
# entry point


def run_workload(name, seed, seconds, trace, smoke=False):
    if not (ROOT / "src" / "k3cert" / "cli.py").is_file():
        raise BenchError(f"program sources not found under {ROOT / 'src'}")
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    setup_walls = []
    for _ in range(SETUP_REPEATS):
        rc, wall, out, err = spawn(
            [sys.executable, str(HERE / "child.py"), "setup", "--workload", name,
             "--seed", str(seed), "--dir", str(work / "inputs")]
            + (["--smoke"] if smoke else []))
        if rc != 0:
            raise BenchError(f"setup failed with exit code {rc}: {err[-2000:]}")
        setup_walls.append(wall)
    facts = last_json(out)

    if WORKLOADS[name] is None:
        data = run_screen(work, seed, seconds, trace, smoke)
    else:
        data = run_count(work, WORKLOADS[name], seed, seconds, trace, smoke)
    if trace:
        values = per_layer_metrics(data["trace"],
                                   data["failed"] / data["attempted"])
        units = PER_LAYER
    else:
        values = end_to_end_metrics(setup_walls, data)
        units = END_TO_END
    result = {
        "correct": data["failed"] == 0 and not data["errors"],
        "attempted": data["attempted"], "failed": data["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    prov = provenance(facts)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "provenance": prov, "result": result,
              "errors": data["errors"][:50],
              "samples": {k: data[k] for k in ("pass_s", "certify_s",
                                               "verdicts_per_s")},
              "setup_s": setup_walls,
              "verdict_digest": data.get("verdict_digest"),
              "op_wall_s": [[[op["label"], op["wall_s"]] for op in ps["ops"]]
                            for ps in data["passes"]],
              "trace_data": data.get("trace")}
    (work / "result.json").write_text(json.dumps(record, indent=1))
    return prov, result, data["errors"]


def smoke():
    """All workloads at small sizes, untraced and traced: every metric of
    BENCHMARK.json is emitted with its unit and every check passes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for wl in spec["workloads"]:
        for trace in (0, 1):
            _, result, errors = run_workload(wl["name"], DEFAULT_SEED, 1, trace,
                                             smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            good = (got == want[trace] and result["correct"] and all(
                isinstance(v["value"], (int, float))
                for v in result["metrics"].values()))
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {wl['name']} trace={trace} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  + ("" if got == want[trace] else
                     f" metrics differ: {sorted(set(got) ^ set(want[trace]))}")
                  + "".join(f"\n     {e}" for e in errors[:5]))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at small sizes and check the "
                         "metric names and units")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        prov, result, errors = run_workload(args.workload, args.seed,
                                            args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for e in errors[:10]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
