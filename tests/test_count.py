import hashlib
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from k3cert import count
from k3cert.count import (
    CacheStore,
    count_points,
    count_series,
    fingerprint_mod_p,
    trace_from_count,
)
from k3cert.errors import (BudgetExceededError, SingularReductionError,
                           WeilBoundError)
from k3cert.ffield import field_create
from k3cert.forms import IntForm, reduce_mod

import data
from oracles import (ObjForm, chart_points, chart_value_logs, elements,
                     eval_form, quad_char)


def _slow_count(f6: IntForm, p: int, d: int) -> int:
    """Independent oracle: direct enumeration with FieldElem arithmetic."""
    ctx = field_create(p, d)
    f = ObjForm.of(reduce_mod(f6, field_create(p, 1))).embed(ctx)
    els = elements(ctx)
    one, zero = ctx.one(), ctx.zero()
    s = 0
    for y in els:
        for z in els:
            s += quad_char(eval_form(f, (one, y, z)))
    for z in els:
        s += quad_char(eval_form(f, (zero, one, z)))
    s += quad_char(eval_form(f, (zero, zero, one)))
    q = ctx.q
    return q * q + q + 1 + s


def test_surface_a_small_counts():
    f6 = IntForm(data.F6_A)
    assert count_points(f6, 5, 1).N == 41
    assert count_points(f6, 5, 2).N == 751
    assert count_points(f6, 5, 3).N == 15626


def test_surface_b_small_counts():
    f6 = IntForm(data.F6_B)
    assert count_points(f6, 3, 1).N == 19
    assert count_points(f6, 3, 2).N == 127
    assert count_points(f6, 3, 3).N == 676


def test_matches_slow_oracle_on_random_forms():
    rng = random.Random(99)
    for p, d in [(3, 1), (5, 1), (3, 2), (7, 1)]:
        for _ in range(4):
            coeffs = {}
            for a in range(7):
                for b in range(7 - a):
                    if rng.random() < 0.5:
                        coeffs[(a, b, 6 - a - b)] = rng.randrange(-10, 11)
            if not any(v % p for v in coeffs.values()):
                coeffs[(6, 0, 0)] = 1
            f6 = IntForm(coeffs, 6)
            assert count_points(f6, p, d).N == _slow_count(f6, p, d)


def test_trace_examples():
    assert trace_from_count(41, 5) == 15
    assert trace_from_count(751, 25) == 125
    assert trace_from_count(1 + 49, 7) == 0
    with pytest.raises(WeilBoundError):
        trace_from_count(10 ** 6, 5)


def test_counts_invariant_under_variable_permutation():
    rng = random.Random(7)
    f6 = IntForm({(a, b, 6 - a - b): rng.randrange(1, 9)
                  for a in range(7) for b in range(7 - a) if rng.random() < 0.6},
                 6)
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)]
    for p, d in [(5, 1), (3, 2)]:
        vals = set()
        for perm in perms:
            g = IntForm({tuple(m[perm[i]] for i in range(3)): c
                         for m, c in f6.coeffs.items()}, 6)
            vals.add(count_points(g, p, d).N)
        assert len(vals) == 1


def test_chart_subtotals_sum_to_full_count():
    f6 = IntForm(data.F6_A)
    p, d = 5, 1
    ctx = field_create(p, d)
    f = reduce_mod(f6, field_create(p, 1))
    total = 0
    npts = 0
    for chart in (0, 1, 2):
        logs = chart_value_logs(f, ctx, chart)
        npts += len(logs)
        for v in logs:
            total += 0 if v < 0 else (1 - 2 * (int(v) & 1))
    assert npts == ctx.q ** 2 + ctx.q + 1
    assert npts + total == count_points(f6, p, d).N


def test_chart_points_align_with_chart_logs():
    f6 = IntForm(data.F6_B)
    ctx = field_create(3, 2)
    f = reduce_mod(f6, field_create(3, 1))
    for chart in (0, 1, 2):
        logs = chart_value_logs(f, ctx, chart)
        pts = chart_points(ctx, chart)
        assert len(logs) == len(pts)
        femb = ObjForm.of(f).embed(ctx)
        for v, pt in zip(logs, pts):
            val = eval_form(femb, pt)
            assert (v < 0) == val.is_zero()
            if v >= 0:
                assert quad_char(val) == (1 - 2 * (int(v) & 1))


def _fork_for_small_counts(monkeypatch, cpus=4):
    """Fork for these small fields too, as if `cpus` CPUs were usable, and
    record the pid of every child forked."""
    monkeypatch.setattr(count, "_FORK_MIN_ELEMS", 0)
    monkeypatch.setattr(count, "_usable_cpus", lambda: cpus)
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_parallel_equals_serial(monkeypatch):
    pids = _fork_for_small_counts(monkeypatch)
    for f6, p, d, n in [(data.F6_A, 5, 3, data.COUNTS_A[2]),
                        (data.F6_B, 3, 5, data.COUNTS_B[4])]:
        counts = {count_points(IntForm(f6), p, d, workers=w).N for w in (1, 2, 3)}
        assert counts == {n}
    # workers - 1 children per count: 0 + 1 + 2 for each of the two fields
    assert len(pids) == 6
    _assert_reaped(pids)


def test_shares_capped_by_usable_cpus(monkeypatch):
    # a large --workers forks one child per other usable CPU, no more
    pids = _fork_for_small_counts(monkeypatch, cpus=2)
    assert count_points(IntForm(data.F6_B), 3, 5, workers=1000).N == data.COUNTS_B[4]
    assert len(pids) == 1
    _assert_reaped(pids)


def _failing_share(monkeypatch, in_child):
    """Make _affine_chart_sum raise in the forked children (in_child) or
    in the counting process itself."""
    parent = os.getpid()
    kernel = count._affine_chart_sum

    def share(*args, **kwargs):
        if (os.getpid() != parent) == in_child:
            raise RuntimeError("share failed")
        return kernel(*args, **kwargs)

    monkeypatch.setattr(count, "_affine_chart_sum", share)


def test_failed_child_share_raises_and_is_reaped(monkeypatch):
    pids = _fork_for_small_counts(monkeypatch)
    _failing_share(monkeypatch, in_child=True)
    with pytest.raises(ChildProcessError, match="exited with status 1"):
        count_points(IntForm(data.F6_B), 3, 5, workers=3)
    assert len(pids) == 2
    _assert_reaped(pids)


def test_failed_parent_share_leaves_no_child(monkeypatch):
    pids = _fork_for_small_counts(monkeypatch)
    _failing_share(monkeypatch, in_child=False)
    with pytest.raises(RuntimeError, match="share failed"):
        count_points(IntForm(data.F6_B), 3, 5, workers=2)
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _random_sextic(rng):
    coeffs = {(a, b, 6 - a - b): rng.randrange(-10, 11)
              for a in range(7) for b in range(7 - a) if rng.random() < 0.6}
    coeffs[(6, 0, 0)] = 1
    return IntForm(coeffs, 6)


def test_orbit_weighted_affine_sum():
    rng = random.Random(2024)
    for p, d in [(3, 4), (3, 6), (5, 4), (7, 3)]:
        ctx = field_create(p, d)
        reps, sizes = count._frobenius_orbits(ctx)
        assert int(sizes.sum()) == ctx.q - 1
        ylogs, weights = count._affine_rows(ctx)
        assert len(ylogs) == len(reps) + 1
        for _ in range(2):
            f = reduce_mod(_random_sextic(rng), field_create(p, 1))
            coef = count._coef_log_matrix(ctx, f)
            logs = chart_value_logs(f, ctx, 0)
            valid = logs >= 0
            full = int(valid.sum()) - 2 * int((logs[valid] & 1).sum())
            assert count._affine_chart_sum(ctx, coef, ylogs, weights) == full
            # several kernel blocks, the last one partial
            assert count._affine_chart_sum(ctx, coef, ylogs, weights,
                                           block_elems=3 * ctx.q) == full


def test_budget_policy():
    f6 = IntForm(data.F6_A)
    with pytest.raises(BudgetExceededError):
        count_points(f6, 5, 8)  # q^2 = 5^16 > 4e9 without deep


def test_zero_reduction_rejected():
    f6 = IntForm({(6, 0, 0): 5})
    with pytest.raises(SingularReductionError):
        count_points(f6, 5, 1)


def test_fingerprint_survives_equivalent_lifts():
    f6 = IntForm(data.F6_A)
    g6 = f6 + IntForm({(3, 3, 0): 5, (0, 0, 6): 25}, 6)
    assert fingerprint_mod_p(f6, 5) == fingerprint_mod_p(g6, 5)
    assert fingerprint_mod_p(f6, 5) != fingerprint_mod_p(f6, 3)
    assert count_points(g6, 5, 1).N == 41


def test_fingerprint_is_sha256_and_maps_no_openssl():
    # the fingerprint is the SHA-256 of the serialization mod p; where
    # CPython has its own SHA-256 module, importing the program loads no
    # OpenSSL (hashlib's would add 3.4 MB of resident memory)
    f6 = IntForm(data.F6_A)
    text = reduce_mod(f6, field_create(5, 1)).serialize().encode()
    assert fingerprint_mod_p(f6, 5) == hashlib.sha256(text).hexdigest()
    if importlib.util.find_spec("_sha256") is None:
        return
    src = str(Path(count.__file__).resolve().parent.parent)
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, k3cert.cli; print('_hashlib' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert probe.stdout.strip() == "False"


def test_series_cache_and_external(tmp_path):
    f6 = IntForm(data.F6_A)
    cache = CacheStore(tmp_path / "counts.jsonl")
    s1 = count_series(f6, 5, 3, cache)
    assert s1.counts() == [41, 751, 15626]
    assert s1.sources == ("computed", "computed", "computed")
    cache2 = CacheStore(tmp_path / "counts.jsonl")
    s2 = count_series(f6, 5, 3, cache2)
    assert s2.counts() == s1.counts()
    assert s2.sources == ("cached", "cached", "cached")
    ext = {4: data.COUNTS_A[3]}
    s3 = count_series(f6, 5, 4, cache2, external=ext)
    assert s3.sources == ("cached", "cached", "cached", "external")
    assert s3.counts()[3] == data.COUNTS_A[3]


def test_series_traces():
    f6 = IntForm(data.F6_B)
    s = count_series(f6, 3, 3)
    assert s.traces() == [data.COUNTS_B[i] - 1 - 9 ** (i + 1) for i in range(3)]
