"""Spans around the pipeline's calls into each layer, recorded from outside.

The program is not changed: `install` replaces the public names in the
modules that call them (`k3cert.cli`, `k3cert.count`, `k3cert.geom`) with
wrappers that record a span per call.  Spans are kept in memory with
their parent and written out when the benchmark ends.  `field_create` is
cached by the program, so only calls that build a field are recorded.
"""

from __future__ import annotations

import functools
import time

# (module, attribute, span name); the span name is the layer-qualified
# public name that the per-layer metrics are keyed by
WRAPPED = (
    ("cli", "count_series", "count.count_series"),
    ("count", "count_points", "count.count_points"),
    ("cli", "determine_sign", "zeta.determine_sign"),
    ("cli", "cyclotomic_part", "zeta.cyclotomic_part"),
    ("cli", "predicted_count", "zeta.predicted_count"),
    ("cli", "assert_good_reduction", "geom.assert_good_reduction"),
    ("cli", "find_tritangents", "geom.find_tritangents"),
    ("cli", "verify_conic_identity", "geom.verify_conic_identity"),
    ("cli", "lifts_to_second_order", "obstruct.lifts_to_second_order"),
    ("cli", "gram_rank_disc", "lattice.gram_rank_disc"),
)
FIELD_CREATE_CALLERS = ("cli", "count", "geom")


def _key(name, args, kwargs):
    if name == "count.count_points":
        return f"p{args[1]}d{args[2]}"
    if name == "geom.find_tritangents":
        e = args[1] if len(args) > 1 else kwargs.get("search_field_degree", 1)
        return f"e{e}"
    return None


class Recorder:
    """In-memory span list; a span is a dict with id, parent, name, key,
    outcome (ok | raised) and perf_counter start and end."""

    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = False
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        return sid, parent

    def wrap(self, name, fn):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid, parent = self._open()
            self._stack.append(sid)
            outcome = "raised"
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                outcome = "ok"
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append({"id": sid, "parent": parent, "name": name,
                                   "key": _key(name, args, kwargs),
                                   "outcome": outcome, "t0": t0, "t1": t1})
        return traced

    def wrap_field_create(self, fn, cache_info):
        """Record a span only when the call missed the program's cache."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            misses = cache_info().misses
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
            if cache_info().misses != misses:
                sid, parent = self._open()
                self.spans.append({"id": sid, "parent": parent,
                                   "name": "ffield.field_create",
                                   "key": f"p{args[0]}d{args[1]}",
                                   "outcome": "ok", "t0": t0, "t1": t1})
            return result
        return traced

    def wrap_cache_store(self, cls):
        """Span the construction of a CacheStore and every put on it."""
        make = self.wrap("count.CacheStore", cls)
        wrap = self.wrap

        @functools.wraps(cls, updated=())
        def traced(*args, **kwargs):
            store = make(*args, **kwargs)
            store.put = wrap("count.CacheStore.put", store.put)
            return store
        return traced


def install(recorder: Recorder) -> None:
    """Replace the public names in their calling modules by wrappers."""
    import importlib

    mods = {m: importlib.import_module(f"k3cert.{m}")
            for m in ("cli", "count", "geom", "ffield")}
    for mod, attr, name in WRAPPED:
        setattr(mods[mod], attr, recorder.wrap(name, getattr(mods[mod], attr)))
    cli = mods["cli"]
    cli.CacheStore = recorder.wrap_cache_store(cli.CacheStore)
    cache_info = mods["ffield"]._field_create_cached.cache_info
    for mod in FIELD_CREATE_CALLERS:
        setattr(mods[mod], "field_create",
                recorder.wrap_field_create(mods[mod].field_create, cache_info))


def summarize(span_lists) -> dict:
    """Per (name, key): calls, inclusive and self seconds, split by
    outcome; plus the seconds covered by root spans.

    Each element of span_lists holds the spans of one process.  A span's
    self time is its duration minus that of its direct children, which
    are nested and run one after another."""
    out: dict = {}
    root_s = 0.0
    for spans in span_lists:
        child_s: dict = {}
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["t1"] - s["t0"]
        for s in spans:
            dur = s["t1"] - s["t0"]
            if s["parent"] is None:
                root_s += dur
            agg = out.setdefault((s["name"], s["key"], s["outcome"]),
                                 {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["incl_s"] += dur
            agg["self_s"] += dur - child_s.get(s["id"], 0.0)
    return {"layers": out, "root_s": root_s}
