"""The benchmark's span wrappers name pipeline functions by module and
attribute (perfbench/spans.py); a renamed or removed one breaks every
traced benchmark run, which the test suite does not otherwise start."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _k3cert(name):
    return importlib.import_module(f"k3cert.{name}")


def test_span_wrapper_targets_exist():
    spans = _spans_module()
    assert spans.WRAPPED and spans.FIELD_CREATE_CALLERS
    for mod, attr, _ in spans.WRAPPED:
        assert callable(getattr(_k3cert(mod), attr, None)), (mod, attr)
    for mod in spans.FIELD_CREATE_CALLERS:
        assert callable(getattr(_k3cert(mod), "field_create", None)), mod
    assert callable(_k3cert("ffield")._field_create_cached.cache_info)
    store = _k3cert("cli").CacheStore
    assert callable(store) and callable(getattr(store, "put", None))
