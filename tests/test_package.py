"""The package, its error classes and the exact proof steps import without
numpy, and importing the command-line module builds no search table."""

import json
import os
import subprocess
import sys
from pathlib import Path

from k3cert.forms import IntForm
from k3cert.geom import decompose_along_line
from k3cert.obstruct import lifts_to_second_order

import data
from test_obstruct import line_curve

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# a sys.meta_path finder that refuses numpy, then the imports: k3cert,
# k3cert.errors and the exact modules must load, and count and geom, which
# need numpy, must not.  B's obstruction along x = 0 at p = 3, from the
# decomposition that forms._decompose_mod_line rebuilds, and the C+- block
# of rank3-conics' class matrix at p = 3 are printed as JSON.
WITHOUT_NUMPY = """
import json
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked")

sys.meta_path.insert(0, BlockNumpy())
import k3cert
import k3cert.errors
from k3cert.ffield import field_create
from k3cert.forms import IntForm, _decompose_mod_line, _restrict, _square_split
from k3cert.obstruct import (ConicCert, SplitCurve, class_matrix,
                             lifts_to_second_order)
import k3cert.lattice
import k3cert.zeta
import data
assert "numpy" not in sys.modules
for module in ("k3cert.count", "k3cert.geom"):
    try:
        __import__(module)
    except ImportError:
        pass
    else:
        raise AssertionError(module + " imported without numpy")

ctx, line = field_create(3, 1), (1, 0, 0)
f6 = IntForm(data.F6_B)
f6p = {m: c % 3 for m, c in f6.coeffs.items()}
split = _square_split(ctx, _restrict(ctx, f6p, 6, line))
f3, f5 = _decompose_mod_line(ctx, f6p, line, *split)
x = IntForm({(1, 0, 0): 1}, 1)
rep = lifts_to_second_order(f6, SplitCurve("D", 3, 1, x, IntForm(f5, 5),
                                          IntForm(f3, 3), 1))
conics = [ConicCert(c, IntForm(q2), IntForm(q3), IntForm(q4)) for c, q2, q3, q4
          in ((data.CONIC1_C, data.CONIC1_Q2, data.CONIC1_Q3, data.CONIC1_Q4),
              (data.CONIC2_C, data.CONIC2_Q2, data.CONIC2_Q3, data.CONIC2_Q4))]
G = class_matrix([SplitCurve.from_conic("C%d" % i, cert, 3)
                  for i, cert in enumerate(conics, 1)])
print(json.dumps({"version": k3cert.__version__,
                  "obstruction": [rep.matrix, rep.rhs, rep.verdict],
                  "gram": [row[1:] for row in G[1:]]}))
"""


# import the command-line module, then print the k3cert modules loaded
# and the sizes of the caches that the tritangent search fills
AT_IMPORT = """
import json
import sys

import k3cert.cli
from k3cert import count, geom

print(json.dumps({
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "k3cert"),
    "cached": [f.cache_info().currsize for f in (
        count.zech_tables, geom._map_terms, geom._restriction_map,
        geom._square_table, geom._extension_lines)]}))
"""


def _run_fresh(code):
    """The JSON that `code` prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(TESTS)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_imports_without_numpy():
    out = _run_fresh(WITHOUT_NUMPY)
    assert out["version"] == "0.1.0"
    f6 = IntForm(data.F6_B)
    rep = lifts_to_second_order(f6, line_curve(
        (1, 0, 0), *decompose_along_line(f6, (1, 0, 0), 3), 3))
    assert out["obstruction"] == json.loads(json.dumps(
        [rep.matrix, rep.rhs, rep.verdict]))
    assert rep.verdict == "nonvanishing"
    assert out["gram"] == data.GRAM_C


def test_cli_import_builds_no_search_tables():
    # start-up stays free of table work: importing k3cert.cli loads the
    # same ten modules and fills none of the search's per-field caches
    out = _run_fresh(AT_IMPORT)
    assert out["modules"] == [
        "k3cert", "k3cert.cli", "k3cert.count", "k3cert.errors",
        "k3cert.ffield", "k3cert.forms", "k3cert.geom", "k3cert.lattice",
        "k3cert.obstruct", "k3cert.zeta"]
    assert out["cached"] == [0] * 5
