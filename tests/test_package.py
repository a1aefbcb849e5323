"""The package and its error classes import without numpy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# a sys.meta_path finder that refuses numpy, then the imports: k3cert and
# k3cert.errors must load, and a module that needs numpy must not
WITHOUT_NUMPY = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked")

sys.meta_path.insert(0, BlockNumpy())
import k3cert
import k3cert.errors
assert "numpy" not in sys.modules
try:
    import k3cert.count
except ImportError:
    print(k3cert.__version__)
"""


def test_package_imports_without_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0.1.0"
