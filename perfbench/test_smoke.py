"""The benchmark's own test: `python3 -m pytest perfbench`.

Runs every workload at small sizes (d <= 5, six sextics), untraced and
traced, and requires every check to pass and every metric listed in
BENCHMARK.json to be emitted with its unit.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_mode_emits_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok  ") == 6, proc.stdout
