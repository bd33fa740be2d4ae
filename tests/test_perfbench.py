"""The benchmark's self-checks run against this checkout.

`perfbench/` imports the package's public API (slab recording, defect
accumulation, the probed functions); running its self-tests here makes a
change that breaks that API fail the test suite, not only the benchmark.
"""
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(RUN), "--selftest"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
