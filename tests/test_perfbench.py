"""The benchmark's self-checks and its cases run against this checkout.

`perfbench/` imports the package's public API (slab recording, defect
accumulation, the probed functions); running its self-tests and every case
here makes a change that breaks that API fail the test suite, not only the
benchmark.
"""
import fnmatch
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RUN = PERFBENCH / "run.py"
# each refine ladder takes about 1 s; criterion 9 runs the ladder already
SKIPPED_CASES = "sweep/refine/*"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(RUN), "--selftest"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_benchmark_case_runs(workloads, tmp_path):
    """Every case of every workload at seed 0 runs without an exception and
    passes, unless it is a known defect."""
    skipped = []
    for name in workloads.BUILDERS:
        for case in workloads.build(name, 0, tmp_path):
            if fnmatch.fnmatchcase(case.name, SKIPPED_CASES):
                skipped.append(case.name)
                continue
            outcome = case.run()
            assert outcome.ok or workloads.known_defect(case.name), f"{case.name}: {outcome.detail}"
    assert len(skipped) == 2
