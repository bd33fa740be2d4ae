"""rough-scl benchmark: one command, four workloads, a traced run per workload.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 18 --trace 0
    python3 perfbench/run.py                 # every workload, untraced then traced
    python3 perfbench/run.py --selftest      # tracing/seed self-tests

Run it from the repository root.  Each workload runs in fresh single-threaded
processes (worker.py pins BLAS/OpenMP to one thread before importing numpy):
several set-up-only processes give `setup_s`, then one process measures.  With
`--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of the traced passes.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("sweep", "kinetic", "dissipative", "semilinear")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 18.0
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cell_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "oracle_err": "ratio",
}


@contextlib.contextmanager
def scratch_dir(name: str):
    """A directory inside the checkout for harness output; removed afterwards."""
    path = SCRATCH / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


def run_child(script: str, args: list[str], scratch: Path) -> tuple[int, str, float]:
    """Run a benchmark script to completion; returns its status, stdout and launch time.

    The child is killed and reaped if this process is interrupted or it
    overruns, so no worker outlives the benchmark.
    """
    cmd = [sys.executable, str(HERE / script), *args]
    launched = time.monotonic()
    env = dict(os.environ, PERFBENCH_SCRATCH=str(scratch))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    sys.stderr.write(err)
    return proc.returncode, out, launched


def worker_json(args: list[str], scratch: Path) -> tuple[dict, float]:
    code, out, launched = run_child("worker.py", args, scratch)
    if code != 0:
        raise RuntimeError(f"worker.py {' '.join(args)} exited {code}")
    return json.loads(out.strip().splitlines()[-1]), launched


def setup_seconds(workload: str, seed: int, scratch: Path) -> list[float]:
    """Launch-to-inputs-ready times, at the reference host speed (see worker.py)."""
    out = []
    for _ in range(SETUP_PROBES):
        probe, launched = worker_json(["setup", workload, str(seed)], scratch)
        out.append((probe["ready"] - launched) * probe["speed"])
    return out


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    with scratch_dir(workload) as scratch:
        setups = setup_seconds(workload, seed, scratch) if not trace else []
        result, _ = worker_json(["measure", workload, str(seed), str(seconds), str(trace)],
                                scratch)
    if setups:
        result["end_to_end"]["setup_s"] = statistics.median(setups)
        result["setup_samples"] = len(setups)
    return result


def print_report(result: dict, trace: int) -> dict:
    """Human-readable lines; returns the metrics block of the result line."""
    m = result["machine"]
    print(f"# workload={result['workload']} seed={result['seed']} trace={trace}")
    print(f"# machine: python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
          f"nproc {m['nproc']}, cpu {m['cpu']!r}, blas {m['blas']} "
          f"(threads {m['blas_threads']})")
    for c in result["cases"]:
        status = "PASS" if c["ok"] else ("FAIL known-defect" if c["known_defect"] else "FAIL")
        err = f" err/tol={c['err']:.3g}" if c["err"] is not None else ""
        print(f"# case {c['name']}: {status}{err}  ({c['detail']})")
        if not c["ok"] and c["known_defect"]:
            print(f"#   known defect: {c['known_defect']}")
    failed = [c["name"] for c in result["cases"] if not c["ok"]]
    print(f"# fail_frac = {len(failed)}/{len(result['cases'])}"
          + (f"  failed: {', '.join(failed)}" if failed else ""))
    for problem in result["problems"]:
        print(f"# PROBLEM: {problem}")
    h = result["host"]
    print(f"# times are at the reference host speed (calibration {h['reference_s']} s); "
          f"unscaled wall_s here {h['raw_wall_s']:.4f} s")
    p = result["passes"]
    metrics = {}
    if trace:
        n = f"median of {p['traced']} traced passes; counts exact"
        for key, (unit, _) in LAYER_METRICS.items():
            value = result["per_layer"][key]
            metrics[key] = {"value": value, "unit": unit}
            print(f"{key} = {value:.6g} {unit}  ({n})")
    else:
        samples = {"setup_s": f"median of {result.get('setup_samples', 0)} set-up processes",
                   "wall_s": f"per case the median of {p['untraced']} untraced passes, summed",
                   "cell_steps_per_s": "exact cell-step count / wall_s"}
        for key, unit in END_TO_END.items():
            value = result["end_to_end"][key]
            metrics[key] = {"value": value, "unit": unit}
            print(f"{key} = {value:.6g} {unit}  ({samples.get(key, 'one value per run')})")
    return metrics


def result_line(result: dict, metrics: dict) -> dict:
    correct = not result["problems"] and result["failed"] == 0
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rough_scl" / "__init__.py").is_file():
        print(f"rough_scl sources not found under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # On SIGTERM unwind through run_child's cleanup instead of dying at once.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.selftest:
        with scratch_dir("selftest") as scratch:
            code, out, _ = run_child("selftest.py", [], scratch)
        print(out, end="")
        return code

    if args.workload:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        metrics = print_report(result, args.trace)
        print(json.dumps(result_line(result, metrics)))
        return 0

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for workload in WORKLOADS:
            result = measure(workload, args.seed, args.seconds, trace)
            line = result_line(result, print_report(result, trace))
            summary["correct"] &= line["correct"]
            summary["attempted"] += line["attempted"]
            summary["failed"] += line["failed"]
            for key, value in line["metrics"].items():
                summary["metrics"][f"{workload}.{key}"] = value
            print()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
