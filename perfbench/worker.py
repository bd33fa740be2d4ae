"""One workload in one fresh, single-threaded process (started by run.py).

    python3 perfbench/worker.py setup   <workload> <seed>
    python3 perfbench/worker.py measure <workload> <seed> <seconds> <trace>

`setup` builds the inputs and prints the monotonic clock when they are ready;
run.py subtracts its own launch time to get `setup_s`.  `measure` repeats the
workload's pass of cases until `seconds` are used (at least two passes):
untraced only with trace 0, alternating untraced and traced with trace 1.
Untraced passes carry only an exact cell-step counter.  Each case is timed
between two calibrations and scaled to the reference host speed; a pass's
time is the sum over cases of each case's median across passes.  The last
stdout line is a JSON record.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported: matmuls must not contend

import json
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import COUNT_METRICS, LAYER_METRICS, STEP_COUNTER, Tracer  # noqa: E402

MIN_TIMED_PASSES = 2
TIME_UNITS = ("s", "us", "ns")
# Time of `calibrate()` on the reference host (the README's machine, quiet).
CAL_REF_S = 0.0165


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def clear(scratch: Path) -> None:
    for child in scratch.iterdir():
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()


def calibrate() -> float:
    """Time a fixed numpy kernel shaped like a solver step loop (about 20 ms).

    The shared host's speed drifts by up to 2x within seconds and slows this
    kernel and the workloads alike; a case timed between two calibrations is
    reported at the reference speed as t * CAL_REF_S / mean(calibrations).
    """
    u = np.linspace(-1.0, 1.0, 400)
    t0 = time.perf_counter()
    for _ in range(800):
        f = 0.5 * np.maximum(u, 0.0) ** 2 + 0.5 * np.minimum(np.roll(u, -1), 0.0) ** 2
        u = u - 1e-3 * (f - np.roll(f, 1))
    return time.perf_counter() - t0


@dataclass
class Pass:
    raw: list       # per-case wall seconds
    scaled: list    # per-case seconds at the reference host speed
    outcomes: list

    @property
    def speed(self) -> float:
        """Reference seconds per raw second over the whole pass."""
        return sum(self.scaled) / sum(self.raw)


def run_pass(cases, tracer: Tracer) -> Pass:
    """One pass with `tracer` installed; calibrations bracket every case."""
    tracer.reset()
    tracer.install()
    raw, scaled, outcomes = [], [], []
    try:
        before = calibrate()
        for case in cases:
            t0 = time.perf_counter()
            outcomes.append(workloads.run_case(case))
            t = time.perf_counter() - t0
            after = calibrate()
            raw.append(t)
            scaled.append(t * CAL_REF_S / (0.5 * (before + after)))
            before = after
    finally:
        tracer.uninstall()
    return Pass(raw, scaled, outcomes)


def signature(outcomes) -> list:
    return [(o.ok, o.err, o.detail) for o in outcomes]


def pass_time(passes: list, field: str = "scaled") -> float:
    """Sum over cases of each case's median time across passes."""
    return sum(statistics.median(col) for col in zip(*(getattr(p, field) for p in passes)))


def measure(name: str, seed: int, seconds: float, trace: int, scratch: Path) -> dict:
    cases = workloads.build(name, seed, scratch)
    counter, tracer = Tracer(STEP_COUNTER), Tracer()
    problems, first = [], None
    plain, traced, layer_runs, cell_steps = [], [], [], set()
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        one = run_pass(cases, tracer if use_trace else counter)
        clear(scratch)
        if first is None:
            first = one.outcomes
        elif signature(one.outcomes) != signature(first):
            problems.append(f"pass {len(plain) + len(traced) + 1} gave different results")
        if use_trace:
            traced.append(one)
            metrics = tracer.metrics(sum(one.raw))
            if tracer.span_self_total() > sum(one.raw):
                problems.append("span self times exceed the traced pass")
            for key, (unit, _) in LAYER_METRICS.items():
                if unit in TIME_UNITS and key in metrics:
                    metrics[key] *= one.speed
            layer_runs.append(metrics)
        else:
            plain.append(one)
            cell_steps.add(counter.counts["solver.cell_steps"])
        elapsed = time.perf_counter() - start
        done = len(plain) >= MIN_TIMED_PASSES if not trace else bool(traced)
        if done and elapsed >= seconds:
            break
    if len(cell_steps) != 1:
        problems.append(f"cell-step count differs between passes: {sorted(cell_steps)}")
    for run in layer_runs[1:]:
        for key in COUNT_METRICS:
            if run[key] != layer_runs[0][key]:
                problems.append(f"count {key} differs between traced passes: "
                                f"{layer_runs[0][key]} vs {run[key]}")

    cases_out = []
    for case, o in zip(cases, first):
        cases_out.append({"name": case.name, "ok": o.ok, "err": o.err, "detail": o.detail,
                          "known_defect": workloads.known_defect(case.name)})
    oracle = [c["err"] for c in cases_out if c["err"] is not None and not c["known_defect"]]
    unexpected = sum(1 for c in cases_out if not c["ok"] and not c["known_defect"])
    n_passes = len(plain) + len(traced)

    wall_s = pass_time(plain)
    result = {
        "workload": name,
        "seed": seed,
        "machine": machine_info(),
        "cases": cases_out,
        "problems": problems,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "host": {"raw_wall_s": pass_time(plain, "raw"), "reference_s": CAL_REF_S},
        "attempted": len(cases) * n_passes,
        "failed": unexpected * n_passes,
        "end_to_end": {
            "wall_s": wall_s,
            "cell_steps_per_s": max(cell_steps) / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": sum(c["ok"] for c in cases_out) / len(cases_out),
            "oracle_err": max(oracle),
        },
    }
    if trace:
        layer = {}
        for key in LAYER_METRICS:
            if key in COUNT_METRICS:
                layer[key] = layer_runs[0][key]
            elif key in layer_runs[0]:
                layer[key] = statistics.median(run[key] for run in layer_runs)
        for o in first:
            layer.update(o.extra)
        for key in LAYER_METRICS:
            layer.setdefault(key, 0.0)  # riemann errors outside the sweep
        layer["trace.overhead_frac"] = pass_time(traced) / wall_s - 1.0
        result["per_layer"] = layer
    return result


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if name not in workloads.BUILDERS:
        print(f"unknown workload {name!r}; known: {sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    scratch = Path(os.environ["PERFBENCH_SCRATCH"])
    scratch.mkdir(parents=True, exist_ok=True)
    if mode == "setup":
        workloads.build(name, seed, scratch)
        ready = time.monotonic()
        speed = CAL_REF_S / statistics.mean(calibrate() for _ in range(3))
        print(json.dumps({"ready": ready, "speed": speed}))
        return 0
    result = measure(name, seed, float(argv[3]), int(argv[4]), scratch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
