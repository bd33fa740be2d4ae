"""Self-tests of the benchmark's own machinery (run through `run.py --selftest`).

- tracing changes nothing it measures: a small harness run and a small defect
  extraction give identical CSV bytes, report JSON (manifest without run id and
  timestamps) and defect arrays traced and untraced;
- span self times add up to no more than the traced wall time, every count
  repeats exactly across two traced runs, and uninstall restores every patched
  attribute;
- inputs come from the seed: a second seed changes the work counts and keeps
  the metric names and shapes.
"""
from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import worker  # first: pins BLAS threads and puts src/ on sys.path

import numpy as np

import workloads
from rough_scl.config import load_config
from rough_scl.fluxes import from_spec
from rough_scl.harness import execute
from rough_scl.kinetic import XiGrid, accumulate_defects
from rough_scl.paths import brownian_sample
from rough_scl.solver import Grid1D, SolverConfig, solve_path
from tracer import CHECKOUT, COUNT_METRICS, PROBES, Tracer

SCRATCH = Path(os.environ["PERFBENCH_SCRATCH"])
VOLATILE_MANIFEST_KEYS = ("run_id", "created", "duration_s")


def snapshot() -> dict:
    """Every binding a tracer may patch: module globals and probed class attributes."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if (getattr(mod, "__file__", None) or "").startswith(CHECKOUT):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for probe in PROBES:
        mod_name, _, qual = probe.target.partition(":")
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(sys.modules[mod_name], cls_name)
            out[(mod_name, qual)] = cls.__dict__[attr]
    return out


def harness_outputs(out_root: Path) -> dict:
    cfg = load_config(None, {"experiment": "kinetic-check", "n_cells": 100, "horizon": 0.5,
                             "n_outputs": 4, "path": "brownian:4", "n_xi": 60, "seed": 3})
    run_dir, _ = execute("kinetic-check", cfg, out_root)
    files = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.name != "manifest.json"}
    manifest = json.loads((run_dir / "manifest.json").read_text())
    for key in VOLATILE_MANIFEST_KEYS:
        manifest.pop(key)
    files["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    return files


def defect_arrays() -> list:
    grid = Grid1D(-1.0, 1.0, 100, "periodic")
    flux = from_spec("burgers;cubic", (-1.05, 1.05))
    u0 = np.where(grid.centers < 0.0, 1.0, -1.0)
    traj = solve_path(u0, flux, brownian_sample(5, 0.5, 4, 2), np.linspace(0.0, 0.5, 3), grid,
                      SolverConfig(record_slabs=True))
    defects = accumulate_defects(traj, flux, XiGrid(-1.5, 1.5, 60))
    return [(d.values, d.cons_residual) for d in defects]


def small_work() -> tuple:
    return harness_outputs(SCRATCH / "h"), defect_arrays()


def traced_counts(cases) -> dict:
    tracer = Tracer()
    metrics = tracer.metrics(sum(worker.run_pass(cases, tracer).raw))
    return {k: metrics[k] for k in COUNT_METRICS}, metrics


def main() -> int:
    results = []

    def check(name: str, ok: bool, detail: str) -> None:
        results.append(ok)
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'}  ({detail})")

    before = snapshot()
    plain_files, plain_defects = small_work()
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced_files, traced_defects = small_work()
        wall = time.perf_counter() - t0
        n_patched = len(tracer.installed_targets())
    finally:
        tracer.uninstall()
    same_files = plain_files == traced_files
    same_defects = len(plain_defects) == len(traced_defects) and all(
        np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        for a, b in zip(plain_defects, traced_defects))
    check("trace-invariance", same_files and same_defects,
          f"{len(plain_files)} harness files byte-identical={same_files}, "
          f"{len(plain_defects)} defect slabs identical={same_defects}")
    span_self = tracer.span_self_total()
    check("self-time-bound", span_self <= wall,
          f"span self times {span_self:.4f} s <= traced wall {wall:.4f} s")
    restored = snapshot() == before
    check("uninstall", restored and n_patched > 0,
          f"{n_patched} patched bindings restored={restored}")

    seed_a, seed_b = 0, 1
    cases_a = workloads.build("sweep", seed_a, SCRATCH)[:1]
    cases_b = workloads.build("sweep", seed_b, SCRATCH)[:1]
    counts_1, metrics_a = traced_counts(cases_a)
    counts_2, _ = traced_counts(cases_a)
    check("counts-repeat", counts_1 == counts_2,
          f"{len(counts_1)} counts equal across two traced runs of {cases_a[0].name}")
    counts_b, metrics_b = traced_counts(cases_b)
    same_shape = metrics_a.keys() == metrics_b.keys() and all(
        np.ndim(metrics_a[k]) == np.ndim(metrics_b[k]) == 0 for k in metrics_a)
    differ = counts_b["solver.steps"] != counts_1["solver.steps"]
    check("seed-inputs", same_shape and differ,
          f"seed {seed_a}: {counts_1['solver.steps']} steps, seed {seed_b}: "
          f"{counts_b['solver.steps']} steps; {len(metrics_a)} metric names and shapes equal="
          f"{same_shape}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
