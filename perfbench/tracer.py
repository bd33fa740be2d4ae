"""Spans and counters recorded around calls into rough_scl's public functions.

Nothing under src/ is edited: `Tracer.install()` replaces each traced function
wherever a module of this checkout binds it (the package's own modules and the
benchmark's, so calls from the benchmark's cases are traced like calls inside
the package) and each traced method on its class with a wrapper;
`uninstall()` puts the originals back.

A span's inclusive time counts only its outermost activation per name, so
`increment -> eval` nesting is not double counted.  Its self time is the span
minus the time its child spans cover; self times of all spans therefore add up
to at most the wall time of the traced pass.  Kinetic bytes are computed from
array sizes; CSV bytes are the written files' sizes.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

CHECKOUT = str(Path(__file__).resolve().parents[1])

LAYERS = ("paths", "fluxes", "solver", "kinetic", "characteristics", "semilinear", "harness")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_solve_path(tr, args, kwargs, result):
    tr.add("solver.segments", _arg(args, kwargs, 2, "path").n_segments)


def _count_step(tr, args, kwargs, result):
    tr.add("solver.cell_steps", _arg(args, kwargs, 0, "state").grid.n_cells)


def _count_accumulate(tr, args, kwargs, result):
    traj = _arg(args, kwargs, 0, "traj")
    xi = _arg(args, kwargs, 2, "xi")
    slabs = traj.slabs or []
    arrays = {}
    for slab in slabs:
        for a in (slab.c, slab.u0, slab.u1):
            arrays[id(a)] = a.nbytes
    tr.add("kinetic.slabs", len(slabs))
    tr.add("kinetic.slab_bytes", sum(arrays.values()))
    tr.add("kinetic.defect_bytes", sum(d.values.nbytes + d.cons_residual.nbytes for d in result))
    tr.add("kinetic.accumulate.work", len(slabs) * traj.grid.n_cells * xi.n)


def _count_residual(tr, args, kwargs, result):
    traj = _arg(args, kwargs, 0, "traj")
    defects = _arg(args, kwargs, 1, "defects")
    n_y = _arg(args, kwargs, 6, "n_y") if len(args) > 6 or "n_y" in kwargs else 33
    tr.add("kinetic.residual.work", len(defects) * defects[0].xi.n * traj.grid.n_cells * n_y)


def _count_evaluate(tr, args, kwargs, result):
    tr.add("characteristics.evaluate.points", result.size)


def _count_table(tr, args, kwargs, result):
    run_dir = _arg(args, kwargs, 0, "run_dir")
    name = _arg(args, kwargs, 1, "name")
    tr.add("harness.csv.files", 1)
    tr.add("harness.csv.bytes", os.path.getsize(os.path.join(run_dir, name)))


@dataclass(frozen=True)
class Probe:
    """One traced callable: `module:attr` or `module:Class.attr`."""

    span: str
    target: str
    hook: Callable | None = None
    timed: bool = True


PROBES = (
    Probe("paths.sample", "rough_scl.paths:brownian_sample"),
    Probe("paths.sample", "rough_scl.paths:dyadic_refine"),
    Probe("paths.eval", "rough_scl.paths:PiecewiseLinearPath.eval"),
    Probe("paths.eval", "rough_scl.paths:PiecewiseLinearPath.increment"),
    Probe("fluxes.segment_flux", "rough_scl.fluxes:SegmentFlux.__init__"),
    Probe("fluxes.integral", "rough_scl.fluxes:SegmentFlux.pos_integral"),
    Probe("fluxes.integral", "rough_scl.fluxes:SegmentFlux.neg_integral"),
    Probe("solver.solve_path", "rough_scl.solver:solve_path", _count_solve_path),
    Probe("solver.step", "rough_scl.solver:step", _count_step),
    Probe("kinetic.accumulate", "rough_scl.kinetic:accumulate_defects", _count_accumulate),
    Probe("kinetic.bounds", "rough_scl.kinetic:check_kf_bounds"),
    Probe("kinetic.bounds", "rough_scl.kinetic:check_unpr1"),
    Probe("kinetic.residual", "rough_scl.kinetic:definition_residual", _count_residual),
    Probe("characteristics.window", "rough_scl.characteristics:window"),
    Probe("characteristics.evaluate", "rough_scl.characteristics:LocalSmoothSolution.evaluate",
          _count_evaluate),
    # Counted, not timed: the bisection/Newton work is ~50 calls per evaluate.
    Probe("characteristics.flow", "rough_scl.characteristics:characteristic_flow", timed=False),
    Probe("characteristics.dissipative_check", "rough_scl.characteristics:dissipative_check"),
    Probe("semilinear.flow", "rough_scl.semilinear:FlowMap.psi"),
    Probe("semilinear.flow", "rough_scl.semilinear:FlowMap.psi_at_times"),
    Probe("semilinear.shock_speed", "rough_scl.semilinear:transformed_shock_speed"),
    Probe("semilinear.quadrature", "rough_scl.semilinear:transformed_flux"),
    Probe("semilinear.position", "rough_scl.semilinear:transformed_shock_position"),
    Probe("semilinear.position", "rough_scl.semilinear:mismatch_report"),
    Probe("semilinear.direct_solve", "rough_scl.semilinear:direct_semilinear_solve"),
    Probe("semilinear.source_ode", "rough_scl.semilinear:source_ode_step"),
    Probe("harness.execute", "rough_scl.harness:execute"),
    Probe("harness.csv", "rough_scl.harness:write_table", _count_table),
)


class _Stat:
    __slots__ = ("calls", "incl", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0


# Untraced passes still count cell steps exactly: one call and an add per step,
# no clock reads (about 0.2% of a step).
STEP_COUNTER = (Probe("solver.step", "rough_scl.solver:step", _count_step, timed=False),)


@dataclass
class Tracer:
    """In-memory span statistics for one traced pass; reset with `reset()`."""

    probes: tuple = PROBES
    stats: dict = field(default_factory=lambda: defaultdict(_Stat))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    _stack: list = field(default_factory=list)
    _depth: dict = field(default_factory=lambda: defaultdict(int))
    _patched: list = field(default_factory=list)

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()

    def add(self, name: str, n) -> None:
        self.counts[name] += n

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        t1 = time.perf_counter()
        name, t0, child = self._stack.pop()
        dur = t1 - t0
        st = self.stats[name]
        st.calls += 1
        st.self_s += dur - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            st.incl += dur
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        span, hook = probe.span, probe.hook
        if not probe.timed:
            def counted(*args, **kwargs):
                self.stats[span].calls += 1
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            counted.__wrapped__ = original
            return counted

        def traced(*args, **kwargs):
            self._enter(span)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        traced.__wrapped__ = original
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        importlib.import_module("rough_scl")
        modules = [m for _, m in sorted(sys.modules.items())
                   if (getattr(m, "__file__", None) or "").startswith(CHECKOUT)]
        for probe in self.probes:
            mod_name, _, qual = probe.target.partition(":")
            owner = importlib.import_module(mod_name)
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(probe, cls.__dict__[attr]))
                continue
            original = getattr(owner, qual)
            wrapper = self._wrap(probe, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name) if not isinstance(owner, type)
                              else owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def installed_targets(self) -> list:
        return [(owner, name) for owner, name, _ in self._patched]

    # -- per-layer metrics ---------------------------------------------------

    def span_self_total(self) -> float:
        return sum(st.self_s for st in self.stats.values())

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metric values of one traced pass (see LAYER_METRICS)."""
        s, c = self.stats, self.counts

        def calls(name):
            return s[name].calls if name in s else 0

        def incl(name):
            return s[name].incl if name in s else 0.0

        def self_s(name):
            return s[name].self_s if name in s else 0.0

        def per(num, den, scale):
            return scale * num / den if den else 0.0

        out = {
            "solver.solve_path.calls": calls("solver.solve_path"),
            "solver.solve_path.s": incl("solver.solve_path"),
            "solver.solve_path.self_s": self_s("solver.solve_path"),
            "solver.segments": c["solver.segments"],
            "solver.steps": calls("solver.step"),
            "solver.cell_steps": c["solver.cell_steps"],
            "solver.step.s": incl("solver.step"),
            "solver.us_per_cell_step": per(incl("solver.step"), c["solver.cell_steps"], 1e6),
            "fluxes.segment_flux.calls": calls("fluxes.segment_flux"),
            "fluxes.segment_flux.s": incl("fluxes.segment_flux"),
            "fluxes.integral.calls": calls("fluxes.integral"),
            "fluxes.integral.s": incl("fluxes.integral"),
            "paths.sample.calls": calls("paths.sample"),
            "paths.sample.s": incl("paths.sample"),
            "paths.eval.calls": calls("paths.eval"),
            "paths.eval.s": incl("paths.eval"),
            "kinetic.slabs": c["kinetic.slabs"],
            "kinetic.slab_bytes": c["kinetic.slab_bytes"],
            "kinetic.defect_bytes": c["kinetic.defect_bytes"],
            "kinetic.accumulate.s": incl("kinetic.accumulate"),
            "kinetic.accumulate.ns_per_slab_cell_xi": per(
                incl("kinetic.accumulate"), c["kinetic.accumulate.work"], 1e9),
            "kinetic.bounds.s": incl("kinetic.bounds"),
            "kinetic.residual.calls": calls("kinetic.residual"),
            "kinetic.residual.s": incl("kinetic.residual"),
            "kinetic.residual.ns_per_cell_xi_y": per(
                incl("kinetic.residual"), c["kinetic.residual.work"], 1e9),
            "characteristics.window.calls": calls("characteristics.window"),
            "characteristics.window.s": incl("characteristics.window"),
            "characteristics.evaluate.calls": calls("characteristics.evaluate"),
            "characteristics.evaluate.points": c["characteristics.evaluate.points"],
            "characteristics.evaluate.s": incl("characteristics.evaluate"),
            "characteristics.evaluate.us_per_point": per(
                incl("characteristics.evaluate"), c["characteristics.evaluate.points"], 1e6),
            "characteristics.flow.calls": calls("characteristics.flow"),
            "characteristics.dissipative_check.s": incl("characteristics.dissipative_check"),
            "characteristics.dissipative_check.self_s": self_s("characteristics.dissipative_check"),
            "semilinear.flow.calls": calls("semilinear.flow"),
            "semilinear.flow.s": incl("semilinear.flow"),
            "semilinear.shock_speed.calls": calls("semilinear.shock_speed"),
            "semilinear.shock_speed.s": incl("semilinear.shock_speed"),
            "semilinear.direct_solve.s": incl("semilinear.direct_solve"),
            "semilinear.source_ode.calls": calls("semilinear.source_ode"),
            "semilinear.source_ode.s": incl("semilinear.source_ode"),
            "harness.execute.calls": calls("harness.execute"),
            "harness.execute.self_s": self_s("harness.execute"),
            "harness.csv.files": c["harness.csv.files"],
            "harness.csv.bytes": c["harness.csv.bytes"],
            "harness.csv.s": incl("harness.csv"),
        }
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, st in s.items():
            layer_self[name.split(".", 1)[0]] += st.self_s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["bench.self_s"] = max(0.0, wall_s - sum(layer_self.values()))
        return out


# name -> (unit, better); the order is the print order.
LAYER_METRICS = {
    "solver.solve_path.calls": ("count", "lower"),
    "solver.solve_path.s": ("s", "lower"),
    "solver.solve_path.self_s": ("s", "lower"),
    "solver.segments": ("count", "lower"),
    "solver.steps": ("count", "lower"),
    "solver.cell_steps": ("count", "lower"),
    "solver.step.s": ("s", "lower"),
    "solver.us_per_cell_step": ("us", "lower"),
    "fluxes.segment_flux.calls": ("count", "lower"),
    "fluxes.segment_flux.s": ("s", "lower"),
    "fluxes.integral.calls": ("count", "lower"),
    "fluxes.integral.s": ("s", "lower"),
    "fluxes.riemann_err.engquist_osher": ("L1", "lower"),
    "fluxes.riemann_err.godunov_convex": ("L1", "lower"),
    "paths.sample.calls": ("count", "lower"),
    "paths.sample.s": ("s", "lower"),
    "paths.eval.calls": ("count", "lower"),
    "paths.eval.s": ("s", "lower"),
    "kinetic.slabs": ("count", "lower"),
    "kinetic.slab_bytes": ("B", "lower"),
    "kinetic.defect_bytes": ("B", "lower"),
    "kinetic.accumulate.s": ("s", "lower"),
    "kinetic.accumulate.ns_per_slab_cell_xi": ("ns", "lower"),
    "kinetic.bounds.s": ("s", "lower"),
    "kinetic.residual.calls": ("count", "lower"),
    "kinetic.residual.s": ("s", "lower"),
    "kinetic.residual.ns_per_cell_xi_y": ("ns", "lower"),
    "characteristics.window.calls": ("count", "lower"),
    "characteristics.window.s": ("s", "lower"),
    "characteristics.evaluate.calls": ("count", "lower"),
    "characteristics.evaluate.points": ("count", "lower"),
    "characteristics.evaluate.s": ("s", "lower"),
    "characteristics.evaluate.us_per_point": ("us", "lower"),
    "characteristics.flow.calls": ("count", "lower"),
    "characteristics.dissipative_check.s": ("s", "lower"),
    "characteristics.dissipative_check.self_s": ("s", "lower"),
    "semilinear.flow.calls": ("count", "lower"),
    "semilinear.flow.s": ("s", "lower"),
    "semilinear.shock_speed.calls": ("count", "lower"),
    "semilinear.shock_speed.s": ("s", "lower"),
    "semilinear.direct_solve.s": ("s", "lower"),
    "semilinear.source_ode.calls": ("count", "lower"),
    "semilinear.source_ode.s": ("s", "lower"),
    "harness.execute.calls": ("count", "lower"),
    "harness.execute.self_s": ("s", "lower"),
    "harness.csv.files": ("count", "lower"),
    "harness.csv.bytes": ("B", "lower"),
    "harness.csv.s": ("s", "lower"),
    "paths.self_s": ("s", "lower"),
    "fluxes.self_s": ("s", "lower"),
    "solver.self_s": ("s", "lower"),
    "kinetic.self_s": ("s", "lower"),
    "characteristics.self_s": ("s", "lower"),
    "semilinear.self_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Metrics that must repeat exactly between two traced passes of the same inputs.
COUNT_METRICS = tuple(
    name for name, (unit, _) in LAYER_METRICS.items() if unit in ("count", "B")
)
