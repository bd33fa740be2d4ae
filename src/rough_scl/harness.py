"""Experiment drivers, run directories, manifests, and reports.

Every experiment is a function cfg -> report dict that also drops plot-ready
CSV files into its run directory `runs/<id>/`.  A manifest records the config
snapshot, seed, and output list; re-running a manifest reproduces every CSV
byte for byte (all randomness flows through the seeded generators, and every
table is written by `paths.write_table`, at 17 significant digits).
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import shutil
import time
import uuid
from pathlib import Path

import numpy as np

from . import __version__
from .characteristics import dissipative_check, local_solution
from .config import _spec_args, build_datum, build_experiment, build_source, config_text, load_config
from .kinetic import XiGrid, accumulate_defects, check_kf_bounds, check_scheme, check_unpr1, check_xi_covers
from .paths import (
    PathSeed,
    PiecewiseLinearPath,
    brownian_sample,
    dyadic_refine,
    sup_distance,
    write_table,
)
from .semilinear import MISMATCH_DOMAIN, mismatch_report
from .smooth import bump_weight
from .solver import _TIME_ATOL, Grid1D, check_step_cap, l1_distance, solve_path

ENV_OUT = "ROUGH_SCL_OUT"
CONTRACTION_TOL = 1e-10
STABILITY_SLOPE = (0.45, 1.05)
PERTURBATION_PIECES = 128  # `_perturbed` adds knots at horizon / PERTURBATION_PIECES spacing


def output_root() -> Path:
    return Path(os.environ.get(ENV_OUT, "runs"))


def _verdict(report: dict, clauses: list[tuple[bool, str]]) -> dict:
    """The one pass rule: record the failing (holds, message) clauses; pass if there are none."""
    report["failed_clauses"] = [message for holds, message in clauses if not holds]
    report["pass"] = not report["failed_clauses"]
    return report


# -- individual experiments --------------------------------------------------


def run_solve(cfg: dict, run_dir: Path) -> dict:
    exp = build_experiment(cfg)
    path = exp.path()
    traj = solve_path(exp.datum(), exp.flux, path, exp.outputs, exp.grid, exp.solver)
    write_table(run_dir, "path.csv", ",".join(["t"] + [f"W{i + 1}" for i in range(path.n_channels)]),
                [path.knots, *path.values.T])
    for k, state in enumerate(traj.states):
        write_table(run_dir, f"state_{k:03d}.csv", "x,u", [exp.grid.centers, state.u])
    mass = np.array([s.mass() for s in traj.states])
    tv = np.array([s.tv() for s in traj.states])
    u_min = np.array([s.u.min() for s in traj.states])
    u_max = np.array([s.u.max() for s in traj.states])
    write_table(run_dir, "invariants.csv", "t,mass,tv,u_min,u_max",
                [traj.times, mass, tv, u_min, u_max])
    drift = float(np.max(np.abs(mass - mass[0]))) if exp.grid.bc == "periodic" else None
    tv_up = float(max(0.0, np.max(tv - tv[0])))
    overshoot = float(max(0.0, np.max(u_max) - u_max[0], u_min[0] - np.min(u_min)))
    report = {"times": traj.times.tolist(), "mass_drift": drift, "tv_increase": tv_up,
              "max_principle_violation": overshoot}
    return _verdict(report, [
        (tv_up <= 1e-10, f"TV increase {tv_up:.3g} > 1e-10"),
        (overshoot <= 1e-12, f"maximum principle violated by {overshoot:.3g} > 1e-12"),
        (drift is None or drift <= 1e-12, f"mass drift {drift} > 1e-12"),
    ])


def run_contraction(cfg: dict, run_dir: Path) -> dict:
    exp = build_experiment(cfg)
    if not cfg.get("datum2"):
        raise ValueError("contraction needs the datum2 key")
    u1, u2 = exp.datum(), exp.datum(cfg["datum2"])
    path = exp.path()
    t1 = solve_path(u1, exp.flux, path, exp.outputs, exp.grid, exp.solver)
    t2 = solve_path(u2, exp.flux, path, exp.outputs, exp.grid, exp.solver)
    dist = np.array([l1_distance(a, b) for a, b in zip(t1.states, t2.states)])
    write_table(run_dir, "contraction.csv", "t,distance", [t1.times, dist])
    growth = float(np.max(np.diff(dist))) if dist.size > 1 else 0.0
    report = {"distances": dist.tolist(), "max_growth": growth, "tolerance": CONTRACTION_TOL}
    return _verdict(report, [(growth <= CONTRACTION_TOL,
                              f"L1 distance grew by {growth:.3g} > {CONTRACTION_TOL:.3g}")])


def _perturbed(path: PiecewiseLinearPath, eps: float) -> PiecewiseLinearPath:
    """Base path plus a fixed sine bump of size eps on every channel."""
    horizon = path.horizon
    knots = np.union1d(path.knots, np.linspace(0.0, horizon, PERTURBATION_PIECES + 1))
    shape = np.sin(2.0 * np.pi * knots / horizon)
    values = path.eval(knots) + eps * shape[:, None]
    return PiecewiseLinearPath(knots, values)


def _chain(values) -> str:
    return " -> ".join(f"{v:.3g}" for v in values)


def _coarsen(u: np.ndarray) -> np.ndarray:
    return 0.5 * (u[0::2] + u[1::2])


def run_path_stability(cfg: dict, run_dir: Path) -> dict:
    exp = build_experiment(cfg)
    fine_grid = Grid1D(exp.grid.x_lo, exp.grid.x_hi, 2 * exp.grid.n_cells, exp.grid.bc)
    if _spec_args(cfg["datum"])[0] == "file":
        raise ValueError(f"path-stability takes no file: datum: its Richardson check solves on "
                         f"the doubled grid of {fine_grid.n_cells} cells, which a table cannot "
                         "be resampled onto")
    eps_list = sorted((float(s) for s in str(cfg["epsilons"]).split(",")), reverse=True)
    for eps in eps_list:
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"epsilons must be positive and finite, got {eps!r}")
    if len(eps_list) < 3 or eps_list[0] / eps_list[-1] < 7.9:
        raise ValueError("need epsilon values spanning at least three octaves")
    path = exp.path()
    u0 = exp.datum()
    base = solve_path(u0, exp.flux, path, exp.outputs, exp.grid, exp.solver)
    errors = []
    for eps in eps_list:
        pert = solve_path(u0, exp.flux, _perturbed(path, eps), exp.outputs, exp.grid, exp.solver)
        errors.append(max(l1_distance(a, b) for a, b in zip(base.states, pert.states)))
    errors = np.asarray(errors)
    if not np.any(errors):
        raise ValueError(f"datum = {cfg['datum']}: no perturbed solution differs from the base one, "
                         "so there is no error to fit a slope to (the datum does not feel the driver)")
    slope = float(np.polyfit(np.log(eps_list), np.log(errors), 1)[0])
    monotone = bool(np.all(np.diff(errors) < 0.0))

    # Richardson check: the spatial error must sit well below the smallest E.
    fine = solve_path(
        build_datum(cfg["datum"], fine_grid), exp.flux, path, exp.outputs, fine_grid, exp.solver
    )
    dx_error = max(
        exp.grid.dx * float(np.sum(np.abs(_coarsen(f.u) - c.u)))
        for f, c in zip(fine.states, base.states)
    )
    richardson_ok = bool(dx_error <= errors[-1] / 10.0)
    write_table(run_dir, "stability.csv", "eps,error", [eps_list, errors])
    report = {
        "eps": list(eps_list),
        "errors": errors.tolist(),
        "slope": slope,
        "slope_window": list(STABILITY_SLOPE),
        "monotone": monotone,
        "dx_error": dx_error,
        "richardson_ok": richardson_ok,
    }
    return _verdict(report, [
        (STABILITY_SLOPE[0] <= slope <= STABILITY_SLOPE[1],
         f"slope {slope:.3f} outside [{STABILITY_SLOPE[0]}, {STABILITY_SLOPE[1]}]"),
        (monotone, "errors not strictly decreasing in eps: " + _chain(errors)),
        (richardson_ok, f"Richardson dx_error {dx_error:.2e} > errors[-1]/10 = {errors[-1] / 10.0:.2e}"),
    ])


def run_refinement(cfg: dict, run_dir: Path) -> dict:
    exp = build_experiment(cfg)
    lo, hi = int(cfg["level_lo"]), int(cfg["level_hi"])
    if lo < 0:
        raise ValueError(f"level_lo must be at least 0, got {lo}")
    if hi < lo + 3:
        raise ValueError("refinement needs at least three levels above the base")
    check_step_cap(f"level_hi = {hi}: the finest path's segment count",
                   2.0**hi if hi < 1024 else math.inf)  # 2**hi as a float; no huge integer is formed
    seed = PathSeed(int(cfg["seed"]))
    level_paths = [brownian_sample(seed, exp.horizon, 2**lo, exp.flux.n_channels)]
    for level in range(lo + 1, hi + 1):
        level_paths.append(dyadic_refine(level_paths[-1], seed, level))
    u0 = exp.datum()
    trajs = [
        solve_path(u0, exp.flux, p, exp.outputs, exp.grid, exp.solver) for p in level_paths
    ]
    d = np.array([
        max(l1_distance(a, b) for a, b in zip(t0.states, t1.states))
        for t0, t1 in zip(trajs[:-1], trajs[1:])
    ])
    if not d[0] > 0.0:
        raise ValueError(f"datum = {cfg['datum']}: the solutions on levels {lo} and {lo + 1} are equal, so "
                         "there is no first gap to compare with (the datum does not feel the driver)")
    path_dist = np.array([
        sup_distance(p, q) for p, q in zip(level_paths[:-1], level_paths[1:])
    ])
    levels = np.arange(lo, hi)
    write_table(run_dir, "refinement.csv", "level,solution_gap,path_gap", [levels, d, path_dist])
    decreasing = bool(np.all(np.diff(d) < 0.0))
    rises = ", ".join(f"{levels[j]}->{levels[j + 1]}" for j in np.flatnonzero(np.diff(d) >= 0.0))
    report = {
        "levels": levels.tolist(),
        "gaps": d.tolist(),
        "path_gaps": path_dist.tolist(),
        "strictly_decreasing": decreasing,
        "final_vs_first": float(d[-1] / d[0]),
    }
    return _verdict(report, [
        (decreasing, f"gaps not strictly decreasing: {_chain(d)} (rise at level {rises})"),
        (d[-1] <= d[0] / 4.0, f"final/first gap {d[-1] / d[0]:.3g} > 1/4"),
    ])


def run_kinetic_check(cfg: dict, run_dir: Path) -> dict:
    exp = build_experiment(cfg)
    check_scheme(exp.solver.scheme)  # before solving: the extraction needs EO steps
    n_outputs, n_cells, n_xi = int(cfg["n_outputs"]), exp.grid.n_cells, int(cfg["n_xi"])
    check_step_cap(f"the defect value count n_outputs * n_cells * n_xi = {n_outputs} * {n_cells} * {n_xi}",
                   n_outputs * n_cells * n_xi)  # the fields that `accumulate_defects` keeps
    solver = dataclasses.replace(exp.solver, record_slabs=True)
    u0 = exp.datum()
    xi = XiGrid(float(cfg["xi_lo"]), float(cfg["xi_hi"]), n_xi)
    check_xi_covers(xi, float(np.max(np.abs(u0))))
    path = exp.path()
    traj = solve_path(u0, exp.flux, path, exp.outputs, exp.grid, solver)
    defects = accumulate_defects(traj, exp.flux, xi)
    kf = check_kf_bounds(defects, traj.states[0])
    unpr = check_unpr1(traj, defects)
    xi_mass = np.sum([d.xi_line_mass() for d in defects], axis=0)
    write_table(run_dir, "xi_mass.csv", "xi,mass", [xi.centers, xi_mass])
    write_table(
        run_dir, "l1_identity.csv", "t,lhs,rhs",
        [[d.t0 for d in defects], unpr["lhs"], unpr["rhs"]],
    )
    report = dict(kf, unpr1_max_relative=unpr["max_relative"])
    return _verdict(report, [
        (kf["total_ok"], f"total m {kf['total_mass']:.3g} > {kf['bound_total']:.3g} + {kf['tol_total']:.3g}"),
        (kf["xi_ok"], f"max per-xi m {kf['xi_mass_max']:.3g} > {kf['bound_xi']:.3g} + {kf['tol_xi']:.3g}"),
        (kf["sign_ok"], f"min m {kf['min_m']:.3g} < -tol_m = {-kf['tol_m']:.3g}"),
        (kf["support_ok"], f"support excess {kf['support_excess']:.3g} > tol_m = {kf['tol_m']:.3g}"),
    ])


def run_dissipative_check(cfg: dict, run_dir: Path) -> dict:
    """Windows are computed first so each gets 17 snapshots across it; each path's solve
    takes snapshots at 0 and at those times only, so it ends at the last window end."""
    exp = build_experiment(cfg)
    for key in ("n_seeds", "n_data", "n_anchors"):
        if int(cfg[key]) < 1:
            raise ValueError(f"{key} must be at least 1, got {cfg[key]!r}")
    n_seeds = int(cfg["n_seeds"])
    n_data = int(cfg["n_data"])
    n_anchors = int(cfg["n_anchors"])
    check_step_cap(f"the window count n_seeds * n_data * n_anchors = {n_seeds} * {n_data} * {n_anchors}",
                   n_seeds * n_data * n_anchors)
    u0 = exp.datum()
    horizon = exp.horizon
    width = exp.grid.x_hi - exp.grid.x_lo
    windows = []
    for i in range(n_seeds):
        path = exp.path(int(cfg["seed"]) + i)
        rng = PathSeed(int(cfg["seed"])).rng(7, i)
        data = []
        for _ in range(n_data):
            center = rng.uniform(exp.grid.x_lo + 0.25 * width, exp.grid.x_hi - 0.25 * width)
            halfwidth = rng.uniform(0.15, 0.3) * width
            height = rng.uniform(0.2, 0.5) * rng.choice([-1.0, 1.0])
            data.append(bump_weight(center, halfwidth, height))
        anchors = rng.uniform(0.1 * horizon, 0.9 * horizon, size=n_anchors)
        plan = [
            (di, local_solution(datum, path, exp.flux, float(t0)))
            for di, datum in enumerate(data)
            for t0 in anchors
        ]
        times = [np.asarray([0.0])]
        for _, sol in plan:
            times.append(np.linspace(*sol.window, 17))
        outputs = []  # sorted, each more than _TIME_ATOL past the one kept before it
        for t in np.unique(np.concatenate(times)).tolist():
            if not outputs or t - outputs[-1] > _TIME_ATOL:
                outputs.append(t)
        traj = solve_path(u0, exp.flux, path, outputs, exp.grid, exp.solver)
        u_inf = float(np.max(np.abs(u0)))
        weight = bump_weight(0.0, u_inf + 1.0)
        for di, sol in plan:
            rep = dissipative_check(traj, sol, weight)
            rep["seed"] = int(cfg["seed"]) + i
            rep["datum_index"] = di
            windows.append(rep)
    write_table(
        run_dir, "windows.csv", "seed,datum,t0,h,max_violation,tol",
        [[w["seed"] for w in windows], [w["datum_index"] for w in windows],
         [w["t0"] for w in windows], [w["h"] for w in windows],
         [w["max_violation"] for w in windows], [w["tol_D"] for w in windows]],
    )
    report = {
        "n_windows": len(windows),
        "min_h": min(w["h"] for w in windows),
        "worst_violation": max(w["max_violation"] for w in windows),
        "windows": [
            {k: w[k] for k in ("seed", "datum_index", "t0", "h", "max_violation", "tol_D", "pass")}
            for w in windows
        ],
    }
    return _verdict(report, [
        (w["pass"], f"D rises by {w['max_violation']:.3g} > tol_D {w['tol_D']:.3g} in the window at "
                    f"t0 = {w['t0']:.3g} (seed {w['seed']}, datum {w['datum_index']})")
        for w in windows
    ])


def _linear_front(lam: float, horizon: float) -> float:
    """Shock of the 1/0 step under u_t + (u^2/2)_x = lam u: speed e^{lam t} / 2, so at
    T it sits at expm1(lam T) / (2 lam), T/2 at lam = 0."""
    return 0.5 * horizon if lam == 0.0 else math.expm1(lam * horizon) / (2.0 * lam)


def _logistic_speed(horizon: float) -> float:
    """int_0^1 Psi(w; T) dw for the logistic flow Psi = w e^T / (1 + w expm1(T)), in closed
    form, or its series 1/2 + T/6 below T = 1e-6 where the closed form cancels."""
    if horizon < 1e-6:
        return 0.5 + horizon / 6.0
    em1 = math.expm1(horizon)
    return (1.0 + 1.0 / em1) * (1.0 - horizon / em1)


def run_semilinear_demo(cfg: dict, run_dir: Path) -> dict:
    """Burgers on the MISMATCH_DOMAIN outflow grid with driver W(t) = t."""
    if cfg["flux"].strip().lower() != "burgers":
        raise ValueError(f"semilinear-demo is defined for flux = burgers, got flux = {cfg['flux']!r}")
    exp = build_experiment(cfg)
    source, lam = build_source(cfg["source"])
    horizon, n_cells = exp.horizon, exp.grid.n_cells
    # The direct solve's states lie between 0 and the flowed 1, which only a linear source moves, to
    # e^(lam t) at most; checked here, as a state outside the certified range would stop the solve.
    u_lo, u_hi = exp.flux.u_range
    growth = max(lam or 0.0, 0.0) * horizon
    if not (u_lo <= 0.0 and u_hi >= 1.0 and growth <= math.log(u_hi)):
        top = "1" if growth == 0.0 else f"e^(lam T) = e^{growth:.6g}"
        raise ValueError(f"u_range [{u_lo}, {u_hi}] must hold the demo's states, from 0 to {top}")
    # The direct front is at T/2 for the logistic and zero sources, a linear front otherwise; the
    # level crossing is found only 2 dx inside MISMATCH_DOMAIN, so checked here before the solve.
    x_lo, x_hi = MISMATCH_DOMAIN
    dx = Grid1D(x_lo, x_hi, n_cells, "outflow").dx
    front = _linear_front(lam or 0.0, horizon)  # T/2 at lam = 0, bit for bit
    if not x_lo + 2.0 * dx <= front <= x_hi - 2.0 * dx:
        raise ValueError(f"horizon = {horizon}: the direct front reaches x = {front:.6g}, outside the demo "
                         f"domain {list(MISMATCH_DOMAIN)} less its 2 dx = {2.0 * dx:.6g} margin")
    rows = mismatch_report(source, exp.flux, horizon, n_cells, config=exp.solver)
    write_table(
        run_dir, "mismatch.csv", "t,x_transform,x_direct,gap",
        [[r["t"] for r in rows], [r["x_transform"] for r in rows],
         [r["x_direct"] for r in rows], [r["gap"] for r in rows]],
    )
    last = rows[-1]
    speed_end = last["speed"]
    report = {
        "source": source.name,
        "speed_at_horizon": speed_end,
        "x_transform": last["x_transform"],
        "x_direct": last["x_direct"],
        "gap": last["gap"],
        "dx": dx,
    }
    if lam is not None:
        report["front_oracle"] = front
        return _verdict(report, [
            (abs(last["x_transform"] - front) <= 1e-6,
             f"transformed front {last['x_transform']:.9f} off the oracle {front:.9f} by > 1e-6"),
            (abs(last["x_direct"] - front) <= 2.0 * dx,
             f"direct front {last['x_direct']:.4f} off the oracle {front:.4f} by more than 2 dx"),
        ])
    oracle = report["speed_oracle"] = _logistic_speed(horizon)
    return _verdict(report, [
        (abs(speed_end - oracle) <= 1e-6, f"speed {speed_end:.9f} off the oracle {oracle:.9f} by > 1e-6"),
        (abs(last["x_direct"] - front) <= 2.0 * dx,
         f"direct front {last['x_direct']:.4f} off T/2 = {front:.4f} by more than 2 dx"),
        (last["gap"] > 0.0, f"transform-direct gap {last['gap']:.3g} is not positive"),
    ])


EXPERIMENTS = {
    "solve": run_solve,
    "contraction": run_contraction,
    "path-stability": run_path_stability,
    "refine": run_refinement,
    "kinetic-check": run_kinetic_check,
    "dissipative-check": run_dissipative_check,
    "semilinear-demo": run_semilinear_demo,
}


# -- manifests and orchestration ---------------------------------------------


@contextlib.contextmanager
def _fresh_dir(out_root: str | Path | None, prefix: str):
    """A new `<prefix>-<time>-<id>` directory under the output root, removed if the block raises:
    a rejected config, a failed run or a non-finite report leaves no directory."""
    root = Path(out_root) if out_root is not None else output_root()
    run_dir = root / f"{prefix}-{time.strftime('%Y%m%d-%H%M%S')}-{uuid.uuid4().hex[:8]}"
    run_dir.mkdir(parents=True, exist_ok=False)
    try:
        yield run_dir
    except BaseException:
        shutil.rmtree(run_dir)
        raise


def execute(name: str, cfg: dict, out_root: str | Path | None = None) -> tuple[Path, dict]:
    """Run one named experiment in a fresh run directory; write manifest + report."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    with _fresh_dir(out_root, name) as run_dir:
        started = time.strftime("%Y-%m-%dT%H:%M:%S")
        t0 = time.perf_counter()
        report = EXPERIMENTS[name](cfg, run_dir)
        duration = time.perf_counter() - t0
        outputs = sorted(p.name for p in run_dir.iterdir() if p.suffix == ".csv")
        manifest = {"run_id": run_dir.name, "experiment": name, "config": dict(cfg), "seed": int(cfg["seed"]),
                    "created": started, "duration_s": duration, "outputs": outputs, "version": __version__}
        files = {"manifest.json": _json_text(manifest, "manifest.json"),
                 "report.json": _json_text(report, "report.json"), "config.txt": config_text(cfg)}
    for file_name, text in files.items():
        (run_dir / file_name).write_text(text, encoding="utf-8")
    return run_dir, report


def _json_text(obj, file_name: str) -> str:
    """`obj` as strict, indented JSON text; a NaN or infinity raises RuntimeError naming its key."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        key = _non_finite_key(obj)
        if key is None:
            raise
        raise RuntimeError(f"{file_name}: {key} is not a finite number") from None


def _non_finite_key(obj, key: str = ""):
    """Where the first NaN or infinity sits in nested dicts and lists, as `a.b[2]`; None if nowhere."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else key
    if isinstance(obj, dict):
        children = ((f"{key}.{k}" if key else str(k), v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        children = ((f"{key}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for child_key, value in children:
        found = _non_finite_key(value, child_key)
        if found is not None:
            return found
    return None


def rerun_from_manifest(manifest_file: str | Path, out_root: str | Path | None = None) -> dict:
    """Re-execute a recorded run and byte-compare every CSV output."""
    manifest_file = Path(manifest_file)
    with open(manifest_file, "r", encoding="utf-8") as fp:
        m = json.load(fp)
    cfg = load_config(None, m["config"])
    new_dir, report = execute(m["experiment"], cfg, out_root)
    old_dir = manifest_file.parent
    match = {}
    for name in m["outputs"]:
        old = (old_dir / name).read_bytes()
        new = (new_dir / name).read_bytes()
        match[name] = old == new
    return {
        "run_dir": str(new_dir),
        "match": match,
        "all_match": bool(all(match.values())),
        "report": report,
    }


def run_suite(names: list[str], cfg: dict, out_root: str | Path | None = None) -> tuple[Path, dict]:
    """Run the named experiments one after another and merge their gate results."""
    results: dict[str, dict] = {}
    with _fresh_dir(out_root, "suite") as suite_dir:  # no partial suite without its report
        for name in names:
            run_dir, report = execute(name, suite_cfg(cfg, name), suite_dir)
            results[name] = {"run_dir": str(run_dir), "pass": report.get("pass"), "report": report}
        summary = {
            "experiments": results,
            "pass": bool(all(r["pass"] for r in results.values())) if results else True,
        }
        text = _json_text(summary, "suite report.json")
    (suite_dir / "report.json").write_text(text, encoding="utf-8")
    return suite_dir, summary


def suite_cfg(cfg: dict, name: str) -> dict:
    """Per-experiment tweaks so every suite member has sane inputs."""
    out = dict(cfg)
    out["experiment"] = name
    if name == "semilinear-demo":
        out.update(flux="burgers", bc="outflow")  # what the demo runs, whatever the suite's config
    return out


DEFAULT_SUITE = [
    "contraction",
    "path-stability",
    "refine",
    "kinetic-check",
    "dissipative-check",
    "semilinear-demo",
]
