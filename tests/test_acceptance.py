"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Each test computes its quantities, prints a single summary line, and asserts
the gate.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import json
import math

import numpy as np
import pytest

from rough_scl.config import load_config
from rough_scl.fluxes import FluxModel, builtin, from_spec
from rough_scl.harness import execute, rerun_from_manifest, run_dissipative_check, run_path_stability, run_refinement
from rough_scl.kinetic import (
    IDENTITY_TOL,
    XiGrid,
    accumulate_defects,
    check_kf_bounds,
    check_unpr1,
    default_kernel,
    definition_residual,
)
from rough_scl.paths import PiecewiseLinearPath, brownian_sample, tent_path
from rough_scl.semilinear import (
    FlowMap,
    direct_semilinear_solve,
    logistic_source,
    shock_position,
    transformed_shock_position,
    transformed_shock_speed,
)
from rough_scl.paths import identity_path
from rough_scl.smooth import bump_weight
from rough_scl.solver import (
    Grid1D,
    SolverConfig,
    burgers_riemann_path,
    l1_distance,
    solve_path,
)


N_SWEEP = 20
SWEEP_GRID = Grid1D(-1.0, 1.0, 400, "periodic")
SWEEP_XI = XiGrid(-1.3, 1.3, 150)
TRANSFORMED_FRONT_AT_1 = 1.0 / (math.e - 1.0)  # T / (1 - e^-T) - 1 at T = 1


def gate(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def random_step_datum(rng: np.random.Generator, grid: Grid1D, n_pieces: int = 8) -> np.ndarray:
    """Random piecewise-constant datum with |u| <= 1 and finite TV."""
    edges = np.sort(rng.uniform(grid.x_lo, grid.x_hi, n_pieces - 1))
    levels = rng.uniform(-1.0, 1.0, n_pieces)
    return levels[np.searchsorted(edges, grid.centers)]


@pytest.fixture(scope="module")
def sweep():
    """Twenty Brownian paths, two data each, solved once; criteria 1/2/5 read it."""
    flux = from_spec("burgers;cubic", (-1.05, 1.05))
    outputs = np.linspace(0.0, 1.0, 11)
    slab_cfg = SolverConfig(record_slabs=True)
    plain_cfg = SolverConfig()
    rows = []
    for seed in range(N_SWEEP):
        path = brownian_sample(seed, 1.0, 8, 2)
        rng = np.random.default_rng((2026, seed))
        u_a = random_step_datum(rng, SWEEP_GRID)
        u_b = random_step_datum(rng, SWEEP_GRID)
        traj_a = solve_path(u_a, flux, path, outputs, SWEEP_GRID, slab_cfg)
        traj_b = solve_path(u_b, flux, path, outputs, SWEEP_GRID, plain_cfg)

        def invariants(traj):
            u0 = traj.states[0]
            mx = max(
                max(0.0, s.u.max() - u0.u.max(), u0.u.min() - s.u.min())
                for s in traj.states
            )
            tv0 = u0.tv()
            tv = max(0.0, max(s.tv() - tv0 for s in traj.states))
            mass = max(abs(s.mass() - u0.mass()) for s in traj.states)
            return mx, tv, mass

        defects = accumulate_defects(traj_a, flux, SWEEP_XI)
        kf = check_kf_bounds(defects, traj_a.states[0])
        dist = np.array([l1_distance(a, b) for a, b in zip(traj_a.states, traj_b.states)])
        rows.append(
            {
                "seed": seed,
                "inv_a": invariants(traj_a),
                "inv_b": invariants(traj_b),
                "distances": dist,
                "kf": kf,
            }
        )
    return rows


def test_criterion_01_monotone_invariants(sweep):
    mx = max(max(r["inv_a"][0], r["inv_b"][0]) for r in sweep)
    tv = max(max(r["inv_a"][1], r["inv_b"][1]) for r in sweep)
    mass = max(max(r["inv_a"][2], r["inv_b"][2]) for r in sweep)
    ok = mx <= 1e-12 and tv <= 1e-10 and mass <= 1e-12
    gate(1, "monotone-invariants", ok,
         f"20 paths: max_principle={mx:.2e}, tv_increase={tv:.2e}, mass_drift={mass:.2e}")


def test_criterion_02_l1_contraction(sweep):
    growth = max(float(np.max(np.diff(r["distances"]))) for r in sweep)
    ok = growth <= 1e-10
    gate(2, "l1-contraction", ok, f"20 pairs: worst distance growth={growth:.2e}")


def test_criterion_03_irreversibility():
    grid = Grid1D(-1.5, 2.5, 800, "outflow")
    u0 = np.where(grid.centers < 0.0, 1.0, 0.0)
    flux = FluxModel([builtin("burgers")], (-0.5, 1.5))
    u = solve_path(u0, flux, tent_path(), [2.0], grid).states[-1].u
    exact = burgers_riemann_path(1.0, 0.0, 0.0, tent_path(), 2.0, grid)  # 1/4 from u0 in L1
    err = grid.dx * float(np.abs(u - exact).sum())
    gap = grid.dx * float(np.abs(u - u0).sum())
    tol = max(0.02, 5.0 * grid.dx)
    ok = err <= tol
    gate(3, "irreversibility", ok, f"|u(2)-exact|_L1={err:.4f}, tol={tol:.3f}; |u(2)-u0|_L1={gap:.4f}, exact 0.25")


def test_criterion_04_monotone_composition():
    grid = Grid1D(-1.0, 1.0, 800, "outflow")
    u0 = np.where(grid.centers < -0.5, 1.0, 0.0)
    knots = np.linspace(0.0, 1.0, 65)
    path = PiecewiseLinearPath(knots, (knots**2)[:, None])
    flux = FluxModel([builtin("burgers")], (-0.5, 1.5))
    u = solve_path(u0, flux, path, [1.0], grid).states[-1].u
    err = grid.dx * float(np.abs(u - burgers_riemann_path(1.0, 0.0, -0.5, path, 1.0, grid)).sum())
    jump_x = grid.centers[int(np.flatnonzero(np.abs(np.diff(u)) > 0.4)[0])]
    shock_err = abs(jump_x - 0.0)  # started at -0.5, moved by W(1)/2 = 0.5
    ok = shock_err <= 2.0 * grid.dx and err <= 5.0 * grid.dx
    gate(4, "monotone-composition", ok,
         f"shock at {jump_x:+.4f} (target 0, tol {2*grid.dx:.4f}), "
         f"L1 vs exact={err:.2e} (tol {5*grid.dx:.4f})")


def test_criterion_05_kinetic_bounds(sweep):
    worst_total = max(r["kf"]["total_mass"] - r["kf"]["bound_total"] - r["kf"]["tol_total"]
                      for r in sweep)
    worst_xi = max(r["kf"]["xi_mass_max"] - r["kf"]["bound_xi"] - r["kf"]["tol_xi"]
                   for r in sweep)
    worst_sign = min(r["kf"]["min_m"] + r["kf"]["tol_m"] for r in sweep)
    bounds_ok = all(r["kf"]["pass"] for r in sweep)

    # single-shock dissipation oracle over [0, 1]
    grid = Grid1D(-1.0, 1.0, 400, "periodic")
    u0 = np.where(grid.centers < 0.0, 1.0, 0.0)
    flux = FluxModel([builtin("burgers")], (-1.05, 1.05))
    cfg = SolverConfig(record_slabs=True)
    traj = solve_path(u0, flux, identity_path(1.0), np.linspace(0.0, 1.0, 5), grid, cfg)
    xi = XiGrid(-1.3, 1.3, 260)
    total = sum(d.total_mass() for d in accumulate_defects(traj, flux, xi))
    oracle = 1.0 / 12.0
    shock_ok = abs(total - oracle) <= 0.2 * oracle
    ok = bounds_ok and shock_ok
    gate(5, "kinetic-bounds", ok,
         f"20 sweeps within bounds={bounds_ok} (total slack {-worst_total:.3f}, "
         f"xi slack {-worst_xi:.3f}, min m+tol {worst_sign:.2e}); "
         f"shock mass={total:.5f} vs 1/12={oracle:.5f} ({(total/oracle-1)*100:+.1f}%)")


def unpr1_residual(n_cells: int, n_xi: int) -> float:
    grid = Grid1D(-1.0, 1.0, n_cells, "periodic")
    u0 = np.where(grid.centers < 0.0, 1.0, -1.0)
    flux = from_spec("burgers;cubic", (-1.05, 1.05))
    cfg = SolverConfig(record_slabs=True)
    outputs = np.linspace(0.0, 1.0, 5)
    traj = solve_path(u0, flux, brownian_sample(0, 1.0, 8, 2), outputs, grid, cfg)
    defects = accumulate_defects(traj, flux, XiGrid(-1.5, 1.5, n_xi))
    return check_unpr1(traj, defects)["max_relative"]


def test_criterion_06_l1_identity():
    coarse = unpr1_residual(400, 200)
    fine = unpr1_residual(800, 400)
    ok = coarse <= IDENTITY_TOL and fine <= IDENTITY_TOL
    gate(6, "l1-identity", ok,
         f"kinetic identity max relative residual {coarse:.2e} at 400/200, {fine:.2e} at 800/400 "
         f"(<= {IDENTITY_TOL:g})")


def test_criterion_07_definition_residual():
    flux = FluxModel([builtin("burgers")], (-1.05, 1.05))
    path = brownian_sample(0, 0.4, 8, 1)
    kernel = default_kernel(0.3)
    pairs = [
        (bump_weight(0.5, 0.45), bump_weight(0.20, 0.15)),
        (bump_weight(0.35, 0.30), bump_weight(0.25, 0.10)),
        (bump_weight(0.65, 0.30), bump_weight(0.15, 0.10)),
    ]
    levels = []
    # Halving every discretisation scale includes the snapshot spacing: a
    # fixed reporting step leaves a time-quantisation floor that stalls the
    # residual ratios near 1.
    for n_cells, n_xi, n_out in ((200, 100, 9), (400, 200, 17), (800, 400, 33)):
        grid = Grid1D(-1.0, 1.0, n_cells, "periodic")
        u0 = np.where(grid.centers < 0.0, 1.0, 0.0)
        cfg = SolverConfig(record_slabs=True)
        traj = solve_path(u0, flux, path, np.linspace(0.0, 0.4, n_out), grid, cfg)
        defects = accumulate_defects(traj, flux, XiGrid(-1.5, 1.5, n_xi))
        levels.append(definition_residual(traj, defects, kernel, flux, path, pairs))
    levels = np.asarray(levels)  # (3 grids, 3 pairs)
    ratios = levels[:-1] / levels[1:]
    ok = bool(np.all(ratios >= 1.5))
    gate(7, "definition-residual", ok,
         "residuals " + "; ".join(
             f"pair{j}: " + "->".join(f"{v:.2e}" for v in levels[:, j])
             for j in range(levels.shape[1])
         ) + f"; min ratio {ratios.min():.2f} (>=1.5)")


def test_criterion_08_path_stability(tmp_path):
    cfg = load_config(None, {
        "experiment": "path-stability",
        "datum": "riemann:2,0",
        "u_lo": -0.5,
        "u_hi": 2.5,
        "n_cells": 1600,
        "seed": 0,
        "epsilons": "0.2,0.1,0.05,0.025",
    })
    report = run_path_stability(cfg, tmp_path)
    ok = report["pass"]
    gate(8, "path-stability", ok,
         f"slope={report['slope']:.3f} in [0.45,1.05], monotone={report['monotone']}, "
         f"dx_error={report['dx_error']:.2e} <= E_min/10={report['errors'][-1]/10:.2e}")


def test_criterion_09_refinement(tmp_path):
    cfg = load_config(None, {
        "experiment": "refine",
        "datum": "riemann:1,0",
        "u_lo": -0.5,
        "u_hi": 1.5,
        "n_cells": 400,
        "seed": 16,
        "level_lo": 4,
        "level_hi": 10,
    })
    report = run_refinement(cfg, tmp_path)
    ok = report["pass"]
    gaps = "->".join(f"{g:.3f}" for g in report["gaps"])
    gate(9, "refinement", ok,
         f"gaps {gaps}, strictly decreasing={report['strictly_decreasing']}, "
         f"d_last/d_first={report['final_vs_first']:.3f} (<=0.25)")


def test_criterion_10_dissipative(tmp_path):
    cfg = load_config(None, {
        "experiment": "dissipative-check",
        "datum": "riemann:1,0",
        "u_lo": -1.5,
        "u_hi": 1.5,
        "n_seeds": 5,
        "n_data": 3,
        "n_anchors": 3,
        "seed": 0,
    })
    report = run_dissipative_check(cfg, tmp_path)
    worst = max(report["windows"], key=lambda w: w["max_violation"])
    ok = report["pass"] and report["n_windows"] == 45 and report["min_h"] > 0.0
    gate(10, "dissipative", ok,
         f"{report['n_windows']} windows, min h={report['min_h']:.3f}, "
         f"worst rise of the L1 distance={report['worst_violation']:.2e} <= tol {worst['tol']:.2e}")


def test_criterion_11_semilinear():
    source = logistic_source()
    flow = FlowMap(source, identity_path(1.0))
    ch = builtin("burgers")
    e = math.e
    speed = transformed_shock_speed(ch, flow, 1.0)
    speed_oracle = e * (e - 2.0) / (e - 1.0) ** 2
    x_transform = transformed_shock_position(ch, flow, 1.0)

    grid = Grid1D(-0.5, 1.5, 800, "outflow")
    flux = FluxModel([ch], (-0.5, 1.5))
    traj = direct_semilinear_solve(flux, source, grid, 1.0)
    x_direct = shock_position(traj.states[-1])
    gap = x_transform - x_direct
    dx = grid.dx
    ok = (
        abs(speed - speed_oracle) <= 1e-6
        and abs(x_transform - TRANSFORMED_FRONT_AT_1) <= 1e-5
        and abs(x_direct - 0.5) <= 2.0 * dx
        and abs(gap - (TRANSFORMED_FRONT_AT_1 - 0.5)) <= 2.0 * dx + 1e-5
        and gap > 0.0
    )
    gate(11, "semilinear", ok,
         f"speed={speed:.9f} (oracle {speed_oracle:.9f}), "
         f"x_transform={x_transform:.7f} (oracle 1/(e-1) = {TRANSFORMED_FRONT_AT_1:.7f}), "
         f"x_direct={x_direct:.4f} (target 0.5 +- {2*dx:.4f}), gap={gap:+.4f}")


def test_criterion_12_determinism(tmp_path):
    checked = {}
    for name, over in (
        ("solve", {"n_cells": 100, "horizon": 0.5, "n_outputs": 4, "path": "brownian:4"}),
        ("kinetic-check", {"n_cells": 100, "horizon": 0.5, "n_outputs": 4,
                           "path": "brownian:4", "n_xi": 60}),
    ):
        cfg = load_config(None, dict(over, experiment=name, seed=3))
        run_dir, _ = execute(name, cfg, tmp_path)
        result = rerun_from_manifest(run_dir / "manifest.json", tmp_path)
        n_csv = len(json.loads((run_dir / "manifest.json").read_text())["outputs"])
        checked[name] = (result["all_match"], n_csv)
    ok = all(match for match, _ in checked.values())
    gate(12, "determinism", ok,
         ", ".join(f"{k}: {n} CSVs byte-identical={m}" for k, (m, n) in checked.items()))
