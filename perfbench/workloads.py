"""The benchmark's four workloads, built from a seed, with their oracles.

`build(name, seed, scratch)` is the set-up: it creates fluxes, grids, paths and
data from the seed and returns the cases of one pass.  A case runs one unit of
user work and checks it against the acceptance suite's gate or a closed-form
reference.  It returns an `Outcome`; `err` is the error divided by its
tolerance (<= 1 passes) where a closed-form reference exists.

Known defects (KNOWN_DEFECTS) are run and checked like every other case; their
failures are counted in `pass_frac` and listed by name.  They are not counted
as unexpected failures, so a later change that fixes one simply passes.
"""
from __future__ import annotations

import fnmatch
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from rough_scl.characteristics import local_solution
from rough_scl.config import load_config
from rough_scl.fluxes import FluxModel, builtin, from_spec
from rough_scl.harness import execute, run_refinement
from rough_scl.kinetic import (
    XiGrid,
    accumulate_defects,
    check_kf_bounds,
    check_unpr1,
    default_kernel,
    definition_residual,
)
from rough_scl.paths import PathSeed, PiecewiseLinearPath, brownian_sample, identity_path
from rough_scl.semilinear import (
    FlowMap,
    direct_semilinear_solve,
    logistic_source,
    shock_position,
    transformed_shock_position,
    transformed_shock_speed,
)
from rough_scl.smooth import bump_datum, bump_weight
from rough_scl.solver import Grid1D, SolverConfig, burgers_riemann_exact, l1_distance, solve_path

SCHEMES = ("engquist_osher", "godunov_convex")

# case-name pattern -> defect it reproduces (measured when the benchmark was added).
KNOWN_DEFECTS = {
    "sweep/brownian-*/godunov_convex":
        "godunov_convex assumes F convex; raises 'state left the certified u_range' on "
        "two-channel Brownian paths (ROADMAP item 4)",
    "sweep/refine/godunov_convex":
        "godunov_convex raises 'state left the certified u_range' on the refine ladder "
        "(ROADMAP item 4)",
    "sweep/riemann-descending/godunov_convex":
        "godunov_convex builds a stationary expansion shock under W(t)=-t: "
        "L1 error 0.50 vs 0.007 for EO (ROADMAP item 4)",
    "sweep/refine/engquist_osher":
        "criterion-9 strict-decrease clause fails at most seeds (ROADMAP item 5)",
    "kinetic/definition-residual":
        "criterion-7 halving-ratio clause (>= 1.5) fails on some seeded paths: pair 1 ratio "
        "1.46 at seed 10 (1.55 at the suite's pinned path)",
}


def known_defect(case: str) -> str | None:
    for pattern, why in KNOWN_DEFECTS.items():
        if fnmatch.fnmatchcase(case, pattern):
            return why
    return None


@dataclass(frozen=True)
class Outcome:
    ok: bool
    err: float | None = None  # error / tolerance against a closed-form reference
    detail: str = ""
    extra: dict = field(default_factory=dict)  # per-layer values reported by the case


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable[[], Outcome]


def derive_seed(seed: int, *tags: int) -> int:
    """Independent 32-bit seed for one input of one workload."""
    return int(np.random.SeedSequence([int(seed), *tags]).generate_state(1)[0])


def random_step_datum(rng: np.random.Generator, grid: Grid1D, n_pieces: int = 8) -> np.ndarray:
    """Random piecewise-constant datum with |u| <= 1 (the criteria 1/2 fixture's data)."""
    edges = np.sort(rng.uniform(grid.x_lo, grid.x_hi, n_pieces - 1))
    levels = rng.uniform(-1.0, 1.0, n_pieces)
    return levels[np.searchsorted(edges, grid.centers)]


def invariant_excess(traj) -> float:
    """Worst of max-principle, TV-increase and mass-drift excess over the criterion-1 gates."""
    u0 = traj.states[0]
    mx = max(max(0.0, s.u.max() - u0.u.max(), u0.u.min() - s.u.min()) for s in traj.states)
    tv = max(0.0, max(s.tv() - u0.tv() for s in traj.states))
    mass = max(abs(s.mass() - u0.mass()) for s in traj.states)
    return max(mx / 1e-12, tv / 1e-10, mass / 1e-12)


# -- sweep --------------------------------------------------------------------

N_SWEEP_PATHS = 4
SWEEP_GRID = Grid1D(-1.0, 1.0, 400, "periodic")
RIEMANN_GRID = Grid1D(-1.0, 1.0, 800, "outflow")
RIEMANN_T = 0.5


def _brownian_pair_case(flux, path, u_a, u_b, scheme) -> Callable[[], Outcome]:
    outputs = np.linspace(0.0, 1.0, 11)

    def run() -> Outcome:
        cfg = SolverConfig(scheme=scheme)
        traj_a = solve_path(u_a, flux, path, outputs, SWEEP_GRID, cfg)
        traj_b = solve_path(u_b, flux, path, outputs, SWEEP_GRID, cfg)
        dist = [l1_distance(a, b) for a, b in zip(traj_a.states, traj_b.states)]
        growth = float(np.max(np.diff(dist)))
        excess = max(invariant_excess(traj_a), invariant_excess(traj_b))
        ok = excess <= 1.0 and growth <= 1e-10
        return Outcome(ok, None, f"invariant excess {excess:.2e}, distance growth {growth:.2e}")
    return run


def _refine_case(seed: int, scheme: str, scratch: Path) -> Callable[[], Outcome]:
    cfg = load_config(None, {
        "experiment": "refine", "datum": "riemann:1,0", "u_lo": -0.5, "u_hi": 1.5,
        "n_cells": 400, "seed": seed, "level_lo": 4, "level_hi": 10, "scheme": scheme,
    })

    def run() -> Outcome:
        rep = run_refinement(cfg, scratch)
        gaps = "->".join(f"{g:.3f}" for g in rep["gaps"])
        return Outcome(bool(rep["pass"]), None,
                       f"gaps {gaps}, strictly decreasing={rep['strictly_decreasing']}, "
                       f"last/first={rep['final_vs_first']:.3f}")
    return run


def _riemann_case(sign: int, scheme: str) -> Callable[[], Outcome]:
    """Burgers (1, -1) under W(t) = sign*t; W = -t mirrors x, so the fan is exact."""
    grid = RIEMANN_GRID
    flux = FluxModel([builtin("burgers")], (-1.05, 1.05))
    path = PiecewiseLinearPath([0.0, RIEMANN_T], [0.0, sign * RIEMANN_T])
    u0 = np.where(grid.centers < 0.0, 1.0, -1.0)
    if sign > 0:
        exact = burgers_riemann_exact(1.0, -1.0, grid.centers, RIEMANN_T)
    else:
        exact = burgers_riemann_exact(-1.0, 1.0, -grid.centers, RIEMANN_T)
    tol = 5.0 * grid.dx

    def run() -> Outcome:
        u = solve_path(u0, flux, path, [RIEMANN_T], grid, SolverConfig(scheme=scheme)).states[-1].u
        err = grid.dx * float(np.abs(u - exact).sum())
        extra = {f"fluxes.riemann_err.{scheme}": err} if sign < 0 else {}
        return Outcome(err <= tol, err / tol, f"L1 error {err:.4f} (tol {tol:.4f})", extra)
    return run


def build_sweep(seed: int, scratch: Path) -> list[Case]:
    flux = from_spec("burgers;cubic", (-1.05, 1.05))
    cases = []
    for i in range(N_SWEEP_PATHS):
        path = brownian_sample(derive_seed(seed, 1, i), 1.0, 8, 2)
        rng = np.random.default_rng(derive_seed(seed, 2, i))
        u_a = random_step_datum(rng, SWEEP_GRID)
        u_b = random_step_datum(rng, SWEEP_GRID)
        for scheme in SCHEMES:
            cases.append(Case(f"sweep/brownian-{i}/{scheme}",
                              _brownian_pair_case(flux, path, u_a, u_b, scheme)))
    refine_seed = derive_seed(seed, 3)
    for scheme in SCHEMES:
        cases.append(Case(f"sweep/refine/{scheme}", _refine_case(refine_seed, scheme, scratch)))
    for label, sign in (("ascending", 1), ("descending", -1)):
        for scheme in SCHEMES:
            cases.append(Case(f"sweep/riemann-{label}/{scheme}", _riemann_case(sign, scheme)))
    return cases


# -- kinetic ------------------------------------------------------------------

def _shock_mass_case() -> Callable[[], Outcome]:
    """Criterion 5's oracle: one Burgers shock 1/0 dissipates 1/12 over [0, 1]."""
    grid = Grid1D(-1.0, 1.0, 400, "periodic")
    u0 = np.where(grid.centers < 0.0, 1.0, 0.0)
    flux = FluxModel([builtin("burgers")], (-1.05, 1.05))
    xi = XiGrid(-1.3, 1.3, 260)
    oracle = 1.0 / 12.0
    tol = 0.2 * oracle

    def run() -> Outcome:
        traj = solve_path(u0, flux, identity_path(1.0), np.linspace(0.0, 1.0, 5), grid,
                          SolverConfig(record_slabs=True))
        total = sum(d.total_mass() for d in accumulate_defects(traj, flux, xi))
        err = abs(total - oracle)
        return Outcome(err <= tol, err / tol, f"shock mass {total:.5f} vs 1/12 (tol {tol:.5f})")
    return run


KINETIC_GRID = Grid1D(-1.0, 1.0, 400, "periodic")


def _l1_identity_case(u0: np.ndarray) -> Callable[[], Outcome]:
    """Criteria 5/6 at the coarse criterion-6 level: bounds and the L1 identity.

    The path is criterion 6's own; the seed draws the data.  The step count
    depends on the path only, so every seed does the same amount of work.
    """
    grid = KINETIC_GRID
    path = brownian_sample(0, 1.0, 8, 2)
    flux = from_spec("burgers;cubic", (-1.05, 1.05))
    xi = XiGrid(-1.5, 1.5, 200)

    def run() -> Outcome:
        traj = solve_path(u0, flux, path, np.linspace(0.0, 1.0, 5), grid,
                          SolverConfig(record_slabs=True))
        defects = accumulate_defects(traj, flux, xi)
        kf = check_kf_bounds(defects, traj.states[0])
        rel = check_unpr1(traj, defects)["max_relative"]
        ok = kf["pass"] and rel <= 0.10
        return Outcome(ok, rel / 0.10,
                       f"kf bounds pass={kf['pass']} (min m {kf['min_m']:.2e}), "
                       f"L1 identity residual {rel:.2e} (<= 0.10)")
    return run


def _residual_ladder_case(path) -> Callable[[], Outcome]:
    """Criterion 7's residual ladder at its two coarse levels (ratio >= 1.5)."""
    flux = FluxModel([builtin("burgers")], (-1.05, 1.05))
    kernel = default_kernel(0.3)
    pairs = [
        (bump_weight(0.5, 0.45), bump_weight(0.20, 0.15)),
        (bump_weight(0.35, 0.30), bump_weight(0.25, 0.10)),
        (bump_weight(0.65, 0.30), bump_weight(0.15, 0.10)),
    ]

    def run() -> Outcome:
        levels = []
        for n_cells, n_xi, n_out in ((200, 100, 9), (400, 200, 17)):
            grid = Grid1D(-1.0, 1.0, n_cells, "periodic")
            u0 = np.where(grid.centers < 0.0, 1.0, 0.0)
            traj = solve_path(u0, flux, path, np.linspace(0.0, 0.4, n_out), grid,
                              SolverConfig(record_slabs=True))
            defects = accumulate_defects(traj, flux, XiGrid(-1.5, 1.5, n_xi))
            levels.append(definition_residual(traj, defects, kernel, flux, path, pairs))
        ratios = np.asarray(levels[0]) / np.asarray(levels[1])
        return Outcome(bool(np.all(ratios >= 1.5)), None,
                       "ratios " + ", ".join(f"{r:.2f}" for r in ratios) + " (>= 1.5)")
    return run


def build_kinetic(seed: int, scratch: Path) -> list[Case]:
    return [
        Case("kinetic/shock-mass", _shock_mass_case()),
        Case("kinetic/l1-identity", _l1_identity_case(
            random_step_datum(np.random.default_rng(derive_seed(seed, 1)), KINETIC_GRID))),
        Case("kinetic/definition-residual",
             _residual_ladder_case(brownian_sample(derive_seed(seed, 2), 0.4, 8, 1))),
    ]


# -- dissipative --------------------------------------------------------------

# 8 paths x 2 data x 1 anchor: per-seed step counts average over 8 paths.
DISSIPATIVE_PLAN = {"n_seeds": 8, "n_data": 2, "n_anchors": 1}


def _dissipative_case(seed: int, scratch: Path) -> Callable[[], Outcome]:
    cfg = load_config(None, dict(
        DISSIPATIVE_PLAN, experiment="dissipative-check", datum="riemann:1,0",
        u_lo=-1.5, u_hi=1.5, seed=seed,
    ))
    expected = math.prod(DISSIPATIVE_PLAN.values())

    def run() -> Outcome:
        _, rep = execute("dissipative-check", cfg, scratch)
        ok = rep["pass"] and rep["n_windows"] == expected and rep["min_h"] > 0.0
        return Outcome(ok, None,
                       f"{rep['n_windows']} windows (want {expected}), min h={rep['min_h']:.4f}, "
                       f"worst violation={rep['worst_violation']:.2e}")
    return run


def _smooth_window_case() -> Callable[[], Outcome]:
    """Before breaking, the scheme converges to the local smooth solution at O(dx)."""
    grid = Grid1D(-1.0, 1.0, 400, "periodic")
    flux = FluxModel([builtin("burgers")], (-1.5, 1.5))
    datum = bump_datum(0.0, 0.5, 0.5)
    path = identity_path(1.0)
    tol = grid.dx

    def run() -> Outcome:
        sol = local_solution(datum, path, flux, 0.0)
        t_end = sol.window[1]
        u = solve_path(datum.value(grid.centers), flux, path, [t_end], grid).states[-1].u
        err = grid.dx * float(np.abs(u - sol.evaluate(grid.centers, t_end)).sum())
        return Outcome(err <= tol, err / tol, f"L1 vs smooth solution at t={t_end:.4f}: {err:.2e}")
    return run


def build_dissipative(seed: int, scratch: Path) -> list[Case]:
    return [
        Case("dissipative/harness-check", _dissipative_case(derive_seed(seed, 1), scratch)),
        Case("dissipative/smooth-window", _smooth_window_case()),
    ]


# -- semilinear ---------------------------------------------------------------

TRANSFORMED_FRONT_AT_1 = 0.581976706869246


def logistic_speed(w: float) -> float:
    """int_0^1 Psi(v; W) dv for the logistic flow Psi = v e^W / (1 + v (e^W - 1))."""
    if abs(w) < 1e-6:
        return 0.5 + w / 12.0
    em1 = math.expm1(w)
    return (1.0 + 1.0 / em1) * (1.0 - w / em1)


def _demo_case(scratch: Path) -> Callable[[], Outcome]:
    cfg = load_config(None, {"experiment": "semilinear-demo", "bc": "outflow"})

    def run() -> Outcome:
        _, rep = execute("semilinear-demo", cfg, scratch)
        err = max(abs(rep["speed_at_horizon"] - rep["speed_oracle"]) / 1e-6,
                  abs(rep["x_direct"] - 0.5) / (2.0 * rep["dx"]))
        return Outcome(bool(rep["pass"]), err,
                       f"speed {rep['speed_at_horizon']:.9f}, x_direct {rep['x_direct']:.4f}, "
                       f"gap {rep['gap']:+.4f}")
    return run


def _criterion11_case() -> Callable[[], Outcome]:
    source = logistic_source()
    channel = builtin("burgers")
    grid = Grid1D(-0.5, 1.5, 800, "outflow")
    flux = FluxModel([channel], (-0.5, 1.5))
    e = math.e
    speed_oracle = e * (e - 2.0) / (e - 1.0) ** 2

    def run() -> Outcome:
        flow = FlowMap(source, identity_path(1.0))
        speed = transformed_shock_speed(channel, flow, 1.0)
        x_t = transformed_shock_position(channel, flow, 1.0)
        x_d = shock_position(direct_semilinear_solve(flux, source, grid, 1.0).states[-1])
        gap, dx = x_t - x_d, grid.dx
        ratios = (
            abs(speed - speed_oracle) / 1e-6,
            abs(x_t - TRANSFORMED_FRONT_AT_1) / 1e-5,
            abs(x_d - 0.5) / (2.0 * dx),
            abs(gap - (TRANSFORMED_FRONT_AT_1 - 0.5)) / (2.0 * dx + 1e-5),
        )
        ok = max(ratios) <= 1.0 and gap > 0.0
        return Outcome(ok, max(ratios),
                       f"speed {speed:.9f}, x_transform {x_t:.7f}, x_direct {x_d:.4f}")
    return run


def _brownian_flow_case(path) -> Callable[[], Outcome]:
    """Logistic flow and transformed front speed along a Brownian driver, in closed form."""
    source = logistic_source()
    channel = builtin("burgers")
    times = np.linspace(0.0, 1.0, 11)
    v = np.linspace(0.0, 1.0, 101)
    w = path.eval(times)[:, 0]
    grow = np.exp(w)[:, None]
    exact = v[None, :] * grow / (1.0 + v[None, :] * (grow - 1.0))

    def run() -> Outcome:
        flow = FlowMap(source, path)
        psi_err = float(np.max(np.abs(flow.psi_at_times(v, times) - exact)))
        speed_err = max(abs(transformed_shock_speed(channel, flow, float(t)) - logistic_speed(wt))
                        for t, wt in zip(times[1:], w[1:]))
        err = max(psi_err / 1e-9, speed_err / 1e-6)
        return Outcome(err <= 1.0, err, f"flow error {psi_err:.2e}, speed error {speed_err:.2e}")
    return run


def build_semilinear(seed: int, scratch: Path) -> list[Case]:
    cases = [
        Case("semilinear/demo", _demo_case(scratch)),
        Case("semilinear/criterion-11", _criterion11_case()),
    ]
    for i in range(2):
        path = brownian_sample(PathSeed(derive_seed(seed, 1, i)), 1.0, 8, 1)
        cases.append(Case(f"semilinear/brownian-flow-{i}", _brownian_flow_case(path)))
    return cases


BUILDERS = {
    "sweep": build_sweep,
    "kinetic": build_kinetic,
    "dissipative": build_dissipative,
    "semilinear": build_semilinear,
}


def build(name: str, seed: int, scratch: Path) -> list[Case]:
    return BUILDERS[name](seed, scratch)


def run_case(case: Case) -> Outcome:
    """Run one case; an exception is a failed case, never a skipped one."""
    try:
        return case.run()
    except Exception as exc:  # the benchmark must keep running and report it
        return Outcome(False, None, f"{type(exc).__name__}: {exc}")
