"""First-order monotone finite-volume solver driven by piecewise linear signals.

On each linear segment of the driver with slope vector c the equation freezes to u_t + F(u)_x = 0
with F = sum_i c_i A_i; the segment is advanced with an explicit monotone scheme (Engquist-Osher by
default, or the exact Godunov flux) in steps that end at `step_ends`, the CFL limit of the certified
speed bound (one step of the whole span where that bound is 0; the semilinear splitting march steps
by the same rule), and segments are chained at the knots.  Each step pads the state with one ghost
cell per side (`Grid1D.pad`, the one boundary rule of the package) and takes all interface fluxes
from `SegmentFlux.interface_flux`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fluxes import FluxModel, SegmentFlux
from .paths import PiecewiseLinearPath, identity_path

_TIME_ATOL = 1e-12
# Far above the largest march in tier-1, the suite and the benchmark (36,487 steps, kinetic-check
# on brownian:8192): so many steps take minutes even on a tiny grid, while a huge but finite speed
# bound, such as that of data reaching 1e300, asks for about 1e300 of them, a run that would never
# end.  It also caps the cells, kept defect values and windows that a run builds (`check_step_cap`).
MAX_STEPS = 10**7


class CFLError(RuntimeError):
    """Raised when a step is requested above the admissible dt."""


@dataclass(frozen=True)
class Grid1D:
    x_lo: float
    x_hi: float
    n_cells: int
    bc: str = "periodic"

    def __post_init__(self) -> None:
        if not self.x_lo < self.x_hi:
            raise ValueError("empty domain")
        if not (math.isfinite(self.x_lo) and math.isfinite(self.x_hi)):
            raise ValueError(f"domain edges x_lo = {self.x_lo} and x_hi = {self.x_hi} must be finite")
        if self.n_cells < 2:
            raise ValueError("need at least two cells")
        if self.bc not in ("periodic", "outflow"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")

    @cached_property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def length(self) -> float:
        return self.x_hi - self.x_lo

    @cached_property
    def _pad_index(self) -> np.ndarray:
        i = np.arange(-1, self.n_cells + 1)
        return i % self.n_cells if self.bc == "periodic" else i.clip(0, self.n_cells - 1)

    def pad(self, a: np.ndarray) -> np.ndarray:
        """A copy of `a` (n_cells rows), one ghost row per side: wrapped (periodic) or repeated (outflow)."""
        return a[self._pad_index]


@dataclass
class CellState:
    grid: Grid1D
    u: np.ndarray
    t: float

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != (self.grid.n_cells,):
            raise ValueError(f"state shape {self.u.shape} does not match grid")

    def l1(self) -> float:
        return float(self.grid.dx * np.sum(np.abs(self.u)))

    def l2_sq(self) -> float:
        return float(self.grid.dx * np.sum(self.u**2))

    def mass(self) -> float:
        return float(self.grid.dx * np.sum(self.u))

    def tv(self) -> float:
        jumps = np.abs(np.diff(self.u))
        wrap = abs(self.u[0] - self.u[-1]) if self.grid.bc == "periodic" else 0.0
        return float(np.sum(jumps) + wrap)


def l1_distance(a: CellState, b: CellState) -> float:
    if a.grid != b.grid:
        raise ValueError("states live on different grids")
    return float(a.grid.dx * np.sum(np.abs(a.u - b.u)))


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.9
    scheme: str = "engquist_osher"
    record_slabs: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.scheme not in ("engquist_osher", "godunov_convex"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class Slab:
    """One solver step: u0 at t0 to u1 at t0 + dt by `scheme` under its segment's frozen flux.

    `solve_segment` emits one per step; the kinetic layer reads the defect m of
    the steps from them (`kinetic.accumulate_defects`).
    """

    t0: float
    dt: float
    fseg: SegmentFlux
    scheme: str
    u0: np.ndarray
    u1: np.ndarray

    @property
    def c(self) -> np.ndarray:
        """The driver slope of the step's segment."""
        return self.fseg.c


@dataclass
class Trajectory:
    grid: Grid1D
    times: np.ndarray
    states: list[CellState]
    slabs: list[Slab] | None = None

    def state_at(self, t: float) -> CellState:
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"no snapshot at t={t}")
        return self.states[k]


def check_step_cap(what: str, n: int | float) -> None:
    """Refuse `what`, the count n of a march's solver steps or of the cells, values or windows a
    run builds, when n is above MAX_STEPS (a NaN too), before anything of that size is built.
    MAX_STEPS is read when called, so a test can lower it on this module."""
    if not n <= MAX_STEPS:
        count = f"{n:.10g}" if isinstance(n, float) else n
        raise ValueError(f"{what} is {count}, more than the step cap of {MAX_STEPS}")


def step(state: CellState, fseg: SegmentFlux, dt: float, config: SolverConfig = SolverConfig()) -> CellState:
    """One explicit step; refuses a negative dt and dt above cfl * dx / max_speed.

    A negative dt would run the scheme backward, which is anti-diffusive and
    breaks the maximum principle; dt = 0 is allowed.  The state is padded by
    `Grid1D.pad`, so the n + 1 interface fluxes come from one call and their
    differences are the n cell updates, in one buffer; what is fixed per segment is in `fseg`.
    """
    grid = state.grid
    dx = grid.dx
    if dt < 0:
        raise ValueError(f"negative dt={dt:.3e}")
    if fseg.max_speed > 0.0 and dt > config.cfl * dx / fseg.max_speed * (1.0 + 1e-9):
        raise CFLError(f"dt={dt:.3e} exceeds cfl*dx/max_speed={config.cfl * dx / fseg.max_speed:.3e}")
    fh = fseg.interface_flux(grid.pad(state.u), config.scheme)
    u = np.subtract(fh[1:], fh[:-1])
    u *= dt / dx
    np.subtract(state.u, u, u)  # in place, `out` given by position as keywords cost time
    new = object.__new__(CellState)  # `u` is a float array of the grid's shape: skip the validation
    new.grid, new.u, new.t = grid, u, state.t + dt
    return new


def step_ends(t0: float, duration: float, speed: float, dx: float, cfl: float) -> list[float]:
    """The end times of the steps that advance t0 by `duration` under the speed bound `speed`: steps of
    dt_max = cfl * dx / speed, the last one cut to land on t0 + duration; one step if speed is 0, none
    if duration is 0.  `solve_segment` and the semilinear splitting march both step along these."""
    if duration == 0:
        return []
    if speed <= 0.0:  # the flux is constant in u on the certified range: one step, which moves nothing
        return [t0 + duration]
    dt_max = cfl * dx / speed
    n_steps = max(1, math.ceil(duration / dt_max - 1e-12))
    return [*(t0 + k * dt_max for k in range(1, n_steps)), t0 + duration]


def distinct_times(times) -> list[float]:
    """`times` sorted, less each one within `_TIME_ATOL` of the one kept before it: output times for
    `solve_path`, whose landing rule would snapshot such a near duplicate without a step."""
    kept: list[float] = []
    for t in np.unique(times).tolist():
        if not kept or t - kept[-1] > _TIME_ATOL:
            kept.append(t)
    return kept


def solve_segment(
    state: CellState,
    fseg: SegmentFlux,
    duration: float,
    config: SolverConfig = SolverConfig(),
    collect=None,
) -> CellState:
    """Advance by `duration` under the frozen flux `fseg` (slope `fseg.c`).

    One `step` to each of the `step_ends`: the largest admissible dt, the last
    one truncated to land exactly on the segment end.  `collect(slab)` is
    called with one `Slab` per step.
    """
    if duration < 0:
        raise ValueError("negative duration")
    for target in step_ends(state.t, duration, fseg.max_speed, state.grid.dx, config.cfl):
        dt = target - state.t
        new = step(state, fseg, dt, config)
        new.t = target
        if collect is not None:
            collect(Slab(state.t, dt, fseg, config.scheme, state.u, new.u))
        state = new
    return state


def solve_path(
    u0: np.ndarray,
    flux: FluxModel,
    path: PiecewiseLinearPath,
    outputs,
    grid: Grid1D,
    config: SolverConfig = SolverConfig(),
    collect=None,
) -> Trajectory:
    """March through the path segments, snapshotting at the requested times.

    Landing rule: while the state is more than `_TIME_ATOL` short of an output
    (or of the horizon, for an output admitted past it), solve the segment that
    holds the state up to the output or its knot, a knot within `_TIME_ATOL`
    counting as passed; then snapshot, labelled with the output.  The march
    ends at the last output; `Trajectory.times` is a copy of `outputs`.  Before
    the first step, ceil(span * max_speed / (cfl dx)) steps are counted on each
    segment the march enters, plus one for each such segment and each output,
    as the landing rule may add a step at every segment end and every output;
    ValueError is raised if they total more than MAX_STEPS.
    """
    outputs = np.array(outputs, dtype=float, ndmin=1)
    if not np.all(np.diff(outputs) > 0):  # written so that a NaN fails too
        raise ValueError("output times must be strictly increasing")
    horizon = path.horizon
    if not (outputs.size and outputs[0] >= 0 and outputs[-1] <= horizon * (1 + 1e-12)):
        raise ValueError(f"need one or more output times, all within the path horizon {horizon}")
    if path.n_channels != flux.n_channels:
        raise ValueError("path and flux channel counts differ")

    knots, slopes = path.knots.tolist(), path.slopes()  # one slope row per segment
    span = np.minimum(path.knots[1:], min(outputs[-1], horizon)) - path.knots[:-1]
    live = span > 0.0  # the segments the march enters
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf, which the cap refuses
        speeds = np.abs(slopes[live]) @ flux.lip_a  # their `SegmentFlux.max_speed`
        n_steps = float(np.sum(np.ceil(span[live] * speeds / (config.cfl * grid.dx))) + live.sum() + outputs.size)
    check_step_cap(f"speed bound {np.max(speeds, initial=0.0):.3g} with dx = {grid.dx:.3g}: the step count",
                   n_steps)

    state = CellState(grid, np.array(u0, dtype=float), 0.0)
    slabs: list[Slab] | None = [] if config.record_slabs else None
    sink = collect
    if slabs is not None:
        sink = slabs.append if collect is None else lambda slab: (slabs.append(slab), collect(slab))
    states = []
    k, fseg = 0, None
    for t_out in outputs.tolist():
        while state.t < min(t_out, horizon) - _TIME_ATOL:
            while state.t >= knots[k + 1] - _TIME_ATOL:
                k, fseg = k + 1, None
            if fseg is None:
                fseg = SegmentFlux(flux, slopes[k])
            state = solve_segment(state, fseg, min(t_out, knots[k + 1]) - state.t, config, sink)
        states.append(CellState(grid, state.u.copy(), state.t))
    return Trajectory(grid, outputs, states, slabs)


def burgers_riemann_exact(u_l: float, u_r: float, x, t: float) -> np.ndarray:
    """Entropy solution of Burgers u_t + (u^2/2)_x = 0 with step data at x=0.

    Shock at speed (u_l+u_r)/2 for u_l > u_r, rarefaction fan clamp(x/t, u_l, u_r)
    otherwise; requires t > 0.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    if u_l > u_r:
        s = 0.5 * (u_l + u_r)
        return np.where(x < s * t, u_l, u_r)
    return np.clip(x / t, u_l, u_r)


def composition_check(
    flux: FluxModel,
    u0: np.ndarray,
    path: PiecewiseLinearPath,
    t: float,
    grid: Grid1D,
    config: SolverConfig = SolverConfig(),
) -> dict:
    """Compare the path solve with u(x, t) = v(x, W(t)) for nondecreasing W.

    v is the autonomous solution (driver W(tau) = tau) evaluated at tau = W(t).
    Returns the L1 discrepancy, which is 0 up to scheme resolution.
    """
    if flux.n_channels != 1 or path.n_channels != 1:
        raise ValueError("composition check is single-channel only")
    if np.any(path.slopes() < 0.0):
        raise ValueError("path must be nondecreasing")
    along = solve_path(u0, flux, path, [t], grid, config).states[-1]
    w_t = float(path.eval(t)[0])
    if w_t <= _TIME_ATOL:
        composed = CellState(grid, np.array(u0, dtype=float), t)
    else:
        composed = solve_path(u0, flux, identity_path(w_t), [w_t], grid, config).states[-1]
    return {
        "t": t,
        "w_t": w_t,
        "l1_discrepancy": float(grid.dx * np.sum(np.abs(along.u - composed.u))),
        "dx": grid.dx,
        "state_path": along,
        "state_composed": composed,
    }
