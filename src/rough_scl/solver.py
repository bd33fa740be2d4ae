"""First-order monotone finite-volume solver driven by piecewise linear signals.

On each linear segment of the driver with slope vector c the equation freezes to u_t + F(u)_x = 0
with F = sum_i c_i A_i; the segment is advanced with an explicit monotone scheme (Engquist-Osher by
default, or the exact Godunov flux) in steps that end at `step_ends`, the CFL limit of the certified
speed bound (one step of the whole span where that bound is 0; the semilinear splitting march steps
by the same rule), and segments are chained at the knots.  Each step pads the state with one ghost
cell per side (`Grid1D.pad`, the one boundary rule of the package) and takes all interface fluxes
from `SegmentFlux.interface_flux`.  The exact solution of Burgers Riemann data along a one-channel
driver, `burgers_riemann_path`, and its W(s) = s readout `burgers_riemann_exact` share one fan rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fluxes import FluxModel, SegmentFlux
from .paths import PiecewiseLinearPath

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


def _riemann_fan(left, right, x0, hi, lo, w):
    """(p, d) of the Burgers wave from left | right at x0 at driver state (M, m, w) = (hi, lo, w), w = W - W(0),
    M = max(0, sup w), m = min(0, inf w) so far: left below p + d left, (x - p) / d between, right above
    p + d right.  A shock (left > right) moves at sigma = (left + right) / 2 per unit of driver while w sets
    a new maximum, and a backward leg opens it into a fan, p = x0 + sigma M, d = -(M - w), that a forward
    leg closes; a rarefaction is the mirror image, with the running minimum: p = x0 + sigma m, d = w - m."""
    sigma = 0.5 * (left + right)
    if left > right:
        return x0 + sigma * hi, -(hi - w)
    return x0 + sigma * lo, w - lo


def _ramp_averages(left, right, x0, state, edges):
    """The cell averages of `_riemann_fan`'s profile, one row per driver state."""
    p, d = _riemann_fan(left, right, x0, *state)
    a, b = (p + d * left)[:, None], (p + d * right)[:, None]
    tail = np.maximum(edges - b, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # b = a: a shock, whose ramp is not read
        ramp = (np.clip(edges, a, b) - a) ** 2 / (2.0 * (b - a))
    integral = (right - left) * np.where(b > a, ramp + tail, tail)
    return left + (integral[:, 1:] - integral[:, :-1]) / (edges[1:] - edges[:-1])


def burgers_riemann_path(u_l: float, u_r: float, x_jump: float, path: PiecewiseLinearPath, t, grid: Grid1D):
    """Exact cell averages of Burgers u_t + (u^2/2)_x dW = 0, W the one-channel `path`, from u_l left of x_jump
    and u_r right of it, on an outflow or a periodic grid (whose ends make a second, mirrored wave): one row
    for a scalar t, one per time for a 1-D array.  The wave edges are linear in (M, m, w), which is linear in
    time between the knots and where w passes M or m; while the waves are apart at those states they neither
    meet nor reach an outflow boundary (periodic riemann:1,0 on (-1, 1): M - m < 2).  ValueError naming
    the driver's range by the first time t where they do is raised otherwise."""
    times = np.asarray(t, dtype=float)
    w_t = path.eval(times.ravel())[:, 0] - path.values[0, 0]
    if u_l == u_r:
        return np.full(times.shape + (grid.n_cells,), float(u_l))
    w = path.values[:, 0] - path.values[0, 0]
    hi, lo = np.maximum.accumulate(np.maximum(w, 0.0)), np.minimum.accumulate(np.minimum(w, 0.0))

    def apart(state):
        p, d = _riemann_fan(u_l, u_r, x_jump, *state)
        a, b = p + d * u_l, p + d * u_r
        if grid.bc == "outflow":
            return (grid.x_lo < a) & (b < grid.x_hi)
        p2, d2 = _riemann_fan(u_r, u_l, grid.x_lo, *state)
        return (p2 + d2 * u_l < a) & (b < p2 + d2 * u_r + grid.length)

    def apart_passing(k, w_end):  # where w passes hi[k] or lo[k] between w[k] and w_end, if it does
        edge = np.where(w_end > w[k], hi[k], lo[k])
        inside = (np.minimum(w[k], w_end) < edge) & (edge < np.maximum(w[k], w_end))
        return ~inside | apart((hi[k], lo[k], edge))

    ok = np.logical_and.accumulate(apart((hi, lo, w)) & np.append(True, apart_passing(np.arange(w.size - 1), w[1:])))
    k = np.maximum(np.searchsorted(path.knots, times.ravel()), 1) - 1  # the last knot before t, 0 at t = 0
    now = np.maximum(hi[k], np.maximum(w_t, 0.0)), np.minimum(lo[k], np.minimum(w_t, 0.0)), w_t
    ok_t = ok[k] & apart_passing(k, w_t) & apart(now)  # ok[k]: apart at every state up to knot k
    if not ok_t.all():
        i = int(np.argmin(ok_t))
        raise ValueError(f"driver range [m, M] = [{now[1][i]:.6g}, {now[0][i]:.6g}] by t = {times.ravel()[i]}: "
                         f"the waves meet or reach a boundary of the {grid.bc} grid [{grid.x_lo}, {grid.x_hi}]")
    edges = grid.x_lo + np.arange(grid.n_cells + 1) * grid.dx
    u = _ramp_averages(u_l, u_r, x_jump, now, edges)
    if grid.bc == "periodic":  # the second wave at each end of the domain, u_l and u_r away from it
        for x0, away in ((grid.x_lo, u_l), (grid.x_hi, u_r)):
            u += _ramp_averages(u_r, u_l, x0, now, edges) - away
    return u.reshape(times.shape + (grid.n_cells,))


def burgers_riemann_exact(u_l: float, u_r: float, x, t: float) -> np.ndarray:
    """Entropy solution of Burgers u_t + (u^2/2)_x = 0 with step data at x = 0, t > 0: `_riemann_fan`
    along W(s) = s, where M = w = t and m = 0, read at the points x."""
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    p, d = _riemann_fan(u_l, u_r, 0.0, t, 0.0, t)
    if u_l > u_r:  # d = 0: the shock, at sigma t
        return np.where(x < p, u_l, u_r)
    return np.clip((x - p) / d, u_l, u_r)
