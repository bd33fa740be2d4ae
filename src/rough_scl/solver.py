"""First-order monotone finite-volume solver driven by piecewise linear signals.

On each linear segment of the driver with slope vector c the equation freezes
to u_t + F(u)_x = 0 with F = sum_i c_i A_i; the segment is advanced with an
explicit monotone scheme (Engquist-Osher by default, or the exact Godunov flux)
under a CFL constraint derived from the certified speed bound, and segments
are chained at the knots.  Each step pads the state with one ghost cell per
side (`Grid1D.pad`, the one boundary rule of the package) and takes all
interface fluxes from `SegmentFlux.interface_flux`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fluxes import FluxModel, SegmentFlux
from .paths import PiecewiseLinearPath, identity_path

_TIME_ATOL = 1e-12


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
        if self.n_cells < 2:
            raise ValueError("need at least two cells")
        if self.bc not in ("periodic", "outflow"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def length(self) -> float:
        return self.x_hi - self.x_lo

    def pad(self, a: np.ndarray) -> np.ndarray:
        """`a` with one ghost cell per side along axis 0: wrapped (periodic) or repeated (outflow)."""
        if self.bc == "periodic":
            return np.concatenate([a[-1:], a, a[:1]])
        return np.concatenate([a[:1], a, a[-1:]])


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

    `solve_segment` emits one per step; `kinetic.defect_from_slab` reads the
    defect m of the step from it.
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


def step(state: CellState, fseg: SegmentFlux, dt: float, config: SolverConfig = SolverConfig()) -> CellState:
    """One explicit step; refuses dt above cfl * dx / max_speed.

    The state is padded by `Grid1D.pad`, so the n + 1 interface fluxes come
    from one call and their differences are the n cell updates.
    """
    grid = state.grid
    if fseg.max_speed > 0.0 and dt > config.cfl * grid.dx / fseg.max_speed * (1.0 + 1e-9):
        raise CFLError(
            f"dt={dt:.3e} exceeds cfl*dx/max_speed={config.cfl * grid.dx / fseg.max_speed:.3e}"
        )
    fh = fseg.interface_flux(grid.pad(state.u), config.scheme)
    return CellState(grid, state.u - (dt / grid.dx) * np.diff(fh), state.t + dt)


def solve_segment(
    state: CellState,
    fseg: SegmentFlux,
    duration: float,
    config: SolverConfig = SolverConfig(),
    collect=None,
) -> CellState:
    """Advance by `duration` under the frozen flux `fseg` (slope `fseg.c`).

    Steps use the largest admissible dt; the last one is truncated to land
    exactly on the segment end.  `collect(slab)` is called with one `Slab`
    per step.
    """
    if duration < 0:
        raise ValueError("negative duration")
    if duration == 0:
        return state
    t_end = state.t + duration
    if fseg.max_speed <= 0.0:
        # flux constant in u on the certified range: nothing moves
        out = CellState(state.grid, state.u.copy(), t_end)
        if collect is not None:
            collect(Slab(state.t, duration, fseg, config.scheme, state.u, out.u))
        return out
    dt_max = config.cfl * state.grid.dx / fseg.max_speed
    n_steps = max(1, int(np.ceil(duration / dt_max - 1e-12)))
    t0 = state.t
    for k in range(n_steps):
        target = t_end if k == n_steps - 1 else t0 + (k + 1) * dt_max
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

    The march ends at the last requested output, not at the path horizon.
    """
    outputs = np.atleast_1d(np.asarray(outputs, dtype=float))
    if np.any(np.diff(outputs) <= 0):
        raise ValueError("output times must be strictly increasing")
    if outputs[0] < 0 or outputs[-1] > path.horizon * (1 + 1e-12):
        raise ValueError("output times must lie within the path horizon")
    if path.n_channels != flux.n_channels:
        raise ValueError("path and flux channel counts differ")

    state = CellState(grid, np.array(u0, dtype=float), 0.0)
    slabs: list[Slab] | None = [] if config.record_slabs else None

    def _collect(slab: Slab) -> None:
        if slabs is not None:
            slabs.append(slab)
        if collect is not None:
            collect(slab)

    sink = _collect if (config.record_slabs or collect is not None) else None
    times, states = [], []
    i_out = 0
    if abs(outputs[0]) <= _TIME_ATOL:
        times.append(0.0)
        states.append(CellState(grid, state.u.copy(), 0.0))
        i_out = 1

    for k in range(path.n_segments):
        if i_out == outputs.size:
            break  # nothing is solved past the last output
        t_k1 = path.knots[k + 1]
        fseg = SegmentFlux(flux, path.slope(k))
        while i_out < outputs.size and state.t < t_k1 - _TIME_ATOL:
            # march to the next output or to the knot, whichever comes first
            target = min(outputs[i_out], t_k1)
            state = solve_segment(state, fseg, target - state.t, config, sink)
            if outputs[i_out] <= t_k1:
                times.append(float(target))
                states.append(CellState(grid, state.u.copy(), state.t))
                i_out += 1
        if i_out < outputs.size and abs(outputs[i_out] - t_k1) <= _TIME_ATOL and state.t >= t_k1 - _TIME_ATOL:
            # output exactly at the knot, already reached
            times.append(float(outputs[i_out]))
            states.append(CellState(grid, state.u.copy(), state.t))
            i_out += 1
    if i_out < outputs.size:
        raise RuntimeError(f"failed to reach outputs {outputs[i_out:]}")
    return Trajectory(grid, np.asarray(times), states, slabs if config.record_slabs else None)


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
