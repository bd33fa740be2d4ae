"""Source terms, the Doss-Sussmann transform, and the shock-mismatch demo.

For du + (A(u))_x dW = Phi(u) dW~ the change of unknown u = Psi(v; t), where
Psi is the flow of dPsi = Phi(Psi) dW~, absorbs the source and leaves a plain
conservation law for v with the time-dependent flux

    A~(v, t) = int_0^v A'(Psi(w; t)) dw.

The driver has one channel, so Psi(v; t) = phi_{W~(t)}(v) with phi_s the
time-s flow of u' = Phi(u) (W~(0) = 0).  One RK4 sweep in s through the
driver's values at its knots and at the requested times gives Psi; carrying
int_0^s A'(phi_sigma(w)) dsigma at fixed Gauss-Legendre nodes w in the same
steps gives the front position in closed form on each driver segment.  The
cost is O(range of W~ / 1e-3 + knots) RK4 steps, whatever the variation.

For a linear source Psi(., t) is linear and the transformed and direct fronts
coincide.  For the quadratic source Phi(u) = u(1 - u) and Burgers flux the
flow is the logistic closed form, the transformed Rankine-Hugoniot speed of
the 1/0 front is int_0^1 Psi(w; t) dw > 1/2, while the direct entropy solution
keeps its shock at t/2 (0 and 1 are equilibria of the source).  The gap is the
whole point: the transform does not map entropy shocks to entropy shocks when
the source is nonlinear.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fluxes import Channel, FluxModel, SegmentFlux
from .paths import PiecewiseLinearPath, identity_path
from .solver import _TIME_ATOL, CellState, Grid1D, SolverConfig, Trajectory, _check_step_count, step

ODE_STEP_PER_UNIT_DRIVER = 1e-3
RK4_STABILITY_LIMIT = -2.785293563405282  # an RK4 step of y' = lam y grows no |y| for lam h in [this, 0]
QUAD_TOL = 1e-9
POSITION_TOL = 1e-6
MISMATCH_DOMAIN = (-0.5, 1.5)  # outflow domain of the 1/0 front in `mismatch_report`
BLOW_UP = 100.0  # |Psi| above this means the source ODE has left the trusted range


@dataclass(frozen=True)
class SourceTerm:
    """Smooth scalar source Phi with a name for reports."""

    name: str
    phi: Callable[[np.ndarray], np.ndarray]


def logistic_source() -> SourceTerm:
    return SourceTerm("logistic", lambda u: u * (1.0 - u))


def linear_source(lam: float) -> SourceTerm:
    return SourceTerm(f"linear:{lam:g}", lambda u: lam * u)


def zero_source() -> SourceTerm:
    return SourceTerm("zero", lambda u: np.zeros_like(np.asarray(u, dtype=float)))


def _rk4(field: Callable, y: np.ndarray, tau: float) -> np.ndarray:
    """Advance y' = field(y) by tau with classical RK4, step <= 1e-3.

    y + (h/6) (((k1 + 2 k2) + 2 k3) + k4) is formed in place in arrays allocated here, so
    neither `y` nor an array the field made is written: a field may return its argument
    (lambda u: u) or one shared array, but must not change an array it returned before."""
    if tau == 0.0:
        return y
    n = max(1, int(np.ceil(abs(tau) / ODE_STEP_PER_UNIT_DRIVER)))
    h = tau / n
    hh, h6 = 0.5 * h, h / 6.0
    stage, acc, two_k3 = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    for j in range(n):
        k1 = field(y)
        k2 = field(np.add(y, np.multiply(hh, k1, out=stage), out=stage))
        np.add(k1, np.multiply(2.0, k2, out=acc), out=acc)
        k3 = field(np.add(y, np.multiply(hh, k2, out=stage), out=stage))
        np.add(acc, np.multiply(2.0, k3, out=two_k3), out=acc)
        k4 = field(np.add(y, np.multiply(h, k3, out=stage), out=stage))
        np.multiply(h6, np.add(acc, k4, out=acc), out=acc)
        y = np.add(y, acc, out=y if j and y.ndim else None)  # in place once y is our own array
    return y


def source_ode_step(source: SourceTerm, u: np.ndarray, tau: float) -> np.ndarray:
    """Advance du/dt = Phi(u) by tau with classical RK4, step <= 1e-3."""
    return _rk4(source.phi, np.asarray(u, dtype=float), tau)


@dataclass(frozen=True)
class FlowMap:
    """Flow Psi(v; t) of dPsi = Phi(Psi) dW~ along a piecewise linear driver.

    Psi(v; t) = phi_s(v) at s = W~(t) - W~(0), integrated in RK4 steps of at
    most 1e-3 in s outward from s = 0 through the sorted driver values, once
    upward and once downward, vectorized over v: O(range of W~ / 1e-3 + knots).
    """

    source: SourceTerm
    driver: PiecewiseLinearPath

    def __post_init__(self) -> None:
        if self.driver.n_channels != 1:
            raise ValueError("the transform driver is a single-channel path")

    def _sweep(self, z, times, field: Callable):
        """Flow z along y' = field(y) to W~ at 0, at `times` and at the knots before.

        Returns the sorted times visited, s there and the states at s.  The guard
        checks row 0, the flowed values: a scalar autonomous trajectory is
        monotone in s, so at the knots it sees the largest |Psi| the path reaches.
        """
        times = np.asarray(times, dtype=float)
        if np.any(np.diff(times) < 0) or np.any(times < 0) or np.any(times > self.driver.horizon):
            raise ValueError("times must be ascending within the driver domain")
        taus = np.union1d(times, self.driver.restricted_knots(times[-1]))
        s = self.driver.eval(taus)[:, 0] - self.driver.eval(0.0)[0]
        levels = np.unique(s)
        zero = int(np.searchsorted(levels, 0.0))
        flowed = np.empty((levels.size,) + z.shape)
        flowed[zero] = z
        for leg in (range(zero + 1, levels.size), range(zero - 1, -1, -1)):
            y, s_prev = z, 0.0
            for i in leg:
                y = _rk4(field, y, levels[i] - s_prev)
                if not np.all(np.abs(y[0]) <= BLOW_UP):
                    raise RuntimeError("flow map blew up; source ODE leaves the trusted range")
                flowed[i], s_prev = y, levels[i]
        return taus, s, flowed[np.searchsorted(levels, s)]

    def psi_at_times(self, v, times) -> np.ndarray:
        """Psi(v; t) for every t in `times` (ascending), shape (len(times), len(v))."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        taus, _, flowed = self._sweep(v[None], times, self.source.phi)
        return flowed[np.searchsorted(taus, times), 0]

    def psi(self, v, t: float) -> np.ndarray:
        return self.psi_at_times(v, [t])[0]


# Nodes of the 32- and 64-point Gauss-Legendre rules mapped to [0, 1] side by side,
# and the (96, 2) matrix whose columns hold each rule's weights there.
_GL_NODES, _GL_WEIGHTS = np.zeros(96), np.zeros((96, 2))
_GL_NODES[:32], _GL_WEIGHTS[:32, 0] = np.polynomial.legendre.leggauss(32)
_GL_NODES[32:], _GL_WEIGHTS[32:, 1] = np.polynomial.legendre.leggauss(64)
_GL_NODES, _GL_WEIGHTS = 0.5 + 0.5 * _GL_NODES, 0.5 * _GL_WEIGHTS


def _converged(pair: np.ndarray, tol: float, what: str) -> np.ndarray:
    """The 64-node values of (..., 2) rule pairs; RuntimeError if the rules differ by > tol."""
    diff = float(np.max(np.abs(pair[..., 1] - pair[..., 0])))
    if not diff <= tol:
        raise RuntimeError(f"{what} quadrature did not converge: 32 and 64 nodes differ by {diff:.2e}")
    return pair[..., 1]


def transformed_flux(channel: Channel, flow: FlowMap, v, t: float) -> np.ndarray:
    """A~(v, t) = int_0^v A'(Psi(w; t)) dw, so A~(0, t) = 0.

    Gauss-Legendre on each [0, v] with 32 and 64 nodes from one `psi` call:
    the 64-node values, or RuntimeError where the two differ by > QUAD_TOL.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))[:, None]
    w = v * _GL_NODES
    vals = channel.a(flow.psi(w.ravel(), t)).reshape(w.shape)
    return _converged(v * (vals @ _GL_WEIGHTS), QUAD_TOL, "transformed flux")


def transformed_shock_speed(channel: Channel, flow: FlowMap, t: float) -> float:
    """Rankine-Hugoniot speed of the transformed 1/0 front: (A~(1, t) - A~(0, t)) / 1 = A~(1, t)."""
    return float(transformed_flux(channel, flow, 1.0, t)[0])


def _front(channel: Channel, flow: FlowMap, times):
    """x(t) = int_0^t speed dtau of the 1/0 front, the end states Psi(1; t), Psi(0; t) and the
    speed's (32, 64)-node pair at `times`; RuntimeError if x's two rules differ by > POSITION_TOL.

    The speed is g(W~(tau)) = A~(1, tau), g(s) the mean of a(phi_s(w)) over w in [0, 1].
    One sweep carries X(s) = int_0^s a(phi_sigma(w)) dsigma at the nodes, whose
    mean G has G' = g; the driver is linear between visited times, so a step
    integrates exactly to dtau (G(s1) - G(s0)) / ds.  Where |ds| <= 1e-5 that
    quotient loses more to cancellation than the trapezoid dtau (g(s0) + g(s1)) / 2
    errs, so the trapezoid is used there (exact where ds = 0).
    """
    w = np.concatenate([[1.0, 0.0], _GL_NODES])
    phi, a = flow.source.phi, channel.a
    taus, s, flowed = flow._sweep(np.stack([w, np.zeros_like(w)]), times,  # rows phi(psi), a(psi)
                                  lambda y: np.concatenate((phi(y[0]), a(y[0]))).reshape(y.shape))
    psi, cum = flowed[:, 0], flowed[:, 1]
    g, big_g = (y @ _GL_WEIGHTS for y in (a(psi[:, 2:]), cum[:, 2:]))
    ds = np.diff(s)[:, None]
    flat = np.abs(ds) <= 1e-5
    mean = np.where(flat, 0.5 * (g[1:] + g[:-1]), np.diff(big_g, axis=0) / np.where(flat, 1.0, ds))
    x = np.concatenate([np.zeros((1, 2)), np.cumsum(np.diff(taus)[:, None] * mean, axis=0)])
    at = np.searchsorted(taus, times)
    return _converged(x[at], POSITION_TOL, "front position"), psi[at, 0], psi[at, 1], g[at]


def transformed_shock_position(channel: Channel, flow: FlowMap, t: float) -> float:
    """x(t) = int_0^t speed(tau) dtau of the transformed 1/0 front from 0, by one flow-map sweep."""
    return float(_front(channel, flow, [t])[0][0])


def direct_semilinear_solve(
    flux: FluxModel,
    source: SourceTerm,
    grid: Grid1D,
    horizon: float,
    config: SolverConfig = SolverConfig(),
) -> Trajectory:
    """u_t + (A(u))_x = Phi(u) from the 1/0 step at x = 0, by Strang splitting.

    Each step is half an RK4 source step, one monotone conservation step, and
    another half source step.  Snapshots at 0 and ten equal steps to the
    horizon are reached by the landing rule of `solve_path`.
    """
    if not 0.0 < horizon < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    fseg = SegmentFlux(flux, np.ones(flux.n_channels))
    if fseg.max_speed <= 0.0:
        raise ValueError("flux has no transport on the certified range")
    dt_max = config.cfl * grid.dx / fseg.max_speed
    outputs = np.linspace(0.0, horizon, 11)
    _check_step_count(horizon * fseg.max_speed / (config.cfl * grid.dx) + outputs.size, fseg.max_speed, grid.dx)
    state = CellState(grid, np.where(grid.centers < 0.0, 1.0, 0.0), 0.0)
    states = []
    for target in outputs:
        while state.t < target - _TIME_ATOL:
            dt = min(dt_max, target - state.t)
            half = source_ode_step(source, state.u, 0.5 * dt)
            moved = step(CellState(grid, half, state.t), fseg, dt, config)
            full = source_ode_step(source, moved.u, 0.5 * dt)
            state = CellState(grid, full, state.t + dt)
        states.append(state)
    return Trajectory(grid, outputs, states, None)


def shock_position(state: CellState, level: float = 0.5) -> float:
    """Location of the level crossing of a monotone front, linearly interpolated."""
    u = state.u
    above = np.flatnonzero(u >= level)
    if above.size == 0 or above.size == u.size:
        raise ValueError("no level crossing in the state")
    j = int(above[-1])
    if j + 1 >= u.size:
        raise ValueError("front touches the right boundary")
    x = state.grid.centers
    u0, u1 = u[j], u[j + 1]
    return float(x[j] + (u0 - level) / (u0 - u1) * (x[j + 1] - x[j]))


def mismatch_report(
    source: SourceTerm,
    flux: FluxModel,
    horizon: float = 1.0,
    n_cells: int = 800,
    config: SolverConfig = SolverConfig(),
) -> list[dict]:
    """Per-time table t, speed, x_transform, x_direct, gap for the 1/0 front at ten equal steps.

    One flow-map sweep gives the transformed speed A~(1, t), the transformed
    front and the flowed end states Psi(1; t), Psi(0; t); the direct route runs
    the splitting solver and locates the crossing of their mean (1/2 when the
    source fixes 0 and 1).  A direct state with no crossing of that level is a
    RuntimeError: the two routes' source steps disagree, or the flowed states underflow.
    For the quadratic source the gap grows like int_0^1 Psi(w; t) dw - 1/2 > 0;
    for a linear source it is discretization error.
    """
    if flux.n_channels != 1:
        raise ValueError("the demo is a single-channel construction")
    channel = flux.channels[0]
    grid = Grid1D(*MISMATCH_DOMAIN, n_cells, "outflow")
    traj = direct_semilinear_solve(flux, source, grid, horizon, config)
    flow = FlowMap(source, identity_path(horizon))
    x_transform, psi_l, psi_r, speed_pair = _front(channel, flow, traj.times[1:])
    speed = _converged(speed_pair, QUAD_TOL, "transformed flux")
    rows = []
    for t, state, g, x_trans, level in zip(traj.times[1:], traj.states[1:], speed, x_transform,
                                           0.5 * (psi_l + psi_r)):
        try:
            x_direct = shock_position(state, float(level))
        except ValueError as exc:
            raise RuntimeError(f"direct front at t = {t:.6g}, level {level:.3g}: {exc}") from None
        rows.append({
            "t": float(t),
            "speed": float(g),
            "x_transform": float(x_trans),
            "x_direct": x_direct,
            "gap": float(x_trans) - x_direct,
        })
    return rows
