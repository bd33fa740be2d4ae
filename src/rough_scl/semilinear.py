"""Source terms, the Doss-Sussmann transform, and the shock-mismatch demo.

For du + (A(u))_x dW = Phi(u) dW~ the change of unknown u = Psi(v; t), where
Psi is the flow of dPsi = Phi(Psi) dW~, absorbs the source and leaves a plain
conservation law for v with the time-dependent flux

    A~(v, t) = int_0^v A'(Psi(w; t)) dw.

The driver has one channel, so Psi(v; t) = phi_{W~(t)}(v) with phi_s the
time-s flow of u' = Phi(u) (W~(0) = 0).  Each source carries phi_s in closed
form, so Psi is the flow evaluated at the driver's values at its knots and at
the requested times, and the front position integrates its speed over each
driver segment by Gauss-Legendre in the driver value.  The cost is
O(knots + output times) evaluations at the quadrature nodes, whatever the
driver's range or variation.

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
from .solver import CellState, Grid1D, SolverConfig, Trajectory, check_step_cap, step, step_ends

QUAD_TOL = 1e-9
POSITION_TOL = 1e-6
MISMATCH_DOMAIN = (-0.5, 1.5)  # outflow domain of the 1/0 front in `mismatch_report`
BLOW_UP = 100.0  # |Psi| above this means the source ODE has left the trusted range
_LOG_MAX = float(np.log(np.finfo(float).max))  # e^-s overflows below s = -709.78


@dataclass(frozen=True)
class SourceTerm:
    """Smooth scalar source Phi with a name for reports, and its exact flow.

    `flow(v, s)` is phi_s(v), the time-s solution of u' = Phi(u) from v, with v
    broadcast against s; it is non-finite at or past a blow-up.  The splitting
    solver calls it once per step with a scalar s, for which the named flows skip
    the passes over v that s cannot need, with the bits of the array form.
    """

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    flow: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _logistic_flow(v, s):
    """v / (v + (1 - v) e^-s), NaN past a blow-up (denominator <= 0), and v itself at s = 0 and at
    the equilibria 0 and 1 for every s: below s = -709.78 e^-s is held at the largest float, which
    takes v in (0, 1) to at most 5.6e-309 v / (1 - v), and above s = 745.13 it is 0.

    At s < 0 the overflow of (1 - v) e^-s to +-inf gives the limits -0 (v < 0) and NaN (v > 1), with
    no warning.  A scalar s >= 0, or NaN, takes six passes over v: 1 - v, times e^-s, plus v, the
    compare and NaN store where that is <= 0, and the division.  There e^-s <= 1 cannot overflow,
    and at v = +-0 the denominator is e^-s, so v / den is v unless e^-s is 0 or NaN: only then does
    the fix-up of v = 0 run.  s = 0 gives a copy of v; a negative s and an array of times take
    every pass.
    """
    if getattr(s, "ndim", 0) or s < 0.0:
        with np.errstate(over="ignore"):
            den = np.asarray((1.0 - v) * np.exp(np.minimum(-s, _LOG_MAX)) + v)
        den[den <= 0.0] = np.nan
        np.divide(v, den, out=den)
        np.copyto(den, v, where=s == 0.0)
        np.copyto(den, v, where=v == 0.0)
        return den
    if s == 0.0:
        return np.array(v, dtype=float)
    e = np.exp(-s)
    den = np.asarray(1.0 - v, dtype=float)
    den *= e
    den += v
    np.copyto(den, np.nan, where=den <= 0.0)
    np.divide(v, den, out=den)
    if not e > 0.0:
        np.copyto(den, v, where=v == 0.0)
    return den


def logistic_source() -> SourceTerm:
    return SourceTerm("logistic", lambda u: u * (1.0 - u), _logistic_flow)


def linear_source(lam: float) -> SourceTerm:
    """Phi(u) = lam u, whose flow is v e^x, x = lam s.

    A scalar x below log(largest float) = 709.78 takes one pass, v * e^x, which keeps 0 and -0
    (a product past the largest float is inf, with numpy's overflow warning).  Otherwise it is
    ((v e^y) e^y) e^y, y = min(x, 2000) / 3, where e^x overflows: 0 and -0 stay fixed, and a value
    is infinite only where it overflows.
    """
    def flow(v, s):
        x = lam * s
        if not getattr(x, "ndim", 0) and x < _LOG_MAX:
            return v * np.exp(x)
        with np.errstate(over="ignore", invalid="ignore"):  # inf past the largest float, as said above
            e, y = np.exp(x), np.exp(np.minimum(x, 2000.0) / 3.0)
            return np.where(np.isinf(e), v * y * y * y, v * e)

    return SourceTerm(f"linear:{lam:g}", lambda u: lam * u, flow)


def zero_source() -> SourceTerm:
    return SourceTerm("zero", lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                      lambda v, s: np.broadcast_to(v, np.broadcast(v, s).shape).copy())


def source_ode_step(source: SourceTerm, u: np.ndarray, tau: float) -> np.ndarray:
    """Advance du/dt = Phi(u) by tau: the source's exact flow."""
    return source.flow(np.asarray(u, dtype=float), tau)


@dataclass(frozen=True)
class FlowMap:
    """Flow Psi(v; t) of dPsi = Phi(Psi) dW~ along a piecewise linear driver.

    Psi(v; t) = phi_s(v) at s = W~(t) - W~(0), the source's closed-form flow at
    the driver's values, vectorized over v: O((knots + times) * len(v)) evaluations.
    """

    source: SourceTerm
    driver: PiecewiseLinearPath

    def __post_init__(self) -> None:
        if self.driver.n_channels != 1:
            raise ValueError("the transform driver is a single-channel path")

    def _levels(self, times):
        """The sorted times visited, `times` and the knots before the last, and s = W~ - W~(0) there."""
        times = np.asarray(times, dtype=float)
        if np.any(np.diff(times) < 0) or np.any(times < 0) or np.any(times > self.driver.horizon):
            raise ValueError("times must be ascending within the driver domain")
        taus = np.union1d(times, self.driver.restricted_knots(times[-1]))
        return taus, self.driver.eval(taus)[:, 0] - self.driver.eval(0.0)[0]

    def _flowed(self, v: np.ndarray, s: np.ndarray) -> np.ndarray:
        """phi_s(v), one row per level s; RuntimeError if some |Psi| > BLOW_UP or is not finite.

        A scalar autonomous flow is monotone in s, and a flow's denominators are too,
        so the levels, which hold every knot where the driver turns, see the largest
        |Psi| the path reaches and any blow-up it passes between them.
        """
        flowed = self.source.flow(v, s[:, None])
        if not np.all(np.abs(flowed) <= BLOW_UP):
            raise RuntimeError("flow map blew up; source ODE leaves the trusted range")
        return flowed

    def psi_at_times(self, v, times) -> np.ndarray:
        """Psi(v; t) for every t in `times` (ascending), shape (len(times), len(v))."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        taus, s = self._levels(times)
        return self._flowed(v, s)[np.searchsorted(taus, times)]

    def psi(self, v, t: float) -> np.ndarray:
        return self.psi_at_times(v, [t])[0]


# Nodes of the 32- and 64-point Gauss-Legendre rules mapped to [0, 1] side by side,
# and the (96, 2) matrix whose columns hold each rule's weights there.
_GL_NODES, _GL_WEIGHTS = np.zeros(96), np.zeros((96, 2))
_GL_NODES[:32], _GL_WEIGHTS[:32, 0] = np.polynomial.legendre.leggauss(32)
_GL_NODES[32:], _GL_WEIGHTS[32:, 1] = np.polynomial.legendre.leggauss(64)
_GL_NODES, _GL_WEIGHTS = 0.5 + 0.5 * _GL_NODES, 0.5 * _GL_WEIGHTS
_GL_RULES = ((_GL_NODES[:32], _GL_WEIGHTS[:32, 0]), (_GL_NODES[32:], _GL_WEIGHTS[32:, 1]))


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
    The driver is linear between visited times, so a step from s0 by ds adds
    dtau int_0^1 g(s0 + theta ds) dtheta, taken by the product of the theta and w
    rules of each size (exact in theta where ds = 0).  The steps are taken one at a
    time: O(knots + times) flow evaluations at the 32^2 + 64^2 nodes, and the memory
    of one step.
    """
    taus, s = flow._levels(times)
    psi = flow._flowed(np.concatenate([[1.0, 0.0], _GL_NODES]), s)
    g = channel.a(psi[:, 2:]) @ _GL_WEIGHTS
    mean = np.empty((taus.size - 1, 2))
    for i, (s0, ds) in enumerate(zip(s[:-1], np.diff(s))):
        for r, (nodes, weights) in enumerate(_GL_RULES):
            mean[i, r] = weights @ channel.a(flow.source.flow(nodes, s0 + ds * nodes[:, None])) @ weights
    x = np.concatenate([np.zeros((1, 2)), np.cumsum(np.diff(taus)[:, None] * mean, axis=0)])
    at = np.searchsorted(taus, times)
    return _converged(x[at], POSITION_TOL, "front position"), psi[at, 0], psi[at, 1], g[at]


def transformed_shock_position(channel: Channel, flow: FlowMap, t: float) -> float:
    """x(t) = int_0^t speed(tau) dtau of the transformed 1/0 front from 0."""
    return float(_front(channel, flow, [t])[0][0])


def direct_semilinear_solve(
    flux: FluxModel,
    source: SourceTerm,
    grid: Grid1D,
    horizon: float,
    config: SolverConfig = SolverConfig(),
) -> Trajectory:
    """u_t + (A(u))_x = Phi(u) from the 1/0 step at x = 0, by Strang splitting.

    The half source steps by the exact flow compose, phi_a phi_b = phi_(a+b): each monotone conservation
    step of dt follows one flow by dt/2 plus the half of the step before it in the output interval, and each
    snapshot one by the last step's half.  The steps to the snapshots, at 0 and ten equal steps to the horizon,
    end at `step_ends`, as in `solve_segment`: a flux that does not move takes one step per interval.
    """
    if not 0.0 < horizon < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    fseg = SegmentFlux(flux, np.ones(flux.n_channels))
    outputs = np.linspace(0.0, horizon, 11)
    check_step_cap(f"speed bound {fseg.max_speed:.3g} with dx = {grid.dx:.3g}: the step count",
                   horizon * fseg.max_speed / (config.cfl * grid.dx) + outputs.size)
    state = CellState(grid, np.where(grid.centers < 0.0, 1.0, 0.0), 0.0)
    states = []
    for target in outputs.tolist():
        lag = 0.0  # the half of the last step that the state has not yet flowed
        for end in step_ends(state.t, target - state.t, fseg.max_speed, grid.dx, config.cfl):
            dt = end - state.t
            flowed = CellState(grid, source_ode_step(source, state.u, lag + 0.5 * dt), state.t)
            state, lag = step(flowed, fseg, dt, config), 0.5 * dt
            state.t = end
        if lag:
            state = CellState(grid, source_ode_step(source, state.u, lag), state.t)
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

    One `_front` call gives the transformed speed A~(1, t), the transformed
    front and the flowed end states Psi(1; t), Psi(0; t); the direct route runs
    the splitting solver and locates the crossing of their mean (1/2 when the
    source fixes 0 and 1).  A direct state with no crossing of that level is a
    RuntimeError: the flowed states underflow, or the direct solve misses the level.
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
        rows.append({"t": float(t), "speed": float(g), "x_transform": float(x_trans), "x_direct": x_direct,
                     "gap": float(x_trans) - x_direct})
    return rows
