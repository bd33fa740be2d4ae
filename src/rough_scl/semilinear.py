"""Source terms, the Doss-Sussmann transform, and the shock-mismatch demo.

For du + (A(u))_x dW = Phi(u) dW~ the change of unknown u = Psi(v; t), where
Psi is the flow of dPsi = Phi(Psi) dW~, absorbs the source and leaves a plain
conservation law for v with the time-dependent flux

    A~(v, t) = int_0^v A'(Psi(w; t)) dw.

The driver has one channel, so Psi(v; t) = phi_{W~(t)}(v) with phi_s the
time-s flow of u' = Phi(u) (W~(0) = 0): the flow map needs the driver's value,
not its history, and RK4 in s costs O(range of W~ / 1e-3) steps.

For the quadratic source Phi(u) = u(1 - u) and Burgers flux this machinery is
quantitative: the flow is the logistic closed form, the transformed
Rankine-Hugoniot speed of the 1/0 front is int_0^1 Psi(w; t) dw > 1/2, while
the direct entropy solution of the semilinear law keeps its shock at t/2
(states 0 and 1 are equilibria of the source).  The gap between the two front
positions is the whole point: the transform does not map entropy shocks to
entropy shocks when the source is nonlinear.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .fluxes import Channel, FluxModel, segment_flux
from .paths import PiecewiseLinearPath, identity_path
from .solver import CellState, Grid1D, SolverConfig, Trajectory, step

ODE_STEP_PER_UNIT_DRIVER = 1e-3
QUAD_TOL = 1e-9
POSITION_TOL = 1e-6


@dataclass(frozen=True)
class SourceTerm:
    """Smooth scalar source with known equilibria."""

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    fixed_points: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for p in self.fixed_points:
            v = float(self.phi(np.asarray(p, dtype=float)))
            if abs(v) > 1e-12:
                raise ValueError(f"{p} is not a fixed point: phi({p}) = {v}")


def logistic_source() -> SourceTerm:
    return SourceTerm(
        "logistic",
        lambda u: u * (1.0 - u),
        lambda u: 1.0 - 2.0 * u,
        fixed_points=(0.0, 1.0),
    )


def linear_source(lam: float) -> SourceTerm:
    return SourceTerm(
        f"linear:{lam:g}",
        lambda u: lam * u,
        lambda u: lam * np.ones_like(np.asarray(u, dtype=float)),
        fixed_points=(0.0,),
    )


def zero_source() -> SourceTerm:
    return SourceTerm("zero", lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                      lambda u: np.zeros_like(np.asarray(u, dtype=float)), fixed_points=(0.0,))


def source_ode_step(source: SourceTerm, u: np.ndarray, tau: float) -> np.ndarray:
    """Advance du/dt = Phi(u) by tau with classical RK4, step <= 1e-3."""
    y = np.asarray(u, dtype=float)
    if tau == 0.0:
        return y
    n = max(1, int(np.ceil(abs(tau) / ODE_STEP_PER_UNIT_DRIVER)))
    h = tau / n
    for _ in range(n):
        k1 = source.phi(y)
        k2 = source.phi(y + 0.5 * h * k1)
        k3 = source.phi(y + 0.5 * h * k2)
        k4 = source.phi(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


@dataclass(frozen=True)
class FlowMap:
    """Flow Psi(v; t) of dPsi = Phi(Psi) dW~ along a piecewise linear driver.

    With one driver channel the flow depends on the path only through its
    value: Psi(v; t) = phi_s(v) at s = W~(t) - W~(0), where phi_s is the time-s
    flow of u' = Phi(u).  The flow is integrated with `source_ode_step` (RK4,
    step at most 1e-3 per unit of s) outward from s = 0 through the sorted
    driver values, once upward and once downward, vectorized over the initial
    values; the cost is O(range of W~ / 1e-3), whatever the driver's variation.
    """

    source: SourceTerm
    driver: PiecewiseLinearPath
    blow_up: float = 100.0

    def __post_init__(self) -> None:
        if self.driver.n_channels != 1:
            raise ValueError("the transform driver is a single-channel path")

    def psi_at_times(self, v, times) -> np.ndarray:
        """Psi(v; t) for every t in `times` (ascending), shape (len(times), len(v)).

        The walk also passes through the min and max of W~ on [0, times[-1]]:
        a scalar autonomous trajectory is monotone in s, so the guard sees the
        largest |Psi| the path reaches before the last requested time.
        """
        v = np.atleast_1d(np.asarray(v, dtype=float))
        times = np.asarray(times, dtype=float)
        if np.any(np.diff(times) < 0) or np.any(times < 0) or np.any(times > self.driver.horizon):
            raise ValueError("times must be ascending within the driver domain")
        w0 = self.driver.eval(0.0)[0]
        s = self.driver.eval(times)[:, 0] - w0
        visited = self.driver.eval(self.driver.restricted_knots(times[-1]))[:, 0] - w0
        levels = np.union1d(np.append(s, 0.0), [visited.min(), visited.max()])
        zero = int(np.searchsorted(levels, 0.0))
        flowed = np.empty((levels.size, v.size))
        flowed[zero] = v
        for leg in (range(zero + 1, levels.size), range(zero - 1, -1, -1)):
            y, s_prev = v, 0.0
            for i in leg:
                y = source_ode_step(self.source, y, levels[i] - s_prev)
                if not np.all(np.abs(y) <= self.blow_up):
                    raise RuntimeError("flow map blew up; source ODE leaves the trusted range")
                flowed[i], s_prev = y, levels[i]
        return flowed[np.searchsorted(levels, s)]

    def psi(self, v, t: float) -> np.ndarray:
        return self.psi_at_times(v, [t])[0]


def _cumulative_quad(g: Callable, nodes: np.ndarray, tol: float) -> np.ndarray:
    """int_{nodes[0]}^{nodes[j]} g, adaptive panel-halving Gauss-Legendre.

    All requested nodes stay on panel boundaries, so the cumulative values are
    read off partial sums exactly; panels are halved globally until two
    successive levels agree below tol at every node.
    """
    gx, gw = np.polynomial.legendre.leggauss(7)
    edges = [float(nodes[0])]
    for a, b in zip(nodes[:-1], nodes[1:]):
        n = max(1, int(np.ceil((b - a) / 0.0625)))
        edges.extend(np.linspace(a, b, n + 1)[1:])
    edges = np.asarray(edges)

    def cum_at_nodes(e: np.ndarray) -> np.ndarray:
        a, b = e[:-1], e[1:]
        half = 0.5 * (b - a)
        pts = half[:, None] * gx[None, :] + 0.5 * (a + b)[:, None]
        vals = np.asarray(g(pts.ravel())).reshape(pts.shape)
        panel = half * (vals @ gw)
        cum = np.concatenate([[0.0], np.cumsum(panel)])
        return cum[np.searchsorted(e, nodes)]

    prev = cum_at_nodes(edges)
    for _ in range(14):
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
        cur = cum_at_nodes(edges)
        if float(np.max(np.abs(cur - prev))) < tol:
            return cur
        prev = cur
    raise RuntimeError("adaptive quadrature did not converge")


def transformed_flux(
    channel: Channel, flow: FlowMap, v, t: float, tol: float = QUAD_TOL
) -> np.ndarray:
    """A~(v, t) = int_0^v A'(Psi(w; t)) dw, adaptive quadrature, A~(0, t) = 0."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    nodes, inverse = np.unique(np.concatenate([[0.0], v]), return_inverse=True)
    cum = _cumulative_quad(lambda w: channel.a(flow.psi(w, t)), nodes, tol)
    at_zero = cum[np.searchsorted(nodes, 0.0)]
    return (cum - at_zero)[inverse[1:]]


def transformed_shock_speed(
    channel: Channel, flow: FlowMap, t: float, v_l: float = 1.0, v_r: float = 0.0
) -> float:
    """Rankine-Hugoniot speed of the transformed front: jump of A~ over jump of v."""
    if v_l == v_r:
        raise ValueError("no jump")
    a_vals = transformed_flux(channel, flow, np.asarray([v_l, v_r]), t)
    return float((a_vals[0] - a_vals[1]) / (v_l - v_r))


def transformed_shock_position(
    channel: Channel,
    flow: FlowMap,
    t: float,
    v_l: float = 1.0,
    v_r: float = 0.0,
    tol: float = POSITION_TOL,
    x0: float = 0.0,
) -> float:
    """x(t) = x0 + int_0^t speed(tau) dtau by nested adaptive quadrature."""
    if t == 0.0:
        return x0
    return x0 + _front_shift(channel, flow, 0.0, t, tol, v_l, v_r)


def _front_shift(
    channel: Channel, flow: FlowMap, t0: float, t1: float, tol: float,
    v_l: float = 1.0, v_r: float = 0.0,
) -> float:
    """int_{t0}^{t1} speed(tau) dtau, adaptive quadrature to absolute tolerance tol."""
    val, _ = quad(
        lambda tau: transformed_shock_speed(channel, flow, tau, v_l, v_r),
        t0, t1, epsabs=tol, epsrel=1e-10, limit=100,
    )
    return float(val)


def direct_semilinear_solve(
    flux: FluxModel,
    source: SourceTerm,
    grid: Grid1D,
    horizon: float,
    u_l: float = 1.0,
    u_r: float = 0.0,
    jump: float = 0.0,
    outputs=None,
    config: SolverConfig = SolverConfig(),
) -> Trajectory:
    """u_t + (A(u))_x = Phi(u) by Strang splitting around the conservation step.

    Each step is half an RK4 source step, one monotone conservation step, and
    another half source step; steps land exactly on the requested outputs.
    """
    if outputs is None:
        outputs = np.linspace(0.0, horizon, 11)
    outputs = np.asarray(outputs, dtype=float)
    if outputs[0] != 0.0 or np.any(np.diff(outputs) <= 0) or outputs[-1] != horizon:
        raise ValueError("outputs must ascend from 0 to the horizon")
    fseg = segment_flux(flux, np.ones(flux.n_channels))
    if fseg.max_speed <= 0.0:
        raise ValueError("flux has no transport on the certified range")
    dt_max = config.cfl * grid.dx / fseg.max_speed
    u = np.where(grid.centers < jump, float(u_l), float(u_r))
    state = CellState(grid, u, 0.0)
    times = [0.0]
    states = [state]
    for target in outputs[1:]:
        while state.t < target - 1e-12 * horizon:
            dt = min(dt_max, target - state.t)
            half = source_ode_step(source, state.u, 0.5 * dt)
            moved = step(CellState(grid, half, state.t), fseg, dt, config)
            full = source_ode_step(source, moved.u, 0.5 * dt)
            state = CellState(grid, full, state.t + dt)
        times.append(state.t)
        states.append(state)
    return Trajectory(grid, np.asarray(times), states, None)


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
    if u0 == u1:
        return float(x[j])
    return float(x[j] + (u0 - level) / (u0 - u1) * (x[j + 1] - x[j]))


def mismatch_report(
    source: SourceTerm,
    flux: FluxModel,
    horizon: float = 1.0,
    n_cells: int = 800,
    n_times: int = 10,
    domain: tuple[float, float] = (-0.5, 1.5),
    config: SolverConfig = SolverConfig(),
) -> list[dict]:
    """Per-time table t, x_transform, x_direct, gap for the 1/0 front.

    The transform route integrates the Rankine-Hugoniot speed of the
    transformed flux; the direct route runs the splitting solver and locates
    the u = 1/2 crossing.  For the quadratic source the gap grows like
    int_0^1 Psi(w; t) dw - 1/2 > 0; the transform does not preserve the shock.
    """
    if flux.n_channels != 1:
        raise ValueError("the demo is a single-channel construction")
    channel = flux.channels[0]
    grid = Grid1D(domain[0], domain[1], n_cells, "outflow")
    outputs = np.linspace(0.0, horizon, n_times + 1)
    traj = direct_semilinear_solve(flux, source, grid, horizon, outputs=outputs, config=config)
    flow = FlowMap(source, identity_path(horizon))
    rows = []
    x_prev, t_prev = 0.0, 0.0
    for k in range(1, n_times + 1):
        t = float(outputs[k])
        x_trans = x_prev + _front_shift(channel, flow, t_prev, t, POSITION_TOL / n_times)
        x_direct = shock_position(traj.state_at(t))
        rows.append({
            "t": t,
            "x_transform": x_trans,
            "x_direct": x_direct,
            "gap": x_trans - x_direct,
        })
        x_prev, t_prev = x_trans, t
    return rows
