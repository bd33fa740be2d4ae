"""Local smooth solutions by characteristics, and the dissipative inequality.

From a smooth compactly supported datum phi anchored at time t0, the rough
conservation law has a classical solution as long as characteristics do not
cross: x(x0, t) = x0 + sum_i a_i(phi(x0)) (W^i(t) - W^i(t0)) with Jacobian

    J(x0, t) = 1 + sum_i a_i'(phi(x0)) phi'(x0) (W^i(t) - W^i(t0)).

The solution is transported along these lines; we keep J >= 1/2 on the whole
window so the map is well-conditioned to invert.  Both steps are closed
forms: J is affine in W, hence linear in t between path knots, so the window
edge solves a linear equation on one segment; and the increasing forward map
is tabulated once on the support and inverted by interpolation, then polished
by Newton steps.  Against such local smooth solutions the scheme's output must
dissipate:

    D(t) = int int psi(k) (u(x,t) - k - Psi(x,t))_+ dx dk

is nonincreasing over the validity window for every nonnegative weight psi.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluxes import FluxModel
from .paths import PiecewiseLinearPath
from .smooth import SmoothDatum, Weight
from .solver import Trajectory

J_FLOOR = 0.5
DISSIPATIVE_C = 4.0  # tol_D = C * (dx + snapshot spacing) * (1 + sup|u0|)
N_PROBE = 1000  # support points where J is checked and the forward map is tabulated


def characteristic_flow(
    datum: SmoothDatum,
    path: PiecewiseLinearPath,
    flux: FluxModel,
    t0: float,
    t: float,
    x0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward characteristics from (x0, t0) to time t: positions and Jacobian."""
    x0 = np.asarray(x0, dtype=float)
    dw = path.increment(t0, t)
    phi = datum.value(x0)
    dphi = datum.deriv(x0)
    x = x0.astype(float, copy=True)
    jac = np.ones_like(x0, dtype=float)
    for wi, ch in zip(dw, flux.channels):
        x = x + wi * ch.a(phi)
        jac = jac + wi * ch.a_prime(phi) * dphi
    return x, jac


def window(
    datum: SmoothDatum,
    path: PiecewiseLinearPath,
    flux: FluxModel,
    t0: float,
    j_floor: float = J_FLOOR,
    h_max: float | None = None,
) -> float:
    """Largest h <= h_max with J >= j_floor on the support for t in the window.

    The window (t0 - h, t0 + h) is always intersected with the path domain
    [0, T], so h_max defaults to the larger one-sided horizon max(t0, T - t0).
    J is checked on N_PROBE points of the support.  It is affine in W, hence
    linear in t between path knots, so each side's edge has a closed form:
    walk the knots outward from t0 to the first one where min J < j_floor; on
    the segment before it the edge is the earliest per-point linear crossing.
    """
    horizon = path.horizon
    if not 0.0 <= t0 <= horizon:
        raise ValueError(f"anchor {t0} outside the path domain [0, {horizon}]")
    if h_max is None:
        h_max = max(t0, horizon - t0)
    if h_max <= 0:
        raise ValueError("h_max must be positive")
    if path.n_channels != flux.n_channels:
        raise ValueError("path and flux channel counts differ")
    x0 = np.linspace(datum.support[0], datum.support[1], N_PROBE)
    phi = datum.value(x0)
    dphi = datum.deriv(x0)
    g = np.array([ch.a_prime(phi) * dphi for ch in flux.channels])
    w0 = path.eval(t0)
    h = h_max
    for side in (path.knots[path.knots > t0], path.knots[path.knots < t0][::-1]):
        times = np.concatenate([[t0], side])
        jac = 1.0 + (path.eval(times) - w0) @ g  # J at t0, then at each knot outward
        below = np.flatnonzero(jac.min(axis=1) < j_floor)
        if below.size == 0:
            continue
        k = below[0]
        if k == 0:  # J(t0) = 1 < j_floor
            h = 0.0
            break
        ja, jb = jac[k - 1], jac[k]
        cross = jb < j_floor
        frac = np.min((ja[cross] - j_floor) / (ja[cross] - jb[cross]))
        h = min(h, abs(times[k - 1] - t0) + frac * abs(times[k] - times[k - 1]))
    if h <= 0.0:
        raise RuntimeError("window collapsed to zero; Jacobian floor unreachable")
    return float(h)


@dataclass(frozen=True)
class LocalSmoothSolution:
    """Classical solution on (t0 - h, t0 + h) intersected with the path domain."""

    datum: SmoothDatum
    path: PiecewiseLinearPath
    flux: FluxModel
    t0: float
    h: float

    @property
    def window(self) -> tuple[float, float]:
        return (max(0.0, self.t0 - self.h), min(self.path.horizon, self.t0 + self.h))

    def _require_inside(self, t: float) -> None:
        lo, hi = self.window
        slack = 1e-12 * max(1.0, self.path.horizon)
        if not lo - slack <= t <= hi + slack:
            raise ValueError(f"time {t} outside the validity window [{lo}, {hi}]")

    def transported_support(self, t: float) -> tuple[float, float]:
        """Image of the datum support: endpoints carry phi = 0, so they shift rigidly."""
        dw = self.path.increment(self.t0, t)
        shift0 = float(sum(wi * ch.a(0.0) for wi, ch in zip(dw, self.flux.channels)))
        return (self.datum.support[0] + shift0, self.datum.support[1] + shift0)

    def evaluate(self, x, t: float) -> np.ndarray:
        """Psi(x, t) = phi(x0(x, t)); zero outside the transported support.

        The forward map is strictly increasing (J >= j_floor > 0), so it is
        tabulated once on the N_PROBE points of the datum support, inverted by
        linear interpolation, and sharpened by a few Newton steps with the
        exact Jacobian.
        """
        self._require_inside(t)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        s_lo, s_hi = self.datum.support
        t_lo, t_hi = self.transported_support(t)
        out = np.zeros_like(x)
        inside = (x > t_lo) & (x < t_hi)
        if not np.any(inside):
            return out
        xq = x[inside]
        s = np.linspace(s_lo, s_hi, N_PROBE)
        fs, _ = characteristic_flow(self.datum, self.path, self.flux, self.t0, t, s)
        x0 = np.interp(xq, fs, s)
        for _ in range(3):
            fx, jac = characteristic_flow(self.datum, self.path, self.flux, self.t0, t, x0)
            x0 = np.clip(x0 - (fx - xq) / jac, s_lo, s_hi)
        fx, _ = characteristic_flow(self.datum, self.path, self.flux, self.t0, t, x0)
        if float(np.max(np.abs(fx - xq))) > 1e-8 * max(1.0, s_hi - s_lo):
            raise RuntimeError("characteristic inversion failed inside the window")
        out[inside] = self.datum.value(x0)
        return out


def local_solution(
    datum: SmoothDatum,
    path: PiecewiseLinearPath,
    flux: FluxModel,
    t0: float,
    j_floor: float = J_FLOOR,
    h_max: float | None = None,
) -> LocalSmoothSolution:
    h = window(datum, path, flux, t0, j_floor=j_floor, h_max=h_max)
    return LocalSmoothSolution(datum, path, flux, t0, h)


def dissipative_check(
    traj: Trajectory,
    datum: SmoothDatum,
    weight: Weight,
    t0: float,
    flux: FluxModel,
    path: PiecewiseLinearPath,
    n_k: int = 200,
    tol_c: float = DISSIPATIVE_C,
) -> dict:
    """Monotonicity of D(t) against the local smooth solution anchored at t0.

    Checks D(t_{j+1}) <= D(t_j) + tol_D over the trajectory snapshots that fall
    in the validity window, with tol_D = tol_c * (dx + spacing) * (1 + sup|u0|).
    """
    sol = local_solution(datum, path, flux, t0)
    w_lo, w_hi = sol.window
    slack = 1e-12 * max(1.0, path.horizon)
    mask = (traj.times >= w_lo - slack) & (traj.times <= w_hi + slack)
    times = traj.times[mask]
    if times.size < 2:
        raise ValueError(
            f"only {times.size} snapshots inside the window [{w_lo}, {w_hi}]; refine the schedule"
        )
    k_lo, k_hi = weight.support
    dk = (k_hi - k_lo) / n_k
    k = k_lo + (np.arange(n_k) + 0.5) * dk
    psi_k = weight.value(k)
    # sum_k psi_k (a - k)_+ = a C0(a) - C1(a), C0 and C1 the sums of psi_k and k psi_k over k < a
    c0 = np.concatenate([[0.0], np.cumsum(psi_k)])
    c1 = np.concatenate([[0.0], np.cumsum(k * psi_k)])
    grid = traj.grid
    states = [traj.states[i] for i in np.flatnonzero(mask)]
    d_vals = np.empty(times.size)
    for j, (tj, state) in enumerate(zip(times, states)):
        a = state.u - sol.evaluate(grid.centers, float(tj))
        below = np.searchsorted(k, a)
        d_vals[j] = grid.dx * dk * float(np.sum(a * c0[below] - c1[below]))
    spacing = float(np.max(np.diff(times)))
    u0_inf = float(np.max(np.abs(traj.states[0].u)))
    tol_d = tol_c * (grid.dx + spacing) * (1.0 + u0_inf)
    increments = np.diff(d_vals)
    max_violation = float(max(0.0, increments.max())) if increments.size else 0.0
    return {
        "t0": float(t0),
        "h": float(sol.h),
        "window": [float(w_lo), float(w_hi)],
        "times": times.tolist(),
        "D": d_vals.tolist(),
        "max_violation": max_violation,
        "tol_D": float(tol_d),
        "pass": bool(max_violation <= tol_d),
    }
