"""Local smooth solutions by characteristics, and the dissipative inequality.

From a smooth compactly supported datum phi (a `smooth.Weight`, which carries
phi' and the support) anchored at time t0, the rough conservation law has a
classical solution as long as characteristics do not cross:
x(x0, t) = x0 + sum_i a_i(phi(x0)) (W^i(t) - W^i(t0)) with Jacobian

    J(x0, t) = 1 + sum_i a_i'(phi(x0)) phi'(x0) (W^i(t) - W^i(t0)).

The solution is transported along these lines; we keep J >= 1/2 on the whole
window so the map is well-conditioned to invert.  Both steps are closed
forms: J is affine in W, hence linear in t between path knots, so the window
edge solves a linear equation on one segment; and the increasing forward map
is tabulated on the support and inverted by interpolation, then polished by
Newton steps.  The inversion is batched over time: every snapshot of a window
shares one (n_t x N_PROBE) table and one set of Newton steps, so a window
costs 5 flow evaluations whatever n_t is.  The steps run only on the column
range [first, last] of x that some snapshot's transported support covers;
every other column is zero.  A table row that is not strictly increasing
means characteristics crossed, and raises.  Against such local smooth
solutions the scheme's output must dissipate:

    D(t) = int int psi(k) (u(x,t) - k - Psi(x,t))_+ dx dk

is nonincreasing over the validity window for every nonnegative weight psi.
D is taken at every snapshot of the window at once, from one stack of states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluxes import FluxModel
from .paths import PiecewiseLinearPath
from .smooth import Weight
from .solver import Trajectory

J_FLOOR = 0.5
DISSIPATIVE_C = 4.0  # tol_D = C * (dx + snapshot spacing) * (1 + sup|u0|)
N_PROBE = 1000  # support points where J is checked and the forward map is tabulated
N_K = 200  # midpoint-rule levels k over the dissipative weight's support


def characteristic_flow(
    datum: Weight,
    path: PiecewiseLinearPath,
    flux: FluxModel,
    t0: float,
    t: float | np.ndarray,
    x0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward characteristics from (x0, t0) to time t: positions and Jacobian.

    A scalar t gives arrays shaped like x0.  A 1-D array of n_t times gives
    one row per time: x0 is either one row shared by every time or an
    (n_t, n) array holding each time's own points.  W(t) and W(t0) come from
    one path evaluation.
    """
    x0 = np.asarray(x0, dtype=float)
    t = np.asarray(t, dtype=float)
    w = path.eval(np.append(t, t0))
    dw = w[:-1] - w[-1]
    dw = dw[:, None, :] if t.ndim else dw[0]  # per-time rows broadcast against x0
    phi = datum.value(x0)
    dphi = datum.deriv(x0)
    x, jac = x0, 1.0
    for i, ch in enumerate(flux.channels):
        x = x + dw[..., i] * ch.a(phi)
        jac = jac + dw[..., i] * ch.a_prime(phi) * dphi
    return x, jac


def window(
    datum: Weight,
    path: PiecewiseLinearPath,
    flux: FluxModel,
    t0: float,
) -> float:
    """Largest h with J >= J_FLOOR on the support for t in the window.

    The window (t0 - h, t0 + h) is always intersected with the path domain
    [0, T], so h is at most the larger one-sided horizon max(t0, T - t0).
    J comes from one `characteristic_flow` call on N_PROBE points of the
    support, at t0 and at the knots on both sides.  It is affine in W, hence
    linear in t between path knots, so each side's edge has a closed form:
    walk the knots outward from t0 to the first one where min J < J_FLOOR; on
    the segment before it the edge is the earliest per-point linear crossing.
    """
    horizon = path.horizon
    if not 0.0 <= t0 <= horizon:
        raise ValueError(f"anchor {t0} outside the path domain [0, {horizon}]")
    if path.n_channels != flux.n_channels:
        raise ValueError("path and flux channel counts differ")
    x0 = np.linspace(datum.support[0], datum.support[1], N_PROBE)
    right, left = path.knots[path.knots > t0], path.knots[path.knots < t0][::-1]
    times = np.concatenate([[t0], right, left])
    _, jac = characteristic_flow(datum, path, flux, t0, times, x0)
    h = max(t0, horizon - t0)
    for side in (np.r_[0, 1:1 + right.size], np.r_[0, 1 + right.size:times.size]):  # rows: t0, knots outward
        below = np.flatnonzero(jac[side].min(axis=1) < J_FLOOR)
        if below.size == 0:
            continue
        k = below[0]  # never 0: J(t0) = 1 exactly, above J_FLOOR, so h > 0
        (ta, tb), (ja, jb) = times[side[k - 1:k + 1]], jac[side[k - 1:k + 1]]
        cross = jb < J_FLOOR
        frac = np.min((ja[cross] - J_FLOOR) / (ja[cross] - jb[cross]))
        h = min(h, abs(ta - t0) + frac * abs(tb - ta))
    return float(h)


@dataclass(frozen=True)
class LocalSmoothSolution:
    """Classical solution on (t0 - h, t0 + h) intersected with the path domain."""

    datum: Weight
    path: PiecewiseLinearPath
    flux: FluxModel
    t0: float
    h: float

    @property
    def window(self) -> tuple[float, float]:
        return (max(0.0, self.t0 - self.h), min(self.path.horizon, self.t0 + self.h))

    def in_window(self, t: np.ndarray) -> np.ndarray:
        """Which of the times t lie in the validity window, to a slack of 1e-12 * max(1, T)."""
        lo, hi = self.window
        slack = 1e-12 * max(1.0, self.path.horizon)
        return (lo - slack <= t) & (t <= hi + slack)

    def evaluate(self, x, t: float | np.ndarray) -> np.ndarray:
        """Psi(x, t) = phi(x0(x, t)); zero outside the transported support.

        t is one time, giving an array shaped like x, or a 1-D array of n_t
        times, giving one row per time.  All times are inverted in one batch:
        the forward map is tabulated on the N_PROBE points of the datum
        support for every time at once (n_t x N_PROBE).  The table's end
        columns are the images of the support ends, outside which Psi is
        zero.  Only the range of x's columns from the first to the last that
        some row's support covers is inverted: each row by linear
        interpolation, then 3 Newton steps with the exact Jacobian, the
        residual check and the datum over those (n_t x columns) points
        together, so a call costs 5 characteristic_flow evaluations whatever
        n_t is, each on the whole time array.  Every point keeps the bits of
        inverting the whole (n_t x n_x) rectangle.  A table row that is not
        strictly increasing means characteristics have crossed and raises
        RuntimeError, as does a residual above 1e-8 * support width.
        """
        t = np.asarray(t, dtype=float)
        outside = ~self.in_window(t)
        if np.any(outside):
            lo, hi = self.window
            raise ValueError(f"time {t[outside][0]} outside the validity window [{lo}, {hi}]")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xs = x.ravel()
        s_lo, s_hi = self.datum.support
        s = np.linspace(s_lo, s_hi, N_PROBE)
        times = np.atleast_1d(t)

        def flow(points):
            return characteristic_flow(self.datum, self.path, self.flux, self.t0, times, points)

        fs, _ = flow(s)
        if np.any(np.diff(fs, axis=1) <= 0.0):
            raise RuntimeError("characteristics crossed: the forward map is not increasing")
        inside = (xs > fs[:, :1]) & (xs < fs[:, -1:])
        out = np.zeros(inside.shape)
        covered = np.flatnonzero(inside.any(axis=0))
        if covered.size:
            cols = slice(covered[0], covered[-1] + 1)
            xq, inside = xs[cols], inside[:, cols]
            x0 = np.array([np.interp(xq, row, s) for row in fs])
            for _ in range(3):
                fx, jac = flow(x0)
                x0 = np.clip(x0 - (fx - xq) / jac, s_lo, s_hi)
            fx, _ = flow(x0)
            if float(np.max(np.abs(fx - xq)[inside])) > 1e-8 * max(1.0, s_hi - s_lo):
                raise RuntimeError("characteristic inversion failed inside the window")
            out[:, cols] = np.where(inside, self.datum.value(x0), 0.0)
        return out.reshape(t.shape + x.shape)


def local_solution(
    datum: Weight,
    path: PiecewiseLinearPath,
    flux: FluxModel,
    t0: float,
) -> LocalSmoothSolution:
    return LocalSmoothSolution(datum, path, flux, t0, window(datum, path, flux, t0))


def dissipative_check(
    traj: Trajectory,
    sol: LocalSmoothSolution,
    weight: Weight,
) -> dict:
    """Monotonicity of D(t) against the local smooth solution `sol`.

    Checks D(t_{j+1}) <= D(t_j) + tol_D over the trajectory snapshots that fall
    in the validity window, with tol_D = DISSIPATIVE_C * (dx + spacing) * (1 + sup|u0|).
    Psi at all of those snapshots comes from one batched `evaluate` call, and D
    from one (snapshots x cells) stack: one `searchsorted` of u - Psi against the
    levels k and one sum per row.
    """
    w_lo, w_hi = sol.window
    mask = sol.in_window(traj.times)
    times = traj.times[mask]
    if times.size < 2:
        raise ValueError(
            f"only {times.size} snapshots inside the window [{w_lo}, {w_hi}]; refine the schedule"
        )
    k_lo, k_hi = weight.support
    dk = (k_hi - k_lo) / N_K
    k = k_lo + (np.arange(N_K) + 0.5) * dk
    psi_k = weight.value(k)
    # sum_k psi_k (a - k)_+ = a C0(a) - C1(a), C0 and C1 the sums of psi_k and k psi_k over k < a
    c0 = np.concatenate([[0.0], np.cumsum(psi_k)])
    c1 = np.concatenate([[0.0], np.cumsum(k * psi_k)])
    grid = traj.grid
    a = np.stack([traj.states[i].u for i in np.flatnonzero(mask)]) - sol.evaluate(grid.centers, times)
    below = np.searchsorted(k, a)
    d_vals = grid.dx * dk * np.sum(a * c0[below] - c1[below], axis=1)
    spacing = float(np.max(np.diff(times)))
    u0_inf = float(np.max(np.abs(traj.states[0].u)))
    tol_d = DISSIPATIVE_C * (grid.dx + spacing) * (1.0 + u0_inf)
    increments = np.diff(d_vals)
    max_violation = float(max(0.0, increments.max())) if increments.size else 0.0
    return {
        "t0": float(sol.t0),
        "h": float(sol.h),
        "window": [float(w_lo), float(w_hi)],
        "times": times.tolist(),
        "D": d_vals.tolist(),
        "max_violation": max_violation,
        "tol_D": float(tol_d),
        "pass": bool(max_violation <= tol_d),
    }
