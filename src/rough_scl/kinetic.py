"""Kinetic reformulation diagnostics.

The scheme's update on a frozen segment is exactly the macroscopic shadow of a
kinetic transport-projection step for chi(u, xi) = 1_{0 <= xi < u} - 1_{u <= xi < 0}:
transport chi upwind with speed F'(xi), project back to equilibrium.  The defect
of the projection is the nonnegative measure m in

    d chi + F'(xi) chi_x dt = m_xi dt.

`defect_from_slab` extracts m in closed form from one `Slab`, the step record
the solver emits (t0, dt, its flux and scheme, u0, u1): the cumulative integrals
of chi and of the one-sided flux derivatives are exact, sub-cell, so m >= 0
holds to roundoff and the conservation residual at the top of the xi range
telescopes to machine zero.  Neighbour differences take the solver's ghost
cells from `Grid1D.pad`, so both layers apply one boundary rule.
`accumulate_defects` returns the same m averaged over each reporting slab
without forming it per step: the chi part telescopes to the slab's end
states, and the transport part depends on each cell value only through where
it sits among the xi centres and its one-sided flux integrals, so per-cell
occupation times (histograms of dt and of dt * P(u), dt * N(u) over the xi
bins) and their cumulative sums give it exactly.  The module then checks the
a priori bounds, the L1 identity, and the transported-kernel formulation of
the solution concept.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fluxes import FluxModel
from .paths import PiecewiseLinearPath
from .smooth import Weight, bump_integral, bump_raw, bump_raw_pair
from .solver import Grid1D, CellState, Slab, Trajectory

TOL_M_FACTOR = 1e-8  # tol_m = factor * ||u0||_L2^2 / d_xi


@dataclass(frozen=True)
class XiGrid:
    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("empty xi range")
        if self.n < 4:
            raise ValueError("xi grid too coarse")

    @property
    def d_xi(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.n) + 0.5) * self.d_xi

    @property
    def edges(self) -> np.ndarray:
        return self.lo + np.arange(self.n + 1) * self.d_xi


def chi_values(u: np.ndarray, xi_centers: np.ndarray) -> np.ndarray:
    """Quantized chi at cell centers: +1 on 0 <= xi < u, -1 on u <= xi < 0."""
    u = np.asarray(u, dtype=float)[:, None]
    xi = np.asarray(xi_centers, dtype=float)[None, :]
    plus = (0.0 <= xi) & (xi < u)
    minus = (u <= xi) & (xi < 0.0)
    return plus.astype(np.int8) - minus.astype(np.int8)


def _check_xi_covers(xi: XiGrid, u_inf: float) -> None:
    if xi.lo > -u_inf - xi.d_xi or xi.hi < u_inf + xi.d_xi:
        raise ValueError(
            f"xi range [{xi.lo}, {xi.hi}] does not cover data range +-{u_inf} plus one cell"
        )


def _chi_cumulative(u: np.ndarray, xi_centers: np.ndarray) -> np.ndarray:
    """X_u(xi) = int_{-inf}^{xi} chi(u, z) dz, exact, at the given xi points."""
    l = np.minimum(u, 0.0)[:, None]
    h = np.maximum(u, 0.0)[:, None]
    s = np.sign(u)[:, None]
    return s * (np.clip(xi_centers[None, :], l, h) - l)


def _chi_tail(u: np.ndarray, xi_centers: np.ndarray) -> np.ndarray:
    """X_u(xi) - u = -int_{xi}^{inf} chi(u, z) dz, exactly 0 above max(u, 0)."""
    l = np.minimum(u, 0.0)[:, None]
    h = np.maximum(u, 0.0)[:, None]
    s = np.sign(u)[:, None]
    return s * (np.clip(xi_centers[None, :], l, h) - h)


def _one_sided_cumulative(
    u: np.ndarray, g_xi: np.ndarray, g_u: np.ndarray, xi_centers: np.ndarray
) -> np.ndarray:
    """int_{-inf}^{xi} (F')^{+/-}(z) chi(u_j, z) dz from the antiderivative G = P or N.

    g_xi = G at xi_centers, g_u = G at the cell values; G(0) = 0 by construction.
    """
    l = np.minimum(u, 0.0)[:, None]
    h = np.maximum(u, 0.0)[:, None]
    s = np.sign(u)[:, None]
    g_l = np.where(u >= 0.0, 0.0, g_u)[:, None]
    g_h = np.where(u >= 0.0, g_u, 0.0)[:, None]
    xi = xi_centers[None, :]
    mid = np.where(xi < l, g_l, np.where(xi > h, g_h, g_xi[None, :]))
    return s * (mid - g_l)


def _upwind_difference(grid: Grid1D, p: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(p_j - p_{j-1}) + (n_{j+1} - n_j) along axis 0, neighbours from `Grid1D.pad`.

    Summed in place, so at most two arrays of the input's size are alive.
    """
    out = p - grid.pad(p)[:-2]
    n_right = grid.pad(n)[2:]
    n_right -= n
    out += n_right
    return out


@dataclass
class DefectField:
    """Entropy defect rate m(x, xi) >= 0 for one time slab [t0, t0 + duration].

    `values` is the rate density (per unit x, xi and time); integrals over the
    slab therefore carry the factor `duration`.  `cons_residual` is the leftover
    of the cumulative at the top of the xi range (the conservation residual),
    reported rather than zeroed.
    """

    grid: Grid1D
    xi: XiGrid
    t0: float
    duration: float
    values: np.ndarray
    cons_residual: np.ndarray

    def total_mass(self) -> float:
        return float(self.duration * self.grid.dx * self.xi.d_xi * self.values.sum())

    def xi_line_mass(self) -> np.ndarray:
        """Per xi cell: duration * int m dx, shape (n_xi,)."""
        return self.duration * self.grid.dx * self.values.sum(axis=0)

    def zero_level_line(self) -> np.ndarray:
        """m(x, 0) rate, read off the stored field at the cell edge xi = 0."""
        xc = self.xi.centers
        i = int(np.searchsorted(xc, 0.0))
        if i == 0 or i == xc.size:
            raise ValueError("xi = 0 is not interior to the xi grid")
        if abs(xc[i] - 0.0) < 1e-9 * self.xi.d_xi:
            return self.values[:, i]
        return 0.5 * (self.values[:, i - 1] + self.values[:, i])

    def min_value(self) -> float:
        return float(self.values.min())

    def support_excess(self, u_inf: float) -> float:
        """Largest m outside |xi| <= u_inf + 2 d_xi (should be ~0)."""
        mask = np.abs(self.xi.centers) > u_inf + 2.0 * self.xi.d_xi
        return float(self.values[:, mask].max()) if np.any(mask) else 0.0


def _check_steps(slabs: Sequence[Slab], flux: FluxModel | None = None) -> None:
    """The extraction's preconditions: positive durations, Engquist-Osher steps
    (m is the kinetic form of that step only) and, when given, `flux` equal to
    the steps' flux, with the same u_range and channel coefficients."""
    if min(s.dt for s in slabs) <= 0:
        raise ValueError("slab duration must be positive")
    scheme = next((s.scheme for s in slabs if s.scheme != "engquist_osher"), None)
    if scheme is not None:
        raise ValueError(f"steps made with scheme {scheme!r}: the defect extraction is the "
                         "kinetic form of the engquist_osher step only")
    if flux is None:
        return
    want = (flux.u_range, [ch.coeffs.tolist() for ch in flux.channels])
    for made in {id(s.fseg.flux): s.fseg.flux for s in slabs}.values():
        if (made.u_range, [ch.coeffs.tolist() for ch in made.channels]) != want:
            raise ValueError("flux differs from the flux the steps were made with")


def defect_from_slab(slab: Slab, grid: Grid1D, xi: XiGrid) -> DefectField:
    """Extract the defect rate of one solver step under its own frozen flux.

    The accumulation over zeta runs from xi_lo upward with the same upwind
    splitting as the solver step: cumulative of (chi(u1) - chi(u0))/dt plus
    the difference of the one-sided interface integrals, all exact in xi.
    The step must be Engquist-Osher's; the xi grid must cover max(|u0|, |u1|) plus one cell.
    """
    _check_steps([slab])
    u0, u1 = slab.u0, slab.u1
    if u0.shape != (grid.n_cells,) or u1.shape != (grid.n_cells,):
        raise ValueError(f"slab states of shape {u0.shape}, {u1.shape} do not match the grid")
    _check_xi_covers(xi, max(float(np.max(np.abs(u0))), float(np.max(np.abs(u1)))))
    fseg = slab.fseg
    xc = xi.centers
    p_xi, n_xi = fseg.pos_integral(xc), fseg.neg_integral(xc)

    x0 = _chi_cumulative(u0, xc)
    x1 = _chi_cumulative(u1, xc)
    p_u0 = fseg.pos_integral(u0)
    n_u0 = fseg.neg_integral(u0)
    a_pos = _one_sided_cumulative(u0, p_xi, p_u0, xc)
    b_neg = _one_sided_cumulative(u0, n_xi, n_u0, xc)
    m = (x1 - x0) / slab.dt + _upwind_difference(grid, a_pos, b_neg) / grid.dx
    cons = (u1 - u0) / slab.dt + _upwind_difference(grid, p_u0, n_u0) / grid.dx
    return DefectField(grid, xi, slab.t0, slab.dt, m, cons)


def _runs(keys: list) -> list[tuple[int, int]]:
    """[start, stop) bounds of the maximal runs of equal consecutive keys."""
    cuts = [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]]
    return list(zip([0] + cuts, cuts + [len(keys)]))


def _below_sums(cells: np.ndarray, weights: np.ndarray, n_cells: int, n_xi: int) -> np.ndarray:
    """Per cell, running sums of binned weights, shape (n_cells, n_xi + 1).

    `cells` holds cell * (n_xi + 1) + (number of xi centres <= u) per value, so
    column i < n_xi sums the weights of the values below xi centre i and the
    last column is the cell's total.
    """
    hist = np.bincount(cells, weights.ravel(), minlength=n_cells * (n_xi + 1))
    return np.cumsum(hist.reshape(n_cells, n_xi + 1), axis=1)


def _reporting_defect(grid: Grid1D, xi: XiGrid, t0: float, steps: Sequence[Slab]) -> DefectField:
    """The dt-weighted mean of `defect_from_slab` over consecutive solver steps.

    The one-sided cumulative of a step is A_u(xi) = G(min(u, xi)) - [xi < 0] G(xi)
    (G = P or N); the second term is the same in every cell, so the neighbour
    differences see only sum_s dt G(min(u, xi)), which per piece (a run of
    steps under one `SegmentFlux`) splits into occupation sums over the xi bins:

        sum dt G(u) - over(xi)  =  under(xi) + G(xi) sum dt,
        under(xi) = sum_{u < xi} dt (G(u) - G(xi)),
        over(xi)  = sum_{u >= xi} dt (G(u) - G(xi)).

    The chi part telescopes to the end states, and the neighbour shifts act
    once on the slab sums.  Written with `under`, m is exactly 0 where every
    value of the stencil lies at or above xi.  Written with `over`, the chi
    part as the change of X_u(xi) - u, and sum dt G(u) folded into the
    conservation residual (summed step by step, keeping its per-step
    cancellation), m equals that residual exactly where every value lies
    below xi.  Each cell switches from the first form to the second above its
    end value, which lies inside its stencil's range.
    """
    xc = xi.centers
    n = grid.n_cells
    offsets = (np.arange(n) * (xi.n + 1))[:, None]
    under_p, under_n, over_p, over_n = (np.zeros((n, xi.n)) for _ in range(4))
    cons = np.zeros(n)
    for start, stop in _runs([id(s.fseg) for s in steps]):
        fseg = steps[start].fseg
        u0 = np.stack([s.u0 for s in steps[start:stop]], axis=1)  # (cells, steps)
        u1 = np.stack([s.u1 for s in steps[start:stop]], axis=1)
        dt = np.array([s.dt for s in steps[start:stop]])
        p_u, n_u = fseg.pos_integral(u0), fseg.neg_integral(u0)
        cons += ((u1 - u0) + dt * (_upwind_difference(grid, p_u, n_u) / grid.dx)).sum(axis=1)
        cells = (np.searchsorted(xc, u0, side="right") + offsets).ravel()
        sums_w = _below_sums(cells, np.broadcast_to(dt, u0.shape), n, xi.n)
        g_xis = (fseg.pos_integral(xc), fseg.neg_integral(xc))
        for g_xi, g_u, under, over in zip(g_xis, (p_u, n_u), (under_p, under_n), (over_p, over_n)):
            sums_g = _below_sums(cells, dt * g_u, n, xi.n)
            under += sums_g[:, :-1] - g_xi * sums_w[:, :-1]
            over += (sums_g[:, -1:] - sums_g[:, :-1]) - g_xi * (sums_w[:, -1:] - sums_w[:, :-1])

    u_first, u_last = steps[0].u0, steps[-1].u1
    m_under = _chi_cumulative(u_last, xc) - _chi_cumulative(u_first, xc)
    m_under += _upwind_difference(grid, under_p, under_n) / grid.dx
    m_over = _chi_tail(u_last, xc) - _chi_tail(u_first, xc)
    m_over += cons[:, None] - _upwind_difference(grid, over_p, over_n) / grid.dx
    duration = sum(s.dt for s in steps)
    values = np.where(xc > u_last[:, None], m_over, m_under) / duration
    return DefectField(grid, xi, t0, duration, values, cons / duration)


def accumulate_defects(traj: Trajectory, flux: FluxModel, xi: XiGrid) -> list[DefectField]:
    """The dt-weighted mean defect over each reporting slab between snapshots.

    Equals averaging `defect_from_slab` over the solver steps whose midpoint
    lies in the slab (steps outside the snapshot span are left out), without
    forming any per-step (n_cells x n_xi) field: each run of steps with one
    reporting slab and one `SegmentFlux` is reduced by occupation-time
    histograms, so the cost is O(steps * n_cells + pieces * n_cells * n_xi)
    instead of O(steps * n_cells * n_xi).  The recorded steps must be chained,
    each one starting from the state the previous one ended in, as
    `solve_path` records them.  They must be Engquist-Osher steps, and `flux`
    must equal the flux they were made with; each is checked.
    """
    if traj.slabs is None:
        raise ValueError("trajectory was solved without record_slabs")
    if traj.times.size < 2:
        raise ValueError("need at least two snapshots")
    slabs = traj.slabs
    if not slabs:
        return []
    _check_steps(slabs, flux)
    u_inf = max(float(np.max(np.abs(s.u0))) for s in slabs)
    _check_xi_covers(xi, max(u_inf, float(np.max(np.abs(slabs[-1].u1)))))

    edges = traj.times
    mids = np.array([s.t0 + 0.5 * s.dt for s in slabs])
    ks = (np.searchsorted(edges, mids) - 1).tolist()
    out = []
    for start, stop in _runs(ks):
        k = ks[start]
        if 0 <= k < edges.size - 1:
            out.append(_reporting_defect(traj.grid, xi, float(edges[k]), slabs[start:stop]))
    return out


def tol_m(state0: CellState, xi: XiGrid) -> float:
    return TOL_M_FACTOR * state0.l2_sq() / xi.d_xi


def check_kf_bounds(defects: list[DefectField], state0: CellState) -> dict:
    """A priori defect bounds: total mass, per-xi mass, sign, support."""
    if not defects:
        raise ValueError("no defect fields")
    xi = defects[0].xi
    l2sq = state0.l2_sq()
    l1 = state0.l1()
    u_inf = float(np.max(np.abs(state0.u)))
    tol = tol_m(state0, xi)

    total = sum(d.total_mass() for d in defects)
    xi_mass = np.sum([d.xi_line_mass() for d in defects], axis=0)
    min_m = min(d.min_value() for d in defects)
    support = max(d.support_excess(u_inf) for d in defects)
    cons = max(float(np.max(np.abs(d.cons_residual))) for d in defects)

    bound_total = 0.5 * l2sq
    bound_xi = l1
    tol_total = 0.05 * bound_total + 10.0 * tol
    tol_xi = 0.05 * bound_xi + 10.0 * tol
    report = {
        "total_mass": total,
        "bound_total": bound_total,
        "tol_total": tol_total,
        "total_ok": total <= bound_total + tol_total,
        "xi_mass_max": float(xi_mass.max()),
        "bound_xi": bound_xi,
        "tol_xi": tol_xi,
        "xi_ok": float(xi_mass.max()) <= bound_xi + tol_xi,
        "min_m": min_m,
        "tol_m": tol,
        "sign_ok": min_m >= -tol,
        "support_excess": support,
        "support_ok": support <= tol,
        "cons_residual_max": cons,
    }
    report["pass"] = bool(
        report["total_ok"] and report["xi_ok"] and report["sign_ok"] and report["support_ok"]
    )
    return report


def check_unpr1(traj: Trajectory, defects: list[DefectField]) -> dict:
    """Per-slab residual of d/dt ||u||_L1 = -2 int m(x, 0) dx."""
    lhs, rhs = [], []
    for k, d in enumerate(defects):
        u0, u1 = traj.states[k], traj.states[k + 1]
        lhs.append((u1.l1() - u0.l1()) / d.duration)
        rhs.append(-2.0 * d.grid.dx * float(np.sum(d.zero_level_line())))
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    if scale < 1e-14 * max(traj.states[0].l1(), 1.0):
        horizon = traj.times[-1] - traj.times[0]
        scale = max(traj.states[0].l1() / max(horizon, 1e-300), 1e-300)
    resid = np.abs(lhs - rhs)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "residuals": resid,
        "scale": scale,
        "max_relative": float(resid.max() / scale),
    }


def xi_lipschitz_increments(defects: list[DefectField], psi_xt: Callable) -> np.ndarray:
    """Increments of Q(xi) = sum_slabs int psi(x,t) m dx dt per unit xi.

    psi is taken at each slab's midpoint time.  Returns
    |Q(xi_{i+1}) - Q(xi_i)| / d_xi; the a priori bound is
    (sup |D_{x,t} psi| + sup |psi(., 0)|) * ||u0||_L1.
    """
    xi = defects[0].xi
    q = np.zeros(xi.n)
    for d in defects:
        w = psi_xt(d.grid.centers, d.t0 + 0.5 * d.duration)
        q += d.duration * d.grid.dx * (w @ d.values)
    return np.abs(np.diff(q)) / xi.d_xi


# -- transported kernel and the solution-definition residual ----------------


@dataclass(frozen=True)
class KernelRho:
    """rho_eta(z) = profile(z/eta)/eta with a smooth unit-mass profile on (-1,1).

    `profile_pair` returns (profile, profile') at the same points from one
    evaluation.
    """

    width: float
    profile: Callable[[np.ndarray], np.ndarray]
    profile_pair: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def rho(self, z):
        return self.profile(np.asarray(z, dtype=float) / self.width) / self.width

    def drho(self, z):
        return self.rho_and_drho(z)[1]

    def rho_and_drho(self, z):
        p, dp = self.profile_pair(np.asarray(z, dtype=float) / self.width)
        return p / self.width, dp / self.width**2


def default_kernel(width: float) -> KernelRho:
    if width <= 0:
        raise ValueError("kernel width must be positive")
    norm = bump_integral()

    def pair(z):
        b, db = bump_raw_pair(z)
        return b / norm, db / norm

    return KernelRho(width, lambda z: bump_raw(z) / norm, pair)


def transport_shift(flux: FluxModel, path: PiecewiseLinearPath, xi, t: float) -> np.ndarray:
    """sum_i a_i(xi) W^i(t): the kernel center offset at level xi and time t."""
    w = path.eval(t)
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    for wi, ch in zip(np.atleast_1d(w), flux.channels):
        out = out + wi * ch.a(xi)
    return out


def rho_eval(
    kernel: KernelRho, y, x, xi, t: float, path: PiecewiseLinearPath, flux: FluxModel
) -> np.ndarray:
    """rho(y, x, xi, t) = rho_eta(y - x + sum_i a_i(xi) W^i(t))."""
    shift = transport_shift(flux, path, xi, t)
    return kernel.rho(np.asarray(y, dtype=float) - np.asarray(x, dtype=float) + shift)


def definition_residual(
    traj: Trajectory,
    defects: list[DefectField],
    kernel: KernelRho,
    flux: FluxModel,
    path: PiecewiseLinearPath,
    pairs: list[tuple[Weight, Weight]],
    n_y: int = 33,
) -> list[float]:
    """Weak residual of the transported-kernel solution definition.

    For each weight pair (psi in xi, phi in t) assembles, per reporting slab,

        R(y) += -(phi(t1)-phi(t0)) * int psi(xi) (G(t0)+G(t1))/2 dxi
                + phi(t_mid) * dt * int [psi'(xi) rho + psi(xi) A'(xi) d_y rho] m dx dxi,

    with G(y, xi, t) = int chi rho dx and A'(xi) = sum_i a_i'(xi) W^i(t).  The
    time derivative lands on phi, the xi derivative on psi and rho.  Returns the
    L1-in-y norm of R on the periodic domain, normalized by
    ||psi||_inf ||phi||_inf ||u0||_L1.  (Integrating R dy instead would kill the
    kernel entirely because rho has unit mass; the definition is a statement for
    every y, so the norm over y is the meaningful scalar.)

    G at each snapshot is evaluated once and shared by the two slabs meeting
    there, and rho and d_y rho at the midpoint come from one kernel
    evaluation, so each (x, xi, y) point costs two kernel evaluations per slab.
    """
    grid = traj.grid
    if grid.bc != "periodic":
        raise ValueError("definition residual is implemented on periodic domains")
    xi = defects[0].xi
    length = grid.length
    if not kernel.width < 0.5 * length:
        raise ValueError("kernel width must be below half the domain length")
    for psi, phi in pairs:
        if psi.support[0] <= xi.lo or psi.support[1] >= xi.hi:
            raise ValueError("psi must be compactly supported inside the xi range")
        if phi.support[0] <= traj.times[0] or phi.support[1] >= traj.times[-1]:
            raise ValueError("phi must be compactly supported inside the time range")

    # xi points where every psi and psi' vanish, and slabs where every phi
    # term vanishes, add exact zeros to R: skip them
    psi_v = [p.value(xi.centers) for p, _ in pairs]
    psi_d = [p.deriv(xi.centers) for p, _ in pairs]
    active = np.flatnonzero(np.any([(v != 0) | (dv != 0) for v, dv in zip(psi_v, psi_d)], axis=0))
    psi_v = [v[active] for v in psi_v]
    psi_d = [dv[active] for dv in psi_d]
    xa = xi.centers[active]
    a_stack = np.stack([ch.a(xa) for ch in flux.channels])
    ap_stack = np.stack([ch.a_prime(xa) for ch in flux.channels])
    y = np.linspace(grid.x_lo, grid.x_hi, n_y, endpoint=False)
    base = y[None, :] - grid.centers[:, None]

    def wrap(z):
        return z - length * np.round(z / length)

    def chi_kernel(u, t):
        """G(y, xi) = int chi(u(x), xi) rho(y - x + shift(xi, t)) dx on the active xi."""
        chi = chi_values(u, xa).astype(float)
        shift = path.eval(t) @ a_stack
        g = np.empty((xa.size, n_y))
        for i in range(xa.size):
            g[i] = grid.dx * (chi[:, i] @ kernel.rho(wrap(base + shift[i])))
        return g

    acc = [np.zeros(n_y) for _ in pairs]
    g0 = None  # G at the slab start: the previous slab's G at its end
    for k, d in enumerate(defects):
        t0, t1 = d.t0, d.t0 + d.duration
        tm = 0.5 * (t0 + t1)
        dphi = [float(phi.value(t1) - phi.value(t0)) for _, phi in pairs]
        phim = [float(phi.value(tm)) for _, phi in pairs]
        if not any(dphi) and not any(phim):
            g0 = None
            continue
        if g0 is None:
            g0 = chi_kernel(traj.states[k].u, t0)
        g1 = chi_kernel(traj.states[k + 1].u, t1)
        wm = path.eval(tm)
        shiftm = wm @ a_stack
        a_prime_m = wm @ ap_stack
        m = d.values[:, active]
        h_rho = np.empty((xa.size, n_y))
        h_drho = np.empty((xa.size, n_y))
        for i in range(xa.size):
            rm, rdm = kernel.rho_and_drho(wrap(base + shiftm[i]))
            h_rho[i] = grid.dx * (m[:, i] @ rm)
            h_drho[i] = grid.dx * (m[:, i] @ rdm)
        g_mean = 0.5 * (g0 + g1)
        for j in range(len(pairs)):
            acc[j] += -dphi[j] * xi.d_xi * (psi_v[j] @ g_mean)
            acc[j] += phim[j] * d.duration * xi.d_xi * (
                psi_d[j] @ h_rho + (psi_v[j] * a_prime_m) @ h_drho
            )
        g0 = g1

    u0_l1 = traj.states[0].l1()
    out = []
    for j, (psi, phi) in enumerate(pairs):
        r_l1 = float(np.sum(np.abs(acc[j]))) * (length / n_y)
        out.append(r_l1 / (psi.sup * phi.sup * u0_l1))
    return out
