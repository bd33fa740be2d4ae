"""Kinetic reformulation diagnostics.

The scheme's update on a frozen segment is exactly the macroscopic shadow of a
kinetic transport-projection step for chi(u, xi) = 1_{0 <= xi < u} - 1_{u <= xi < 0}:
transport chi upwind with speed F'(xi), project back to equilibrium.  The defect
of the projection is the nonnegative measure m in

    d chi + F'(xi) chi_x dt = m_xi dt.

The m of one step follows in closed form from its `Slab`, the step record the
solver emits (t0, dt, its flux and scheme, u0, u1): the cumulative integrals
of chi and of the one-sided flux derivatives are exact, sub-cell, so m >= 0
holds to roundoff and the conservation residual at the top of the xi range
telescopes to machine zero.  Neighbour differences take the solver's ghost
cells from `Grid1D.pad`, so both layers apply one boundary rule.
`accumulate_defects` returns that m averaged over each reporting slab
(the per-step form is the tests' reference, in tests/reference.py)
without forming it per step: the chi part telescopes to the slab's end
states, and the transport part depends on each cell value only through where
it sits among the xi centres and its one-sided flux integrals, so per-cell
occupation times (histograms of dt and of dt * P(u), dt * N(u) over the xi
bins) and their cumulative sums give it exactly, computed only on the band of
xi that each cell's stencil values sweep (m is 0 below it and the
conservation residual above it); a piece (a run of steps under one
`SegmentFlux`) stacks its chained states once and takes P and N from one node
lookup.  The module then checks the a priori bounds, the kinetic identity and
the transported-kernel formulation of the solution concept, whose x integrals
run only over the cells where the kernel is nonzero; the last two reject fields
that do not pair with the trajectory's output intervals.  The kinetic identity
is the kinetic equation summed over the cells at each xi centre: over an output
interval, int m dx dt = S(t0) - S(t1), S(xi) = dx sum_x (u - xi)^+, less on an
outflow grid the boundary entropy flux sum_steps dt [q(u_{N-1}) - q(u_0)],
q(u) = F(max(u, xi)) - F(xi) (the L1 identity is its xi = 0 case).  It holds to
roundoff for any flux, path and data; `check_unpr1` reads it relative to max S,
which is gated at IDENTITY_TOL = 1e-12 (worst reading measured: 2.4e-14).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fluxes import FluxModel
from .paths import PiecewiseLinearPath
from .smooth import Weight, bump_integral, bump_raw, bump_raw_pair
from .solver import Grid1D, CellState, Slab, Trajectory

TOL_M_FACTOR = 1e-8  # tol_m = factor * ||u0||_L2^2 / d_xi
IDENTITY_TOL = 1e-12  # bound on `check_unpr1`'s max_relative: the identity holds to roundoff
N_Y = 33  # points y at which `definition_residual` evaluates the residual


@dataclass(frozen=True)
class XiGrid:
    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"xi range [{self.lo}, {self.hi}]: both edges must be finite")
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


def chi_values(u: np.ndarray, xi_centers: np.ndarray) -> np.ndarray:
    """Quantized chi at cell centers: +1 on 0 <= xi < u, -1 on u <= xi < 0."""
    u = np.asarray(u, dtype=float)[:, None]
    xi = np.asarray(xi_centers, dtype=float)[None, :]
    plus = (0.0 <= xi) & (xi < u)
    minus = (u <= xi) & (xi < 0.0)
    return plus.astype(np.int8) - minus.astype(np.int8)


def check_xi_covers(xi: XiGrid, u_inf: float) -> None:
    """Raise unless the xi grid reaches one cell past +-u_inf; a caller can check its datum
    before solving, since a monotone scheme keeps every state within sup|u0|."""
    if xi.lo > -u_inf - xi.d_xi or xi.hi < u_inf + xi.d_xi:
        raise ValueError(
            f"xi range [{xi.lo}, {xi.hi}] does not cover data range +-{u_inf} plus one cell"
        )


def _chi_cumulative(u: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """X_u(xi) = int_{-inf}^{xi} chi(u, z) dz, exact; u and xi broadcast together."""
    l = np.minimum(u, 0.0)
    h = np.maximum(u, 0.0)
    return np.sign(u) * (np.clip(xi, l, h) - l)


def _chi_tail(u: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """X_u(xi) - u = -int_{xi}^{inf} chi(u, z) dz, exactly 0 above max(u, 0); broadcast."""
    l = np.minimum(u, 0.0)
    h = np.maximum(u, 0.0)
    return np.sign(u) * (np.clip(xi, l, h) - h)


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

    def min_value(self) -> float:
        return float(self.values.min())

    def support_excess(self, u_inf: float) -> float:
        """Largest m outside |xi| <= u_inf + 2 d_xi (should be ~0)."""
        mask = np.abs(self.xi.centers) > u_inf + 2.0 * self.xi.d_xi
        return float(self.values[:, mask].max()) if np.any(mask) else 0.0


def check_scheme(scheme: str) -> None:
    """Reject a scheme other than Engquist-Osher: m is the kinetic form of that step only.

    Callers that solve for the extraction check their scheme before solving.
    """
    if scheme != "engquist_osher":
        raise ValueError(f"steps made with scheme {scheme!r}: the defect extraction is the "
                         "kinetic form of the engquist_osher step only")


def _check_steps(slabs: Sequence[Slab], flux: FluxModel) -> None:
    """The extraction's preconditions: positive durations, chained steps (each
    starting from the state the previous one ended in), Engquist-Osher steps
    (`check_scheme`) and `flux` equal to the steps' flux, with the same u_range
    and channel coefficients."""
    if min(s.dt for s in slabs) <= 0:
        raise ValueError("slab duration must be positive")
    for k in range(1, len(slabs)):
        u0, u1 = slabs[k].u0, slabs[k - 1].u1
        if u0 is not u1 and not np.array_equal(u0, u1):
            raise ValueError(f"step {k} (t0 = {slabs[k].t0}) does not start from the state "
                             f"step {k - 1} ended in: the steps are not chained")
    for scheme in dict.fromkeys(s.scheme for s in slabs):
        check_scheme(scheme)
    want = (flux.u_range, [ch.coeffs.tolist() for ch in flux.channels])
    for made in {id(s.fseg.flux): s.fseg.flux for s in slabs}.values():
        if (made.u_range, [ch.coeffs.tolist() for ch in made.channels]) != want:
            raise ValueError("flux differs from the flux the steps were made with")


def _runs(keys: list) -> list[tuple[int, int]]:
    """[start, stop) bounds of the maximal runs of equal consecutive keys."""
    cuts = [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]]
    return list(zip([0] + cuts, cuts + [len(keys)]))


def _below_sums(cells: np.ndarray, weights: np.ndarray, n_cells: int, width: int) -> np.ndarray:
    """Per cell, running sums of binned weights over a window of bins, shape (n_cells, width).

    `cells` holds cell * width + (the value's bin - the cell's lowest bin + 1)
    per value, a bin being the number of xi centres <= u.  Column 0 stays 0
    (no value lies below the window), column k sums the weights of the values
    below xi centre (lowest bin + k - 1), and the last column is the cell's
    total once `width` exceeds the cell's bin range by at least 2.
    """
    hist = np.bincount(cells, weights.ravel(), minlength=n_cells * width)
    return np.cumsum(hist.reshape(n_cells, width), axis=1)


def _windows(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat layout of the per-row column windows [lo_r, hi_r), row after row.

    Returns the row and the column of each element and the offset of each row's
    first element.
    """
    width = hi - lo
    start = np.cumsum(width) - width
    rows = np.repeat(np.arange(lo.size), width)
    cols = np.arange(rows.size) - np.repeat(start - lo, width)
    return rows, cols, start


def _reporting_defect(grid: Grid1D, xi: XiGrid, t0: float, steps: Sequence[Slab]) -> DefectField:
    """The dt-weighted mean of the per-step defect over consecutive, chained solver steps.

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

    So only the band between those two ends is computed: for cell j the xi
    columns [lo_j, hi_j), lo and hi the least and greatest bin (number of xi
    centres <= u) of the values of cells j-1, j, j+1 (neighbours from
    `Grid1D.pad`) over the slab's step states and its end state.  Below the
    band m is 0, above it the conservation residual.  The sums under and over
    of a cell are kept on the union of the bands that read them (its own and
    its neighbours'); each piece bins a value once, in its own cell's window
    of bins, and reads a cell's running sums there by a clipped index: 0 below
    the window, the cell's total above it.  Every number in the band goes
    through the same operations as in the dense (n_cells x n_xi) form, so the
    result equals it exactly.
    """
    xc = xi.centers
    n = grid.n_cells
    u_first, u_last = steps[0].u0, steps[-1].u1
    # a bin is monotone in u, so each cell's bin range is that of its value range
    lowest = reduce(np.minimum, (s.u0 for s in steps), u_last)
    highest = reduce(np.maximum, (s.u0 for s in steps), u_last)
    stencil = grid.pad(np.arange(n))
    left, right = stencil[:-2], stencil[2:]

    def spread(lo, hi):  # union over each cell and its two neighbours
        return (np.minimum(np.minimum(lo[left], lo), lo[right]),
                np.maximum(np.maximum(hi[left], hi), hi[right]))

    band_lo, band_hi = spread(np.searchsorted(xc, lowest, "right"),
                              np.searchsorted(xc, highest, "right"))
    keep_lo, keep_hi = spread(band_lo, band_hi)  # where each cell's sums are read
    rows, cols, keep_start = _windows(keep_lo, keep_hi)
    under_p, under_n, over_p, over_n = (np.zeros(rows.size) for _ in range(4))
    cons = np.zeros(n)
    for start, stop in _runs([id(s.fseg) for s in steps]):
        fseg = steps[start].fseg
        # the chained states of the piece, (cells, steps + 1): each step's u0 and the last u1
        u = np.stack([s.u0 for s in steps[start:stop]] + [steps[stop - 1].u1], axis=1)
        u0, u1 = u[:, :-1], u[:, 1:]
        dt = np.array([s.dt for s in steps[start:stop]])
        p_u, n_u = fseg.one_sided_integrals(u0)
        cons += ((u1 - u0) + dt * (_upwind_difference(grid, p_u, n_u) / grid.dx)).sum(axis=1)
        bins = np.searchsorted(xc, u0, side="right")
        bin_lo = bins.min(axis=1)
        width = int((bins.max(axis=1) - bin_lo).max()) + 2
        cells = (bins - bin_lo[:, None] + 1 + (np.arange(n) * width)[:, None]).ravel()
        at = rows * width
        total = at + (width - 1)
        at += np.clip(cols + 1 - bin_lo[rows], 0, width - 1)
        sums_w = _below_sums(cells, np.broadcast_to(dt, u0.shape), n, width).ravel()
        below_w = sums_w[at]
        above_w = sums_w[total] - below_w
        g_xis = [g[cols] for g in fseg.one_sided_integrals(xc)]
        for g_xi, g_u, under, over in zip(g_xis, (p_u, n_u), (under_p, under_n), (over_p, over_n)):
            sums_g = _below_sums(cells, dt * g_u, n, width).ravel()
            below_g = sums_g[at]
            under += below_g - g_xi * below_w
            over += (sums_g[total] - below_g) - g_xi * above_w

    rows, cols, _ = _windows(band_lo, band_hi)
    mid, lft, rgt = (keep_start[r] + (cols - keep_lo[r]) for r in (rows, left[rows], right[rows]))

    def upwind_difference(pos, neg):  # `_upwind_difference` on the band
        out = pos[mid] - pos[lft]
        neg_right = neg[rgt]
        neg_right -= neg[mid]
        out += neg_right
        return out

    first, last, xc_band = u_first[rows], u_last[rows], xc[cols]
    m_under = _chi_cumulative(last, xc_band) - _chi_cumulative(first, xc_band)
    m_under += upwind_difference(under_p, under_n) / grid.dx
    m_over = _chi_tail(last, xc_band) - _chi_tail(first, xc_band)
    m_over += cons[rows] - upwind_difference(over_p, over_n) / grid.dx
    duration = sum(s.dt for s in steps)
    values = np.where(np.arange(xi.n) >= band_hi[:, None], (cons / duration)[:, None], 0.0)
    values[rows, cols] = np.where(xc_band > last, m_over, m_under) / duration
    return DefectField(grid, xi, t0, duration, values, cons / duration)


def accumulate_defects(traj: Trajectory, flux: FluxModel, xi: XiGrid) -> list[DefectField]:
    """The dt-weighted mean defect over each output interval, one field per interval.

    Equals averaging the per-step defect over the solver steps whose midpoint
    lies in the interval (steps outside the snapshot span are left out), without
    forming any per-step (n_cells x n_xi) field: each run of steps with one
    reporting slab and one `SegmentFlux` is reduced by occupation-time
    histograms, on the band of xi that each cell's stencil values sweep (see
    `_reporting_defect`).  The cost is O(steps * n_cells) for the states, plus
    per piece O(n_cells * w + B), w the widest bin range of one cell's values
    over the piece and B the (cell, xi) points of the bands of each cell and
    its neighbours, instead of O(steps * n_cells * n_xi); the only dense
    (n_cells x n_xi) work left is writing each slab's field.  The recorded
    steps must be chained, each one starting from the state the previous one
    ended in, as `solve_path` records them.  They must be Engquist-Osher
    steps, and `flux` must equal the flux they were made with; each is checked.
    An output interval that holds no step's midpoint is rejected.
    """
    intervals = _interval_steps(traj)
    _check_steps(traj.slabs, flux)
    u_abs = np.abs(traj.slabs[-1].u1)  # running max of |u| over every recorded state
    for s in traj.slabs:
        np.maximum(u_abs, np.abs(s.u0), out=u_abs)
    check_xi_covers(xi, float(u_abs.max()))
    return [_reporting_defect(traj.grid, xi, float(t0), steps) for t0, steps in zip(traj.times, intervals)]


def _interval_steps(traj: Trajectory) -> list[list[Slab]]:
    """The recorded steps of each output interval k: those with times[k] < midpoint <= times[k + 1]."""
    if traj.slabs is None:
        raise ValueError("trajectory was solved without record_slabs")
    times = traj.times
    if times.size < 2:
        raise ValueError("need at least two snapshots")
    cuts = np.searchsorted([s.t0 + 0.5 * s.dt for s in traj.slabs], times, "right").tolist()
    for k in range(times.size - 1):
        if cuts[k] == cuts[k + 1]:
            raise ValueError(f"no solver step between the outputs {float(times[k])} and "
                             f"{float(times[k + 1])}")
    return [traj.slabs[a:b] for a, b in zip(cuts, cuts[1:])]


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


def _check_paired(traj: Trajectory, defects: list[DefectField]) -> None:
    """Field k must be the defect over [times[k], times[k + 1]] on the trajectory's grid."""
    if len(defects) != len(traj.states) - 1:
        raise ValueError(f"{len(defects)} defect fields for {len(traj.states) - 1} output intervals")
    for k, d in enumerate(defects):
        if d.grid != traj.grid or d.t0 != traj.times[k]:
            raise ValueError(f"defect field {k} (t0 = {d.t0} on {d.grid}) is not the field of the "
                             f"output interval from {float(traj.times[k])} on {traj.grid}")


def check_unpr1(traj: Trajectory, defects: list[DefectField]) -> dict:
    """The kinetic identity (module docstring) at every xi centre, as m is the change of X_u(xi)
    = u - (u - xi)^+ - min(xi, 0) plus the upwind flux difference; field k must be the defect over
    [times[k], times[k + 1]] of `traj`, and the boundary flux sums its steps per piece (a run under one
    `SegmentFlux`).  Returns per interval the largest absolute residual over xi, and as `max_relative`
    the largest over max_{k, xi} S_k, the size of the terms subtracted."""
    _check_paired(traj, defects)
    xc = defects[0].xi.centers
    s_k = [traj.grid.dx * np.maximum(state.u[:, None] - xc, 0.0).sum(axis=0) for state in traj.states]
    resid = np.array([d.xi_line_mass() - (a - b) for d, a, b in zip(defects, s_k, s_k[1:])])
    if traj.grid.bc == "outflow":  # F(xi) of q cancels in q(u_{N-1}) - q(u_0)
        for k, steps in enumerate(_interval_steps(traj)):
            for start, stop in _runs([id(step.fseg) for step in steps]):
                piece = steps[start:stop]
                edges = np.array([(step.u0[-1], step.u0[0]) for step in piece])
                f = piece[0].fseg.value(np.maximum(edges[..., None], xc))
                resid[k] += np.array([step.dt for step in piece]) @ (f[:, 0] - f[:, 1])
    worst = np.abs(resid).max(axis=1)
    scale = float(np.max(s_k))
    return {"residuals": worst, "scale": scale, "max_relative": float(worst.max() / scale)}


# -- transported kernel and the solution-definition residual ----------------


@dataclass(frozen=True)
class KernelRho:
    """rho_eta(z) = profile(z/eta)/eta, the profile being the smooth bump
    normalized to unit mass, so it vanishes outside (-1, 1)."""

    width: float

    def __post_init__(self) -> None:
        if not self.width > 0:
            raise ValueError("kernel width must be positive")

    @staticmethod
    def profile(z):
        return bump_raw(z) / bump_integral()

    @staticmethod
    def profile_pair(z):
        """(profile, profile') at the same points from one evaluation."""
        b, db = bump_raw_pair(z)
        norm = bump_integral()
        return b / norm, db / norm


def default_kernel(width: float) -> KernelRho:
    """The normalized bump kernel of half-width `width`."""
    return KernelRho(width)


def definition_residual(
    traj: Trajectory,
    defects: list[DefectField],
    kernel: KernelRho,
    flux: FluxModel,
    path: PiecewiseLinearPath,
    pairs: list[tuple[Weight, Weight]],
) -> list[float]:
    """Weak residual of the transported-kernel solution definition.

    For each weight pair (psi in xi, phi in t) assembles, per reporting slab,

        R(y) += -(phi(t1)-phi(t0)) * int psi(xi) (G(t0)+G(t1))/2 dxi
                + phi(t_mid) * dt * int [psi'(xi) rho + psi(xi) A'(xi) d_y rho] m dx dxi,

    with G(y, xi, t) = int chi rho dx and A'(xi) = sum_i a_i'(xi) W^i(t).  The
    time derivative lands on phi, the xi derivative on psi and rho.  Returns the
    L1-in-y norm of R on the periodic domain, sampled at N_Y equispaced y and
    normalized by ||psi||_inf ||phi||_inf ||u0||_L1.  (Integrating R dy instead
    would kill the kernel entirely because rho has unit mass; the definition is
    a statement for every y, so the norm over y is the meaningful scalar.)

    G at each snapshot is evaluated once and shared by the two slabs meeting
    there, and rho and d_y rho at the midpoint come from one kernel
    evaluation.  The kernel profile vanishes outside (-1, 1), so for each
    (xi, y) the x integrals run over the ceil(2 eta / dx) + 2 periodic cells
    around y + shift(xi) only: a slab costs two kernel evaluations at each of
    (active xi) * N_Y * (2 eta / dx + 2) points, not at each (x, xi, y) point.
    """
    grid = traj.grid
    if grid.bc != "periodic":
        raise ValueError("definition residual is implemented on periodic domains")
    _check_paired(traj, defects)
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
    y = np.linspace(grid.x_lo, grid.x_hi, N_Y, endpoint=False)
    n, dx, eta = grid.n_cells, grid.dx, kernel.width
    n_win = int(np.ceil(2.0 * eta / dx)) + 2
    reach = (dx / eta) * np.arange(n_win)
    periodic = np.arange(n + n_win - 1) % n  # cell index read through a periodic extension
    # xi per chunk, for temporaries near 2^14 doubles (128 KB): on a 2-core VM
    # the kinetic benchmark's residuals ran twice as fast as with 1 MB ones
    chunk = max(1, 2**14 // (N_Y * n_win))

    def window_sums(cols, shift, with_drho=False):
        """dx * sum_x cols[x, i] rho(y - x + shift[i]) for each active xi i and
        each y (and the same with d_y rho), over the window of cells where rho
        can be nonzero."""
        windows = sliding_window_view(np.ascontiguousarray(cols[periodic].T), n_win, axis=1)
        s = (y[None, :] + shift[:, None]) - grid.x_lo  # kernel centre from x_lo
        first = np.floor((s - eta) / dx - 0.5)  # the window's first cell
        z_first = (s - (first + 0.5) * dx) / eta  # in [1, 1 + dx / eta)
        first = first.astype(np.intp) % n
        xi_at = np.arange(xa.size)[:, None]
        out = np.empty((1 + with_drho, xa.size, N_Y))
        for lo in range(0, xa.size, chunk):
            rows = slice(lo, lo + chunk)
            vals = windows[xi_at[rows], first[rows]]
            z = z_first[rows, :, None] - reach
            for o, p in zip(out, kernel.profile_pair(z) if with_drho else (kernel.profile(z),)):
                o[rows] = np.einsum("ikm,ikm->ik", vals, p)
        out[0] *= dx / eta
        if with_drho:
            out[1] *= dx / eta**2
        return out

    def chi_kernel(u, t):
        """G(y, xi) = int chi(u(x), xi) rho(y - x + shift(xi, t)) dx on the active xi."""
        return window_sums(chi_values(u, xa).astype(float), path.eval(t) @ a_stack)[0]

    acc = [np.zeros(N_Y) for _ in pairs]
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
        h_rho, h_drho = window_sums(d.values[:, active], shiftm, with_drho=True)
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
        r_l1 = float(np.sum(np.abs(acc[j]))) * (length / N_Y)
        out.append(r_l1 / (psi.sup * phi.sup * u0_l1))
    return out
