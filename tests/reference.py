"""Reference forms shared by the tests, one per kernel, and the one bitwise check.

Bit for bit where the form is an earlier operation order the kernel must keep
(`NumpyReference`, `earlier_pad`, `earlier_step`, `_cursor_march`, `parent_rk4`,
`dense_reporting_defect`, the masked bump, `full_rectangle_evaluate`,
`per_snapshot_d`), or to roundoff where it is the maths
written plainly (`defect_from_slab` per step, rho and the transport shift).
"""
import numpy as np
import numpy.polynomial.polynomial as npp
from hypothesis import strategies as st

import rough_scl.characteristics as chars
from rough_scl.fluxes import SegmentFlux, from_spec
from rough_scl.kinetic import DefectField, _chi_cumulative, _runs, _upwind_difference
from rough_scl.semilinear import ODE_STEP_PER_UNIT_DRIVER
from rough_scl.solver import _TIME_ATOL, CellState, CFLError, SolverConfig, solve_segment

FLUX_SPECS = ("burgers", "cubic", "poly:0.1,-0.3,0.2,0.5,-0.25,0.15", "burgers;cubic", "cubic;poly:0,1,-0.5")


def assert_bitwise(got, want):
    """The same shape, dtype and bytes: equal as IEEE numbers, signs of zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def plan_coeffs(fs) -> np.ndarray:
    """The ascending coefficients of a segment flux's F, from its Horner plan, in which None
    stands for a dropped +0.0; every other entry, a -0.0 too, is the coefficient itself."""
    return np.array([0.0 if c is None else c for c in fs._plan])


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (ValueError, CFLError) as exc:
        return type(exc), str(exc)


def same_outcome(got, want):
    """The same rejection, or the same bits (a `CellState` by grid, time and state)."""
    if isinstance(want, tuple):
        assert got == want
    elif isinstance(want, CellState):
        assert type(got) is CellState and got.grid is want.grid and got.t == want.t
        assert type(got.u) is np.ndarray
        assert_bitwise(got.u, want.u)
    else:
        assert_bitwise(got, want)


@st.composite
def segment_flux_cases(draw):
    """A segment flux and states spread over every node interval or kept in one,
    with breakpoints, range ends and +-0.0 among them; sometimes with a NaN or an
    out-of-range entry."""
    spec = draw(st.sampled_from(FLUX_SPECS))
    flux = from_spec(spec, (-1.5, 1.5))
    slope = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2.0, 2.0))
    fs = SegmentFlux(flux, draw(st.lists(slope, min_size=flux.n_channels, max_size=flux.n_channels)))
    nodes = [-1.5, *[b for b in fs.breakpoints.tolist() if -1.5 < b < 1.5], 1.5]
    if draw(st.booleans()):  # one node interval [a, b), a node belonging to the interval above it
        j = draw(st.integers(0, len(nodes) - 2))
        a, b = nodes[j], nodes[j + 1]
        special = [a, float(np.nextafter(b, a))] + ([0.0, -0.0] if a <= 0.0 < b else [])
    else:
        a, b = -1.5, 1.5
        special = nodes + [0.0, -0.0]
    value = st.one_of(st.sampled_from(special), st.floats(a, b).filter(lambda x: x < b or b == 1.5))
    n = draw(st.integers(2, 24))
    v = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    if draw(st.integers(0, 5)) == 0:
        v[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, -1.6, 1.6]))
    return fs, v


# -- fluxes ---------------------------------------------------------------------


class NumpyReference:
    """`SegmentFlux` written with numpy's polynomial wrappers, `np.diff` and a
    plain Godunov loop: the operation order the lean kernels must keep, and the
    same rejections in the same order."""

    def __init__(self, flux, c):
        lo, hi = min(flux.u_range[0], 0.0), max(flux.u_range[1], 0.0)
        pad = 1e-9 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        self.u_range = flux.u_range
        self.coeffs = np.zeros(max(len(ch.coeffs) for ch in flux.channels))
        for ci, ch in zip(c, flux.channels):
            self.coeffs[: len(ch.coeffs)] += ci * ch.coeffs
        self.dcoeffs = npp.polyder(self.coeffs)
        r = np.empty(0)
        trimmed = np.trim_zeros(self.dcoeffs, "b")
        if trimmed.size > 1:
            r = npp.polyroots(trimmed)
            r = r[np.abs(r.imag) <= 1e-9 * (1.0 + np.abs(r.real))].real
            r = np.unique(r[(r > lo) & (r < hi)])
        self.breakpoints = r
        nodes = np.concatenate([[lo], r, [hi]])
        sign = np.sign(self.deriv(0.5 * (nodes[:-1] + nodes[1:])))
        self.rising, self.falling = sign > 0, sign < 0
        self.f_nodes = self.value(nodes)
        seg = np.diff(self.f_nodes)
        self.pos_cum = np.concatenate([[0.0], np.cumsum(np.where(self.rising, seg, 0.0))])
        self.neg_cum = np.concatenate([[0.0], np.cumsum(np.where(self.falling, seg, 0.0))])
        self.pos_at_zero, self.neg_at_zero = (self.one_sided(np.asarray(0.0), sign) for sign in (True, False))

    @classmethod
    def on_tables(cls, fs):
        """The numpy form's evaluations on the coefficients and node tables of the
        segment flux `fs`, for slopes whose own `npp.polyroots` would overflow
        (a subnormal component); `__init__`'s tables are checked separately."""
        ref = cls.__new__(cls)
        ref.u_range = fs.flux.u_range
        ref.coeffs, ref.breakpoints, ref.f_nodes = plan_coeffs(fs), fs.breakpoints, fs._f_nodes
        ref.pos_cum, ref.neg_cum, ref.rising, ref.falling = fs._pos_cum, fs._neg_cum, fs._rising, fs._falling
        ref.pos_at_zero, ref.neg_at_zero = (ref.one_sided(np.asarray(0.0), sign) for sign in (True, False))
        return ref

    def value(self, u):
        return npp.polyval(np.asarray(u, dtype=float), self.coeffs)

    def deriv(self, u):
        return npp.polyval(np.asarray(u, dtype=float), self.dcoeffs)

    def one_sided(self, u, positive, fu=None):
        idx = np.searchsorted(self.breakpoints, u, side="right")
        part = (self.value(u) if fu is None else fu) - self.f_nodes[idx]
        base = (self.pos_cum if positive else self.neg_cum)[idx]
        return base + np.where((self.rising if positive else self.falling)[idx], part, 0.0)

    def interface_flux(self, v, scheme):
        v = np.asarray(v, dtype=float)
        lo, hi = self.u_range
        if not (lo - 1e-9 <= v.min() and v.max() <= hi + 1e-9):  # a NaN fails too
            raise ValueError(f"state outside certified u_range [{lo}, {hi}]")
        if scheme not in ("engquist_osher", "godunov_convex"):
            raise ValueError(f"unknown scheme {scheme!r}")
        fv = self.value(v)
        if scheme == "engquist_osher":
            p = self.one_sided(v, True, fv)
            return p[..., :-1] + (fv - p)[..., 1:]
        u_l, u_r = v[..., :-1], v[..., 1:]
        s = np.where(u_l <= u_r, 1.0, -1.0)
        lowest = np.minimum(s * fv[..., :-1], s * fv[..., 1:])
        below, above = np.minimum(u_l, u_r), np.maximum(u_l, u_r)
        for b, fb in zip(self.breakpoints, self.f_nodes[1:-1]):
            lowest = np.where((below < b) & (b < above), np.minimum(lowest, s * fb), lowest)
        return s * lowest


# -- solver ---------------------------------------------------------------------


def earlier_pad(grid, a):
    """`Grid1D.pad` in its concatenate form."""
    if grid.bc == "periodic":
        return np.concatenate([a[-1:], a, a[:1]])
    return np.concatenate([a[:1], a, a[-1:]])


def earlier_step(state, fseg, dt, config=SolverConfig()):
    """`step` in its earlier form: three temporaries and a validated `CellState`.
    The fluxes are `interface_flux`'s, which `NumpyReference` checks."""
    grid = state.grid
    dx = grid.dx
    if dt < 0:
        raise ValueError(f"negative dt={dt:.3e}")
    if fseg.max_speed > 0.0 and dt > config.cfl * dx / fseg.max_speed * (1.0 + 1e-9):
        raise CFLError(f"dt={dt:.3e} exceeds cfl*dx/max_speed={config.cfl * dx / fseg.max_speed:.3e}")
    fh = fseg.interface_flux(earlier_pad(grid, state.u), config.scheme)
    return CellState(grid, state.u - (dt / dx) * (fh[1:] - fh[:-1]), state.t + dt)


def _cursor_march(u0, flux, path, outputs, grid, config):
    """The march `solve_path` had before its one landing rule: a per-segment output
    cursor with its own branches for an output at t = 0 and for one on a knot.
    Kept as the reference the landing rule must match bitwise when no output lies
    within `_TIME_ATOL` of another output or of a knot without being equal to it."""
    outputs = np.atleast_1d(np.asarray(outputs, dtype=float))
    state = CellState(grid, np.array(u0, dtype=float), 0.0)
    slabs, times, states, i_out = [], [], [], 0
    if abs(outputs[0]) <= _TIME_ATOL:
        times.append(0.0)
        states.append(CellState(grid, state.u.copy(), 0.0))
        i_out = 1
    for k in range(path.n_segments):
        if i_out == outputs.size:
            break
        t_k1 = path.knots[k + 1]
        slope = (path.values[k + 1] - path.values[k]) / (t_k1 - path.knots[k])
        fseg = SegmentFlux(flux, slope)
        while i_out < outputs.size and state.t < t_k1 - _TIME_ATOL:
            target = min(outputs[i_out], t_k1)
            state = solve_segment(state, fseg, target - state.t, config, slabs.append)
            if outputs[i_out] <= t_k1:
                times.append(float(target))
                states.append(CellState(grid, state.u.copy(), state.t))
                i_out += 1
        if i_out < outputs.size and abs(outputs[i_out] - t_k1) <= _TIME_ATOL and state.t >= t_k1 - _TIME_ATOL:
            times.append(float(outputs[i_out]))
            states.append(CellState(grid, state.u.copy(), state.t))
            i_out += 1
    if i_out < outputs.size:
        raise RuntimeError(f"failed to reach outputs {outputs[i_out:]}")
    return np.asarray(times), states, slabs


# -- semilinear -----------------------------------------------------------------


def parent_rk4(field, y, tau):
    """`_rk4` as it was before it formed its sums in place: the bitwise reference."""
    if tau == 0.0:
        return y
    n = max(1, int(np.ceil(abs(tau) / ODE_STEP_PER_UNIT_DRIVER)))
    h = tau / n
    for _ in range(n):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


# -- kinetic: the defect of one step, and the dense accumulation ----------------


def _one_sided_cumulative(u, g_xi, g_u, xi_centers):
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


def defect_from_slab(slab, grid, xi):
    """The defect rate of one solver step under its own frozen flux: the per-step oracle.

    The accumulation over zeta runs from xi_lo upward with the same upwind
    splitting as the solver step: cumulative of (chi(u1) - chi(u0))/dt plus
    the difference of the one-sided interface integrals, all exact in xi.  The
    step must be Engquist-Osher's and the xi grid must cover max(|u0|, |u1|)
    plus one cell, as `accumulate_defects` checks on the same steps.
    """
    u0, u1, fseg = slab.u0, slab.u1, slab.fseg
    xc = xi.centers
    p_xi, n_xi = fseg.one_sided_integrals(xc)

    x0 = _chi_cumulative(u0[:, None], xc)
    x1 = _chi_cumulative(u1[:, None], xc)
    p_u0, n_u0 = fseg.one_sided_integrals(u0)
    a_pos = _one_sided_cumulative(u0, p_xi, p_u0, xc)
    b_neg = _one_sided_cumulative(u0, n_xi, n_u0, xc)
    m = (x1 - x0) / slab.dt + _upwind_difference(grid, a_pos, b_neg) / grid.dx
    cons = (u1 - u0) / slab.dt + _upwind_difference(grid, p_u0, n_u0) / grid.dx
    return DefectField(grid, xi, slab.t0, slab.dt, m, cons)


def per_step_defects(traj, flux, xi):
    """(t0, duration, values, cons_residual) per reporting slab: the dt-weighted
    mean of `defect_from_slab` over the steps whose midpoint lies in the slab."""
    edges = traj.times
    out = []
    for k in range(edges.size - 1):
        steps = [s for s in traj.slabs if edges[k] < s.t0 + 0.5 * s.dt <= edges[k + 1]]
        values = np.zeros((traj.grid.n_cells, xi.n))
        cons = np.zeros(traj.grid.n_cells)
        duration = 0.0
        for s in steps:
            d = defect_from_slab(s, traj.grid, xi)
            values += s.dt * d.values
            cons += s.dt * d.cons_residual
            duration += s.dt
        out.append((edges[k], duration, values / duration, cons / duration))
    return out


# the dense (n_cells x n_xi) accumulation over every xi column: the reference
# that the band-limited `_reporting_defect` must equal exactly


def dense_chi_cumulative(u: np.ndarray, xi_centers: np.ndarray) -> np.ndarray:
    """X_u(xi) = int_{-inf}^{xi} chi(u, z) dz, exact, at the given xi points."""
    l = np.minimum(u, 0.0)[:, None]
    h = np.maximum(u, 0.0)[:, None]
    s = np.sign(u)[:, None]
    return s * (np.clip(xi_centers[None, :], l, h) - l)


def dense_chi_tail(u: np.ndarray, xi_centers: np.ndarray) -> np.ndarray:
    """X_u(xi) - u = -int_{xi}^{inf} chi(u, z) dz, exactly 0 above max(u, 0)."""
    l = np.minimum(u, 0.0)[:, None]
    h = np.maximum(u, 0.0)[:, None]
    s = np.sign(u)[:, None]
    return s * (np.clip(xi_centers[None, :], l, h) - h)


def dense_below_sums(cells: np.ndarray, weights: np.ndarray, n_cells: int, n_xi: int) -> np.ndarray:
    """Per cell, running sums of binned weights, shape (n_cells, n_xi + 1)."""
    hist = np.bincount(cells, weights.ravel(), minlength=n_cells * (n_xi + 1))
    return np.cumsum(hist.reshape(n_cells, n_xi + 1), axis=1)


def dense_reporting_defect(grid, xi, t0, steps) -> DefectField:
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
        sums_w = dense_below_sums(cells, np.broadcast_to(dt, u0.shape), n, xi.n)
        g_xis = (fseg.pos_integral(xc), fseg.neg_integral(xc))
        for g_xi, g_u, under, over in zip(g_xis, (p_u, n_u), (under_p, under_n), (over_p, over_n)):
            sums_g = dense_below_sums(cells, dt * g_u, n, xi.n)
            under += sums_g[:, :-1] - g_xi * sums_w[:, :-1]
            over += (sums_g[:, -1:] - sums_g[:, :-1]) - g_xi * (sums_w[:, -1:] - sums_w[:, :-1])

    u_first, u_last = steps[0].u0, steps[-1].u1
    m_under = dense_chi_cumulative(u_last, xc) - dense_chi_cumulative(u_first, xc)
    m_under += _upwind_difference(grid, under_p, under_n) / grid.dx
    m_over = dense_chi_tail(u_last, xc) - dense_chi_tail(u_first, xc)
    m_over += cons[:, None] - _upwind_difference(grid, over_p, over_n) / grid.dx
    duration = sum(s.dt for s in steps)
    values = np.where(xc > u_last[:, None], m_over, m_under) / duration
    return DefectField(grid, xi, t0, duration, values, cons / duration)


# -- kinetic: the bump and the transported kernel -------------------------------


def masked_bump_raw(z):
    """B(z), the closed form evaluated only on the points inside (-1, 1)."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    m = np.abs(z) < 1.0
    zm = z[m]
    out[m] = np.exp(1.0 - 1.0 / (1.0 - zm * zm))
    return out


def masked_bump_raw_pair(z):
    """B(z) and B'(z), evaluated only on the points inside (-1, 1)."""
    z = np.asarray(z, dtype=float)
    val = np.zeros_like(z)
    der = np.zeros_like(z)
    m = np.abs(z) < 1.0
    zm = z[m]
    w = 1.0 - zm * zm
    e = np.exp(1.0 - 1.0 / w)
    val[m] = e
    der[m] = e * (-2.0 * zm / (w * w))
    return val, der


def rho(kernel, z):
    """rho_eta(z) = profile(z / eta) / eta of a `KernelRho`."""
    return kernel.profile(np.asarray(z, dtype=float) / kernel.width) / kernel.width


def drho(kernel, z):
    """rho_eta'(z) = profile'(z / eta) / eta^2."""
    return kernel.profile_pair(np.asarray(z, dtype=float) / kernel.width)[1] / kernel.width**2


def transport_shift(flux, path, xi, t):
    """sum_i a_i(xi) W^i(t): the kernel centre offset at level xi and time t."""
    w = path.eval(t)
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    for wi, ch in zip(np.atleast_1d(w), flux.channels):
        out = out + wi * ch.a(xi)
    return out


def rho_eval(kernel, y, x, xi, t, path, flux):
    """rho(y, x, xi, t) = rho_eta(y - x + sum_i a_i(xi) W^i(t))."""
    shift = transport_shift(flux, path, xi, t)
    return rho(kernel, np.asarray(y, dtype=float) - np.asarray(x, dtype=float) + shift)


# -- characteristics: the local smooth solution and D(t) --------------------------


def full_rectangle_evaluate(sol, x, t):
    """`LocalSmoothSolution.evaluate` with the inversion, Newton steps, residual and datum
    run on every (snapshot, column) point, the columns no support covers included."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xs = x.ravel()
    s_lo, s_hi = sol.datum.support
    s = np.linspace(s_lo, s_hi, chars.N_PROBE)

    def flow(points):
        return chars.characteristic_flow(sol.datum, sol.path, sol.flux, sol.t0, times, points)

    fs, _ = flow(s)
    inside = (xs > fs[:, :1]) & (xs < fs[:, -1:])
    out = np.zeros(inside.shape)
    if np.any(inside):
        xq = np.broadcast_to(xs, inside.shape)
        x0 = np.array([np.interp(xs, row, s) for row in fs])
        for _ in range(3):
            fx, jac = flow(x0)
            x0 = np.clip(x0 - (fx - xq) / jac, s_lo, s_hi)
        out = np.where(inside, sol.datum.value(x0), 0.0)
    return out.reshape(np.shape(t) + x.shape)


def per_snapshot_d(traj, sol, weight):
    """D(t_j) of `dissipative_check`, one `searchsorted` and one sum per in-window snapshot."""
    mask = sol.in_window(traj.times)
    k_lo, k_hi = weight.support
    dk = (k_hi - k_lo) / chars.N_K
    k = k_lo + (np.arange(chars.N_K) + 0.5) * dk
    psi_k = weight.value(k)
    c0 = np.concatenate([[0.0], np.cumsum(psi_k)])
    c1 = np.concatenate([[0.0], np.cumsum(k * psi_k)])
    psi = sol.evaluate(traj.grid.centers, traj.times[mask])
    d_vals = np.empty(psi.shape[0])
    for j, i in enumerate(np.flatnonzero(mask)):
        a = traj.states[i].u - psi[j]
        below = np.searchsorted(k, a)
        d_vals[j] = traj.grid.dx * dk * float(np.sum(a * c0[below] - c1[below]))
    return d_vals
