"""Kinetic layer: chi decomposition, nonnegative defect, and weak residuals."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rough_scl.fluxes import FluxModel, SegmentFlux, builtin, from_spec
from rough_scl import kinetic
from rough_scl.kinetic import (
    DefectField,
    KernelRho,
    XiGrid,
    _reporting_defect,
    _runs,
    _upwind_difference,
    accumulate_defects,
    check_kf_bounds,
    check_unpr1,
    chi_values,
    default_kernel,
    defect_from_slab,
    definition_residual,
    rho_eval,
    tol_m,
    transport_shift,
    xi_lipschitz_increments,
)
from rough_scl.paths import PiecewiseLinearPath, brownian_sample, identity_path
from rough_scl.smooth import bump_integral, bump_raw, bump_weight
from rough_scl.solver import CellState, Grid1D, Slab, SolverConfig, Trajectory, solve_path


def burgers(rng=(-2.0, 2.0)):
    return FluxModel([builtin("burgers")], rng)


def step_datum(grid, seed, n_pieces=6):
    rng = np.random.default_rng(seed)
    edges = np.sort(rng.uniform(grid.x_lo, grid.x_hi, n_pieces - 1))
    return rng.uniform(-1.0, 1.0, n_pieces)[np.searchsorted(edges, grid.centers)]


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


def shock_traj(n_cells=200, horizon=0.5, n_out=6, u_range=(-0.5, 1.5)):
    grid = Grid1D(-1.0, 1.0, n_cells, "periodic")
    u0 = np.where(np.abs(grid.centers + 0.25) < 0.5, 1.0, 0.0)
    cfg = SolverConfig(record_slabs=True)
    outputs = np.linspace(0.0, horizon, n_out)
    return solve_path(u0, burgers(u_range), identity_path(horizon), outputs, grid, cfg)


class TestXiGrid:
    def test_geometry(self):
        xi = XiGrid(-1.5, 1.5, 300)
        assert xi.d_xi == pytest.approx(0.01)
        assert xi.centers[150] == pytest.approx(0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            XiGrid(1.0, -1.0, 10)
        with pytest.raises(ValueError):
            XiGrid(-1.0, 1.0, 0)


class TestChi:
    def test_pointwise_cases(self):
        xc = np.array([-0.75, -0.25, 0.25, 0.75])
        assert np.array_equal(chi_values(np.array([1.0]), xc)[0], [0, 0, 1, 1])
        assert np.array_equal(chi_values(np.array([-1.0]), xc)[0], [-1, -1, 0, 0])
        assert np.array_equal(chi_values(np.array([0.0]), xc)[0], [0, 0, 0, 0])
        assert np.array_equal(chi_values(np.array([0.5]), xc)[0], [0, 0, 1, 0])

    def test_integral_recovers_state(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(-1.0, 1.0, 64)
        xi = XiGrid(-1.5, 1.5, 6000)
        chi = chi_values(u, xi.centers)
        assert chi.dtype == np.int8
        # midpoint rule on a +-1 indicator: error <= d_xi per cell
        assert np.allclose(xi.d_xi * chi.sum(axis=1), u, atol=xi.d_xi)

    def test_coverage_guard(self):
        """The xi grid must cover both end states of the step."""
        grid = Grid1D(0.0, 1.0, 4, "periodic")
        small, large = np.zeros(4), np.array([0.0, 0.9, 0.0, 0.0])
        for u0, u1 in ((large, small), (small, large)):
            slab = Slab(0.0, 0.01, SegmentFlux(burgers(), [1.0]), "engquist_osher", u0, u1)
            with pytest.raises(ValueError, match="xi range"):
                defect_from_slab(slab, grid, XiGrid(-0.5, 0.5, 50))

    def test_slab_must_match_grid(self):
        slab = Slab(0.0, 0.01, SegmentFlux(burgers(), [1.0]), "engquist_osher", np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match="do not match the grid"):
            defect_from_slab(slab, Grid1D(0.0, 1.0, 5, "periodic"), XiGrid(-0.5, 0.5, 50))


class TestPreconditions:
    """The extraction reads each step's own flux and scheme, and checks both."""

    def two_channel_traj(self, scheme="engquist_osher"):
        grid = Grid1D(-1.0, 1.0, 64, "periodic")
        flux = from_spec("burgers;cubic", (-1.05, 1.05))
        u0 = np.sin(np.pi * grid.centers)
        cfg = SolverConfig(scheme=scheme, record_slabs=True)
        return solve_path(u0, flux, brownian_sample(0, 1.0, 8, 2), [0.0, 0.5, 1.0], grid, cfg)

    def test_equal_flux_accepted(self):
        traj = self.two_channel_traj()
        xi = XiGrid(-1.5, 1.5, 40)
        fresh = accumulate_defects(traj, from_spec("burgers;cubic", (-1.05, 1.05)), xi)
        same = accumulate_defects(traj, traj.slabs[0].fseg.flux, xi)
        for a, b in zip(fresh, same):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("spec, u_range", [
        ("cubic;burgers", (-1.05, 1.05)),
        ("burgers;cubic", (-1.1, 1.05)),
        ("burgers;poly:0,0,0,0.3", (-1.05, 1.05)),
    ], ids=["channels-swapped", "other-range", "other-coefficients"])
    def test_other_flux_rejected(self, spec, u_range):
        traj = self.two_channel_traj()
        with pytest.raises(ValueError, match="flux differs"):
            accumulate_defects(traj, from_spec(spec, u_range), XiGrid(-1.5, 1.5, 40))

    def test_godunov_steps_rejected(self):
        traj = self.two_channel_traj("godunov_convex")
        xi = XiGrid(-1.5, 1.5, 40)
        with pytest.raises(ValueError, match="'godunov_convex'.*engquist_osher"):
            accumulate_defects(traj, from_spec("burgers;cubic", (-1.05, 1.05)), xi)
        with pytest.raises(ValueError, match="'godunov_convex'.*engquist_osher"):
            defect_from_slab(traj.slabs[0], traj.grid, xi)

    def test_equal_consecutive_slopes_split_at_the_knot(self):
        """W = t on 16 segments: each segment has slope 1 but its own flux, so the
        pieces split at every knot; read as one piece the numbers agree to roundoff."""
        grid = Grid1D(-1.0, 1.0, 64, "periodic")
        flux = burgers((-1.05, 1.05))
        u0 = np.where(np.abs(grid.centers) < 0.5, 1.0, 0.0)
        knots = np.linspace(0.0, 1.0, 17)
        traj = solve_path(u0, flux, PiecewiseLinearPath(knots, knots), [0.0, 0.5, 1.0], grid,
                          SolverConfig(record_slabs=True))
        assert len({id(s.fseg) for s in traj.slabs}) == 16
        one = replace(traj, slabs=[replace(s, fseg=traj.slabs[0].fseg) for s in traj.slabs])
        xi = XiGrid(-1.5, 1.5, 60)
        for a, b in zip(accumulate_defects(traj, flux, xi), accumulate_defects(one, flux, xi)):
            assert np.abs(a.values - b.values).max() <= 1e-12
            assert np.abs(a.cons_residual - b.cons_residual).max() <= 1e-12


class TestDefectExactness:
    def test_nonnegative_and_conservative_to_roundoff(self):
        traj = shock_traj()
        xi = XiGrid(-1.5, 1.5, 150)
        defects = accumulate_defects(traj, burgers((-0.5, 1.5)), xi)
        assert defects
        for d in defects:
            assert d.min_value() >= -tol_m(traj.states[0], xi)
            assert np.abs(d.cons_residual).max() <= 1e-11
            assert d.support_excess(1.0) <= 1e-13

    def test_shock_dissipation_rate_oracle(self):
        """A (1, 0) shock dissipates entropy at rate |jump|^3 / 12 per unit
        time; the total defect mass over [0, T] matches within the initial
        smearing layer (~+20 percent at this horizon)."""
        traj = shock_traj(n_cells=400, horizon=0.5)
        xi = XiGrid(-1.5, 1.5, 300)
        defects = accumulate_defects(traj, burgers((-0.5, 1.5)), xi)
        total = sum(d.total_mass() for d in defects)
        exact = 0.5 / 12.0  # T * jump^3 / 12 (both shocks of the square wave... )
        # square wave on periodic domain: one shock at x=0.25; the left edge
        # is a rarefaction and contributes ~0 defect
        assert total == pytest.approx(exact, rel=0.25)

    def test_defect_vanishes_for_smooth_transport(self):
        """Linear advection (flux A(u) = u) moves any profile rigidly without
        entropy production beyond projection noise."""
        grid = Grid1D(-1.0, 1.0, 128, "periodic")
        u0 = np.sin(np.pi * grid.centers)
        flux = FluxModel([builtin("poly:0,1")], (-1.5, 1.5))
        cfg = SolverConfig(record_slabs=True)
        traj = solve_path(u0, flux, identity_path(0.25), [0.0, 0.25], grid, cfg)
        xi = XiGrid(-1.5, 1.5, 100)
        defects = accumulate_defects(traj, flux, xi)
        # advection at CFL < 1 averages neighbours: the defect is O(dx) small
        # in total mass but still strictly nonnegative and conservative
        for d in defects:
            assert d.min_value() >= -tol_m(traj.states[0], xi)
            assert np.abs(d.cons_residual).max() <= 1e-11

    def test_kf_bounds_report(self):
        traj = shock_traj()
        xi = XiGrid(-1.5, 1.5, 150)
        defects = accumulate_defects(traj, burgers((-0.5, 1.5)), xi)
        rep = check_kf_bounds(defects, traj.states[0])
        assert rep["pass"]
        assert rep["total_mass"] <= rep["bound_total"] + rep["tol_total"]
        assert rep["xi_mass_max"] <= rep["bound_xi"] + rep["tol_xi"]
        assert rep["cons_residual_max"] <= 1e-11

    def test_requires_recorded_slabs(self):
        grid = Grid1D(-1.0, 1.0, 32, "periodic")
        u0 = np.zeros(32)
        traj = solve_path(u0, burgers(), identity_path(0.1), [0.0, 0.1], grid)
        with pytest.raises(ValueError, match="record_slabs"):
            accumulate_defects(traj, burgers(), XiGrid(-1.0, 1.0, 20))

    def test_output_interval_without_a_step_rejected(self):
        """Outputs 5e-13 apart land on one state with no step between them; a
        field per nonempty interval would pair every later field with the wrong
        snapshots, so the empty interval is rejected by its two outputs."""
        grid = Grid1D(-1.0, 1.0, 100, "periodic")
        flux = burgers((-1.05, 1.05))
        outputs = [0.0, 0.3, 0.3 + 5e-13, 0.6, 1.0]
        traj = solve_path(step_datum(grid, 3), flux, identity_path(1.0), outputs, grid,
                          SolverConfig(record_slabs=True))
        assert traj.times.size == 5
        with pytest.raises(ValueError, match=r"^no solver step between the outputs 0\.3 and "
                                             r"0\.3000000000005$"):
            accumulate_defects(traj, flux, XiGrid(-1.5, 1.5, 60))


class TestAccumulationOracle:
    """`accumulate_defects` against the per-step sum of `defect_from_slab`."""

    def assert_matches_per_step(self, traj, flux, xi):
        defects = accumulate_defects(traj, flux, xi)
        oracle = per_step_defects(traj, flux, xi)
        assert len(defects) == len(oracle)
        for d, (t0, duration, values, cons) in zip(defects, oracle):
            assert d.t0 == t0
            assert d.duration == pytest.approx(duration, rel=1e-14)
            assert np.abs(d.values - values).max() <= 1e-12
            assert np.abs(d.cons_residual - cons).max() <= 1e-12
        return defects

    @pytest.mark.parametrize("bc", ["periodic", "outflow"])
    def test_two_channel_brownian(self, bc):
        grid = Grid1D(-1.0, 1.0, 64, bc)
        flux = from_spec("burgers;cubic", (-1.05, 1.05))
        path = brownian_sample(3, 0.5, 6, 2)
        # 0.5 / 3 is the knot t = 2/12 of the 6-segment path
        outputs = [0.0, 0.5 / 3.0, 0.3, 0.5]
        cfg = SolverConfig(record_slabs=True)
        traj = solve_path(step_datum(grid, 7), flux, path, outputs, grid, cfg)
        defects = self.assert_matches_per_step(traj, flux, XiGrid(-1.3, 1.3, 48))
        assert max(d.values.max() for d in defects) > 1.0

    def test_exact_beyond_the_stencil_values(self):
        """m is exactly 0 where every value of a cell's stencil (the cell and its
        two neighbours, over the slab) lies at or above xi, and exactly the
        conservation residual where every value lies below xi."""
        grid = Grid1D(-1.0, 1.0, 64, "periodic")
        flux = from_spec("burgers;cubic", (-1.05, 1.05))
        path = brownian_sample(1, 0.5, 6, 2)
        cfg = SolverConfig(record_slabs=True)
        traj = solve_path(step_datum(grid, 4), flux, path, [0.0, 0.2, 0.5], grid, cfg)
        xi = XiGrid(-1.3, 1.3, 52)
        checked = [0, 0]
        for k, d in enumerate(accumulate_defects(traj, flux, xi)):
            steps = [s for s in traj.slabs if traj.times[k] < s.t0 + 0.5 * s.dt <= traj.times[k + 1]]
            u = np.stack([s.u0 for s in steps] + [steps[-1].u1])
            lo = np.minimum.reduce([np.roll(u.min(axis=0), r) for r in (-1, 0, 1)])
            hi = np.maximum.reduce([np.roll(u.max(axis=0), r) for r in (-1, 0, 1)])
            below = xi.centers[None, :] <= lo[:, None]
            above = xi.centers[None, :] > hi[:, None]
            assert np.all(d.values[below] == 0.0)
            cons = np.broadcast_to(d.cons_residual[:, None], d.values.shape)
            assert np.array_equal(d.values[above], cons[above])
            checked[0] += below.sum()
            checked[1] += above.sum()
        assert min(checked) > 500

    def test_zero_slope_segment_and_output_on_knot(self):
        grid = Grid1D(-1.0, 1.0, 48, "periodic")
        flux = burgers()
        path = PiecewiseLinearPath([0.0, 0.2, 0.4, 0.6], [0.0, 0.2, 0.2, -0.1])
        traj = solve_path(step_datum(grid, 2), flux, path, [0.0, 0.2, 0.3, 0.6], grid,
                          SolverConfig(record_slabs=True))
        flat = [s for s in traj.slabs if not s.c.any()]
        assert [s.t0 for s in flat] == [0.2, 0.3]
        assert [s.dt for s in flat] == [pytest.approx(0.1)] * 2
        self.assert_matches_per_step(traj, flux, XiGrid(-1.2, 1.2, 40))

    def test_xi_coverage_still_checked(self):
        grid = Grid1D(-1.0, 1.0, 32, "periodic")
        flux = burgers()
        u0 = np.where(np.abs(grid.centers) < 0.3, 0.9, 0.0)
        cfg = SolverConfig(record_slabs=True)
        traj = solve_path(u0, flux, identity_path(0.2), [0.0, 0.2], grid, cfg)
        with pytest.raises(ValueError, match="xi range"):
            accumulate_defects(traj, flux, XiGrid(-0.5, 0.5, 20))

    def test_xi_coverage_sees_every_recorded_state(self):
        """The bound is max |u| over every step's start state and the last end
        state, negative values and steps outside the snapshot span included."""
        grid = Grid1D(-1.0, 1.0, 4, "periodic")
        flux = burgers()
        fseg = SegmentFlux(flux, [1.0])
        xi = XiGrid(-0.5, 0.5, 50)  # covers |u| <= 0.5 - d_xi = 0.48
        quiet = np.array([0.1, -0.2, 0.47, -0.47])

        def accumulate(where, value):
            states = [quiet.copy() for _ in range(4)]
            states[where][where] = value
            slabs = [Slab(0.05 * k, 0.05, fseg, "engquist_osher", states[k], states[k + 1]) for k in range(3)]
            traj = Trajectory(grid, np.array([0.0, 0.1]), [CellState(grid, states[0], 0.0)], slabs)
            return accumulate_defects(traj, flux, xi)

        assert len(accumulate(0, 0.48)) == 1
        for where, value in ((0, 0.49), (1, -0.49), (2, 0.49), (3, -0.49)):  # 2 is past the span
            with pytest.raises(ValueError, match="xi range"):
                accumulate(where, value)

    def test_steps_past_the_last_output_are_left_out(self):
        grid = Grid1D(-1.0, 1.0, 64, "periodic")
        flux = burgers()
        u0 = np.where(np.abs(grid.centers + 0.25) < 0.4, 0.8, 0.0)
        cfg = SolverConfig(record_slabs=True)
        xi = XiGrid(-1.5, 1.5, 60)
        outputs = [0.0, 0.25, 0.5]
        long = accumulate_defects(solve_path(u0, flux, identity_path(1.0), outputs, grid, cfg), flux, xi)
        short = accumulate_defects(solve_path(u0, flux, identity_path(0.5), outputs, grid, cfg), flux, xi)
        assert [d.t0 for d in long] == [0.0, 0.25]
        assert [d.duration for d in long] == [pytest.approx(0.25)] * 2
        for a, b in zip(long, short):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.cons_residual, b.cons_residual)

    def test_steps_before_the_first_output_are_left_out(self):
        grid = Grid1D(-1.0, 1.0, 64, "periodic")
        flux = burgers()
        u0 = np.where(np.abs(grid.centers + 0.25) < 0.4, 0.8, 0.0)
        cfg = SolverConfig(record_slabs=True)
        xi = XiGrid(-1.5, 1.5, 60)
        path = identity_path(1.0)
        late = accumulate_defects(solve_path(u0, flux, path, [0.5, 0.75, 1.0], grid, cfg), flux, xi)
        full = accumulate_defects(solve_path(u0, flux, path, [0.0, 0.5, 0.75, 1.0], grid, cfg), flux, xi)
        assert [d.t0 for d in late] == [0.5, 0.75]
        assert [d.duration for d in late] == [pytest.approx(0.25)] * 2
        for a, b in zip(late, full[1:]):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.cons_residual, b.cons_residual)


# -- the dense (n_cells x n_xi) accumulation over every xi column: the
# reference that the band-limited `_reporting_defect` must equal exactly


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


def assert_identical(a, b):
    """Equal as IEEE numbers, signs of zeros included."""
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def chained_steps(draw):
    """A grid, a xi grid and chained Engquist-Osher steps under 1-3 segment fluxes
    (some with zero slope), with values that include 0, negatives and xi centres."""
    grid = Grid1D(-1.0, 1.0, draw(st.integers(3, 12)), draw(st.sampled_from(["periodic", "outflow"])))
    flux = from_spec(draw(st.sampled_from(["burgers", "burgers;cubic"])), (-1.05, 1.05))
    xi = XiGrid(-1.3, 1.3, draw(st.integers(4, 40)))
    centres = xi.centers[np.abs(xi.centers) <= 1.05].tolist()
    value = st.one_of(st.floats(-1.05, 1.05), st.sampled_from(centres), st.just(0.0))
    n_steps = draw(st.integers(1, 8))
    states = [np.array(draw(st.lists(value, min_size=grid.n_cells, max_size=grid.n_cells)))
              for _ in range(n_steps + 1)]
    slope = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    n_ch = len(flux.channels)
    fsegs = [SegmentFlux(flux, draw(st.lists(slope, min_size=n_ch, max_size=n_ch)))
             for _ in range(draw(st.integers(1, 3)))]
    steps, t = [], 0.0
    for k in range(n_steps):
        dt = draw(st.floats(1e-3, 0.1))
        fseg = fsegs[draw(st.integers(0, len(fsegs) - 1))]
        steps.append(Slab(t, dt, fseg, "engquist_osher", states[k], states[k + 1]))
        t += dt
    return grid, xi, steps


def subnormal_slope_steps():
    """A `chained_steps` draw kept by the example database: one slope component is
    the subnormal 2.2250738585e-313, which made `SegmentFlux` raise in `polyroots`."""
    grid = Grid1D(-1.0, 1.0, 3, "periodic")
    fseg = SegmentFlux(from_spec("burgers;cubic", (-1.05, 1.05)), [1.0, 2.2250738585e-313])
    states = [np.array([0.0, 0.5, -0.25]), np.array([0.1, 0.375, -0.2]), np.array([0.15, 0.3, -0.125])]
    steps = [Slab(0.0, 0.05, fseg, "engquist_osher", states[0], states[1]),
             Slab(0.05, 0.05, fseg, "engquist_osher", states[1], states[2])]
    return grid, XiGrid(-1.3, 1.3, 8), steps


class TestBandLimitedDefect:
    """The band-limited accumulation against the dense reference."""

    @settings(max_examples=150, deadline=None)
    @given(chained_steps())
    @example(subnormal_slope_steps())
    def test_equals_dense_accumulation(self, case):
        grid, xi, steps = case
        got = _reporting_defect(grid, xi, 0.0, steps)
        want = dense_reporting_defect(grid, xi, 0.0, steps)
        assert got.duration == want.duration
        assert_identical(got.values, want.values)
        assert_identical(got.cons_residual, want.cons_residual)

    @settings(max_examples=60, deadline=None)
    @given(chained_steps())
    def test_zero_below_and_residual_above_the_stencil_band(self, case):
        """Band of cell j: the bins (xi centres <= u) of cells j-1, j, j+1 over the
        step states and the end state, neighbours from `Grid1D.pad`."""
        grid, xi, steps = case
        d = _reporting_defect(grid, xi, 0.0, steps)
        bins = np.searchsorted(xi.centers, np.stack([s.u0 for s in steps] + [steps[-1].u1]), "right")
        lo, hi = grid.pad(bins.min(axis=0)), grid.pad(bins.max(axis=0))
        lo = np.minimum(np.minimum(lo[:-2], lo[1:-1]), lo[2:])
        hi = np.maximum(np.maximum(hi[:-2], hi[1:-1]), hi[2:])
        col = np.arange(xi.n)[None, :]
        below, above = col < lo[:, None], col >= hi[:, None]
        assert_identical(d.values[below], np.zeros(below.sum()))
        cons = np.broadcast_to(d.cons_residual[:, None], d.values.shape)
        assert_identical(d.values[above], cons[above])

    @pytest.mark.parametrize("bc", ["periodic", "outflow"])
    @pytest.mark.parametrize("spec, seed", [("burgers", 0), ("burgers;cubic", 1)])
    def test_solver_trajectories_equal_dense(self, bc, spec, seed):
        grid = Grid1D(-1.0, 1.0, 96, bc)
        flux = from_spec(spec, (-1.05, 1.05))
        path = brownian_sample(seed, 0.5, 6, len(flux.channels))
        traj = solve_path(step_datum(grid, seed + 3), flux, path, [0.0, 0.1, 0.3, 0.5], grid,
                          SolverConfig(record_slabs=True))
        xi = XiGrid(-1.3, 1.3, 80)
        defects = accumulate_defects(traj, flux, xi)
        mids = [s.t0 + 0.5 * s.dt for s in traj.slabs]
        for k, d in enumerate(defects):
            steps = [s for s, t in zip(traj.slabs, mids) if traj.times[k] < t <= traj.times[k + 1]]
            want = dense_reporting_defect(grid, xi, d.t0, steps)
            assert_identical(d.values, want.values)
            assert_identical(d.cons_residual, want.cons_residual)


class TestL1Identity:
    def test_sign_step_dissipates_l1_at_unit_rate(self):
        """Datum sgn(x) (left -1, right +1 on the periodic box): the seam at
        the boundary is a stationary shock from +1 down to -1, which eats L1
        mass at rate 2 * m(0-line) with d/dt ||u||_1 = -1 initially."""
        grid = Grid1D(-1.0, 1.0, 400, "periodic")
        u0 = np.sign(grid.centers + 1e-12) * -1.0
        cfg = SolverConfig(record_slabs=True)
        outputs = np.linspace(0.0, 0.2, 5)
        traj = solve_path(u0, burgers(), identity_path(0.2), outputs, grid, cfg)
        xi = XiGrid(-1.5, 1.5, 300)
        defects = accumulate_defects(traj, burgers(), xi)
        rep = check_unpr1(traj, defects)
        assert rep["max_relative"] <= 0.1
        assert rep["lhs"][0] == pytest.approx(-1.0, rel=0.08)

    def test_identity_trivial_for_signed_constant(self):
        grid = Grid1D(-1.0, 1.0, 64, "periodic")
        u0 = np.full(64, 0.5)
        cfg = SolverConfig(record_slabs=True)
        traj = solve_path(u0, burgers(), identity_path(0.3), [0.0, 0.15, 0.3], grid, cfg)
        xi = XiGrid(-1.0, 1.0, 64)
        defects = accumulate_defects(traj, burgers(), xi)
        rep = check_unpr1(traj, defects)
        assert np.abs(rep["lhs"]).max() <= 1e-12
        assert np.abs(rep["rhs"]).max() <= 1e-12


class TestXiRegularity:
    def test_increment_bound(self):
        traj = shock_traj()
        xi = XiGrid(-1.5, 1.5, 150)
        defects = accumulate_defects(traj, burgers((-0.5, 1.5)), xi)
        psi = lambda x, t: np.ones_like(x)
        inc = xi_lipschitz_increments(defects, psi)
        bound = traj.states[0].l1()  # sup|psi| * ||u0||_1, derivative term 0
        assert inc.max() <= bound + 1e-10


class TestKernel:
    @pytest.mark.parametrize("width", [0.0, -1.0])
    def test_width_must_be_positive(self, width):
        with pytest.raises(ValueError, match="kernel width must be positive"):
            KernelRho(width)

    def test_bump_kernel_mass_and_support(self):
        k = default_kernel(0.25)
        z = np.linspace(-0.5, 0.5, 2001)
        mass = np.trapezoid(k.rho(z), z)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert k.rho(np.array([0.26, -0.3]))[0] == 0.0
        # derivative consistent with FD
        h = 1e-6
        zz = np.linspace(-0.2, 0.2, 11)
        fd = (k.rho(zz + h) - k.rho(zz - h)) / (2 * h)
        assert np.allclose(k.drho(zz), fd, atol=1e-4)

    def test_bump_mass_from_fixed_rule(self):
        """The literal is the 256-node Gauss-Legendre rule on B, bit for bit."""
        z, w = np.polynomial.legendre.leggauss(256)
        assert bump_integral() == float(bump_raw(z) @ w) == 1.2069003224378765

    def test_transport_shift_zero_path(self):
        flux = burgers()
        path = PiecewiseLinearPath(np.array([0.0, 1.0]), np.array([[0.0], [0.0]]))
        shift = transport_shift(flux, path, np.array([0.3, -0.7]), 1.0)
        assert np.allclose(shift, 0.0)

    def test_rho_eval_translates(self):
        flux = burgers()
        path = identity_path(1.0)
        k = default_kernel(0.25)
        # a(xi) = xi for burgers: shift = xi * W(t) = 0.3 * 0.5
        v = rho_eval(k, 0.0, 0.15, np.array([0.3]), 0.5, path, flux)
        assert v[0] == pytest.approx(k.rho(np.array([0.0]))[0])


def brute_force_residual(traj, defects, kernel, flux, path, pairs, n_y):
    """The definition residual summed term by term from `rho_eval` and
    `transport_shift`, with the periodic images of the kernel summed."""
    grid, xi = traj.grid, defects[0].xi
    x, xc, dx, length = grid.centers, xi.centers, grid.dx, grid.length
    y = np.linspace(grid.x_lo, grid.x_hi, n_y, endpoint=False)
    images = range(-4, 5)

    def rho(i, t):  # (x, y)
        return sum(rho_eval(kernel, y[None, :] + n * length, x[:, None], xc[i], t, path, flux)
                   for n in images)

    def drho(i, t):
        shift = transport_shift(flux, path, xc[i:i + 1], t)[0]
        return sum(kernel.drho(y[None, :] + n * length - x[:, None] + shift) for n in images)

    out = []
    for psi, phi in pairs:
        r = np.zeros(n_y)
        for k, d in enumerate(defects):
            t0, t1 = d.t0, d.t0 + d.duration
            tm = 0.5 * (t0 + t1)
            chi0 = chi_values(traj.states[k].u, xc)
            chi1 = chi_values(traj.states[k + 1].u, xc)
            w = path.eval(tm)
            for i in range(xi.n):
                a_prime = sum(wc * ch.a_prime(xc[i]) for wc, ch in zip(w, flux.channels))
                g0 = dx * chi0[:, i] @ rho(i, t0)
                g1 = dx * chi1[:, i] @ rho(i, t1)
                h = dx * d.values[:, i] @ rho(i, tm)
                hd = dx * d.values[:, i] @ drho(i, tm)
                r -= (phi.value(t1) - phi.value(t0)) * xi.d_xi * psi.value(xc[i]) * 0.5 * (g0 + g1)
                r += phi.value(tm) * d.duration * xi.d_xi * (
                    psi.deriv(xc[i]) * h + psi.value(xc[i]) * a_prime * hd
                )
        out.append(np.sum(np.abs(r)) * (length / n_y) / (psi.sup * phi.sup * traj.states[0].l1()))
    return out


class TestResidualOracle:
    """A tiny periodic problem, 3 reporting slabs: every phi slab pattern."""

    @pytest.mark.parametrize("phis", [
        [(0.12, 0.07), (0.2, 0.08), (0.15, 0.14)],  # every slab seen by some phi
        [(0.12, 0.07)],  # the last slab is seen by no phi
        [(0.2, 0.08)],  # the first slab is seen by no phi
    ])
    def test_matches_brute_force_sum(self, monkeypatch, phis):
        self.check(monkeypatch, phis, 0.3)

    def test_window_longer_than_the_domain(self, monkeypatch):
        """eta = 0.95 on a domain of length 2 and 24 cells: the kernel window of
        ceil(2 eta / dx) + 2 = 25 cells wraps past the whole periodic domain."""
        self.check(monkeypatch, [(0.12, 0.07), (0.2, 0.08), (0.15, 0.14)], 0.95)

    def check(self, monkeypatch, phis, eta):
        grid = Grid1D(-1.0, 1.0, 24, "periodic")
        flux = from_spec("burgers;cubic", (-1.05, 1.05))
        path = brownian_sample(5, 0.3, 4, 2)
        traj = solve_path(step_datum(grid, 11), flux, path, [0.0, 0.1, 0.2, 0.3], grid,
                          SolverConfig(record_slabs=True))
        defects = accumulate_defects(traj, flux, XiGrid(-1.5, 1.5, 12))
        kernel = default_kernel(eta)
        psis = [(0.3, 0.6), (-0.4, 0.5), (0.0, 1.2)]
        pairs = [(bump_weight(*psi), bump_weight(*phi)) for psi, phi in zip(psis, phis)]
        monkeypatch.setattr(kinetic, "N_Y", 5)
        got = definition_residual(traj, defects, kernel, flux, path, pairs)
        want = brute_force_residual(traj, defects, kernel, flux, path, pairs, 5)
        assert min(want) > 1e-3
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


class TestDefinitionResidual:
    def make(self, n_cells, n_xi=120, horizon=0.4, n_out=9):
        grid = Grid1D(-1.0, 1.0, n_cells, "periodic")
        u0 = np.where(np.abs(grid.centers + 0.25) < 0.4, 0.8, 0.0)
        cfg = SolverConfig(record_slabs=True)
        outputs = np.linspace(0.0, horizon, n_out)
        flux = burgers((-0.5, 1.5))
        traj = solve_path(u0, flux, identity_path(horizon), outputs, grid, cfg)
        xi = XiGrid(-1.5, 1.5, n_xi)
        defects = accumulate_defects(traj, flux, xi)
        return traj, defects, flux

    def test_residual_decreases_under_refinement(self):
        kernel = default_kernel(0.3)
        path = identity_path(0.4)
        pairs = [(bump_weight(0.4, 0.35), bump_weight(0.2, 0.15))]
        vals = []
        for n, nxi in ((50, 60), (100, 120)):
            traj, defects, flux = self.make(n, nxi)
            vals.append(definition_residual(traj, defects, kernel, flux, path, pairs)[0])
        assert vals[1] <= 0.75 * vals[0]

    def test_vacuous_pair_is_zero(self):
        """psi supported at negative xi sees no chi mass for data in [0, 1]."""
        traj, defects, flux = self.make(50, 60)
        pairs = [(bump_weight(-0.8, 0.3), bump_weight(0.2, 0.15))]
        r = definition_residual(traj, defects, default_kernel(0.3), flux, identity_path(0.4), pairs)
        assert r[0] == pytest.approx(0.0, abs=1e-15)

    def test_validation(self):
        traj, defects, flux = self.make(50, 60)
        kernel = default_kernel(0.3)
        path = identity_path(0.4)
        with pytest.raises(ValueError, match="kernel width"):
            definition_residual(traj, defects, default_kernel(1.5), flux, path,
                                [(bump_weight(0.4, 0.3), bump_weight(0.2, 0.1))])
        with pytest.raises(ValueError, match="psi"):
            definition_residual(traj, defects, kernel, flux, path,
                                [(bump_weight(0.0, 2.0), bump_weight(0.2, 0.1))])
        with pytest.raises(ValueError, match="phi"):
            definition_residual(traj, defects, kernel, flux, path,
                                [(bump_weight(0.4, 0.3), bump_weight(0.2, 0.5))])
