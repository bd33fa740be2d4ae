"""Kinetic layer: chi decomposition, nonnegative defect, and weak residuals."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rough_scl.cli import main
from rough_scl.fluxes import FluxModel, SegmentFlux, builtin, from_spec
from rough_scl import kinetic
from rough_scl.kinetic import (
    KernelRho,
    XiGrid,
    _reporting_defect,
    accumulate_defects,
    check_kf_bounds,
    check_unpr1,
    chi_values,
    default_kernel,
    definition_residual,
    tol_m,
)
from rough_scl.paths import PiecewiseLinearPath, brownian_sample, identity_path
from rough_scl.smooth import bump_integral, bump_raw, bump_raw_pair, bump_weight
from rough_scl.solver import CellState, Grid1D, Slab, SolverConfig, Trajectory, solve_path

from reference import (assert_bitwise, dense_reporting_defect, drho, masked_bump_raw, masked_bump_raw_pair,
                       per_step_defects, rho, rho_eval, transport_shift)


def burgers(rng=(-2.0, 2.0)):
    return FluxModel([builtin("burgers")], rng)


def step_datum(grid, seed, n_pieces=6):
    rng = np.random.default_rng(seed)
    edges = np.sort(rng.uniform(grid.x_lo, grid.x_hi, n_pieces - 1))
    return rng.uniform(-1.0, 1.0, n_pieces)[np.searchsorted(edges, grid.centers)]


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

    def test_unchained_steps_rejected(self):
        """Each step must start from the state the previous one ended in: the
        pieces stack their states once and read u1 from the next step's u0."""
        grid = Grid1D(-1.0, 1.0, 8, "periodic")
        flux = burgers()
        fseg = SegmentFlux(flux, [1.0])
        rng = np.random.default_rng(5)
        a, b, c, d = (rng.uniform(-0.5, 0.5, 8) for _ in range(4))
        traj = Trajectory(grid, np.array([0.0, 0.1]), [CellState(grid, a, 0.0)],
                          [Slab(0.0, 0.05, fseg, "engquist_osher", a, b),
                           Slab(0.05, 0.05, fseg, "engquist_osher", c, d)])
        with pytest.raises(ValueError, match=r"^step 1 \(t0 = 0\.05\) does not start from the state "
                                             r"step 0 ended in"):
            accumulate_defects(traj, flux, XiGrid(-1.0, 1.0, 20))
        chained = replace(traj, slabs=[traj.slabs[0], replace(traj.slabs[1], u0=b.copy())])
        assert len(accumulate_defects(chained, flux, XiGrid(-1.0, 1.0, 20))) == 1  # equal copies pass

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
        assert_bitwise(got.values, want.values)
        assert_bitwise(got.cons_residual, want.cons_residual)

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
        assert_bitwise(d.values[below], np.zeros(below.sum()))
        cons = np.broadcast_to(d.cons_residual[:, None], d.values.shape)
        assert_bitwise(d.values[above], cons[above])

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
            assert_bitwise(d.values, want.values)
            assert_bitwise(d.cons_residual, want.cons_residual)


def identity_report(bc, spec, n_xi, u0=None):
    """`check_unpr1` on 200 cells over a 16-segment Brownian driver, sign-step data by default."""
    grid = Grid1D(-1.0, 1.0, 200, bc)
    if u0 is None:
        u0 = np.where(grid.centers < 0.0, 1.0, -1.0)
    flux = from_spec(spec, (-1.0, 1.0))
    path = brownian_sample(0, 0.5, 16, flux.n_channels)
    traj = solve_path(u0, flux, path, np.linspace(0.0, 0.5, 5), grid, SolverConfig(record_slabs=True))
    return check_unpr1(traj, accumulate_defects(traj, flux, XiGrid(-1.5, 1.5, n_xi)))


class TestL1Identity:
    """`check_unpr1`: summed over the cells, each interval's defect balances the change of
    dx sum_x (u - xi)^+ at every xi centre, less the boundary entropy flux on an outflow grid."""

    @pytest.mark.parametrize("n_xi", [200, 201], ids=["xi0-edge", "xi0-centre"])
    @pytest.mark.parametrize("spec", ["burgers", "burgers;cubic", "cubic"])
    @pytest.mark.parametrize("bc", ["periodic", "outflow"])
    def test_holds_to_roundoff(self, bc, spec, n_xi):
        rep = identity_report(bc, spec, n_xi)
        assert rep["residuals"].shape == (4,)
        assert rep["scale"] > 0.0
        assert rep["max_relative"] <= kinetic.IDENTITY_TOL

    def test_identity_trivial_for_signed_constant(self):
        for bc in ("periodic", "outflow"):
            rep = identity_report(bc, "burgers;cubic", 200, u0=np.full(200, 0.5))
            assert rep["max_relative"] == 0.0, bc
            assert not np.any(rep["residuals"]), bc

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
        assert check_unpr1(traj, defects)["max_relative"] <= kinetic.IDENTITY_TOL
        rate = (traj.states[1].l1() - traj.states[0].l1()) / (outputs[1] - outputs[0])
        assert rate == pytest.approx(-1.0, rel=0.08)


class TestIdentityGateCanFail:
    """A defect whose chi part is off by a factor 1 + 1e-3 breaks the identity far above the bound."""

    @staticmethod
    def mutate(monkeypatch):
        chi = kinetic._chi_cumulative
        monkeypatch.setattr(kinetic, "_chi_cumulative", lambda u, xi: chi(u, xi) * (1.0 + 1e-3))

    @pytest.mark.parametrize("bc", ["periodic", "outflow"])
    def test_check_unpr1_reads_above_bound(self, bc, monkeypatch):
        self.mutate(monkeypatch)
        assert identity_report(bc, "burgers;cubic", 200)["max_relative"] > kinetic.IDENTITY_TOL

    @pytest.mark.parametrize("bc", ["periodic", "outflow"])
    def test_kinetic_check_fails_on_identity_clause(self, bc, monkeypatch, tmp_path, capsys):
        cfg = tmp_path / "kinetic.txt"
        cfg.write_text(f"bc = {bc}\nn_cells = 100\nhorizon = 0.5\nn_outputs = 4\n")
        argv = ["kinetic-check", "--out", str(tmp_path / "out"), "--config", str(cfg)]
        assert main(argv) == 0
        capsys.readouterr()
        self.mutate(monkeypatch)
        assert main(argv) == 1
        failed = [ln for ln in capsys.readouterr().out.splitlines() if "failed:" in ln]
        assert any(ln.strip().startswith("failed: kinetic identity residual") for ln in failed), failed


class TestPairing:
    """`check_unpr1` and `definition_residual` take field k as the defect over
    the output interval [times[k], times[k + 1]] of the trajectory."""

    def fields_and_traj(self, field_outputs, traj_outputs, n_cells=32):
        grid = Grid1D(-1.0, 1.0, 32, "periodic")
        u0 = np.where(np.abs(grid.centers + 0.25) < 0.4, 0.8, 0.0)
        flux = burgers((-0.5, 1.5))
        cfg = SolverConfig(record_slabs=True)
        xi = XiGrid(-1.5, 1.5, 40)
        fields = accumulate_defects(solve_path(u0, flux, identity_path(1.0), field_outputs, grid, cfg),
                                    flux, xi)
        other = Grid1D(-1.0, 1.0, n_cells, "periodic")
        u0 = np.where(np.abs(other.centers + 0.25) < 0.4, 0.8, 0.0)
        return fields, solve_path(u0, flux, identity_path(1.0), traj_outputs, other, cfg), flux

    def residual(self, traj, fields, flux):
        pairs = [(bump_weight(0.4, 0.35), bump_weight(0.5, 0.3))]
        return definition_residual(traj, fields, default_kernel(0.3), flux, identity_path(1.0), pairs)

    @pytest.mark.parametrize("field_outputs, traj_outputs, n_cells, message", [
        ([0.0, 0.25, 1.0], [0.0, 0.5, 1.0], 32,
         r"^defect field 1 \(t0 = 0\.25 on Grid1D\(.*\) is not the field of the output interval from 0\.5 on"),
        ([0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 1.0], 32, r"^2 defect fields for 3 output intervals$"),
        ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], 16,
         r"^defect field 0 \(t0 = 0\.0 on Grid1D\(.*n_cells=32.*n_cells=16"),
    ], ids=["other-outputs", "other-count", "other-grid"])
    def test_mismatch_rejected(self, field_outputs, traj_outputs, n_cells, message):
        fields, traj, flux = self.fields_and_traj(field_outputs, traj_outputs, n_cells)
        with pytest.raises(ValueError, match=message):
            check_unpr1(traj, fields)
        with pytest.raises(ValueError, match=message):
            self.residual(traj, fields, flux)

    def test_paired_fields_accepted(self):
        fields, traj, flux = self.fields_and_traj([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
        assert check_unpr1(traj, fields)["residuals"].shape == (2,)
        assert self.residual(traj, fields, flux)[0] > 0.0


class TestXiRegularity:
    def test_increment_bound(self):
        """Q(xi) = sum over slabs of int psi m dx dt with psi = 1 is the summed
        xi-line mass; its increments per unit xi are at most ||u0||_L1 (the
        a priori bound sup|psi| ||u0||_1, the derivative term 0)."""
        traj = shock_traj()
        xi = XiGrid(-1.5, 1.5, 150)
        defects = accumulate_defects(traj, burgers((-0.5, 1.5)), xi)
        q = np.sum([d.xi_line_mass() for d in defects], axis=0)
        inc = np.abs(np.diff(q)) / xi.d_xi
        assert inc.max() <= traj.states[0].l1() + 1e-10


class TestKernel:
    @pytest.mark.parametrize("width", [0.0, -1.0])
    def test_width_must_be_positive(self, width):
        with pytest.raises(ValueError, match="kernel width must be positive"):
            KernelRho(width)

    def test_bump_kernel_mass_and_support(self):
        k = default_kernel(0.25)
        z = np.linspace(-0.5, 0.5, 2001)
        mass = np.trapezoid(rho(k, z), z)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert rho(k, np.array([0.26, -0.3]))[0] == 0.0
        # derivative consistent with FD
        h = 1e-6
        zz = np.linspace(-0.2, 0.2, 11)
        fd = (rho(k, zz + h) - rho(k, zz - h)) / (2 * h)
        assert np.allclose(drho(k, zz), fd, atol=1e-4)

    @pytest.mark.parametrize("fill, inside", [((-0.999, 0.999), 0.976), ((-3.0, 3.0), 0.337)],
                             ids=["mostly-inside", "mostly-outside"])
    def test_bump_is_the_masked_form(self, fill, inside):
        """Bit for bit, signs of zeros included, with no warning escaping, with
        most points inside (-1, 1) or most outside: at +-0, on and next to +-1,
        just outside +-1 where exp overflows, at +-inf and NaN, and where exp
        underflows to a subnormal or 0."""
        tiny = np.sqrt(1.0 - 1.0 / 721.0)  # B = exp(-720), a subnormal
        edge = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
                np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 1.0001, -1.0001, 1e200,
                np.inf, -np.inf, np.nan, tiny, -tiny, np.sqrt(1.0 - 1.0 / 800.0), 0.99999999]
        assert 0.0 < masked_bump_raw(tiny) < np.finfo(float).tiny
        assert masked_bump_raw(np.nextafter(1.0, 0.0)) == 0.0
        z = np.concatenate([edge, np.linspace(*fill, 401)])
        assert np.mean(np.abs(z) < 1.0) == pytest.approx(inside, abs=0.01)
        for zz in (z, z.reshape(1, -1, 1), z[::-1][:, None]):
            assert_bitwise(bump_raw(zz), masked_bump_raw(zz))
            for got, want in zip(bump_raw_pair(zz), masked_bump_raw_pair(zz)):
                assert_bitwise(got, want)

    @pytest.mark.parametrize("z", [0.5, -0.0, 1.0, np.nan])
    def test_bump_of_a_scalar_is_the_masked_form(self, z):
        assert_bitwise(np.asarray(bump_raw(z)), masked_bump_raw(z))
        for got, want in zip(bump_raw_pair(z), masked_bump_raw_pair(z)):
            assert_bitwise(np.asarray(got), want)

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
        assert v[0] == pytest.approx(rho(k, np.array([0.0]))[0])


def brute_force_residual(traj, defects, kernel, flux, path, pairs, n_y):
    """The definition residual summed term by term from the reference `rho_eval`
    and `transport_shift`, with the periodic images of the kernel summed."""
    grid, xi = traj.grid, defects[0].xi
    x, xc, dx, length = grid.centers, xi.centers, grid.dx, grid.length
    y = np.linspace(grid.x_lo, grid.x_hi, n_y, endpoint=False)
    images = range(-4, 5)

    def rho_at(i, t):  # (x, y)
        return sum(rho_eval(kernel, y[None, :] + n * length, x[:, None], xc[i], t, path, flux)
                   for n in images)

    def drho_at(i, t):
        shift = transport_shift(flux, path, xc[i:i + 1], t)[0]
        return sum(drho(kernel, y[None, :] + n * length - x[:, None] + shift) for n in images)

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
                g0 = dx * chi0[:, i] @ rho_at(i, t0)
                g1 = dx * chi1[:, i] @ rho_at(i, t1)
                h = dx * d.values[:, i] @ rho_at(i, tm)
                hd = dx * d.values[:, i] @ drho_at(i, tm)
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

    @pytest.mark.parametrize("n_cells, inside", [(96, 0.929), (24, 0.72)],
                             ids=["96-cells", "24-cells"])
    def test_masked_bump_gives_the_same_bits(self, monkeypatch, n_cells, inside):
        """The bump against the masked form it replaced, in the residual: on 96
        cells 93% of each kernel window lies inside (-1, 1), on 24 cells 72%."""
        args = self.problem([(0.12, 0.07), (0.2, 0.08), (0.15, 0.14)], 0.3, n_cells)
        monkeypatch.setattr(kinetic, "N_Y", 5)
        shares = []
        for name in ("bump_raw", "bump_raw_pair"):
            def spy(z, f=getattr(kinetic, name)):
                shares.append(np.mean(np.abs(z) < 1.0))
                return f(z)
            monkeypatch.setattr(kinetic, name, spy)
        got = definition_residual(*args)
        assert shares and np.allclose(shares, inside, atol=1e-3)
        monkeypatch.setattr(kinetic, "bump_raw", masked_bump_raw)
        monkeypatch.setattr(kinetic, "bump_raw_pair", masked_bump_raw_pair)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in definition_residual(*args)]

    def problem(self, phis, eta, n_cells=24):
        grid = Grid1D(-1.0, 1.0, n_cells, "periodic")
        flux = from_spec("burgers;cubic", (-1.05, 1.05))
        path = brownian_sample(5, 0.3, 4, 2)
        traj = solve_path(step_datum(grid, 11), flux, path, [0.0, 0.1, 0.2, 0.3], grid,
                          SolverConfig(record_slabs=True))
        defects = accumulate_defects(traj, flux, XiGrid(-1.5, 1.5, 12))
        psis = [(0.3, 0.6), (-0.4, 0.5), (0.0, 1.2)]
        pairs = [(bump_weight(*psi), bump_weight(*phi)) for psi, phi in zip(psis, phis)]
        return traj, defects, default_kernel(eta), flux, path, pairs

    def check(self, monkeypatch, phis, eta):
        args = self.problem(phis, eta)
        monkeypatch.setattr(kinetic, "N_Y", 5)
        got = definition_residual(*args)
        want = brute_force_residual(*args, 5)
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
