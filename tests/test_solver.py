"""Finite-volume scheme: stability invariants and exact-solution oracles."""
import numpy as np
import pytest

from rough_scl.fluxes import FluxModel, SegmentFlux, builtin, from_spec
from rough_scl.paths import PiecewiseLinearPath, brownian_sample, identity_path, tent_path
from rough_scl.solver import (
    CellState,
    CFLError,
    Grid1D,
    SolverConfig,
    burgers_riemann_exact,
    composition_check,
    l1_distance,
    solve_path,
    solve_segment,
    step,
)


def burgers(rng=(-2.0, 2.0)):
    return FluxModel([builtin("burgers")], rng)


def riemann_state(grid, u_l, u_r, x_jump=0.0):
    return CellState(grid, np.where(grid.centers < x_jump, u_l, u_r), 0.0)


class TestGridAndState:
    def test_grid_basics(self):
        g = Grid1D(-1.0, 3.0, 8, "periodic")
        assert g.dx == pytest.approx(0.5)
        assert g.length == pytest.approx(4.0)
        assert g.centers[0] == pytest.approx(-0.75)
        assert g.centers[-1] == pytest.approx(2.75)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 8, "periodic")
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 0, "periodic")
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 8, "reflecting")

    def test_state_functionals(self):
        g = Grid1D(0.0, 1.0, 4, "periodic")
        s = CellState(g, np.array([1.0, -1.0, 2.0, 0.0]), 0.0)
        assert s.l1() == pytest.approx(1.0)
        assert s.mass() == pytest.approx(0.5)
        assert s.l2_sq() == pytest.approx(1.5)
        # periodic tv wraps: |−1−1| + |2+1| + |0−2| + |1−0|
        assert s.tv() == pytest.approx(8.0)

    def test_outflow_tv_no_wrap(self):
        g = Grid1D(0.0, 1.0, 4, "outflow")
        s = CellState(g, np.array([1.0, -1.0, 2.0, 0.0]), 0.0)
        assert s.tv() == pytest.approx(7.0)

    def test_shape_mismatch(self):
        g = Grid1D(0.0, 1.0, 4, "periodic")
        with pytest.raises(ValueError):
            CellState(g, np.zeros(5), 0.0)

    def test_l1_distance_requires_same_grid(self):
        a = CellState(Grid1D(0.0, 1.0, 4, "periodic"), np.zeros(4), 0.0)
        b = CellState(Grid1D(0.0, 1.0, 8, "periodic"), np.zeros(8), 0.0)
        with pytest.raises(ValueError):
            l1_distance(a, b)


class TestStepInvariants:
    def setup_method(self):
        self.grid = Grid1D(-1.0, 1.0, 64, "periodic")
        self.flux = from_spec("burgers;cubic", (-1.5, 1.5))

    def test_cfl_refusal(self):
        fs = SegmentFlux(self.flux, [1.0, 1.0])
        state = CellState(self.grid, np.zeros(64), 0.0)
        dt_max = SolverConfig().cfl * self.grid.dx / fs.max_speed
        with pytest.raises(CFLError):
            step(state, fs, 2.0 * dt_max)

    def test_random_data_invariants(self):
        rng = np.random.default_rng(3)
        fs = SegmentFlux(self.flux, [0.8, -0.5])
        for _ in range(5):
            u = rng.uniform(-1.0, 1.0, 64)
            state = CellState(self.grid, u, 0.0)
            dt = 0.9 * self.grid.dx / fs.max_speed
            out = step(state, fs, dt)
            assert out.u.max() <= u.max() + 1e-12
            assert out.u.min() >= u.min() - 1e-12
            assert out.tv() <= state.tv() + 1e-10
            assert out.mass() == pytest.approx(state.mass(), abs=1e-13)

    def test_discrete_l1_contraction(self):
        rng = np.random.default_rng(4)
        fs = SegmentFlux(self.flux, [1.0, 0.3])
        dt = 0.85 * self.grid.dx / fs.max_speed
        for _ in range(5):
            a = CellState(self.grid, rng.uniform(-1.0, 1.0, 64), 0.0)
            b = CellState(self.grid, rng.uniform(-1.0, 1.0, 64), 0.0)
            d0 = l1_distance(a, b)
            d1 = l1_distance(step(a, fs, dt), step(b, fs, dt))
            assert d1 <= d0 + 1e-12


class TestRiemannOracles:
    def test_exact_shock_and_fan(self):
        x = np.array([-1.0, 0.4, 0.6, 2.0])
        assert np.allclose(burgers_riemann_exact(1.0, 0.0, x, 1.0), [1.0, 1.0, 0.0, 0.0])
        fan = burgers_riemann_exact(-1.0, 1.0, x, 1.0)
        assert np.allclose(fan, [-1.0, 0.4, 0.6, 1.0])
        with pytest.raises(ValueError):
            burgers_riemann_exact(1.0, 0.0, x, 0.0)

    def test_solver_tracks_shock(self):
        grid = Grid1D(-1.0, 1.0, 400, "outflow")
        state = riemann_state(grid, 1.0, 0.0)
        out = solve_segment(state, SegmentFlux(burgers(), [1.0]), 0.8)
        exact = burgers_riemann_exact(1.0, 0.0, grid.centers, 0.8)
        err = grid.dx * np.abs(out.u - exact).sum()
        assert err <= 5.0 * grid.dx

    def test_solver_tracks_fan(self):
        grid = Grid1D(-1.0, 1.0, 400, "outflow")
        state = riemann_state(grid, -0.5, 0.5)
        out = solve_segment(state, SegmentFlux(burgers(), [1.0]), 0.8)
        exact = burgers_riemann_exact(-0.5, 0.5, grid.centers, 0.8)
        err = grid.dx * np.abs(out.u - exact).sum()
        assert err <= 0.01

    @pytest.mark.parametrize("scheme", ["engquist_osher", "godunov_convex"])
    def test_descending_driver_mirrors_the_fan(self, scheme):
        """W(t) = -t turns F concave; data (1, -1) open the mirrored fan."""
        grid = Grid1D(-1.0, 1.0, 800, "outflow")
        state = riemann_state(grid, 1.0, -1.0)
        path = PiecewiseLinearPath([0.0, 0.5], [0.0, -0.5])
        cfg = SolverConfig(scheme=scheme)
        traj = solve_path(state.u, burgers((-1.05, 1.05)), path, [0.5], grid, cfg)
        exact = burgers_riemann_exact(-1.0, 1.0, -grid.centers, 0.5)
        err = grid.dx * np.abs(traj.states[-1].u - exact).sum()
        assert err <= 5.0 * grid.dx

    def test_zero_slope_segment_is_identity(self):
        grid = Grid1D(-1.0, 1.0, 50, "periodic")
        u = np.sin(np.pi * grid.centers)
        out = solve_segment(CellState(grid, u, 0.0), SegmentFlux(burgers(), [0.0]), 5.0)
        assert np.array_equal(out.u, u)
        assert out.t == pytest.approx(5.0)


class TestSolvePath:
    def test_snapshots_at_requested_times(self):
        grid = Grid1D(-1.0, 1.0, 100, "periodic")
        u0 = np.where(grid.centers < 0.0, 0.5, -0.5)
        path = tent_path()
        traj = solve_path(u0, burgers(), path, [0.0, 0.7, 1.3, 2.0], grid)
        assert np.allclose(traj.times, [0.0, 0.7, 1.3, 2.0])
        assert np.array_equal(traj.states[0].u, u0)
        assert traj.state_at(1.3).t == pytest.approx(1.3)
        with pytest.raises(KeyError):
            traj.state_at(0.35)

    def test_stops_at_last_output(self):
        """Nothing is solved past the last output: the state and the step count
        equal those of a solve on a path that ends there."""
        grid = Grid1D(-1.0, 1.0, 100, "periodic")
        u0 = np.where(grid.centers < 0.0, 1.0, 0.0)
        t_out = 0.23
        runs = []
        for path in (identity_path(1.0), identity_path(t_out)):
            slabs = []
            traj = solve_path(u0, burgers(), path, [t_out], grid, collect=slabs.append)
            runs.append((traj.states[-1].u, len(slabs), slabs[-1].t0 + slabs[-1].dt))
        (u_long, n_long, t_long), (u_short, n_short, t_short) = runs
        assert np.array_equal(u_long, u_short)
        assert n_long == n_short
        assert t_long == t_short == pytest.approx(t_out)

    def test_tent_path_round_trip_contraction(self):
        """W goes up then back down: the final state is closer to the initial
        state than a genuinely advanced one, and invariants hold throughout."""
        grid = Grid1D(-1.0, 1.0, 200, "periodic")
        rng = np.random.default_rng(11)
        u0 = rng.uniform(-0.9, 0.9, 200)
        traj = solve_path(u0, burgers(), tent_path(), [1.0, 2.0], grid)
        for s in traj.states:
            assert s.u.max() <= u0.max() + 1e-12
            assert s.u.min() >= u0.min() - 1e-12
            assert s.mass() == pytest.approx(grid.dx * u0.sum(), abs=1e-12)

    def test_slab_recording(self):
        grid = Grid1D(-1.0, 1.0, 50, "periodic")
        u0 = np.where(grid.centers < 0.0, 1.0, 0.0)
        cfg = SolverConfig(record_slabs=True)
        traj = solve_path(u0, burgers(), tent_path(), [2.0], grid, cfg)
        assert traj.slabs
        t_edges = [s.t0 for s in traj.slabs] + [traj.slabs[-1].t0 + traj.slabs[-1].dt]
        assert t_edges[0] == pytest.approx(0.0)
        assert t_edges[-1] == pytest.approx(2.0)
        assert all(b - a > 0 for a, b in zip(t_edges, t_edges[1:]))
        # consecutive slabs chain states
        for a, b in zip(traj.slabs, traj.slabs[1:]):
            assert np.array_equal(a.u1, b.u0)

    def test_multichannel_slopes_frozen_per_segment(self):
        grid = Grid1D(-1.0, 1.0, 50, "periodic")
        flux = from_spec("burgers;cubic", (-1.5, 1.5))
        knots = np.array([0.0, 1.0, 2.0])
        vals = np.array([[0.0, 0.0], [1.0, -0.5], [0.5, 0.5]])
        path = PiecewiseLinearPath(knots, vals)
        u0 = np.where(grid.centers < 0.0, 0.8, -0.2)
        cfg = SolverConfig(record_slabs=True)
        traj = solve_path(u0, flux, path, [2.0], grid, cfg)
        cs = {tuple(np.round(s.c, 12)) for s in traj.slabs}
        assert cs == {(1.0, -0.5), (-0.5, 1.0)}


class TestBrownianInvariants:
    """Criteria 1/2 on two-channel Brownian paths, where F changes convexity."""

    @pytest.mark.parametrize("scheme", ["engquist_osher", "godunov_convex"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_max_principle_tv_mass_and_contraction(self, scheme, seed):
        grid = Grid1D(-1.0, 1.0, 200, "periodic")
        flux = from_spec("burgers;cubic", (-1.05, 1.05))
        path = brownian_sample(seed, 1.0, 8, 2)
        rng = np.random.default_rng(seed)
        u_a, u_b = (np.repeat(rng.uniform(-1.0, 1.0, 8), 25) for _ in range(2))
        cfg = SolverConfig(scheme=scheme)
        outputs = np.linspace(0.0, 1.0, 11)
        traj_a = solve_path(u_a, flux, path, outputs, grid, cfg)
        traj_b = solve_path(u_b, flux, path, outputs, grid, cfg)
        for traj, u0 in ((traj_a, u_a), (traj_b, u_b)):
            tv0 = traj.states[0].tv()
            for s in traj.states:
                assert s.u.max() <= u0.max() + 1e-12
                assert s.u.min() >= u0.min() - 1e-12
                assert s.tv() <= tv0 + 1e-10
                assert s.mass() == pytest.approx(grid.dx * u0.sum(), abs=1e-12)
        dist = [l1_distance(a, b) for a, b in zip(traj_a.states, traj_b.states)]
        assert np.max(np.diff(dist)) <= 1e-10


class TestCompositionWithTime:
    def test_quadratic_clock_matches_composed_solution(self):
        """u(x, t) = v(x, W(t)) for W nondecreasing: the path solve along
        W(t) = t^2 agrees with the autonomous solution at tau = W(t)."""
        grid = Grid1D(-1.0, 1.0, 400, "outflow")
        u0 = np.where(grid.centers < -0.5, 1.0, 0.0)
        knots = np.linspace(0.0, 1.0, 65)
        path = PiecewiseLinearPath(knots, (knots**2)[:, None])
        rep = composition_check(burgers(), u0, path, 1.0, grid)
        assert rep["w_t"] == pytest.approx(1.0)
        assert rep["l1_discrepancy"] <= 5.0 * grid.dx
        # shock started at -0.5 and moved by w_t * (u_l + u_r) / 2 = 0.5
        u = rep["state_path"].u
        jump = grid.centers[np.flatnonzero(np.abs(np.diff(u)) > 0.4)[0]]
        assert jump == pytest.approx(0.0, abs=2.5 * grid.dx)

    def test_rejects_nonmonotone_clock(self):
        grid = Grid1D(-1.0, 1.0, 32, "periodic")
        with pytest.raises(ValueError):
            composition_check(burgers(), np.zeros(32), tent_path(), 1.5, grid)

    def test_degenerate_clock_returns_datum(self):
        grid = Grid1D(-1.0, 1.0, 32, "outflow")
        u0 = np.where(grid.centers < 0.0, 1.0, 0.0)
        path = PiecewiseLinearPath(np.array([0.0, 1.0]), np.array([[0.0], [0.0]]))
        rep = composition_check(burgers(), u0, path, 1.0, grid)
        assert rep["l1_discrepancy"] == pytest.approx(0.0, abs=1e-14)


class TestQuarterTurnaroundOracle:
    def test_tent_driver_limit_distance(self):
        """Burgers along the tent driver: up-leg forms a shock from step data
        (1, 0); the down-leg fan does not restore it. The L1 gap from the
        initial state converges to 1/4 as the mesh refines."""
        grid = Grid1D(-1.5, 2.5, 800, "outflow")
        u0 = np.where(grid.centers < 0.0, 1.0, 0.0)
        traj = solve_path(u0, burgers((-0.5, 1.5)), tent_path(), [2.0], grid)
        gap = grid.dx * np.abs(traj.states[-1].u - u0).sum()
        assert gap == pytest.approx(0.25, abs=max(0.02, 5.0 * grid.dx))
