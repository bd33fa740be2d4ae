"""Finite-volume scheme: stability invariants and exact-solution oracles."""
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rough_scl.solver as solver
from rough_scl.fluxes import FluxModel, SegmentFlux, builtin, from_spec
from rough_scl.paths import (PiecewiseLinearPath, brownian_sample, dyadic_refine, identity_path, reduced_path,
                             tent_path)
from rough_scl.smooth import bump_weight
from rough_scl.solver import (
    _TIME_ATOL,
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

from reference import (_cursor_march, assert_bitwise, burgers_riemann_path, earlier_pad, earlier_step,
                       earlier_step_ends, outcome, same_outcome, segment_flux_cases)


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

    def test_negative_dt_rejected(self):
        """A backward step is anti-diffusive: on a 1/0 Burgers shock it leaves [0, 1]."""
        fs = SegmentFlux(burgers(), [1.0])
        state = riemann_state(self.grid, 1.0, 0.0)
        with pytest.raises(ValueError, match="negative dt"):
            step(state, fs, -1e-3)
        out = step(state, fs, 0.0)
        assert np.array_equal(out.u, state.u) and out.t == 0.0

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
        """One ordinary step of the whole span, which moves nothing."""
        grid = Grid1D(-1.0, 1.0, 50, "periodic")
        u = np.sin(np.pi * grid.centers)
        slabs = []
        out = solve_segment(CellState(grid, u, 0.0), SegmentFlux(burgers(), [0.0]), 5.0, collect=slabs.append)
        assert np.array_equal(out.u, u)
        assert out.t == pytest.approx(5.0)
        assert [(slab.t0, slab.dt) for slab in slabs] == [(0.0, 5.0)]


class TestStepEnds:
    """`step_ends` owns the rule that cuts a span into CFL steps, for `solve_segment` and the
    semilinear march alike; a still segment is one ordinary step of its span."""

    @pytest.mark.parametrize("speed", [0.0, 1e-3, 0.5, 1.0, 3.7])
    @pytest.mark.parametrize("t0", [0.0, 0.3, 1.0 / 3.0, 7.1])
    def test_is_the_earlier_inline_rule(self, t0, speed):
        dx, cfl = 2.0 / 48, 0.9
        dt_max = cfl * dx / speed if speed else 0.0375
        durations = [0.0, 1e-13, 0.01, 0.2, 1.0 / 3.0, 5.0]
        for k in (1, 2, 3, 7, 40):
            durations += [k * dt_max + e for e in (0.0, -1e-12, -3e-13, 3e-13, 1e-12)]
        for duration in durations:
            got = solver.step_ends(t0, duration, speed, dx, cfl)
            want = earlier_step_ends(t0, duration, speed, dx, cfl)
            assert_bitwise(np.array(got, dtype=float), np.array(want, dtype=float))

    @pytest.mark.parametrize("path", [PiecewiseLinearPath([0.0, 1.0], [0.0, 0.0]), identity_path(1.0)],
                             ids=["flat", "moving"])
    @pytest.mark.parametrize("value", [np.nan, 5.0])
    def test_state_outside_the_range_refused_on_every_path(self, path, value):
        """Every step checks the range, a still segment's one step too: a NaN datum, or one above u_hi,
        is refused along a flat path as along a moving one."""
        grid = Grid1D(-1.0, 1.0, 16, "periodic")
        with pytest.raises(ValueError, match="state outside certified u_range"):
            solve_path(np.full(16, value), burgers((-1.0, 1.0)), path, [1.0], grid)


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


@st.composite
def march_cases(draw):
    """A Brownian, dyadic or random-knot driver on 1-2 channels, a random datum, both
    schemes and both boundary rules, and outputs drawn from 0, the knots and [0, T]."""
    n_channels = draw(st.integers(1, 2))
    horizon = draw(st.sampled_from([0.3, 1.0, 2.5]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["brownian", "dyadic", "random-knot"]))
    if kind == "brownian":
        path = brownian_sample(seed, horizon, draw(st.integers(1, 8)), n_channels)
    elif kind == "dyadic":
        path = brownian_sample(seed, horizon, 1, n_channels)
        for level in range(1, draw(st.integers(1, 3)) + 1):
            path = dyadic_refine(path, seed, level)
    else:
        inner = draw(st.lists(st.floats(0.0, horizon, exclude_min=True, exclude_max=True),
                              max_size=6, unique=True))
        knots = np.array([0.0, *sorted(inner), horizon])
        assume(np.all(np.diff(knots) > 1e-6))
        steps = rng.normal(0.0, 1.0, (knots.size - 1, n_channels)) * np.sqrt(np.diff(knots))[:, None]
        path = PiecewiseLinearPath(knots, np.vstack([np.zeros((1, n_channels)), np.cumsum(steps, axis=0)]))
    knots = path.knots.tolist()
    picks = draw(st.lists(st.one_of(st.just(0.0), st.sampled_from(knots), st.floats(0.0, horizon)),
                          min_size=1, max_size=6, unique=True))
    outputs = np.array(sorted(picks))
    gaps = np.abs(np.subtract.outer(outputs, np.concatenate([outputs, knots])))
    assume(not np.any((gaps > 0.0) & (gaps <= _TIME_ATOL)))
    grid = Grid1D(-1.0, 1.0, draw(st.integers(8, 24)), draw(st.sampled_from(["periodic", "outflow"])))
    flux = from_spec("burgers" if n_channels == 1 else "burgers;cubic", (-1.5, 1.5))
    config = SolverConfig(scheme=draw(st.sampled_from(["engquist_osher", "godunov_convex"])))
    return rng.uniform(-1.0, 1.0, grid.n_cells), flux, path, outputs, grid, config


class TestLandingRule:
    """`solve_path` reaches each output by one rule: step while the state is more
    than `_TIME_ATOL` short of it, a knot within `_TIME_ATOL` counting as passed."""

    @settings(max_examples=60, deadline=None)
    @given(march_cases())
    def test_bitwise_equal_to_the_cursor_march(self, case):
        """Bit for bit the cursor march, in no more steps than the count checked against the cap."""
        u0, flux, path, outputs, grid, config = case
        slabs, counts = [], []
        check = solver.check_step_cap
        with mock.patch.object(solver, "check_step_cap", lambda what, n: (counts.append(n), check(what, n))):
            traj = solve_path(u0, flux, path, outputs, grid, config, collect=slabs.append)
        assert len(slabs) <= counts[0]
        times, states, ref_slabs = _cursor_march(u0, flux, path, outputs, grid, config)
        assert traj.times.tobytes() == times.tobytes()
        assert [(s.t, s.u.tobytes()) for s in traj.states] == [(s.t, s.u.tobytes()) for s in states]
        assert len(slabs) == len(ref_slabs)
        for a, b in zip(slabs, ref_slabs):
            assert (a.t0, a.dt, a.scheme) == (b.t0, b.dt, b.scheme)
            assert a.c.tobytes() == b.c.tobytes()
            assert a.u0.tobytes() == b.u0.tobytes() and a.u1.tobytes() == b.u1.tobytes()

    @pytest.mark.parametrize("first", [0.0, 0.3])
    def test_near_duplicate_output_takes_no_step(self, first):
        """An output within `_TIME_ATOL` after the state snapshots it, keeping its own label."""
        grid = Grid1D(-1.0, 1.0, 40, "periodic")
        u0 = np.where(grid.centers < 0.0, 1.0, 0.0)
        outputs = [first, first + 5e-13, 0.6]
        slabs, lone = [], []
        traj = solve_path(u0, burgers(), identity_path(1.0), outputs, grid, collect=slabs.append)
        solve_path(u0, burgers(), identity_path(1.0), [first, 0.6], grid, collect=lone.append)
        assert len(slabs) == len(lone)
        assert traj.times.tolist() == outputs
        assert traj.states[0].t == traj.states[1].t == first
        assert np.array_equal(traj.states[0].u, traj.states[1].u)

    def test_output_just_past_a_long_horizon_lands_on_it(self):
        """For T > 1 the validation admits outputs up to T (1 + 1e-12), more than
        `_TIME_ATOL` past T: the march stops at T and snapshots there."""
        grid = Grid1D(-1.0, 1.0, 40, "periodic")
        u0 = np.where(grid.centers < 0.0, 0.5, -0.5)
        path = brownian_sample(3, 4.0, 4)
        past = 4.0 * (1 + 1e-12)
        assert past - 4.0 > _TIME_ATOL
        traj = solve_path(u0, burgers(), path, [1.0, past], grid)
        at_horizon = solve_path(u0, burgers(), path, [1.0, 4.0], grid)
        assert traj.times.tolist() == [1.0, past]
        assert traj.states[-1].t == 4.0
        assert np.array_equal(traj.states[-1].u, at_horizon.states[-1].u)
        with pytest.raises(ValueError, match="within the path horizon"):
            solve_path(u0, burgers(), path, [1.0, 4.0 * (1 + 3e-12)], grid)

    def test_step_cap_counts_the_landings(self, monkeypatch):
        """Landing on dense outputs takes a step per output: at 8 cells, 1000 outputs take 1000 steps
        where the speed alone asks for 18, so the cap is checked on both, before any step."""
        monkeypatch.setattr(solver, "MAX_STEPS", 100)
        grid = Grid1D(-1.0, 1.0, 8, "periodic")
        u0, path = np.where(grid.centers < 0.0, 1.0, 0.0), brownian_sample(0, 1.0, 8)
        monkeypatch.setattr(solver, "step", lambda *a, **k: pytest.fail("stepped"))
        with pytest.raises(ValueError, match=r"^speed bound 7\.38 with dx = 0\.25: the step count is 1027, "
                                             "more than the step cap of 100$"):
            solve_path(u0, burgers(), path, np.linspace(0.0, 1.0, 1001), grid)

    @pytest.mark.parametrize("n, shown", [(101, "101"), (10**30, str(10**30)), (100.5, "100.5"),
                                          (float("inf"), "inf"), (float("nan"), "nan")])
    def test_step_cap_refuses_a_count_above_it_or_nan(self, monkeypatch, n, shown):
        """The one cap check: a count above `MAX_STEPS` (read on the module) or a NaN count is
        refused by name and count, an integer count printed whole; a count at the cap passes."""
        monkeypatch.setattr(solver, "MAX_STEPS", 100)
        solver.check_step_cap("n_cells", 100)
        with pytest.raises(ValueError, match=f"^n_cells is {shown}, more than the step cap of 100$"):
            solver.check_step_cap("n_cells", n)

    @pytest.mark.parametrize("outputs", [[], [np.nan], [0.1, np.nan, 0.5], [0.5, np.inf], [-np.inf, 0.5]])
    def test_empty_or_non_finite_outputs_rejected(self, outputs):
        """A NaN output would otherwise fail every landing comparison and snapshot the datum."""
        grid = Grid1D(-1.0, 1.0, 20, "periodic")
        with pytest.raises(ValueError, match="output times"):
            solve_path(np.zeros(20), burgers(), identity_path(1.0), outputs, grid)

    def test_times_do_not_alias_outputs(self):
        grid = Grid1D(-1.0, 1.0, 20, "periodic")
        outputs = np.array([0.0, 0.5])
        traj = solve_path(np.zeros(20), burgers(), identity_path(1.0), outputs, grid)
        assert not np.shares_memory(traj.times, outputs)
        outputs[0] = 0.25
        assert traj.times.tolist() == [0.0, 0.5]


class TestStepCounting:
    """The benchmark counts cell steps by wrapping the module-level `step` and
    segment set-ups by wrapping `SegmentFlux.__init__`: `solve_path` must reach
    both through those names, once per step and once per solved segment."""

    def test_one_step_call_per_slab_and_one_set_up_per_segment(self, monkeypatch):
        import rough_scl.solver as solver_module

        calls = {"step": 0, "set_up": 0}
        real_step, real_init = solver_module.step, SegmentFlux.__init__

        def counted_step(*args, **kwargs):
            calls["step"] += 1
            return real_step(*args, **kwargs)

        def counted_init(self, *args, **kwargs):
            calls["set_up"] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(solver_module, "step", counted_step)
        monkeypatch.setattr(SegmentFlux, "__init__", counted_init)
        grid = Grid1D(-1.0, 1.0, 64, "periodic")
        path = brownian_sample(5, 1.0, 16, 2)
        assert np.all(np.any(path.slopes() != 0.0, axis=1))  # every segment moves
        u0 = np.where(grid.centers < 0.0, 0.8, -0.3)
        outputs = [0.1, 0.45, 0.7]  # off the knots; the march stops at 0.7
        slabs = []
        solve_path(u0, from_spec("burgers;cubic", (-1.5, 1.5)), path, outputs, grid, collect=slabs.append)
        assert calls["step"] == len(slabs) > 16
        assert calls["set_up"] == int(np.sum(path.knots[:-1] < outputs[-1])) == 12

    @pytest.mark.parametrize("scheme", ["engquist_osher", "godunov_convex"])
    @pytest.mark.parametrize("bc", ["periodic", "outflow"])
    def test_every_scheme_and_boundary_rule(self, monkeypatch, scheme, bc):
        """One `step` call per emitted `Slab`, the still segment's one step included (a still
        segment is an ordinary step of its span), and one `SegmentFlux` per visited segment."""
        import rough_scl.solver as solver_module

        steps, set_ups = [], []
        real_step, real_init = solver_module.step, SegmentFlux.__init__

        def counted_step(state, fseg, *args, **kwargs):
            steps.append(fseg)
            return real_step(state, fseg, *args, **kwargs)

        def counted_init(self, *args, **kwargs):
            set_ups.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(solver_module, "step", counted_step)
        monkeypatch.setattr(SegmentFlux, "__init__", counted_init)
        grid = Grid1D(-1.0, 1.0, 48, bc)
        path = PiecewiseLinearPath([0.0, 0.2, 0.45, 0.7, 1.0], [0.0, 0.3, 0.3, -0.2, 0.1])  # still on [0.2, 0.45]
        u0 = np.where(np.abs(grid.centers) < 0.4, 0.9, -0.2)
        slabs = []
        solve_path(u0, burgers((-1.0, 1.0)), path, [0.1, 0.5, 0.9], grid, SolverConfig(scheme=scheme),
                   collect=slabs.append)
        moving = [slab for slab in slabs if slab.fseg.max_speed > 0.0]
        assert len(moving) == len(slabs) - 1 > 12
        assert [id(fseg) for fseg in steps] == [id(slab.fseg) for slab in slabs]
        assert len({id(slab.fseg) for slab in slabs}) == len(set_ups) == 4


class TestKernelsMatchEarlierForm:
    """`step` and `Grid1D.pad` give the bits of their earlier forms: the same
    values, the same rejections."""

    @settings(max_examples=150, deadline=None)
    @given(segment_flux_cases(), st.sampled_from(["engquist_osher", "godunov_convex"]),
           st.sampled_from(["periodic", "outflow"]), st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.1]))
    def test_step(self, case, scheme, bc, dt_frac):
        fs, v = case
        grid = Grid1D(-1.0, 1.0, v.size, bc)
        state = CellState(grid, v, 0.25)
        config = SolverConfig(scheme=scheme)
        dt = dt_frac * config.cfl * grid.dx / max(fs.max_speed, 1.0)
        same_outcome(outcome(step, state, fs, dt, config), outcome(earlier_step, state, fs, dt, config))

    @pytest.mark.parametrize("bc", ["periodic", "outflow"])
    def test_pad_is_the_concatenate_rule_and_fresh(self, bc):
        grid = Grid1D(0.0, 1.0, 5, bc)
        rng = np.random.default_rng(7)
        for a in (rng.normal(size=5), np.arange(5), rng.normal(size=(5, 3))):
            before = a.copy()
            got = grid.pad(a)
            assert_bitwise(got, earlier_pad(grid, a))
            got[...] = -1
            assert_bitwise(a, before)
            assert grid.pad(a) is not got


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


class TestBurgersRiemannAlongAPath:
    """`reference.burgers_riemann_path`: exact cell averages along a driver."""

    OUTFLOW = Grid1D(-1.0, 1.0, 400, "outflow")  # dx = 0.005: every wave edge below is a cell edge

    @pytest.mark.parametrize("u_l, u_r", [(1.0, 0.0), (0.0, 1.0), (-0.5, 1.0), (1.0, -0.5)])
    def test_is_burgers_riemann_exact_on_the_identity_path(self, u_l, u_r):
        """At t = 0.5 each wave edge is a cell edge, so each cell average is the centre value."""
        got = burgers_riemann_path(u_l, u_r, 0.0, identity_path(0.5), 0.5, self.OUTFLOW)
        want = burgers_riemann_exact(u_l, u_r, self.OUTFLOW.centers, 0.5)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("u_l, u_r", [(1.0, 0.0), (0.0, 1.0)])
    def test_nondecreasing_path_is_the_identity_at_its_value(self, u_l, u_r):
        path = PiecewiseLinearPath([0.0, 0.2, 0.3, 0.7, 1.0], [0.0, 0.1, 0.1, 0.35, 0.5])
        got = burgers_riemann_path(u_l, u_r, 0.0, path, 1.0, self.OUTFLOW)
        want = burgers_riemann_exact(u_l, u_r, self.OUTFLOW.centers, 0.5)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_periodic_pair_on_the_identity_path(self):
        """riemann:1,0 on periodic (-1, 1): a shock from 0 and a fan from the ends, apart."""
        grid = Grid1D(-1.0, 1.0, 400, "periodic")
        x = grid.centers
        want = np.where(x < -0.25, burgers_riemann_exact(0.0, 1.0, x + 1.0, 0.5),
                        burgers_riemann_exact(1.0, 0.0, x, 0.5))
        got = burgers_riemann_path(1.0, 0.0, 0.0, identity_path(0.5), 0.5, grid)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("u_l, u_r", [(1.0, 0.0), (-0.5, 0.75)])
    def test_mass_follows_the_boundary_fluxes(self, seed, u_l, u_r):
        """On an outflow grid d/dt int u = -W'(t) (u_r^2 - u_l^2) / 2 while the waves stay inside,
        whatever the path: every cell of a Brownian driver's fans, to roundoff."""
        grid = Grid1D(-3.0, 3.0, 600, "outflow")
        path = brownian_sample(seed, 1.0, 64)
        for t in (0.3, 0.61, 1.0):
            w = float(path.eval(t)[0])
            u = burgers_riemann_path(u_l, u_r, 0.25, path, t, grid)
            mass0 = u_l * 3.25 + u_r * 2.75
            assert abs(grid.dx * u.sum() - (mass0 - w * (u_r**2 - u_l**2) / 2.0)) <= 1e-12
            assert np.all((min(u_l, u_r) - 1e-12 <= u) & (u <= max(u_l, u_r) + 1e-12))

    @pytest.mark.parametrize("grid, path, range_", [
        (Grid1D(-1.0, 1.0, 40, "periodic"), identity_path(2.5), "[m, M] = [0, 2.5]"),
        (Grid1D(-1.0, 1.0, 40, "periodic"), PiecewiseLinearPath([0.0, 0.5, 1.0], [0.0, -1.2, 0.9]),
         "[m, M] = [-1.2, 0.9]"),
        (Grid1D(-1.0, 1.0, 40, "outflow"), identity_path(3.0), "[m, M] = [0, 3]"),
    ], ids=["periodic-forward", "periodic-range-2.1", "outflow-boundary"])
    def test_raises_naming_the_range(self, grid, path, range_):
        with pytest.raises(ValueError, match=f"driver range {re.escape(range_)}"):
            burgers_riemann_path(1.0, 0.0, 0.0, path, path.horizon, grid)


class TestIrreducibleLegs:
    """For one convex channel the legs that `reduced_path` removes cancel in the exact solution:
    the scheme along the full path converges to the scheme along the reduced one."""

    def test_cancelled_leg_converges_at_first_order(self):
        """0 -> 0.6 -> 0.3 -> 0.8 against 0 -> 0.8, Burgers on a bump, periodic (-1, 1): the L1
        difference at T falls 3.96x and 3.99x per 4x refinement (1.19e-3 at 400 cells)."""
        flux = burgers((-1.05, 1.05))
        three = PiecewiseLinearPath([0.0, 0.4, 0.6, 1.0], [0.0, 0.6, 0.3, 0.8])
        one = reduced_path(three, [1.0])
        assert one.n_segments == 1
        diffs = []
        for n in (400, 1600, 6400):
            grid = Grid1D(-1.0, 1.0, n, "periodic")
            u0 = bump_weight(0.0, 0.5, 1.0).value(grid.centers)
            a, b = (solve_path(u0, flux, p, [1.0], grid).states[0] for p in (three, one))
            diffs.append(l1_distance(a, b))
        assert diffs[0] <= 1.5e-3
        assert all(3.6 <= x / y <= 4.4 for x, y in zip(diffs, diffs[1:])), diffs

    @pytest.mark.parametrize("seed", range(8))
    def test_reduced_legs_are_closer_to_the_exact_solution(self, seed):
        """Criterion 9's config (400 cells, riemann:1,0 on periodic (-1, 1), the level-10 path):
        the largest L1 error over the outputs against the closed form falls from 0.107-0.171 along
        the full path to 0.056-0.083 along its legs (seeds 0-7)."""
        grid, flux = Grid1D(-1.0, 1.0, 400, "periodic"), burgers((-0.5, 1.5))
        outputs = np.linspace(0.0, 1.0, 11)
        path = brownian_sample(seed, 1.0, 16)
        for level in range(5, 11):
            path = dyadic_refine(path, seed, level)
        u0 = np.where(grid.centers < 0.0, 1.0, 0.0)
        exact = [burgers_riemann_path(1.0, 0.0, 0.0, path, t, grid) for t in outputs[1:]]
        errors = []
        for p in (path, reduced_path(path, outputs)):
            states = solve_path(u0, flux, p, outputs, grid).states[1:]
            errors.append(max(grid.dx * np.abs(s.u - e).sum() for s, e in zip(states, exact)))
        assert errors[1] < errors[0], errors
        assert errors[1] <= 0.09 and errors[0] >= 0.1, errors
