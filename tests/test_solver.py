"""Finite-volume scheme: stability invariants and exact-solution oracles."""
import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rough_scl.fluxes import FluxModel, SegmentFlux, builtin, from_spec
from rough_scl.paths import PiecewiseLinearPath, brownian_sample, dyadic_refine, identity_path, tent_path
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
        fseg = SegmentFlux(flux, path.slope(k))
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
        u0, flux, path, outputs, grid, config = case
        slabs = []
        traj = solve_path(u0, flux, path, outputs, grid, config, collect=slabs.append)
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
        assert np.all(np.any(path.slopes() != 0.0, axis=1))  # a still segment takes no step
        u0 = np.where(grid.centers < 0.0, 0.8, -0.3)
        outputs = [0.1, 0.45, 0.7]  # off the knots; the march stops at 0.7
        slabs = []
        solve_path(u0, from_spec("burgers;cubic", (-1.5, 1.5)), path, outputs, grid, collect=slabs.append)
        assert calls["step"] == len(slabs) > 16
        assert calls["set_up"] == int(np.sum(path.knots[:-1] < outputs[-1])) == 12


def earlier_pad(grid, a):
    """`Grid1D.pad` in its concatenate form."""
    if grid.bc == "periodic":
        return np.concatenate([a[-1:], a, a[:1]])
    return np.concatenate([a[:1], a, a[-1:]])


def earlier_interface_flux(fs, v, scheme):
    """`SegmentFlux.interface_flux` in its earlier form: `v.min()`/`v.max()`, bounds
    formed per call, numpy-scalar table reads and a `zeros_like` table where F is
    not rising on the one node interval."""
    v = np.asarray(v, dtype=float)
    lo, hi = fs.flux.u_range
    v_min, v_max = v.min(), v.max()
    if not (lo - 1e-9 <= v_min and v_max <= hi + 1e-9):
        raise ValueError(f"state outside certified u_range [{lo}, {hi}]")
    fv = npp.polyval(v, fs._coeffs)
    i = int(fs.breakpoints.searchsorted(v_min, "right"))
    one = i == int(fs.breakpoints.searchsorted(v_max, "right"))
    if scheme == "engquist_osher":
        if one:
            p = fs._pos_cum[i] + (fv - fs._f_nodes[i] if fs._rising[i] else np.zeros_like(fv))
        else:
            idx = fs.breakpoints.searchsorted(v, "right")
            p = fs._pos_cum[idx] + np.where(fs._rising[idx], fv - fs._f_nodes[idx], 0.0)
        return p[..., :-1] + (fv - p)[..., 1:]
    if scheme != "godunov_convex":
        raise ValueError(f"unknown scheme {scheme!r}")
    u_l, u_r = v[..., :-1], v[..., 1:]
    s = np.where(u_l <= u_r, 1.0, -1.0)
    lowest = np.minimum(s * fv[..., :-1], s * fv[..., 1:])
    below, above = (None, None) if one else (np.minimum(u_l, u_r), np.maximum(u_l, u_r))
    for b, fb in zip(fs.breakpoints.tolist(), fs._f_nodes[1:-1].tolist()):
        if not (b <= v_min or v_max <= b):
            np.minimum(lowest, s * fb, out=lowest, where=(below < b) & (b < above))
    return s * lowest


def earlier_step(state, fseg, dt, config=SolverConfig()):
    """`step` in its earlier form: three temporaries and a validated `CellState`.
    The fluxes are `interface_flux`'s, which `test_interface_flux` compares with
    their earlier form."""
    grid = state.grid
    dx = grid.dx
    if dt < 0:
        raise ValueError(f"negative dt={dt:.3e}")
    if fseg.max_speed > 0.0 and dt > config.cfl * dx / fseg.max_speed * (1.0 + 1e-9):
        raise CFLError(f"dt={dt:.3e} exceeds cfl*dx/max_speed={config.cfl * dx / fseg.max_speed:.3e}")
    fh = fseg.interface_flux(earlier_pad(grid, state.u), config.scheme)
    return CellState(grid, state.u - (dt / dx) * (fh[1:] - fh[:-1]), state.t + dt)


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (ValueError, CFLError) as exc:
        return type(exc), str(exc)


def same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    elif isinstance(want, CellState):
        assert type(got) is CellState and got.grid is want.grid and got.t == want.t
        assert type(got.u) is np.ndarray and got.u.dtype == want.u.dtype and got.u.shape == want.u.shape
        assert got.u.tobytes() == want.u.tobytes()
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


FLUX_SPECS = ("burgers", "cubic", "poly:0.1,-0.3,0.2,0.5,-0.25,0.15", "burgers;cubic", "cubic;poly:0,1,-0.5")


@st.composite
def kernel_cases(draw):
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


class TestKernelsMatchEarlierForm:
    """`step`, `Grid1D.pad` and `interface_flux` give the bits of their earlier
    forms: the same values, the same rejections."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases(), st.sampled_from(["engquist_osher", "godunov_convex", "upwind"]))
    def test_interface_flux(self, case, scheme):
        """The same rejections, and the same bits for states that straddle a
        breakpoint.  States in one node interval give F at the upwind state bit for
        bit, within 4 eps max(1, |node tables|) of the earlier form."""
        fs, v = case
        batch = np.stack([v, v[::-1], np.roll(v, 1)])  # fluxes along the last axis
        tol = 4.0 * np.finfo(float).eps * max(1.0, *(float(np.max(np.abs(t)))
                                                     for t in (fs._f_nodes, fs._pos_cum, fs._neg_cum)))
        for states in (v, batch):
            got, want = outcome(fs.interface_flux, states, scheme), outcome(earlier_interface_flux, fs, states, scheme)
            i = fs.breakpoints.searchsorted(states.min(), "right")
            if isinstance(want, tuple) or i != fs.breakpoints.searchsorted(states.max(), "right"):
                same_outcome(got, want)
                continue
            fv = fs.value(states)
            same_outcome(got, fv[..., :-1] if fs._rising[i] else fv[..., 1:])
            assert np.max(np.abs(got - want)) <= tol

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases(), st.sampled_from(["engquist_osher", "godunov_convex"]),
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
            same_outcome(got, earlier_pad(grid, a))
            got[...] = -1
            same_outcome(a, before)
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
