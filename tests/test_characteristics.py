"""Characteristic flow, validity windows, and the L1 comparison with local smooth solutions."""
import numpy as np
import pytest

import rough_scl.characteristics as chars
from rough_scl.characteristics import (
    J_FLOOR,
    N_PROBE,
    LocalSmoothSolution,
    characteristic_flow,
    dissipative_check,
    local_solution,
    window,
)
from rough_scl.fluxes import FluxModel, builtin, from_spec
from rough_scl.paths import PiecewiseLinearPath, brownian_sample, identity_path, tent_path
from rough_scl.smooth import Weight, bump_weight
from rough_scl.solver import Grid1D, SolverConfig, solve_path

from reference import assert_bitwise, full_rectangle_evaluate, per_snapshot_k


def burgers(rng=(-2.0, 2.0)):
    return FluxModel([builtin("burgers")], rng)


def linear_datum(slope=0.1, lo=-1.0, hi=1.0):
    """phi(x) = slope * x on [lo, hi]; not compactly supported, used only
    where the flow is probed strictly inside the support."""
    return Weight(
        lambda x: slope * np.asarray(x, dtype=float),
        lambda x: slope * np.ones_like(np.asarray(x, dtype=float)),
        abs(slope) * max(abs(lo), abs(hi)),
        (lo, hi),
    )


class TestFlow:
    def test_identity_at_anchor(self):
        datum = bump_weight(0.0, 0.5, 1.0)
        x0 = np.linspace(-0.4, 0.4, 11)
        x, jac = characteristic_flow(datum, identity_path(1.0), burgers(), 0.3, 0.3, x0)
        assert np.allclose(x, x0)
        assert np.allclose(jac, 1.0)

    def test_plateau_translates_rigidly(self):
        """Constant datum: a(phi) is constant, so x = x0 + a(c) dW and J = 1."""
        datum = Weight(
            lambda x: 0.5 * np.ones_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            0.5,
            (-1.0, 1.0),
        )
        x0 = np.linspace(-0.5, 0.5, 7)
        x, jac = characteristic_flow(datum, identity_path(1.0), burgers(), 0.0, 0.4, x0)
        assert np.allclose(x, x0 + 0.5 * 0.4)
        assert np.allclose(jac, 1.0)

    def test_linear_datum_stretches_linearly(self):
        """phi = x, Burgers ⟹ x = x0 (1 + dW), J = 1 + dW."""
        datum = linear_datum(slope=1.0)
        x0 = np.linspace(-0.3, 0.3, 13)
        x, jac = characteristic_flow(datum, identity_path(1.0), burgers(), 0.0, 0.1, x0)
        assert np.allclose(x, 1.1 * x0)
        assert np.allclose(jac, 1.1)

    @pytest.mark.parametrize("per_time_rows", [False, True])
    def test_array_of_times_matches_per_time_calls(self, per_time_rows):
        datum, path, flux = two_channel_case(2)
        times = np.linspace(0.3, 0.7, 5)
        x0 = np.linspace(-0.45, 0.45, 31)
        if per_time_rows:
            x0 = x0 + 0.01 * np.arange(times.size)[:, None]
        x, jac = characteristic_flow(datum, path, flux, 0.5, times, x0)
        assert x.shape == jac.shape == (times.size, 31)
        for j, t in enumerate(times):
            xj, jj = characteristic_flow(datum, path, flux, 0.5, t, x0[j] if per_time_rows else x0)
            assert np.array_equal(x[j], xj)
            assert np.array_equal(jac[j], jj)

    def test_multichannel_superposition(self):
        flux = from_spec("burgers;cubic", (-2.0, 2.0))
        knots = np.array([0.0, 1.0])
        path = PiecewiseLinearPath(knots, np.array([[0.0, 0.0], [0.25, -0.5]]))
        datum = linear_datum(slope=1.0)
        x0 = np.array([0.2])
        x, jac = characteristic_flow(datum, path, flux, 0.0, 1.0, x0)
        # a1 = u, a2 = u^2 at phi = 0.2, dW = (0.25, -0.5)
        assert x[0] == pytest.approx(0.2 + 0.25 * 0.2 - 0.5 * 0.04)
        assert jac[0] == pytest.approx(1.0 + 0.25 * 1.0 - 0.5 * 2.0 * 0.2)


class TestWindow:
    def test_flat_datum_gives_full_horizon(self):
        datum = Weight(
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            0.0,
            (-1.0, 1.0),
        )
        h = window(datum, identity_path(1.0), burgers(), 0.25)
        assert h == pytest.approx(0.75)

    def test_frozen_path_gives_full_horizon(self):
        datum = bump_weight(0.0, 0.5, 1.0)
        path = PiecewiseLinearPath(np.array([0.0, 1.0]), np.array([[0.0], [0.0]]))
        assert window(datum, path, burgers(), 0.5) == pytest.approx(0.5)

    def test_burgers_linear_clock_oracle(self):
        """For W(t) = t the Jacobian 1 + (t - t0) (a'∘phi) phi' first hits 1/2
        at h = 1 / (2 max |phi'|), exactly where phi' is most negative.  For
        B(z) = exp(1 - 1/(1 - z^2)), max |B'| sits at z = 3^(-1/4)."""
        datum = bump_weight(0.0, 0.5, 1.0)
        h = window(datum, identity_path(2.0), burgers(), 0.0)
        z = 3.0 ** -0.25
        sup_deriv = 2.0 * z / (1.0 - z * z) ** 2 * np.exp(1.0 - 1.0 / (1.0 - z * z)) / 0.5
        expected = 0.5 / sup_deriv
        assert h == pytest.approx(expected, rel=1e-3)

    def test_window_shrinks_with_steeper_data(self):
        path = identity_path(2.0)
        h1 = window(bump_weight(0.0, 0.5, 0.5), path, burgers(), 0.0)
        h2 = window(bump_weight(0.0, 0.5, 1.5), path, burgers(), 0.0)
        assert h2 < h1

    def test_anchor_validation(self):
        datum = bump_weight(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            window(datum, identity_path(1.0), burgers(), 1.5)

    def test_channel_mismatch_rejected(self):
        datum = bump_weight(0.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="channel counts"):
            window(datum, brownian_sample(0, 1.0, 4, 2), burgers(), 0.5)


def two_channel_case(seed):
    """burgers;cubic under a 16-segment two-channel Brownian path on [0, 1]."""
    flux = from_spec("burgers;cubic", (-2.0, 2.0))
    return bump_weight(0.0, 0.5, 0.3), brownian_sample(seed, 1.0, 16, 2), flux


def probe_min_j(datum, path, flux, t0, times):
    """min of J over the window's probe points, at each time."""
    x0 = np.linspace(datum.support[0], datum.support[1], N_PROBE)
    return np.array([characteristic_flow(datum, path, flux, t0, t, x0)[1].min() for t in times])


class TestBrownianWindow:
    """Seeds whose window closes inside a segment two or more knots away from
    the anchor: on the right for seeds 1 and 2, on the left for 8 and 11."""

    T0 = 0.5

    @pytest.mark.parametrize("seed,side", [(1, 1), (2, 1), (8, -1), (11, -1)])
    def test_window_edge_is_exact(self, seed, side):
        datum, path, flux = two_channel_case(seed)
        h = window(datum, path, flux, self.T0)
        assert 0.0 < h < self.T0  # below h_max, and inside [0, 1] on both sides
        edge = self.T0 + side * h
        passed = path.knots[(path.knots - self.T0) * side > 0]
        passed = passed[(edge - passed) * side > 0]
        assert passed.size >= 2
        assert np.min(np.abs(path.knots - edge)) > 1e-6
        inner = np.union1d(np.linspace(self.T0 - h, self.T0 + h, 2001),
                           path.knots[np.abs(path.knots - self.T0) < h])
        assert probe_min_j(datum, path, flux, self.T0, inner).min() >= J_FLOOR - 1e-12
        beyond = probe_min_j(datum, path, flux, self.T0,
                             [self.T0 + side * h * (1 + 1e-9), self.T0 - side * h * (1 + 1e-9)])
        assert beyond[0] < J_FLOOR <= beyond[1]

    @pytest.mark.parametrize("seed", [1, 8])
    def test_evaluate_round_trip(self, seed):
        datum, path, flux = two_channel_case(seed)
        sol = local_solution(datum, path, flux, self.T0)
        lo, hi = sol.window
        x0 = np.linspace(-0.49, 0.49, 97)  # off the probe grid
        for t in np.linspace(lo, hi, 7):
            x, _ = characteristic_flow(datum, path, flux, self.T0, t, x0)
            assert np.allclose(sol.evaluate(x, t), datum.value(x0), rtol=0.0, atol=1e-12)


def batch_cases():
    """The Brownian-window paths with one and two channels, and the identity path."""
    one = (bump_weight(0.0, 0.5, 0.3), brownian_sample(1, 1.0, 16, 1), burgers())
    return {"brownian-1ch": one, "brownian-2ch": two_channel_case(1),
            "identity": (bump_weight(0.0, 0.5, 0.5), identity_path(1.0), burgers()),
            # a(u) = 40 + u carries a support nearly two periods of [-2, 2] either way across its window
            "drifting": (bump_weight(0.0, 0.5, 0.5), identity_path(1.0), from_spec("poly:0,40,0.5", (-2.0, 2.0)))}


class TestBatchedEvaluate:
    T0 = 0.5

    @pytest.mark.parametrize("case", ["brownian-1ch", "brownian-2ch", "identity"])
    def test_batch_equals_stacked_scalar_calls(self, case):
        sol = local_solution(*batch_cases()[case], self.T0)
        lo, hi = sol.window
        times = np.linspace(lo, hi, 17)
        x = np.linspace(-1.0, 1.0, 400)
        batch = sol.evaluate(x, times)
        assert batch.shape == (17, 400)
        assert np.count_nonzero(batch) > 0
        assert np.array_equal(batch, np.stack([sol.evaluate(x, t) for t in times]))

    @pytest.mark.parametrize("case", ["brownian-1ch", "brownian-2ch", "identity"])
    def test_column_range_equals_full_rectangle(self, case):
        """Inverting only the columns some snapshot's support covers gives the bits of
        inverting every (snapshot, column) point."""
        sol = local_solution(*batch_cases()[case], self.T0)
        times = np.linspace(*sol.window, 17)
        x = np.linspace(-1.0, 1.0, 400)
        assert_bitwise(sol.evaluate(x, times), full_rectangle_evaluate(sol, x, times))

    def test_snapshot_covering_no_column(self):
        """Under a(u) = 1 + u the support's ends move at speed 1, so at the window's
        ends it covers one of two columns each and at the anchor neither."""
        datum, path = bump_weight(0.0, 0.1, 0.3), identity_path(1.0)
        sol = local_solution(datum, path, from_spec("poly:0,1,0.5", (-2.0, 2.0)), self.T0)
        lo, hi = sol.window
        x = np.array([-0.1 - 0.5 * sol.h, 0.1 + 0.5 * sol.h])
        got = sol.evaluate(x, [lo, self.T0, hi])
        assert np.count_nonzero(got, axis=1).tolist() == [1, 0, 1]
        assert_bitwise(got, full_rectangle_evaluate(sol, x, [lo, self.T0, hi]))
        far = np.array([2.0, 3.0])  # no snapshot covers any column
        assert_bitwise(sol.evaluate(far, [lo, hi]), np.zeros((2, 2)))
        assert_bitwise(sol.evaluate(far, [lo, hi]), full_rectangle_evaluate(sol, far, [lo, hi]))

    def test_support_covering_every_column(self):
        sol = local_solution(*batch_cases()["identity"], self.T0)
        times = np.linspace(*sol.window, 9)
        x = np.linspace(-0.3, 0.3, 25)  # inside the support [-0.5, 0.5], whose ends stay put
        got = sol.evaluate(x, times)
        assert np.all(got > 0.0)
        assert_bitwise(got, full_rectangle_evaluate(sol, x, times))

    def test_unsorted_x(self):
        sol = local_solution(*batch_cases()["brownian-2ch"], self.T0)
        times = np.linspace(*sol.window, 17)
        x = np.random.default_rng(5).permutation(np.linspace(-1.0, 1.0, 400)).reshape(20, 20)
        got = sol.evaluate(x, times)
        assert got.shape == (17, 20, 20) and np.count_nonzero(got) > 0
        assert_bitwise(got, full_rectangle_evaluate(sol, x, times))

    def test_scalar_time_keeps_shape_of_x(self):
        sol = local_solution(*batch_cases()["identity"], self.T0)
        x = np.linspace(-0.6, 0.6, 24)
        assert sol.evaluate(x, self.T0).shape == (24,)
        grid = sol.evaluate(x.reshape(4, 6), self.T0)
        assert grid.shape == (4, 6)
        assert np.array_equal(grid.ravel(), sol.evaluate(x, self.T0))
        assert sol.evaluate(x.reshape(4, 6), [self.T0]).shape == (1, 4, 6)

    def test_one_time_outside_window_rejected(self):
        sol = local_solution(*batch_cases()["brownian-2ch"], self.T0)
        lo, hi = sol.window
        times = np.array([lo, self.T0, hi + 0.01 * sol.h])
        with pytest.raises(ValueError, match="outside the validity window"):
            sol.evaluate(np.zeros(3), times)

    def test_crossed_characteristics_raise(self):
        """Past the crossing the forward table is not monotone, so np.interp cannot
        invert it; inside the window evaluation still succeeds."""
        datum = bump_weight(0.0, 0.5, 0.5)
        path, flux = identity_path(3.0), FluxModel([builtin("burgers")], (-1.5, 1.5))
        sol = LocalSmoothSolution(datum, path, flux, 0.0, 3.0)
        h = window(datum, path, flux, 0.0)
        x = np.linspace(-1.0, 2.5, 400)
        for t in (1.5, 2.5):
            with pytest.raises(RuntimeError, match="crossed"):
                sol.evaluate(x, t)
        with pytest.raises(RuntimeError, match="crossed"):
            sol.evaluate(x, [0.5 * h, 1.5])
        ok = sol.evaluate(x, np.linspace(0.0, h, 5))
        assert np.max(ok) == pytest.approx(0.5, abs=1e-3)


class TestLocalSolution:
    def test_forward_inverse_round_trip(self):
        datum = bump_weight(0.0, 0.5, 0.8)
        path = tent_path()
        flux = burgers()
        sol = local_solution(datum, path, flux, 0.4)
        lo, hi = sol.window
        t = 0.5 * (0.4 + hi)
        x0 = np.linspace(-0.45, 0.45, 41)
        x, _ = characteristic_flow(datum, path, flux, 0.4, t, x0)
        assert np.allclose(sol.evaluate(x, t), datum.value(x0), atol=1e-9)

    def test_constant_along_characteristics_pde(self):
        """Inside one path segment the solution solves the frozen-flux PDE:
        FD residual u_t + c a(u) u_x = O(h^2) at interior points."""
        datum = bump_weight(0.0, 0.6, 0.6)
        flux = burgers()
        path = identity_path(1.0)
        sol = local_solution(datum, path, flux, 0.0)
        t = min(0.2, 0.5 * sol.h)
        xs = np.linspace(-0.3, 0.3, 25)
        eps = 1e-5
        u = sol.evaluate(xs, t)
        ut = (sol.evaluate(xs, t + eps) - sol.evaluate(xs, t - eps)) / (2 * eps)
        ux = (sol.evaluate(xs + eps, t) - sol.evaluate(xs - eps, t)) / (2 * eps)
        resid = ut + u * ux
        assert np.abs(resid).max() <= 1e-5

    def test_zero_outside_transported_support(self):
        datum = bump_weight(0.0, 0.5, 0.8)
        sol = local_solution(datum, identity_path(1.0), burgers(), 0.0)
        t = 0.5 * sol.h
        (lo, hi), _ = characteristic_flow(datum, sol.path, sol.flux, 0.0, t, np.array(datum.support))
        out = sol.evaluate(np.array([lo - 0.1, hi + 0.1]), t)
        assert np.array_equal(out, np.zeros(2))

    def test_evaluate_outside_window_rejected(self):
        datum = bump_weight(0.0, 0.5, 1.0)
        sol = LocalSmoothSolution(datum, identity_path(2.0), burgers(), 0.0, 0.1)
        with pytest.raises(ValueError):
            sol.evaluate(np.zeros(3), 0.5)


def shock_u0(x):
    return np.where(np.abs(x) < 0.5, 1.0, 0.0)


class TestDissipative:
    def check_inputs(self, u0_fn, datum, t0=0.25, horizon=0.5, case=None):
        """Trajectory and local solution: Burgers under W(t) = t, or a `batch_cases` case."""
        grid = Grid1D(-2.0, 2.0, 200, "periodic")
        _, path, flux = batch_cases()[case] if case else (None, identity_path(horizon), burgers())
        traj = solve_path(u0_fn(grid.centers), flux, path, np.linspace(0.0, path.horizon, 33), grid)
        return traj, local_solution(datum, path, flux, t0)

    def run_check(self, u0_fn, datum, **kwargs):
        return dissipative_check(*self.check_inputs(u0_fn, datum, **kwargs))

    @pytest.mark.parametrize("datum, case", [
        (bump_weight(0.5, 0.4, 0.5), None),
        (bump_weight(0.0, 0.4, 0.0), None),
        (bump_weight(0.0, 0.5, -0.3), "brownian-2ch"),
        (bump_weight(1.8, 0.4, 0.5), None),  # its support crosses x = 2, so Psi wraps round to x = -2
        (bump_weight(0.5, 0.4, 0.5), "drifting"),
    ])
    def test_batched_d_equals_per_snapshot_loop(self, datum, case):
        inputs = self.check_inputs(shock_u0, datum, case=case, t0=0.5 if case else 0.25)
        assert_bitwise(np.array(dissipative_check(*inputs)["distances"]), per_snapshot_k(*inputs))

    def test_shock_data_passes(self):
        datum = bump_weight(0.5, 0.4, 0.5)
        rep = self.run_check(shock_u0, datum)
        assert rep["pass"]
        assert rep["h"] > 0
        assert len(rep["distances"]) >= 2

    def test_support_across_the_edge_wraps(self):
        """The periodic problem translated by half the period, its datum's support now crossing x = 2,
        reads the same distances as the untranslated one, to roundoff."""
        def shifted(x):
            return shock_u0(np.where(x < 0.0, x + 2.0, x - 2.0))

        plain = self.run_check(shock_u0, bump_weight(0.2, 0.4, 0.5))
        wrapped = self.run_check(shifted, bump_weight(2.2, 0.4, 0.5))  # support [1.8, 2.6]
        assert np.allclose(wrapped["distances"], plain["distances"], rtol=1e-12, atol=0.0)
        assert plain["times"] == wrapped["times"]

    def test_support_wider_than_the_period_rejected(self):
        with pytest.raises(ValueError, match="wider than the period 4"):
            self.run_check(shock_u0, bump_weight(0.0, 2.1, 0.1))

    def test_outflow_grid_rejected(self):
        grid = Grid1D(-2.0, 2.0, 100, "outflow")
        path = identity_path(0.5)
        traj = solve_path(shock_u0(grid.centers), burgers(), path, np.linspace(0.0, 0.5, 17), grid)
        with pytest.raises(ValueError, match="periodic grids only"):
            dissipative_check(traj, local_solution(bump_weight(0.5, 0.4, 0.5), path, burgers(), 0.25))

    @pytest.mark.parametrize("n_snapshots", [17, 65])
    def test_flow_calls_per_window_fixed(self, monkeypatch, n_snapshots):
        """One call for the transported support's ends, then one batched inversion per window: table,
        3 Newton steps, residual."""
        grid = Grid1D(-2.0, 2.0, 100, "periodic")
        path = identity_path(0.5)
        traj = solve_path(np.where(np.abs(grid.centers) < 0.5, 1.0, 0.0), burgers(), path,
                          np.linspace(0.0, 0.5, n_snapshots), grid)
        sol = local_solution(bump_weight(0.5, 0.4, 0.5), path, burgers(), 0.25)
        calls = []
        real = chars.characteristic_flow

        def counted(*args):
            calls.append(args[4])
            return real(*args)

        monkeypatch.setattr(chars, "characteristic_flow", counted)
        rep = dissipative_check(traj, sol)
        assert len(rep["times"]) >= 4
        assert len(calls) == 6
        assert all(np.array_equal(t, rep["times"]) for t in calls)

    def test_schedule_too_coarse_rejected(self):
        grid = Grid1D(-2.0, 2.0, 100, "periodic")
        flux = burgers()
        path = identity_path(0.5)
        u0 = np.where(np.abs(grid.centers) < 0.5, 1.0, 0.0)
        traj = solve_path(u0, flux, path, [0.0, 0.5], grid)
        datum = bump_weight(0.5, 0.3, 1.2)
        with pytest.raises(ValueError, match="snapshots inside"):
            dissipative_check(traj, local_solution(datum, path, flux, 0.25))
