"""Source-term flow map, transformed flux, and the front-position mismatch."""
import math

import numpy as np
import pytest

from rough_scl.fluxes import FluxModel, builtin
from rough_scl.paths import PiecewiseLinearPath, brownian_sample, identity_path
from rough_scl.semilinear import (
    FlowMap,
    SourceTerm,
    direct_semilinear_solve,
    linear_source,
    logistic_source,
    mismatch_report,
    shock_position,
    source_ode_step,
    transformed_flux,
    transformed_shock_position,
    transformed_shock_speed,
    zero_source,
)
from rough_scl.solver import CellState, Grid1D

# Logistic flow Psi(v; t) = v e^t / (1 - v + v e^t); closed-form anchors.
LOGISTIC_SPEED_AT_1 = math.e * (math.e - 2.0) / (math.e - 1.0) ** 2
TRANSFORMED_FRONT_AT_1 = 0.581976706869246  # int_0^1 speed(tau) dtau


def logistic_g(s):
    """Transformed Burgers front speed at driver value s: int_0^1 Psi(v; s) dv."""
    if abs(s) < 1e-3:
        return 0.5 + s / 6.0 - s**3 / 180.0
    em1 = math.expm1(s)
    return (1.0 + 1.0 / em1) * (1.0 - s / em1)


def logistic_big_g(s):
    """G(s) = s e^s / (e^s - 1) - 1, the antiderivative of logistic_g with G(0) = 0."""
    if abs(s) < 1e-3:
        return s / 2.0 + s * s / 12.0 - s**4 / 720.0
    return s / -math.expm1(-s) - 1.0


def logistic_front(path, t):
    """Exact int_0^t g(W(tau)) dtau: on each driver piece it is dtau (G(s1) - G(s0)) / ds,
    taken by Simpson's rule on g where |ds| < 1e-3 (error below 1e-15 dtau)."""
    taus = path.restricted_knots(t)
    s = path.eval(taus)[:, 0] - path.eval(0.0)[0]
    x = 0.0
    for dtau, s0, s1 in zip(np.diff(taus), s[:-1], s[1:]):
        if abs(s1 - s0) < 1e-3:
            x += dtau * (logistic_g(s0) + 4.0 * logistic_g(0.5 * (s0 + s1)) + logistic_g(s1)) / 6.0
        else:
            x += dtau * (logistic_big_g(s1) - logistic_big_g(s0)) / (s1 - s0)
    return x


def logistic_exact(v, t):
    et = math.exp(t)
    return v * et / (1.0 - v + v * et)


def burgers(rng=(-0.5, 1.5)):
    return FluxModel([builtin("burgers")], rng)


class TestSourceTerm:
    def test_logistic_positive_between_equilibria(self):
        src = logistic_source()
        v = np.linspace(1e-4, 1.0 - 1e-4, 1000)
        assert np.all(src.phi(v) > 0.0)
        assert src.phi(np.asarray(0.0)) == 0.0
        assert src.phi(np.asarray(1.0)) == 0.0


class TestFlowMap:
    def test_logistic_matches_closed_form(self):
        flow = FlowMap(logistic_source(), identity_path(2.0))
        v = np.linspace(0.05, 0.95, 19)
        for t in (0.3, 1.0, 2.0):
            assert np.allclose(flow.psi(v, t), logistic_exact(v, t), atol=1e-8)

    def test_midpoint_value(self):
        assert FlowMap(logistic_source(), identity_path(1.0)).psi(0.5, 1.0)[0] == pytest.approx(
            math.e / (1.0 + math.e), abs=1e-10
        )

    @pytest.mark.parametrize("n_segments", [8, 1024])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_logistic_along_brownian_driver(self, seed, n_segments):
        """Psi(v; t) = v e^W / (1 + v (e^W - 1)) at W = W~(t); W~ goes negative
        at some output time for seed 2 at 8 segments and every seed at 1024."""
        path = brownian_sample(seed, 1.0, n_segments, 1)
        times = np.linspace(0.0, 1.0, 11)
        v = np.linspace(0.0, 1.0, 101)
        grow = np.exp(path.eval(times)[:, 0])[:, None]
        exact = v * grow / (1.0 + v * (grow - 1.0))
        out = FlowMap(logistic_source(), path).psi_at_times(v, times)
        assert np.max(np.abs(out - exact)) <= 1e-12

    def test_flow_property(self):
        flow = FlowMap(logistic_source(), identity_path(2.0))
        v = np.linspace(0.1, 0.9, 9)
        once = flow.psi(flow.psi(v, 0.7), 0.55)
        direct = flow.psi(v, 1.25)
        assert np.allclose(once, direct, atol=1e-7)

    def test_order_preserved(self):
        flow = FlowMap(logistic_source(), identity_path(1.0))
        v = np.linspace(0.0, 1.0, 33)
        out = flow.psi(v, 1.0)
        assert np.all(np.diff(out) > 0)

    def test_down_leg_inverts_up_leg(self):
        """Driver goes up to 1 then back to 0: Psi returns to the identity."""
        knots = np.array([0.0, 1.0, 2.0])
        driver = PiecewiseLinearPath(knots, np.array([[0.0], [1.0], [0.0]]))
        flow = FlowMap(logistic_source(), driver)
        v = np.linspace(0.1, 0.9, 9)
        assert np.allclose(flow.psi(v, 2.0), v, atol=1e-8)

    def test_psi_at_times_batches(self):
        flow = FlowMap(logistic_source(), identity_path(1.0))
        times = np.array([0.0, 0.25, 1.0])
        out = flow.psi_at_times(np.array([0.5]), times)
        assert out.shape == (3, 1)
        assert out[0, 0] == 0.5
        assert out[2, 0] == pytest.approx(logistic_exact(0.5, 1.0), abs=1e-8)

    def test_blow_up_guard(self):
        # dy = y^2 dt from y=2 blows up at t = 0.5
        src = SourceTerm("sq", lambda u: u * u)
        flow = FlowMap(src, identity_path(1.0))
        with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="blew up"):
            flow.psi(np.array([2.0]), 0.9)

    def test_blow_up_guard_on_driver_excursion(self):
        """W~ climbs to 0.9 and returns to 0: Psi(2; 2) = 2 by W~ alone, but the
        path passed the blow-up at W~ = 0.5 on the way."""
        src = SourceTerm("sq", lambda u: u * u)
        driver = PiecewiseLinearPath([0.0, 1.0, 2.0], [0.0, 0.9, 0.0])
        flow = FlowMap(src, driver)
        assert flow.psi(np.array([2.0]), 0.3)[0] == pytest.approx(2.0 / (1.0 - 2.0 * 0.27), abs=1e-9)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError, match="blew up"):
            flow.psi(np.array([2.0]), 2.0)

    def test_source_ode_step_linear_exact(self):
        out = source_ode_step(linear_source(0.7), np.array([2.0, -1.0]), 0.5)
        assert np.allclose(out, np.array([2.0, -1.0]) * math.exp(0.35), atol=1e-10)


class TestTransformedFlux:
    def test_t_zero_recovers_flux(self):
        flow = FlowMap(logistic_source(), identity_path(1.0))
        ch = builtin("burgers")
        v = np.linspace(-0.25, 1.0, 11)
        assert np.allclose(transformed_flux(ch, flow, v, 0.0), v**2 / 2.0, atol=1e-9)

    def test_v_derivative_is_speed_of_transformed_state(self):
        flow = FlowMap(logistic_source(), identity_path(1.0))
        ch = builtin("burgers")
        v = np.array([0.2, 0.5, 0.8])
        eps = 1e-5
        fd = (
            transformed_flux(ch, flow, v + eps, 1.0) - transformed_flux(ch, flow, v - eps, 1.0)
        ) / (2 * eps)
        assert np.allclose(fd, flow.psi(v, 1.0), atol=1e-5)

    def test_shock_speed_closed_form(self):
        flow = FlowMap(logistic_source(), identity_path(1.0))
        s1 = transformed_shock_speed(builtin("burgers"), flow, 1.0)
        assert s1 == pytest.approx(LOGISTIC_SPEED_AT_1, abs=1e-8)

    def test_front_position_exceeds_source_free_line(self):
        """Phi > 0 on (0,1) pushes interior values up, so the transformed
        front moves faster than t/2 for t > 0 and hits the frozen value."""
        flow = FlowMap(logistic_source(), identity_path(1.0))
        x = transformed_shock_position(builtin("burgers"), flow, 1.0)
        assert x > 0.5
        assert x == pytest.approx(TRANSFORMED_FRONT_AT_1, abs=1e-5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "name", [f"brownian-{seed}-{n}" for seed in range(3) for n in (8, 64, 1024)]
        + ["zero-slope", "below-zero", "identity"],
    )
    def test_front_position_matches_closed_form(self, name):
        """Burgers, logistic source: x(0.9) against the exact piecewise G form,
        on Brownian drivers, a driver with zero-slope pieces and one that dips
        below 0; on the identity driver x(1) = 1 / (e - 1)."""
        kind, *args = name.split("-")
        t = 0.9
        if kind == "brownian":
            path = brownian_sample(int(args[0]), 1.0, int(args[1]), 1)
        elif kind == "zero":  # one exactly flat piece, one flat up to roundoff (5.6e-17)
            path = PiecewiseLinearPath([0.0, 0.2, 0.4, 0.6, 1.0], [0.0, 0.3, 0.3, 0.1 + 0.2, -0.2])
        elif kind == "below":
            path = PiecewiseLinearPath([0.0, 0.3, 0.7, 1.0], [0.0, -0.8, 0.4, -0.3])
        else:
            path, t = identity_path(1.0), 1.0
            assert logistic_front(path, t) == pytest.approx(1.0 / (math.e - 1.0), abs=1e-15)
        x = transformed_shock_position(builtin("burgers"), FlowMap(logistic_source(), path), t)
        assert x == pytest.approx(logistic_front(path, t), abs=1e-10)

    def test_unresolved_rule_raises(self):
        """At W~ = 6 the logistic flow has a boundary layer of width e^-6 in v,
        which 32 Gauss-Legendre nodes do not resolve: both routes say so."""
        driver = PiecewiseLinearPath([0.0, 0.1, 1.0], [0.0, 6.0, 6.0])
        flow = FlowMap(logistic_source(), driver)
        with pytest.raises(RuntimeError, match="transformed flux quadrature did not converge"):
            transformed_shock_speed(builtin("burgers"), flow, 1.0)
        with pytest.raises(RuntimeError, match="front position quadrature did not converge"):
            transformed_shock_position(builtin("burgers"), flow, 1.0)

    def test_zero_source_front_is_source_free(self):
        flow = FlowMap(zero_source(), identity_path(1.0))
        x = transformed_shock_position(builtin("burgers"), flow, 0.8)
        assert x == pytest.approx(0.4, abs=1e-9)


class TestDirectSolve:
    def test_zero_source_shock_line(self):
        grid = Grid1D(-0.5, 1.5, 400, "outflow")
        traj = direct_semilinear_solve(burgers(), zero_source(), grid, 1.0)
        x = shock_position(traj.states[-1])
        assert x == pytest.approx(0.5, abs=2.0 * grid.dx)

    def test_equilibrium_datum_is_steady_modulo_transport(self):
        """u = 1 everywhere is a logistic equilibrium: the solve keeps it."""
        grid = Grid1D(-0.5, 1.5, 100, "outflow")
        traj = direct_semilinear_solve(
            burgers(), logistic_source(), grid, 0.5, u_l=1.0, u_r=1.0, jump=-10.0
        )
        assert np.allclose(traj.states[-1].u, 1.0, atol=1e-12)

    def test_outputs_validated(self):
        grid = Grid1D(-0.5, 1.5, 50, "outflow")
        with pytest.raises(ValueError, match="outputs"):
            direct_semilinear_solve(burgers(), zero_source(), grid, 1.0, outputs=[0.5, 1.0])


class TestShockPosition:
    def test_interpolates_crossing(self):
        grid = Grid1D(0.0, 1.0, 4, "outflow")
        state = CellState(grid, np.array([1.0, 0.8, 0.2, 0.0]), 0.0)
        # crossing between centers 0.375 and 0.625 at level 0.5
        assert shock_position(state) == pytest.approx(0.5)

    def test_monotone_front_required(self):
        grid = Grid1D(0.0, 1.0, 4, "outflow")
        with pytest.raises(ValueError):
            shock_position(CellState(grid, np.ones(4), 0.0))


class TestMismatch:
    def test_logistic_gap_positive_and_growing(self):
        rows = mismatch_report(logistic_source(), burgers(), n_cells=400, n_times=6)
        gaps = np.array([r["gap"] for r in rows])
        t = np.array([r["t"] for r in rows])
        assert t[0] > 0.0
        dx = 2.0 / 400
        assert np.all(gaps[t >= 0.5] > 0.0)
        assert gaps[-1] > gaps[0]
        final = rows[-1]
        assert final["x_transform"] == pytest.approx(TRANSFORMED_FRONT_AT_1, abs=1e-5)
        assert final["x_direct"] == pytest.approx(0.5, abs=2.0 * dx)

    def test_zero_source_gap_vanishes(self):
        rows = mismatch_report(zero_source(), burgers(), n_cells=200, n_times=4)
        dx = 2.0 / 200
        for r in rows:
            assert abs(r["gap"]) <= 2.0 * dx + 1e-5
