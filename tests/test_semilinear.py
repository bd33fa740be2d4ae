"""Source-term flow map, transformed flux, and the front-position mismatch."""
import math
import warnings

import numpy as np
import pytest

from rough_scl import semilinear
from rough_scl.fluxes import Channel, FluxModel, builtin
from rough_scl.paths import PiecewiseLinearPath, brownian_sample, identity_path
from rough_scl.semilinear import (
    _LOG_MAX,
    MISMATCH_DOMAIN,
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

from reference import assert_bitwise, earlier_linear_flow, earlier_logistic_flow, strang_semilinear_solve

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


def _square_flow(v, s):
    """v / (1 - v s), NaN where 1 - v s <= 0: u' = u^2 blows up at s = 1 / v."""
    den = 1.0 - v * s
    return v / np.where(den > 0.0, den, np.nan)


SQUARE = SourceTerm("sq", lambda u: u * u, _square_flow)
NAMED_SOURCES = [logistic_source(), linear_source(0.7), linear_source(-1.3), zero_source()]


class TestSourceTerm:
    def test_logistic_positive_between_equilibria(self):
        src = logistic_source()
        v = np.linspace(1e-4, 1.0 - 1e-4, 1000)
        assert np.all(src.phi(v) > 0.0)
        assert src.phi(np.asarray(0.0)) == 0.0
        assert src.phi(np.asarray(1.0)) == 0.0


# States on both sides of the logistic equilibria 0 and 1, with signed zeros.
STATES = np.concatenate([[0.0, -0.0, 1.0, 0.5, -0.25, 1.25, 3.0, -3.0000000000000004],
                         np.random.default_rng(1).uniform(-1.0, 2.0, 200)])


def _assert_scalar_times_give_the_rows(source, s, rows):
    """Each time in `s`, as a Python float and as np.float64, gives its row of the array form."""
    for time, row in zip(s.tolist(), rows):
        assert_bitwise(source.flow(STATES, time), row)
        assert_bitwise(source.flow(STATES, np.float64(time)), row)


class TestSourceFlow:
    """Each source's closed-form flow against its definition Phi."""

    @pytest.mark.parametrize("source", NAMED_SOURCES + [SQUARE], ids=lambda s: s.name)
    def test_time_zero_is_the_identity(self, source):
        assert_bitwise(source.flow(STATES, 0.0), STATES)
        assert_bitwise(source.flow(STATES[None], np.zeros((3, 1))), np.tile(STATES, (3, 1)))

    @pytest.mark.parametrize("source", NAMED_SOURCES, ids=lambda s: s.name)
    def test_group_law(self, source):
        """phi_b(phi_a(v)) = phi_{a+b}(v), within each state's existence interval."""
        v = np.linspace(-0.2, 1.3, 31)
        for a, b in ((0.3, -0.45), (-0.7, 0.2), (0.25, 0.5)):
            assert np.max(np.abs(source.flow(source.flow(v, a), b) - source.flow(v, a + b))) <= 1e-13

    @pytest.mark.parametrize("source", NAMED_SOURCES + [SQUARE], ids=lambda s: s.name)
    def test_solves_the_source_ode(self, source):
        """d/ds phi_s(v) = Phi(phi_s(v)), by central differences."""
        v, h = np.linspace(-0.2, 1.3, 31), 1e-5
        for s in (-0.4, 0.0, 0.35):
            fd = (source.flow(v, s + h) - source.flow(v, s - h)) / (2.0 * h)
            assert np.max(np.abs(fd - source.phi(source.flow(v, s)))) <= 1e-7

    @pytest.mark.parametrize("s", [1.0, -1.0, 50.0, -50.0, 0.0, -720.0, -800.0, 800.0])
    def test_logistic_keeps_its_equilibria(self, s):
        """For every finite s, past where e^-s overflows (s < -709.78) or is 0 (s > 745.13) too."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = logistic_source().flow(np.array([0.0, -0.0, 1.0]), s)
        assert_bitwise(out, np.array([0.0, -0.0, 1.0]))

    def test_logistic_is_the_earlier_form_where_that_is_finite(self):
        """On s in [-700, 700], where the earlier form raised no warning, bit for bit: every
        finite value, and NaN past each blow-up; each s as a scalar gives its row."""
        s = np.linspace(-700.0, 700.0, 1401)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = earlier_logistic_flow(STATES, s)
            got = logistic_source().flow(STATES, s)
            _assert_scalar_times_give_the_rows(logistic_source(), s[:, 0], got)
        assert np.isfinite(want).mean() > 0.5
        assert_bitwise(got, want)

    @pytest.mark.parametrize("source", [logistic_source(), linear_source(0.3), linear_source(-2.0)],
                             ids=lambda s: s.name)
    def test_scalar_time_is_the_array_row_at_the_edges(self, source):
        """Signed zero, times that round e^-s to 1, the first s where e^-s is 0, and NaN: a scalar
        time, which skips the fix-ups its value cannot need, gives the bits of the array form."""
        s = np.array([-0.0, 1e-300, -1e-300, 745.5, 800.0, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = source.flow(STATES, s[:, None])
            _assert_scalar_times_give_the_rows(source, s, rows)
        assert_bitwise(rows[0], STATES)

    @pytest.mark.parametrize("s", [-800.0, np.array([[-800.0]])], ids=["scalar", "array"])
    def test_logistic_overflow_below_the_held_exponential_is_quiet(self, s):
        """Below s = -709.78, (1 - v) e^-s overflows for v outside [0, 2]; the infinities give the
        flow's limits, -0 below 0 and NaN (blown up) above 2, with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = logistic_source().flow(np.array([-1.0, 3.0]), s)
        assert_bitwise(np.reshape(out, -1), np.array([-0.0, np.nan]))

    @pytest.mark.parametrize("s", [-800.0, -720.0, -1.0, 0.0, 1.0, 800.0])
    def test_logistic_keeps_the_unit_interval(self, s):
        """States in [0, 1] stay ordered in [0, 1], with no warning, where the earlier form gave
        NaN at 1 (s < -709.78) or at 0 (s > 745.13); in (0, 1) they go below 5.6e-309 v / (1 - v)
        at s = -720 and -800, to 1 at s = 800; 1.5 and 2 have blown up below s = -ln 3."""
        v = np.linspace(0.0, 1.0, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = logistic_source().flow(v, s)
            past = logistic_source().flow(np.array([1.5, 2.0]), s)
        assert out[0] == 0.0 and out[-1] == 1.0
        assert np.all(np.diff(out) >= 0.0)
        if s < -709.78:
            assert np.all(out[1:-1] <= 5.6e-309 * v[1:-1] / (1.0 - v[1:-1]))
        if s == 800.0:
            assert np.all(out[1:] == 1.0)
        assert np.all(np.isnan(past)) == (s < -math.log(3.0))

    @pytest.mark.parametrize("lam", [1.0, -1.0, 3.5, 1e300])
    @pytest.mark.parametrize("s", [0.0, 1.0, -800.0, 800.0, 1e5, -1e308, 1e308])
    def test_linear_keeps_zero(self, lam, s):
        """0 and -0 stay fixed for every finite s, past where e^(lam s) overflows too, with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = linear_source(lam).flow(np.array([0.0, -0.0]), s)
        assert_bitwise(out, np.array([0.0, -0.0]))

    @pytest.mark.parametrize("lam", [1.0, -1.0, 0.3])
    def test_linear_is_the_earlier_form_where_that_is_finite(self, lam):
        """On s in [-700, 700], bit for bit; the earlier form is finite there for these rates.
        Each s as a scalar gives its row."""
        s = np.linspace(-700.0, 700.0, 1401)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = earlier_linear_flow(lam, STATES, s)
            got = linear_source(lam).flow(STATES, s)
            _assert_scalar_times_give_the_rows(linear_source(lam), s[:, 0], got)
        assert np.all(np.isfinite(want))
        assert_bitwise(got, want)

    def test_linear_is_infinite_only_where_it_overflows(self):
        """Past lam s = 709.78, v e^(lam s) is finite where it is below the largest float: within
        1e-13 of e^(x/2) v e^(x/2); infinite, with v's sign, where log|v| + x is above log(max)."""
        v = np.array([1e-300, -1e-300, 5e-324, 1e-10, -0.5, 1.0, 1e300, 0.0])[:, None]
        x = np.array([709.0, 710.0, 800.0, 1000.0, 1400.0, 1700.0, 2500.0, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linear_source(1.0).flow(v, x)
        log_size = np.log(np.abs(np.where(v == 0.0, 1.0, v))) + x
        finite = (v == 0.0) | (log_size < _LOG_MAX - 1e-9)
        assert np.all(np.isfinite(got) == finite) and np.all(np.isinf(got) == ~finite)
        assert np.all(np.sign(got) == np.sign(v))
        near = finite & (x < 1400.0)
        with np.errstate(over="ignore", invalid="ignore"):
            half = np.exp(x / 2.0)
            want = (half * v) * half
        assert np.all(np.abs(got[near] - want[near]) <= 1e-13 * np.abs(want[near]))

    @pytest.mark.parametrize("source, v, blow_up", [
        (logistic_source(), 2.0, -math.log(2.0)), (logistic_source(), -1.0, math.log(2.0)),
        (SQUARE, 2.0, 0.5), (SQUARE, -1.0, -1.0),
    ], ids=["logistic-above-1", "logistic-below-0", "sq-positive", "sq-negative"])
    def test_non_finite_past_a_blow_up(self, source, v, blow_up):
        """Finite on the way to the blow-up time, non-finite at and past it."""
        assert np.all(np.isfinite(source.flow(v, np.linspace(0.0, blow_up, 5, endpoint=False))))
        assert not np.any(np.isfinite(source.flow(v, blow_up * np.array([1.0, 1.5, 4.0]))))


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
        flow = FlowMap(SQUARE, identity_path(1.0))
        with pytest.raises(RuntimeError, match="blew up"):
            flow.psi(np.array([2.0]), 0.9)

    def test_blow_up_guard_on_driver_excursion(self):
        """W~ climbs to 0.9 and returns to 0: Psi(2; 2) = 2 by W~ alone, but the
        path passed the blow-up at W~ = 0.5 on the way."""
        driver = PiecewiseLinearPath([0.0, 1.0, 2.0], [0.0, 0.9, 0.0])
        flow = FlowMap(SQUARE, driver)
        assert flow.psi(np.array([2.0]), 0.3)[0] == pytest.approx(2.0 / (1.0 - 2.0 * 0.27), abs=1e-9)
        with pytest.raises(RuntimeError, match="blew up"):
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

    def test_shock_speed_flows_96_points(self):
        """The speed is A~(1, t): one row of the 32 + 64 nodes, and no A~(0, t) = 0 row."""
        channel, source = builtin("burgers"), logistic_source()
        sizes = []

        def spy(v, s):
            sizes.append(np.size(v))
            return source.flow(v, s)
        speed = transformed_shock_speed(channel, FlowMap(SourceTerm("spy", source.phi, spy), identity_path(1.0)), 1.0)
        assert sizes == [96]
        flow = FlowMap(source, identity_path(1.0))
        assert abs(speed - transformed_flux(channel, flow, [1.0, 0.0], 1.0)[0]) <= 1e-15

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
        """1 and 0 are logistic equilibria: away from the 1/0 front the solve keeps them exactly."""
        grid = Grid1D(-0.5, 1.5, 100, "outflow")
        traj = direct_semilinear_solve(burgers(), logistic_source(), grid, 0.5)
        u, x = traj.states[-1].u, grid.centers
        assert np.all(u[x < -0.25] == 1.0)
        assert np.all(u[x > 1.25] == 0.0)
        assert 0.0 < shock_position(traj.states[-1]) < 0.5

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
    def test_horizon_validated(self, horizon):
        grid = Grid1D(-0.5, 1.5, 50, "outflow")
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            direct_semilinear_solve(burgers(), zero_source(), grid, horizon)

    @pytest.mark.parametrize("n_cells", [400, 800])
    @pytest.mark.parametrize("source, bound", [
        (logistic_source(), 6e-14), (linear_source(0.3), 4e-11), (linear_source(-2.0), 1.5e-13), (zero_source(), 0.0),
    ], ids=["logistic", "linear:0.3", "linear:-2", "zero"])
    def test_fused_march_is_the_strang_march(self, source, bound, n_cells):
        """One flow between two conservation steps moves the states by roundoff: max |du| over the
        snapshots measured 6.4e-15, 4.9e-12 and 1.6e-14, and none for the zero source's copies."""
        grid = Grid1D(*MISMATCH_DOMAIN, n_cells, "outflow")
        traj = direct_semilinear_solve(burgers(), source, grid, 1.0)
        want, _ = strang_semilinear_solve(burgers(), source, grid, 1.0)
        assert [s.t for s in traj.states] == [s.t for s in want]
        for got, ref in zip(traj.states, want):
            if bound == 0.0:
                assert_bitwise(got.u, ref.u)
            assert np.max(np.abs(got.u - ref.u)) <= bound

    @pytest.mark.parametrize("horizon", [1.0, 0.7])
    def test_one_source_flow_per_step_and_per_snapshot(self, monkeypatch, horizon):
        """The Strang march's conservation steps, and one source flow before each of them and one
        at each snapshot reached by a step: steps + 10, against its 2 per step."""
        calls = {"step": 0, "source_ode_step": 0}

        def counted(name):
            fn = getattr(semilinear, name)

            def spy(*args):
                calls[name] += 1
                return fn(*args)
            return spy
        for name in calls:
            monkeypatch.setattr(semilinear, name, counted(name))
        grid = Grid1D(*MISMATCH_DOMAIN, 400, "outflow")
        traj = direct_semilinear_solve(burgers(), logistic_source(), grid, horizon)
        _, steps = strang_semilinear_solve(burgers(), logistic_source(), grid, horizon)
        assert calls["step"] == sum(steps)
        assert calls["source_ode_step"] == sum(steps) + sum(n > 0 for n in steps) == sum(steps) + 10
        times = np.linspace(0.0, horizon, 11)
        assert np.array_equal(traj.times, times)
        assert [s.t for s in traj.states] == times.tolist()

    @pytest.mark.parametrize("source, bound", [(logistic_source(), 0.0), (linear_source(0.3), 4e-15)],
                             ids=["logistic", "linear:0.3"])
    def test_still_flux_gives_the_source_flow(self, source, bound):
        """A flux that does not move takes one step per output interval, as a still segment does in
        `solve_segment`: the state is the source's exact flow of the 1/0 step (measured 0 and 1.3e-15)."""
        grid = Grid1D(*MISMATCH_DOMAIN, 40, "outflow")
        traj = direct_semilinear_solve(FluxModel([Channel("still", [0.7])], (-1.0, 2.0)), source, grid, 1.0)
        u0 = np.where(grid.centers < 0.0, 1.0, 0.0)
        for t, state in zip(traj.times, traj.states):
            assert state.t == t
            assert np.max(np.abs(state.u - source.flow(u0, t))) <= bound

    def test_snapshots_at_eleven_equal_times(self):
        """0 and ten equal steps to the horizon, each state at its label exactly."""
        grid = Grid1D(-0.5, 1.5, 50, "outflow")
        traj = direct_semilinear_solve(burgers(), logistic_source(), grid, 0.7)
        assert np.array_equal(traj.times, np.linspace(0.0, 0.7, 11))
        assert [s.t for s in traj.states] == traj.times.tolist()


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
        rows = mismatch_report(logistic_source(), burgers(), n_cells=400)
        gaps = np.array([r["gap"] for r in rows])
        t = np.array([r["t"] for r in rows])
        assert t[0] > 0.0
        dx = 2.0 / 400
        assert np.all(gaps[t >= 0.5] > 0.0)
        assert gaps[-1] > gaps[0]
        final = rows[-1]
        assert final["speed"] == pytest.approx(LOGISTIC_SPEED_AT_1, abs=1e-8)
        assert final["x_transform"] == pytest.approx(TRANSFORMED_FRONT_AT_1, abs=1e-5)
        assert final["x_direct"] == pytest.approx(0.5, abs=2.0 * dx)

    def test_no_direct_crossing_is_a_run_error(self):
        """At rate -2000 the flowed left state e^(lam t) underflows to 0 by t = 0.4, so no
        state crosses the transform's level there (the demo refuses such a rate first)."""
        with pytest.raises(RuntimeError, match=r"^direct front at t = 0.4, level 0: no level crossing"):
            mismatch_report(linear_source(-2000.0), burgers(), horizon=0.5, n_cells=40)

    def test_zero_source_gap_vanishes(self):
        rows = mismatch_report(zero_source(), burgers(), n_cells=200)
        dx = 2.0 / 200
        for r in rows:
            assert abs(r["gap"]) <= 2.0 * dx + 1e-5
