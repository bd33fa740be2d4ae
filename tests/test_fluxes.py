"""Flux channels, certified bounds, and exact one-sided integrals."""
import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rough_scl.fluxes import Channel, FluxModel, SegmentFlux, builtin, from_spec


SCHEMES = ("engquist_osher", "godunov_convex")


def burgers_model(rng=(-2.0, 2.0)):
    return FluxModel([builtin("burgers")], rng)


def pair_flux(fs, u_l, u_r, scheme="engquist_osher"):
    """Flux at one interface per (u_l, u_r) pair: each pair is a padded row of two."""
    return fs.interface_flux(np.stack([u_l, u_r], axis=-1), scheme)[..., 0]


class TestBuiltins:
    def test_burgers_values(self):
        ch = builtin("burgers")
        u = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(ch.A(u), [0.5, 0.0, 2.0])
        assert np.allclose(ch.a(u), u)
        assert np.allclose(ch.a_prime(u), 1.0)

    def test_cubic_values(self):
        ch = builtin("cubic")
        u = np.array([-1.0, 0.5, 2.0])
        assert np.allclose(ch.A(u), u**3 / 3.0)
        assert np.allclose(ch.a(u), u**2)
        assert np.allclose(ch.a_prime(u), 2.0 * u)

    def test_poly_spec(self):
        ch = builtin("poly:0,0,0.5")
        assert np.allclose(ch.A(np.array([3.0])), 4.5)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("quartic")

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="degree"):
            builtin("poly:" + ",".join(["1"] * 12))

    def test_callable_channel_rejected(self):
        """A channel is a name and ascending coefficients, nothing else."""
        with pytest.raises(TypeError):
            Channel("x", np.sin, np.cos, lambda u: -np.sin(u))

    @pytest.mark.parametrize("coeffs", [[], [[0.0, 0.5]], np.ones(10)], ids=["empty", "2-D", "degree-9"])
    def test_bad_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="coefficients|degree"):
            Channel("x", coeffs)


class TestFromSpec:
    def test_semicolon_separated(self):
        flux = from_spec("burgers;cubic", (-1.0, 1.0))
        assert flux.n_channels == 2
        assert [c.name for c in flux.channels] == ["burgers", "cubic"]

    def test_poly_commas_survive(self):
        flux = from_spec("poly:0,0,0.5;cubic", (-1.0, 1.0))
        assert flux.n_channels == 2
        assert np.allclose(flux.channels[0].A(np.array([2.0])), 2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            from_spec(" ; ", (-1.0, 1.0))


class TestCertifiedBounds:
    def test_burgers_lipschitz_exact(self):
        flux = burgers_model((-2.0, 3.0))
        # a(u) = u: sup |a| = 3 on [-2, 3]
        assert flux.lip_a[0] == pytest.approx(3.0)

    def test_cubic_lipschitz_exact(self):
        flux = FluxModel([builtin("cubic")], (-2.0, 3.0))
        # a = u^2 sup 9
        assert flux.lip_a[0] == pytest.approx(9.0)

    def test_interior_extremum_found(self):
        # a(u) = u - u^3/3 from A = u^2/2 - u^4/12 has extrema at u = +-1
        flux = FluxModel([builtin("poly:0,0,0.5,0,-1/12".replace("1/12", str(1 / 12)))], (-2.0, 2.0))
        assert flux.lip_a[0] == pytest.approx(2.0 / 3.0, rel=1e-12)


class TestSegmentFluxExact:
    def test_positive_negative_split_burgers(self):
        fs = SegmentFlux(burgers_model(), [1.0])
        u = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        # P(u) = int_0^u max(z,0) dz, N(u) = int_0^u min(z,0) dz
        assert np.allclose(fs.pos_integral(u), [0.0, 0.0, 0.0, 0.5, 2.0])
        assert np.allclose(fs.neg_integral(u), [2.0, 0.5, 0.0, 0.0, 0.0])

    def test_split_reassembles_flux(self):
        flux = from_spec("burgers;cubic", (-2.0, 2.0))
        fs = SegmentFlux(flux, [0.7, -0.3])
        u = np.linspace(-2.0, 2.0, 41)
        total = fs.pos_integral(u) + fs.neg_integral(u)
        assert np.allclose(total, fs.value(u) - fs.value(np.array([0.0])), atol=1e-12)

    def test_eo_flux_oracles(self):
        fs = SegmentFlux(burgers_model(), [1.0])
        one = np.array([1.0])
        assert pair_flux(fs, one, np.array([0.0]))[0] == pytest.approx(0.5)
        assert pair_flux(fs, -one, one)[0] == pytest.approx(0.0)
        assert pair_flux(fs, np.array([2.0]), np.array([-2.0]))[0] == pytest.approx(4.0)

    def test_eo_reversed_segment(self):
        # c = -1 flips the flux sign, so the upwind split flips roles
        fs = SegmentFlux(burgers_model(), [-1.0])
        u = np.array([1.0])
        # speeds -z <= 0 on [0, 1]: state 1 upwind only from the right slot
        assert pair_flux(fs, u, np.array([0.0]))[0] == pytest.approx(0.0)
        assert pair_flux(fs, np.array([0.0]), u)[0] == pytest.approx(-0.5)

    def test_consistency_eo_equals_flux_on_diagonal(self):
        flux = from_spec("burgers;cubic", (-2.0, 2.0))
        fs = SegmentFlux(flux, [0.5, 1.2])
        u = np.linspace(-1.9, 1.9, 23)
        for scheme in SCHEMES:
            assert np.allclose(pair_flux(fs, u, u, scheme), fs.value(u), atol=1e-12)

    def test_eo_matches_one_sided_integrals(self):
        """P~(u_l) + (F - P~)(u_r) is F(0) + P(u_l) + N(u_r) on a whole padded row."""
        fs = SegmentFlux(from_spec("burgers;cubic", (-2.0, 2.0)), [0.7, -0.4])
        v = np.random.default_rng(1).uniform(-2.0, 2.0, 41)
        split = fs.value(0.0) + fs.pos_integral(v[:-1]) + fs.neg_integral(v[1:])
        assert np.allclose(fs.interface_flux(v, "engquist_osher"), split, rtol=0.0, atol=1e-14)

    def test_godunov_matches_eo_off_transonic_shock(self):
        fs = SegmentFlux(burgers_model(), [1.0])
        rng = np.random.default_rng(0)
        a = rng.uniform(-1.9, 1.9, 400)
        b = rng.uniform(-1.9, 1.9, 400)
        # EO and Godunov agree except when a > sonic > b, where EO keeps
        # both one-sided parts and is strictly more diffusive.
        keep = ~((a > 0.0) & (b < 0.0))
        assert keep.sum() > 100
        g = pair_flux(fs, a[keep], b[keep], "godunov_convex")
        e = pair_flux(fs, a[keep], b[keep])
        assert np.allclose(g, e, atol=1e-12)

    def test_godunov_transonic_shock_below_eo(self):
        fs = SegmentFlux(burgers_model(), [1.0])
        a, b = np.array([1.0]), np.array([-1.0])
        assert pair_flux(fs, a, b, "godunov_convex")[0] == pytest.approx(0.5)
        assert pair_flux(fs, a, b)[0] == pytest.approx(1.0)

    def test_max_speed_is_certified_sup(self):
        flux = from_spec("burgers;cubic", (-2.0, 2.0))
        fs = SegmentFlux(flux, [0.5, -0.25])
        # |c1|*sup|u| + |c2|*sup|u^2| on the hull
        assert fs.max_speed == pytest.approx(0.5 * 2.0 + 0.25 * 4.0)

    def test_out_of_range_rejected(self):
        fs = SegmentFlux(burgers_model((-1.0, 1.0)), [1.0])
        ok = np.array([0.5])
        with pytest.raises(ValueError, match="u_range"):
            pair_flux(fs, np.array([1.5]), ok)
        with pytest.raises(ValueError, match="u_range"):
            pair_flux(fs, ok, np.array([-1.5]), "godunov_convex")
        with pytest.raises(ValueError, match="scheme"):
            pair_flux(fs, ok, ok, "lax_friedrichs")

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-1.9, 1.9), st.floats(-1.9, 1.9), st.floats(-1.9, 1.9))
    def test_eo_monotone_in_both_arguments(self, ul, ur, du):
        """Both fluxes are nondecreasing in the left and nonincreasing in the right slot."""
        fs = SegmentFlux(from_spec("burgers;cubic", (-2.0, 2.0)), [0.8, 0.4])
        lo, hi = sorted((ul, min(1.9, ul + abs(du))))
        l, h, r = np.array([lo]), np.array([hi]), np.array([ur])
        for scheme in SCHEMES:
            assert pair_flux(fs, h, r, scheme)[0] >= pair_flux(fs, l, r, scheme)[0] - 1e-12
            assert pair_flux(fs, r, h, scheme)[0] <= pair_flux(fs, r, l, scheme)[0] + 1e-12


def taylor_sine_model():
    # degree-5 Taylor polynomial of sin u: F' = 1 - u^2/2 + u^4/24 changes
    # sign at u = +-1.593 inside (-3, 3), so F is neither convex nor concave
    ch = Channel("taylor-sine", [0.0, 1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0])
    return FluxModel([ch], (-3.0, 3.0))


class TestExactGodunov:
    """The Godunov flux is min F on [u_l, u_r] or max F on [u_r, u_l] for any F."""

    @pytest.mark.parametrize("flux, c", [
        (from_spec("burgers;cubic", (-2.0, 2.0)), [0.8, 0.4]),
        (from_spec("burgers;cubic", (-2.0, 2.0)), [-0.8, 0.4]),
        (from_spec("burgers;cubic", (-2.0, 2.0)), [0.6, -0.5]),
        (from_spec("burgers;cubic", (-2.0, 2.0)), [-1.0, -0.3]),
        (burgers_model(), [-1.0]),
        (taylor_sine_model(), [1.0]),
        (taylor_sine_model(), [-0.7]),
    ])
    def test_matches_brute_force_extremum(self, flux, c):
        fs = SegmentFlux(flux, c)
        lo, hi = flux.u_range
        rng = np.random.default_rng(7)
        u_l, u_r = rng.uniform(lo, hi, (2, 300))
        g = pair_flux(fs, u_l, u_r, "godunov_convex")
        s = np.linspace(0.0, 1.0, 4001)
        dense = fs.value(u_l[:, None] + s * (u_r - u_l)[:, None])
        brute = np.where(u_l <= u_r, dense.min(axis=1), dense.max(axis=1))
        # the dense grid holds both ends, so it can only miss an interior
        # extremum, by at most O(step^2)
        assert np.all(np.where(u_l <= u_r, g - brute, brute - g) <= 1e-12)
        assert np.allclose(g, brute, rtol=0.0, atol=1e-6)


SIX_ROOTS = np.pi * np.array([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0]) / 6.0


class TestSampledBreakpoints:
    """Breakpoints are the real roots of F' inside hull(u_range, 0)."""

    @pytest.mark.parametrize("c", [1.0, -0.7])
    def test_exact_roots(self, c):
        # degree-7 A with A' vanishing at +-pi/6, +-pi/2, +-5pi/6
        ch = Channel("six-roots", npp.polyint(npp.polyfromroots(SIX_ROOTS)))
        fs = SegmentFlux(FluxModel([ch], (-3.0, 3.0)), [c])
        assert fs.breakpoints.shape == (6,)
        assert np.max(np.abs(fs.breakpoints - SIX_ROOTS)) <= 1e-14

    @pytest.mark.parametrize("c", [1.0, -0.7])
    def test_monotone_channel_has_none(self, c):
        # A(u) = u + u^3/3: F' = c (1 + u^2) never changes sign
        ch = Channel("monotone", [0.0, 1.0, 0.0, 1.0 / 3.0])
        fs = SegmentFlux(FluxModel([ch], (-3.0, 3.0)), [c])
        assert fs.breakpoints.shape == (0,)
        u = np.linspace(-3.0, 3.0, 13)
        one_sided = fs.pos_integral(u) if c > 0 else fs.neg_integral(u)
        assert np.allclose(one_sided, c * (u + u**3 / 3.0), rtol=0.0, atol=1e-12)


class TestReparametrization:
    def test_doubling_slope_doubles_flux_split(self):
        flux = from_spec("burgers;cubic", (-2.0, 2.0))
        f1 = SegmentFlux(flux, [0.6, -0.2])
        f2 = SegmentFlux(flux, [1.2, -0.4])
        u = np.linspace(-1.9, 1.9, 17)
        assert np.allclose(2.0 * f1.pos_integral(u), f2.pos_integral(u), atol=1e-11)
        assert np.allclose(2.0 * f1.neg_integral(u), f2.neg_integral(u), atol=1e-11)
