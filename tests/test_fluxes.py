"""Flux channels, certified bounds, and exact one-sided integrals."""
import math

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rough_scl.fluxes import (
    MAX_POLY_DEGREE,
    Channel,
    FluxModel,
    SegmentFlux,
    _horner,
    _horner_plan,
    _real_roots,
    builtin,
    from_spec,
)

from reference import (FLUX_SPECS, NumpyReference, assert_bitwise, outcome, plan_coeffs, same_outcome,
                       segment_flux_cases)


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
        assert np.allclose(npp.polyval(u, ch.coeffs), [0.5, 0.0, 2.0])
        assert np.allclose(ch.a(u), u)
        assert np.allclose(ch.a_prime(u), 1.0)

    def test_cubic_values(self):
        ch = builtin("cubic")
        u = np.array([-1.0, 0.5, 2.0])
        assert np.allclose(npp.polyval(u, ch.coeffs), u**3 / 3.0)
        assert np.allclose(ch.a(u), u**2)
        assert np.allclose(ch.a_prime(u), 2.0 * u)

    def test_poly_spec(self):
        ch = builtin("poly:0,0,0.5")
        assert np.allclose(npp.polyval(3.0, ch.coeffs), 4.5)

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
        assert np.allclose(npp.polyval(2.0, flux.channels[0].coeffs), 2.0)

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


# Every flux spec the tier-1 tests, the harness and the benchmark build, for the bitwise bound check.
TIER1_SPECS = (
    "burgers", "cubic", "burgers;cubic", "cubic;burgers", "burgers;poly:0,0,0,0.3", "burgers;poly:0,1",
    "burgers;poly:0.2,-0.7,0.25", "cubic;poly:0,0.1,0.2,-0.3333333333333333", "cubic;poly:0,1,-0.5",
    "poly:-0.0,1;poly:-1", "poly:-0.5,0.1,0,0,0,0,0,0,1e-3", "poly:-1", "poly:0,-0,-0", "poly:0,0", "poly:0,0,0.5",
    "poly:0,0,0.5,-0.16666666666666666,7.807475308890696e-165", f"poly:0,0,0.5,0,{-1 / 12}", "poly:0,0,0.5;cubic",
    "poly:0,1", "poly:0,1,0,0;poly:0,0,0,1", "poly:0,1,0.5", "poly:0,1;burgers", "poly:0,1e308",
    "poly:0.1,-0.3,0.2,0.5,-0.25,0.15", "poly:0.3,-1,0.25,-0", "poly:0.5,-1,0,0.2", "poly:1,-0", "poly:2",
)


class TestInflections:
    """`Channel.inflections` is the one derivation of the roots of A'', for the certified bound and
    for the harness's irreducible legs."""

    def test_burgers_has_none_and_cubic_one(self):
        assert builtin("burgers").inflections(-1.0, 1.0).size == 0
        assert builtin("cubic").inflections(-1.0, 1.0).tolist() == [0.0]
        assert builtin("cubic").inflections(0.0, 1.0).size == 0  # open interval

    def test_both_roots_of_a_quartic(self):
        """A = u^2/2 - u^4/12: A'' = 1 - u^2, roots -1 and 1."""
        got = builtin(f"poly:0,0,0.5,0,{-1 / 12}").inflections(-2.0, 2.0)
        assert got == pytest.approx([-1.0, 1.0], rel=1e-12)
        assert builtin(f"poly:0,0,0.5,0,{-1 / 12}").inflections(-0.5, 2.0) == pytest.approx([1.0], rel=1e-12)

    @pytest.mark.parametrize("spec", TIER1_SPECS)
    def test_lip_a_is_the_earlier_form(self, spec):
        """The bound as `_certified_sup` derived A'' itself, bit for bit."""
        for lo, hi in [(-1.0, 1.0), (-2.0, 2.0), (-1.5, 1.5), (0.0, 1.0), (-0.3, 2.5)]:
            want = []
            for ch in (builtin(name) for name in spec.split(";")):
                with np.errstate(over="ignore", invalid="ignore"):
                    pts = np.concatenate([[lo, hi], _real_roots(npp.polyder(ch.coeffs, 2), lo, hi)])
                    want.append(float(np.max(np.abs(ch.a(pts)))))
            assert_bitwise(from_spec(spec, (lo, hi)).lip_a, np.array(want))

    def test_overflowing_a_prime_still_refused(self):
        """a = 1.5e308 u^2 is finite, A'' = 3e308 u overflows: the bound is inf, as before."""
        with pytest.raises(ValueError, match="is inf, not a finite number"):
            from_spec("poly:0,0,0,5e307", (-1.0, 1.0))


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

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_rejected(self, scheme, bad):
        """A NaN makes min and max NaN, and the range check must fail on it."""
        fs = SegmentFlux(burgers_model((-1.0, 1.0)), [1.0])
        v = np.array([0.1, 0.2, bad, 0.3])
        with pytest.raises(ValueError, match="u_range"):
            fs.interface_flux(v, scheme)

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


# F' has degree 1 with a root off 0 for the fourth spec; the cubic term of the
# last spec cancels when both slopes are equal.
REFERENCE_SPECS = ("burgers", "burgers;cubic", "poly:0.1,-0.3,0.2,0.5,-0.25,0.15",
                   "burgers;poly:0.2,-0.7,0.25", "cubic;poly:0,0.1,0.2,-0.3333333333333333")


def reference_slopes(n_channels, rng):
    """Random slopes, each with one component zero, all zero, and equal components."""
    out = [rng.normal(size=n_channels) for _ in range(4)]
    for i in range(n_channels):
        c = rng.normal(size=n_channels)
        c[i] = 0.0
        out.append(c)
    out.append(np.zeros(n_channels))
    out.append(np.full(n_channels, rng.normal()))
    return out


# Signed zeros in the slopes and the channel coefficients, and F' = [-0.0] for a negative constant F
SIGNED_ZERO_CASES = [
    ("burgers", [0.0]),  # zero slope: F = 0, no breakpoint
    ("burgers;cubic", [-0.0, 0.0]),
    ("burgers", [0.7]),  # F' = c u: a root at u = 0
    ("burgers", [-1.3]),
    ("poly:-0.0,1;poly:-1", [0.6, 0.4]),  # a -0.0 channel coefficient, F' constant
    ("poly:-1", [0.5]),  # F constant, F' = [-0.0]
    ("burgers;cubic", [0.8, -1.1]),
    ("cubic;poly:0,1,-0.5", [1.0, 0.3]),
    ("poly:0.1,-0.3,0.2,0.5,-0.25,0.15", [0.9]),
]


class TestKernelsMatchNumpyReference:
    """Every coefficient, table and value of `SegmentFlux` is bitwise that of the
    numpy form, and `interface_flux` rejects what it rejects."""

    @pytest.mark.parametrize("spec", REFERENCE_SPECS)
    def test_tables_values_integrals_and_fluxes(self, spec):
        flux = from_spec(spec, (-1.5, 1.5))
        rng = np.random.default_rng(sum(map(ord, spec)))
        for c in reference_slopes(flux.n_channels, rng):  # these keep the numpy form's bits in one interval too
            check_against_reference(flux, c, rng, exact=True)

    def test_degree_one_root_cases_are_covered(self):
        """The slopes above reach the closed-form degree-1 root and the general one."""
        degrees = set()
        for spec in REFERENCE_SPECS:
            flux = from_spec(spec, (-1.5, 1.5))
            rng = np.random.default_rng(sum(map(ord, spec)))
            for c in reference_slopes(flux.n_channels, rng):
                degrees.add(np.trim_zeros(NumpyReference(flux, c).dcoeffs, "b").size - 1)
        assert {-1, 1, 2, 4} <= degrees

    @settings(max_examples=150, deadline=None)
    @given(segment_flux_cases(), st.sampled_from(["engquist_osher", "godunov_convex", "upwind"]))
    @example((SegmentFlux(from_spec("burgers;cubic", (-1.5, 1.5)), [0.8, -1.1]), np.array([0.2, 1.6, -0.4])),
             "engquist_osher")
    @example((SegmentFlux(from_spec("burgers", (-1.5, 1.5)), [-0.7]), np.array([0.2, -1.6, 0.3])),
             "godunov_convex")
    @example((SegmentFlux(from_spec("cubic;poly:0,1,-0.5", (-1.5, 1.5)), [9.368970370668835e-164, 1.0]),
              np.array([1.5, 1.0])), "godunov_convex")  # F' = 1 - u + 9.4e-164 u^2: its root 1 was lost
    def test_interface_flux(self, case, scheme):
        """Random states, a NaN or an out-of-range state among them, and an unknown
        scheme.  The numpy form runs on the segment flux's own tables: a subnormal
        slope would make its `npp.polyroots` overflow."""
        fs, v = case
        ref = NumpyReference.on_tables(fs)
        for states in (v, np.stack([v, v[::-1], np.roll(v, 1)])):  # fluxes along the last axis
            check_interface_flux(fs, ref, states, scheme)


class TestSetUpMatchesEarlierForm:
    """The set-up on Python floats gives every coefficient and table entry of the
    numpy form bit for bit, for signed zeros in the slopes and the coefficients."""

    @pytest.mark.parametrize("spec, c", SIGNED_ZERO_CASES)
    def test_tables(self, spec, c):
        check_against_reference(from_spec(spec, (-1.5, 1.5)), c, np.random.default_rng(sum(map(ord, spec))))

    def test_signed_zeros_reach_the_coefficients(self):
        """The cases above do hold a -0.0: F' = [-0.0] for a negative constant F."""
        fs = SegmentFlux(from_spec("poly:-1", (-1.5, 1.5)), [0.5])
        assert fs._dcoeffs == (0.0,) and math.copysign(1.0, fs._dcoeffs[0]) < 0.0


def check_against_reference(flux, c, rng, exact=False):
    """`SegmentFlux(flux, c)` against `NumpyReference(flux, c)`: coefficients and tables bit
    for bit, then values, one-sided integrals and interface fluxes on states from `rng`."""
    fs, ref = SegmentFlux(flux, c), NumpyReference(flux, c)
    assert_bitwise(plan_coeffs(fs), ref.coeffs)
    assert_bitwise(np.array(fs._dcoeffs), ref.dcoeffs)
    assert_bitwise(fs.breakpoints, ref.breakpoints)
    for name in ("f_nodes", "pos_cum", "neg_cum", "rising", "falling", "pos_at_zero", "neg_at_zero"):
        assert_bitwise(getattr(fs, "_" + name), getattr(ref, name))
    # states on the range ends, at 0 and on every breakpoint, then random
    special = np.concatenate([[-1.5, 0.0, 1.5], ref.breakpoints[np.abs(ref.breakpoints) <= 1.5]])
    for v in (np.concatenate([special, rng.uniform(-1.5, 1.5, 402)]), rng.uniform(-1.5, 1.5, (3, 17))):
        assert_bitwise(fs.value(v), ref.value(v))
        assert_bitwise(fs.pos_integral(v), ref.one_sided(v, True) - ref.pos_at_zero)
        assert_bitwise(fs.neg_integral(v), ref.one_sided(v, False) - ref.neg_at_zero)
        for scheme in SCHEMES:
            check_interface_flux(fs, ref, v, scheme, exact)


def check_interface_flux(fs, ref, v, scheme, exact=False):
    """`fs.interface_flux` against the numpy form `ref`: the same rejection, or the same bits
    where the states straddle a breakpoint.  States in one node interval give F at the upwind
    state bit for bit, within `roundoff_scale` of the numpy form, or with its bits if `exact`."""
    got, want = outcome(fs.interface_flux, v, scheme), outcome(ref.interface_flux, v, scheme)
    i = fs.breakpoints.searchsorted(v.min(), "right")
    if isinstance(want, tuple) or i != fs.breakpoints.searchsorted(v.max(), "right"):
        same_outcome(got, want)
        return
    fv = fs.value(v)
    assert_bitwise(got, fv[..., :-1] if fs._rising[i] else fv[..., 1:])
    if exact:
        assert_bitwise(got, want)
    else:
        assert np.max(np.abs(got - want)) <= roundoff_scale(fs)


@st.composite
def integral_cases(draw):
    """A flux, slopes drawn with +-0.0 and subnormals among their components, and
    1-D or 2-D states with the breakpoints, the range ends and +-0.0."""
    flux = from_spec(draw(st.sampled_from(FLUX_SPECS)), (-1.5, 1.5))
    slope = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585e-313, 1.0, -1.0]),
                      st.floats(-2.0, 2.0))
    c = draw(st.lists(slope, min_size=flux.n_channels, max_size=flux.n_channels))
    special = [-1.5, 1.5, 0.0, -0.0, *SegmentFlux(flux, c).breakpoints.tolist()]
    value = st.one_of(st.sampled_from(special), st.floats(-1.5, 1.5))
    shape = draw(st.sampled_from([(draw(st.integers(1, 24)),), (draw(st.integers(1, 4)), draw(st.integers(1, 9)))]))
    u = np.array(draw(st.lists(value, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    return flux, c, u


class TestOneSidedIntegrals:
    """P and N from one node lookup are bitwise `NumpyReference.one_sided`, run on
    the segment flux's own tables (the test above checks those against the numpy
    form's; a subnormal slope would make `npp.polyroots` overflow there)."""

    @settings(max_examples=200, deadline=None)
    @given(integral_cases())
    @example((from_spec("burgers;cubic", (-1.5, 1.5)), [1.0, 2.2250738585e-313],
              np.array([[0.0, -0.0, 1.5], [-1.5, 0.25, -0.75]])))
    def test_pair_is_the_numpy_form(self, case):
        flux, c, u = case
        fs = SegmentFlux(flux, c)
        ref = NumpyReference.on_tables(fs)
        p, n = fs.one_sided_integrals(u)
        assert_bitwise(p, ref.one_sided(u, True) - ref.pos_at_zero)
        assert_bitwise(n, ref.one_sided(u, False) - ref.neg_at_zero)


class TestDoubleRootOfFPrime:
    """F' = s (u - r)^2: `polyroots` splits the double root (r = 0.7, by about 1e-8),
    drops it as a complex pair (r = 1/3) or returns it twice (r = 0.5).  The
    breakpoints stay strictly increasing, and every table, value and flux is the
    numpy form's."""

    @pytest.mark.parametrize("r, n_breakpoints", [(0.7, 2), (1.0 / 3.0, 0), (0.5, 1)])
    @pytest.mark.parametrize("s", [1.0, -0.6])
    def test_breakpoints_and_fluxes(self, r, n_breakpoints, s):
        flux = FluxModel([Channel("square", npp.polyint([r * r, -2.0 * r, 1.0]))], (-1.5, 1.5))
        fs, ref = SegmentFlux(flux, [s]), NumpyReference(flux, [s])
        assert fs.breakpoints.size == n_breakpoints and np.all(np.diff(fs.breakpoints) > 0.0)
        assert_bitwise(fs.breakpoints, ref.breakpoints)
        for name in ("f_nodes", "pos_cum", "neg_cum", "rising", "falling"):
            assert_bitwise(getattr(fs, "_" + name), getattr(ref, name))
        rng = np.random.default_rng(8)
        near = np.concatenate([fs.breakpoints, np.nextafter(fs.breakpoints, 2.0), [r, -1.5, 1.5]])
        for v in (np.concatenate([near, rng.uniform(-1.5, 1.5, 40), rng.uniform(r - 1e-7, r + 1e-7, 20)]),
                  rng.uniform(r - 1e-7, r + 1e-7, (3, 9))):
            assert_bitwise(fs.value(v), ref.value(v))
            assert_bitwise(fs.pos_integral(v), ref.one_sided(v, True) - ref.pos_at_zero)
            assert_bitwise(fs.neg_integral(v), ref.one_sided(v, False) - ref.neg_at_zero)
            for scheme in SCHEMES:
                check_interface_flux(fs, ref, v, scheme)


def roundoff_scale(fs):
    """4 eps max(1, |F|, |P~|, |N~| at the nodes): how far a one-interval flux, F at
    the upwind state, may sit from the general path's table algebra."""
    tables = (fs._f_nodes, fs._pos_cum, fs._neg_cum)
    return 4.0 * np.finfo(float).eps * max(1.0, *(float(np.max(np.abs(t))) for t in tables))


class TestOneInterval:
    """States that share one node interval, where F is monotone: both schemes give
    F at the upwind state bit for bit, and the general path and the numpy
    reference to within `roundoff_scale`."""

    @staticmethod
    def check(fs, ref, v, far, exact=()):
        """`v` inside one node interval; appending `far` from another interval
        sends the same interfaces through the general path, which keeps the
        upwind value's bits for the schemes in `exact`."""
        lo, hi = fs.flux.u_range
        bp = fs.breakpoints
        i = np.searchsorted(bp, v.max(), "right")
        assert np.searchsorted(bp, v.min(), "right") == i
        assert np.searchsorted(bp, far, "right") != i
        assert lo <= far <= hi
        for scheme in SCHEMES:
            check_interface_flux(fs, ref, v, scheme)
            got = fs.interface_flux(v, scheme)
            general = fs.interface_flux(np.concatenate([v, np.full(v.shape[:-1] + (1,), far)], axis=-1), scheme)
            assert np.max(np.abs(got - general[..., :-1])) <= roundoff_scale(fs)
            if scheme in exact:
                assert_bitwise(got, general[..., :-1])

    @staticmethod
    def states(rng, a, b, ends=()):
        """Random states in [a, b] with the given end values included."""
        return np.concatenate([list(ends), rng.uniform(a, b, 61)])

    @pytest.mark.parametrize("c", [1.0, 0.7, -1.0, -0.3])
    def test_burgers_rising_and_falling(self, c):
        """F = c u^2/2: rising above 0 for c > 0, falling there for c < 0; the
        1/0 data of the splitting solver start on the breakpoint 0.  Godunov's
        general path is bitwise the upwind value: F is monotone in floating point."""
        flux = burgers_model((-1.0, 1.5))
        fs, ref = SegmentFlux(flux, [c]), NumpyReference(flux, [c])
        rng = np.random.default_rng(3)
        assert fs.breakpoints.tolist() == [0.0]
        for v in (np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0]), self.states(rng, 0.0, 1.5, (0.0, -0.0, 1.5))):
            self.check(fs, ref, v, -0.5, exact=("godunov_convex",))
        self.check(fs, ref, self.states(rng, -1.0, -0.1, (-1.0,)), 0.5, exact=("godunov_convex",))

    def test_values_on_a_breakpoint(self):
        """A state on a breakpoint belongs to the interval above it."""
        flux = from_spec("burgers;cubic", (-1.5, 1.5))
        c = [1.0, -2.0]
        fs, ref = SegmentFlux(flux, c), NumpyReference(flux, c)
        b0, b1 = fs.breakpoints.tolist()
        rng = np.random.default_rng(4)
        v = self.states(rng, b0, 0.5 * (b0 + b1), (b0, b0))
        self.check(fs, ref, v, b1)
        self.check(fs, ref, self.states(rng, b1, 1.5, (b1,)), b0)

    @pytest.mark.parametrize("spec", ["burgers", "burgers;cubic"])
    def test_zero_slope_has_no_breakpoints(self, spec):
        flux = from_spec(spec, (-1.5, 1.5))
        c = np.zeros(flux.n_channels)
        fs, ref = SegmentFlux(flux, c), NumpyReference(flux, c)
        assert fs.breakpoints.size == 0
        v = self.states(np.random.default_rng(5), -1.5, 1.5, (0.0, -0.0, 1.5, -1.5))
        for scheme in SCHEMES:
            assert_bitwise(fs.interface_flux(v, scheme), ref.interface_flux(v, scheme))

    @pytest.mark.parametrize("c", [[0.8, -1.1], [-0.6, 0.9]])
    def test_cubic_between_its_two_breakpoints(self, c):
        flux = from_spec("burgers;cubic", (-1.5, 1.5))
        fs, ref = SegmentFlux(flux, c), NumpyReference(flux, c)
        b0, b1 = fs.breakpoints.tolist()
        rng = np.random.default_rng(6)
        inner = np.nextafter(b0, b1), np.nextafter(b1, b0)
        self.check(fs, ref, self.states(rng, *inner, inner), -1.5 if b0 > -1.5 else 1.5)
        self.check(fs, ref, rng.uniform(*inner, (3, 17)), 1.5)  # batched along the last axis


class TestRealRootsOverflow:
    """A leading coefficient whose companion ratios overflow, or whose term is under the
    roundoff of a lower one on the range, is dropped."""

    @pytest.mark.parametrize("tiny", [9.368970370668835e-164, 1e-30, -1e-20])
    def test_negligible_leading_term_keeps_the_root_inside(self, tiny):
        """F' = 1 - u + tiny u^2: the companion matrix of the full polynomial put its root
        near 1 at 0 (for 9.4e-164), and Godunov's one-interval flux then took F at 1.5."""
        flux = from_spec("cubic;poly:0,1,-0.5", (-1.5, 1.5))
        fs = SegmentFlux(flux, [tiny, 1.0])
        assert_bitwise(fs.breakpoints, SegmentFlux(flux, [0.0, 1.0]).breakpoints)
        assert fs.breakpoints.tolist() == [1.0]
        assert fs.interface_flux(np.array([1.5, 1.0]), "godunov_convex").tolist() == [0.5]

    def test_subnormal_slope_component(self):
        """F' = u + 2.2e-313 u^2 made `polyroots` raise on an infinite companion
        matrix; its second root lies near -4.5e312, outside any u_range."""
        flux = from_spec("burgers;cubic", (-1.05, 1.05))
        fs = SegmentFlux(flux, [1.0, 2.2250738585e-313])
        plain = SegmentFlux(flux, [1.0, 0.0])
        assert_bitwise(fs.breakpoints, plain.breakpoints)
        v = np.linspace(-1.05, 1.05, 43)
        for scheme in SCHEMES:
            assert_bitwise(fs.interface_flux(v, scheme), plain.interface_flux(v, scheme))

    def test_subnormal_degree_one_coefficient(self):
        """F' = 1 + 1e-320 u: the root -1e320 overflows to -inf and is outside."""
        flux = from_spec("poly:0,1;burgers", (-1.0, 1.0))
        fs = SegmentFlux(flux, [1.0, 1e-320])
        assert fs.breakpoints.size == 0

    def test_overflow_below_the_leading_term_is_trimmed_too(self):
        """Dropping a subnormal leading term can expose a zero, which goes as well."""
        flux = from_spec("poly:0,1,0,0;poly:0,0,0,1", (-1.0, 1.0))
        fs = SegmentFlux(flux, [1.0, 1e-320])  # F' = 1 + 0 u + 3e-320 u^2
        assert fs.breakpoints.size == 0


@pytest.mark.parametrize("c", [(-0.0, -0.0), (0.0, -0.0), (1.5, -0.0, -0.0), (-0.0,), (0.3, -0.0, 0.0),
                               (0.25, 1.0, -0.5)])
def test_horner_is_polyval_on_finite_values(c):
    """Also for a leading coefficient -0.0, where polyval's start c[-1] + x * 0
    takes the sign of x."""
    x = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 3.0, -1e-300, 1e150])
    assert_bitwise(_horner(c, x), npp.polyval(x, np.array(c)))


@pytest.mark.parametrize("spec", ["burgers", "cubic", "poly:0.3,-1,0.25,-0", "poly:0,-0,-0", "poly:2",
                                  "poly:1,-0", "poly:-0.5,0.1,0,0,0,0,0,0,1e-3"])
def test_channel_evaluators_are_polyval(spec):
    """a and a' through `_horner` on the coefficient tuples give polyval's bits on A' and A''."""
    ch = builtin(spec)
    x = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 3.0, -1e-300, 1e30])
    for k, f in enumerate((ch.a, ch.a_prime), start=1):
        c = npp.polyder(ch.coeffs, k)
        assert_bitwise(f(x), npp.polyval(x, c))
        assert_bitwise(f(x[4]), npp.polyval(x[4], c))


# Coefficients of degree 0 to 8 rich in +0.0 and -0.0, and states at +-0.0, subnormals
# and values whose square underflows, around which a dropped `+= 0.0` could show.
PLAN_COEFFS = st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0)),
                       min_size=1, max_size=MAX_POLY_DEGREE + 1)
PLAN_STATES = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                                                  1e-160, -3e-170, 1e-300, -1.0, 1.0]),
                                 st.floats(-2.0, 2.0)), min_size=2, max_size=12)
PLAN_EXAMPLES = ([0.0, -0.0, 0.0, 1.0], [0.0, 0.0, -0.0, 0.0, 2.0], [-0.0], [0.0, -0.0], [1.0, 0.0, 0.0, -0.0])


class TestHornerPlan:
    """Evaluating from the plan, which drops an add of +0.0 unless the next coefficient
    is -0.0, gives `npp.polyval`'s bytes for every evaluator."""

    @settings(max_examples=200, deadline=None)
    @given(PLAN_COEFFS, PLAN_STATES)
    @example(PLAN_EXAMPLES[0], [-0.0, 0.0, 5e-324, -1e-160])
    @example(PLAN_EXAMPLES[1], [-0.0, -5e-324, 1e-170, 1.0])
    @example(PLAN_EXAMPLES[2], [0.0, -0.0])
    @example(PLAN_EXAMPLES[3], [-1e-300, 0.0])
    @example(PLAN_EXAMPLES[4], [-0.0, 1e-160, -1e-160])
    def test_horner_and_channel(self, coeffs, states):
        x = np.array(states)
        for c in (tuple(coeffs), _horner_plan(coeffs)):
            assert_bitwise(_horner(c, x), npp.polyval(x, np.array(coeffs)))
        ch = Channel("plan", coeffs)
        for k, f in enumerate((ch.a, ch.a_prime), start=1):
            assert_bitwise(f(x), npp.polyval(x, npp.polyder(ch.coeffs, k)))

    @settings(max_examples=200, deadline=None)
    @given(PLAN_COEFFS, PLAN_STATES, st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]), st.floats(-2.0, 2.0)),
           st.sampled_from(SCHEMES))
    def test_segment_flux_value_and_interface_flux(self, coeffs, states, slope, scheme):
        """`value` is polyval of F's coefficients; on states in one node interval
        `interface_flux` returns those values at the upwind state."""
        try:
            flux = FluxModel([Channel("plan", coeffs)], (-2.0, 2.0))
        except ValueError:  # a bound the sampled check refutes (a dropped near-double root)
            assume(False)
        fs = SegmentFlux(flux, [slope])
        x = np.array(states)
        fx = npp.polyval(x, plan_coeffs(fs))
        assert_bitwise(fs.value(x), fx)
        i = fs.breakpoints.searchsorted(x[0], "right")
        same = fs.breakpoints.searchsorted(x, "right") == i
        assume(np.count_nonzero(same) >= 2)
        got = fs.interface_flux(x[same], scheme)
        assert_bitwise(got, fx[same][:-1] if fs._rises[i] else fx[same][1:])
