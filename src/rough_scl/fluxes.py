"""Flux models for multi-channel scalar conservation laws.

Every channel is a polynomial A_i(u) = sum_k c_k u^k of degree at most
MAX_POLY_DEGREE.  A FluxModel holds one per driver channel together with
a certified sup bound for |a_i| = |A_i'| on the working range of u, taken
exactly at the endpoints and the real roots of a_i'.  On a
linear piece of the driver with slope c the solver sees the frozen polynomial
F(u) = sum_i c_i A_i(u); SegmentFlux packages F with the one-sided integrals

    P(u) = int_0^u max(F'(s), 0) ds,    N(u) = int_0^u min(F'(s), 0) ds,

which are the building blocks of the Engquist-Osher flux and of the kinetic
defect extraction.  The breakpoints are the real roots of F'; F is monotone
between them, so P, N and both numerical fluxes are exact in closed form from
the values of F there.  `SegmentFlux.interface_flux` is the solver's one
numerical-flux path, for the Engquist-Osher flux and the exact Godunov flux,
which is right for concave and non-convex F too (a negative driver slope makes
F concave).
"""
from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as npp

MAX_POLY_DEGREE = 8


class Channel:
    """One polynomial flux A, given by ascending coefficients, with a = A' and a'."""

    def __init__(self, name: str, coeffs) -> None:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError(f"channel {name!r}: coefficients must be a non-empty 1-D sequence")
        if coeffs.size - 1 > MAX_POLY_DEGREE:
            raise ValueError(f"polynomial degree {coeffs.size - 1} exceeds cap {MAX_POLY_DEGREE}")
        self.name = name
        self.coeffs = coeffs
        self._d1 = npp.polyder(coeffs)  # computed once: a is called in every RK4 stage
        self._d2 = npp.polyder(coeffs, 2)

    def A(self, u) -> np.ndarray:
        return npp.polyval(np.asarray(u, dtype=float), self.coeffs)

    def a(self, u) -> np.ndarray:
        return npp.polyval(np.asarray(u, dtype=float), self._d1)

    def a_prime(self, u) -> np.ndarray:
        return npp.polyval(np.asarray(u, dtype=float), self._d2)


def builtin(name: str) -> Channel:
    """Builtin channels: "burgers" (u^2/2), "cubic" (u^3/3), "poly:c0,c1,...,ck"."""
    key = name.strip().lower()
    if key == "burgers":
        return Channel("burgers", [0.0, 0.0, 0.5])
    if key == "cubic":
        return Channel("cubic", [0.0, 0.0, 0.0, 1.0 / 3.0])
    if key.startswith("poly:"):
        try:
            coeffs = [float(tok) for tok in key[len("poly:"):].split(",")]
        except ValueError as exc:
            raise ValueError(f"cannot parse polynomial coefficients in {name!r}") from exc
        return Channel(name.strip(), coeffs)
    raise ValueError(f"unknown flux {name!r} (want burgers | cubic | poly:c0,c1,...)")


def _real_roots(coeffs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Real roots of a polynomial (ascending coeffs) inside (lo, hi)."""
    c = np.trim_zeros(coeffs, "b")
    if c.size <= 1:
        return np.empty(0)
    r = npp.polyroots(c)
    r = r[np.abs(r.imag) <= 1e-9 * (1.0 + np.abs(r.real))].real
    r = np.unique(r[(r > lo) & (r < hi)])
    if r.size > 1:
        keep = np.concatenate([[True], np.diff(r) > 1e-12])
        r = r[keep]
    return r


class FluxModel:
    """Multi-channel flux with certified derivative bounds on u_range."""

    def __init__(self, channels: list[Channel], u_range: tuple[float, float]) -> None:
        lo, hi = float(u_range[0]), float(u_range[1])
        if not lo < hi:
            raise ValueError(f"empty u_range {u_range}")
        if not channels:
            raise ValueError("need at least one channel")
        self.channels = list(channels)
        self.u_range = (lo, hi)
        self.lip_a = np.array([self._certified_sup(ch) for ch in channels])
        self._validate()

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def _certified_sup(self, ch: Channel) -> float:
        """Exact sup of |a|: extrema sit at the endpoints or at real roots of a'."""
        lo, hi = self.u_range
        pts = np.concatenate([[lo, hi], _real_roots(npp.polyder(ch.coeffs, 2), lo, hi)])
        return float(np.max(np.abs(ch.a(pts))))

    def _validate(self) -> None:
        """Sampled |a| stays within the bound, which catches a root that
        `_real_roots`' imaginary-part cut-off dropped."""
        lo, hi = self.u_range
        sample = np.linspace(lo, hi, 1000)
        for i, ch in enumerate(self.channels):
            if np.max(np.abs(ch.a(sample))) > self.lip_a[i] * (1.0 + 1e-12):
                raise ValueError(f"channel {ch.name!r}: certified |a| bound below sampled sup")


def from_spec(spec: str, u_range: tuple[float, float]) -> FluxModel:
    """Semicolon-separated channel spec, e.g. "burgers;cubic" or "poly:0,0,0.5;cubic"."""
    names = [tok.strip() for tok in spec.split(";") if tok.strip()]
    if not names:
        raise ValueError("empty flux spec")
    return FluxModel([builtin(n) for n in names], u_range)


class SegmentFlux:
    """Frozen polynomial F = sum_i c_i A_i for one linear driver segment.

    Caches the breakpoints, the real roots of F' on hull(u_range, 0), the
    sign of F' between them and the values of F there, so that P, N and both
    numerical fluxes are exact in closed form.
    """

    def __init__(self, flux: FluxModel, c) -> None:
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if c.size != flux.n_channels:
            raise ValueError(f"slope has {c.size} channels, flux has {flux.n_channels}")
        self.flux = flux
        self.c = c
        lo = min(flux.u_range[0], 0.0)
        hi = max(flux.u_range[1], 0.0)
        pad = 1e-9 * (hi - lo)
        self._lo, self._hi = lo - pad, hi + pad
        self.max_speed = float(np.dot(np.abs(c), flux.lip_a))
        coeffs = np.zeros(max(len(ch.coeffs) for ch in flux.channels))
        for ci, ch in zip(c, flux.channels):
            coeffs[: len(ch.coeffs)] += ci * ch.coeffs
        self._coeffs = coeffs
        self._dcoeffs = npp.polyder(coeffs)
        self.breakpoints = _real_roots(self._dcoeffs, self._lo, self._hi)
        self._build_tables()

    # -- raw evaluations ---------------------------------------------------

    def value(self, u):
        return npp.polyval(np.asarray(u, dtype=float), self._coeffs)

    def deriv(self, u):
        return npp.polyval(np.asarray(u, dtype=float), self._dcoeffs)

    # -- sign structure ----------------------------------------------------

    def _build_tables(self) -> None:
        nodes = np.concatenate([[self._lo], self.breakpoints, [self._hi]])
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        sign = np.sign(self.deriv(mids))
        self._rising, self._falling = sign > 0, sign < 0
        self._f_nodes = self.value(nodes)
        seg = np.diff(self._f_nodes)  # exact int of F' over each interval
        self._pos_cum = np.concatenate([[0.0], np.cumsum(np.where(self._rising, seg, 0.0))])
        self._neg_cum = np.concatenate([[0.0], np.cumsum(np.where(self._falling, seg, 0.0))])
        zero = np.asarray(0.0)
        self._pos_at_zero = self._one_sided_raw(zero, True)
        self._neg_at_zero = self._one_sided_raw(zero, False)

    def _one_sided_raw(self, u, positive: bool, fu=None):
        """Cumulative int from self._lo to u of (F')^+/-, vectorized.

        Inside u's node interval F' keeps one sign, so the partial part is
        F(u) - F(node) (`fu` = F(u) when the caller has it).
        """
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(self.breakpoints, u, side="right")  # node interval of u
        part = (self.value(u) if fu is None else fu) - self._f_nodes[idx]
        base = (self._pos_cum if positive else self._neg_cum)[idx]
        sign_ok = (self._rising if positive else self._falling)[idx]
        return base + np.where(sign_ok, part, 0.0)

    def pos_integral(self, u):
        """P(u) = int_0^u max(F'(s), 0) ds."""
        return self._one_sided_raw(u, True) - self._pos_at_zero

    def neg_integral(self, u):
        """N(u) = int_0^u min(F'(s), 0) ds."""
        return self._one_sided_raw(u, False) - self._neg_at_zero

    def interface_flux(self, v, scheme: str):
        """Flux at every interface of `v`, cell values padded by one ghost each end.

        Works along the last axis and evaluates F(v) once.  "engquist_osher" is
        F(0) + P(u_l) + N(u_r) = P~(u_l) + (F - P~)(u_r), P~ the one-sided
        integral from the bottom node.  "godunov_convex" is the exact Godunov
        flux for any F: min F on [u_l, u_r], or max F on [u_r, u_l], taken at
        both ends and the breakpoints between them (F is monotone in between).
        """
        v = np.asarray(v, dtype=float)
        lo, hi = self.flux.u_range
        if np.min(v) < lo - 1e-9 or np.max(v) > hi + 1e-9:
            raise ValueError(f"state outside certified u_range [{lo}, {hi}]")
        fv = self.value(v)
        if scheme == "engquist_osher":
            p = self._one_sided_raw(v, True, fv)
            return p[..., :-1] + (fv - p)[..., 1:]
        if scheme != "godunov_convex":
            raise ValueError(f"unknown scheme {scheme!r}")
        u_l, u_r = v[..., :-1], v[..., 1:]
        s = np.where(u_l <= u_r, 1.0, -1.0)  # a max is the min of -F
        lowest = np.minimum(s * fv[..., :-1], s * fv[..., 1:])
        below, above = np.minimum(u_l, u_r), np.maximum(u_l, u_r)
        for b, fb in zip(self.breakpoints, self._f_nodes[1:-1]):
            lowest = np.where((below < b) & (b < above), np.minimum(lowest, s * fb), lowest)
        return s * lowest
