"""Flux models for multi-channel scalar conservation laws.

A FluxModel holds one smooth scalar flux A_i per driver channel together with
certified sup bounds for a_i = A_i' and a_i' on the working range of u.  On a
linear piece of the driver with slope c the solver sees the frozen combination
F(u) = sum_i c_i A_i(u); SegmentFlux packages F with the one-sided integrals

    P(u) = int_0^u max(F'(s), 0) ds,    N(u) = int_0^u min(F'(s), 0) ds,

which are the building blocks of the Engquist-Osher flux and of the kinetic
defect extraction.  Both are split at the breakpoints, the cached sign
changes of F'.  Polynomial channels (the builtins) take them as the real roots
of F' and get exact closed forms; for anything else they are bracketed on a
2001-point grid, all brackets are bisected at once down to 1e-14, and P and N
come from composite Gauss-Legendre quadrature between them.
`SegmentFlux.interface_flux` is the solver's one numerical-flux path, for the
Engquist-Osher flux and the exact Godunov flux, which is right for concave and
non-convex F too (a negative driver slope makes F concave).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.polynomial.polynomial as npp

MAX_POLY_DEGREE = 8
QUADRATURE_POINTS = 64  # Gauss-Legendre nodes per interval for non-polynomial channels
_GL_X, _GL_W = np.polynomial.legendre.leggauss(QUADRATURE_POINTS)
_FD_STEP = 1e-5
_FD_RTOL = 1e-6


@dataclass(frozen=True)
class Channel:
    """One scalar flux A with its first two derivatives."""

    name: str
    A: Callable[[np.ndarray], np.ndarray]
    a: Callable[[np.ndarray], np.ndarray]
    a_prime: Callable[[np.ndarray], np.ndarray]
    coeffs: np.ndarray | None = None  # ascending, set for polynomial channels

    @property
    def is_polynomial(self) -> bool:
        return self.coeffs is not None


def _poly_channel(name: str, coeffs) -> Channel:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size - 1 > MAX_POLY_DEGREE:
        raise ValueError(f"polynomial degree {coeffs.size - 1} exceeds cap {MAX_POLY_DEGREE}")
    d1 = npp.polyder(coeffs)
    d2 = npp.polyder(coeffs, 2)
    return Channel(
        name=name,
        A=lambda u, c=coeffs: npp.polyval(np.asarray(u, dtype=float), c),
        a=lambda u, c=d1: npp.polyval(np.asarray(u, dtype=float), c),
        a_prime=lambda u, c=d2: npp.polyval(np.asarray(u, dtype=float), c),
        coeffs=coeffs,
    )


def builtin(name: str) -> Channel:
    """Builtin channels: "burgers" (u^2/2), "cubic" (u^3/3), "poly:c0,c1,...,ck"."""
    key = name.strip().lower()
    if key == "burgers":
        return _poly_channel("burgers", [0.0, 0.0, 0.5])
    if key == "cubic":
        return _poly_channel("cubic", [0.0, 0.0, 0.0, 1.0 / 3.0])
    if key.startswith("poly:"):
        try:
            coeffs = [float(tok) for tok in key[len("poly:"):].split(",")]
        except ValueError as exc:
            raise ValueError(f"cannot parse polynomial coefficients in {name!r}") from exc
        if not coeffs:
            raise ValueError("empty polynomial flux")
        return _poly_channel(name.strip(), coeffs)
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
        self.lip_a = np.array([self._certified_sup(ch, order=1) for ch in channels])
        self.lip_a_prime = np.array([self._certified_sup(ch, order=2) for ch in channels])
        self._validate()

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def _certified_sup(self, ch: Channel, order: int) -> float:
        lo, hi = self.u_range
        f = ch.a if order == 1 else ch.a_prime
        if ch.is_polynomial:
            # exact: extrema sit at endpoints or at roots of the next derivative
            dnext = npp.polyder(ch.coeffs, order + 1)
            pts = np.concatenate([[lo, hi], _real_roots(dnext, lo, hi)])
            return float(np.max(np.abs(f(pts))))
        # non-polynomial: dense sample with a small safety margin
        pts = np.linspace(lo, hi, 4001)
        return float(np.max(np.abs(f(pts))) * 1.02)

    def _validate(self) -> None:
        lo, hi = self.u_range
        h = _FD_STEP
        grid = np.linspace(lo + h, hi - h, 101)
        sample = np.linspace(lo, hi, 1000)
        for i, ch in enumerate(self.channels):
            fd = (ch.A(grid + h) - ch.A(grid - h)) / (2.0 * h)
            err = np.max(np.abs(fd - ch.a(grid)) / (1.0 + np.abs(ch.a(grid))))
            if err > _FD_RTOL:
                raise ValueError(f"channel {ch.name!r}: a does not match dA/du (error {err:.2e})")
            if np.max(np.abs(ch.a(sample))) > self.lip_a[i] * (1.0 + 1e-12):
                raise ValueError(f"channel {ch.name!r}: certified |a| bound below sampled sup")
            if np.max(np.abs(ch.a_prime(sample))) > self.lip_a_prime[i] * (1.0 + 1e-12):
                raise ValueError(f"channel {ch.name!r}: certified |a'| bound below sampled sup")

    def a_combination(self, c: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """sum_i c_i a_i(xi): the kinetic transport speed for segment slope c."""
        c = np.atleast_1d(np.asarray(c, dtype=float))
        out = np.zeros_like(np.asarray(xi, dtype=float))
        for ci, ch in zip(c, self.channels):
            if ci != 0.0:
                out = out + ci * ch.a(xi)
        return out


def from_spec(spec: str, u_range: tuple[float, float]) -> FluxModel:
    """Semicolon-separated channel spec, e.g. "burgers;cubic" or "poly:0,0,0.5;cubic"."""
    names = [tok.strip() for tok in spec.split(";") if tok.strip()]
    if not names:
        raise ValueError("empty flux spec")
    return FluxModel([builtin(n) for n in names], u_range)


class SegmentFlux:
    """Frozen combination F = sum_i c_i A_i for one linear driver segment.

    Caches the sign structure of F' on hull(u_range, 0) and the values of F at
    its breakpoints, so that P, N and both numerical fluxes are exact for
    polynomial channels and stable quadratures otherwise.
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
        self.is_polynomial = all(ch.is_polynomial for ch in flux.channels)
        if self.is_polynomial:
            width = max(len(ch.coeffs) for ch in flux.channels)
            coeffs = np.zeros(width)
            for ci, ch in zip(c, flux.channels):
                coeffs[: len(ch.coeffs)] += ci * ch.coeffs
            self._coeffs = coeffs
            self._dcoeffs = npp.polyder(coeffs)
            roots = _real_roots(self._dcoeffs, self._lo, self._hi)
        else:
            self._coeffs = None
            self._dcoeffs = None
            roots = self._sampled_sign_changes()
        self.breakpoints = roots
        self._nodes = np.concatenate([[self._lo], roots, [self._hi]])
        self._build_tables()

    # -- raw evaluations ---------------------------------------------------

    def value(self, u):
        u = np.asarray(u, dtype=float)
        if self.is_polynomial:
            return npp.polyval(u, self._coeffs)
        out = np.zeros_like(u)
        for ci, ch in zip(self.c, self.flux.channels):
            if ci != 0.0:
                out = out + ci * ch.A(u)
        return out

    def deriv(self, u):
        u = np.asarray(u, dtype=float)
        if self.is_polynomial:
            return npp.polyval(u, self._dcoeffs)
        return self.flux.a_combination(self.c, u)

    # -- sign structure ----------------------------------------------------

    def _sampled_sign_changes(self) -> np.ndarray:
        """Roots of F' bracketed on a 2001-point grid, bisected all at once."""
        grid = np.linspace(self._lo, self._hi, 2001)
        sgn = np.sign(self.deriv(grid))
        k = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        a, b, side = grid[k], grid[k + 1], sgn[k]
        mid = 0.5 * (a + b)
        while np.any((b - a > 1e-14) & (a < mid) & (mid < b)):
            s = np.sign(self.deriv(mid)) * side  # >= 0: the root lies right of mid
            a, b = np.where(s >= 0, mid, a), np.where(s <= 0, mid, b)
            mid = 0.5 * (a + b)
        return mid

    def _build_tables(self) -> None:
        nodes = self._nodes
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        sign = np.sign(self.deriv(mids))
        self._rising, self._falling = sign > 0, sign < 0
        self._f_nodes = self.value(nodes)
        if self.is_polynomial:
            seg = np.diff(self._f_nodes)  # exact int of F' over each interval
        else:
            a, b = nodes[:-1], nodes[1:]
            pts = 0.5 * (b - a)[:, None] * _GL_X[None, :] + 0.5 * (a + b)[:, None]
            seg = 0.5 * (b - a) * (self.deriv(pts) @ _GL_W)
        self._pos_cum = np.concatenate([[0.0], np.cumsum(np.where(self._rising, seg, 0.0))])
        self._neg_cum = np.concatenate([[0.0], np.cumsum(np.where(self._falling, seg, 0.0))])
        zero = np.asarray(0.0)
        self._pos_at_zero = self._one_sided_raw(zero, True)
        self._neg_at_zero = self._one_sided_raw(zero, False)

    def _one_sided_raw(self, u, positive: bool, fu=None):
        """Cumulative int from self._lo to u of (F')^+/-, vectorized.

        Inside u's node interval F' keeps one sign, so the partial part is
        F(u) - F(node) for polynomial channels (`fu` = F(u) when the caller
        has it) and a Gauss-Legendre quadrature otherwise.
        """
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(self.breakpoints, u, side="right")  # node interval of u
        if self.is_polynomial:
            part = (self.value(u) if fu is None else fu) - self._f_nodes[idx]
        else:
            a = self._nodes[idx]
            half = 0.5 * (u - a)
            dv = self.deriv(half[..., None] * _GL_X + (0.5 * (u + a))[..., None])
            part = half * ((np.maximum(dv, 0.0) if positive else np.minimum(dv, 0.0)) @ _GL_W)
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


def segment_flux(flux: FluxModel, c) -> SegmentFlux:
    return SegmentFlux(flux, c)
