"""Flux models for multi-channel scalar conservation laws.

A FluxModel holds one smooth scalar flux A_i per driver channel together with
certified sup bounds for a_i = A_i' and a_i' on the working range of u.  On a
linear piece of the driver with slope c the solver sees the frozen combination
F(u) = sum_i c_i A_i(u); SegmentFlux packages F with the one-sided integrals

    P(u) = int_0^u max(F'(s), 0) ds,    N(u) = int_0^u min(F'(s), 0) ds,

which are the building blocks of the Engquist-Osher flux and of the kinetic
defect extraction.  Polynomial channels (the builtins) get exact closed forms
split at the cached sign changes of F'; anything else falls back to composite
Gauss-Legendre quadrature between the same breakpoints.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.polynomial.polynomial as npp
from scipy.optimize import brentq

MAX_POLY_DEGREE = 8
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

    Caches the sign structure of F' on hull(u_range, 0) so that P, N and the
    EO flux are exact for polynomial channels and stable quadratures otherwise.
    """

    def __init__(self, flux: FluxModel, c, quadrature_points: int = 64) -> None:
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
        self._quad_points = int(quadrature_points)
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
        grid = np.linspace(self._lo, self._hi, 2001)
        dv = self.deriv(grid)
        sgn = np.sign(dv)
        roots = []
        for k in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
            roots.append(brentq(lambda x: float(self.deriv(x)), grid[k], grid[k + 1], xtol=1e-14))
        return np.asarray(roots)

    def _build_tables(self) -> None:
        nodes = self._nodes
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        self._interval_sign = np.sign(self.deriv(mids))
        if self.is_polynomial:
            fvals = self.value(nodes)
            seg = np.diff(fvals)  # exact int of F' over each interval
        else:
            x, w = np.polynomial.legendre.leggauss(self._quad_points)
            a, b = nodes[:-1], nodes[1:]
            pts = 0.5 * (b - a)[:, None] * x[None, :] + 0.5 * (a + b)[:, None]
            seg = 0.5 * (b - a) * (self.deriv(pts) @ w)
        pos = np.where(self._interval_sign > 0, seg, 0.0)
        neg = np.where(self._interval_sign < 0, seg, 0.0)
        self._pos_cum = np.concatenate([[0.0], np.cumsum(pos)])
        self._neg_cum = np.concatenate([[0.0], np.cumsum(neg)])
        self._pos_at_zero = self._one_sided_raw(np.asarray(0.0), positive=True)
        self._neg_at_zero = self._one_sided_raw(np.asarray(0.0), positive=False)
        self.f0 = float(self.value(np.asarray(0.0)))

    def _partial(self, a, x, positive: bool):
        """int_a^x of (F')^+ or (F')^- when the sign is constant on [a, x]."""
        if self.is_polynomial:
            seg = self.value(x) - self.value(a)
        else:
            gx, gw = np.polynomial.legendre.leggauss(self._quad_points)
            half = 0.5 * (x - a)
            pts = half[..., None] * gx + (0.5 * (x + a))[..., None]
            dv = self.deriv(pts)
            dv = np.maximum(dv, 0.0) if positive else np.minimum(dv, 0.0)
            return half * (dv @ gw)
        return seg

    def _one_sided_raw(self, u, positive: bool):
        """Cumulative int from self._lo to u of (F')^+/-, vectorized."""
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(self._nodes, u, side="right") - 1, 0, self._nodes.size - 2)
        base = (self._pos_cum if positive else self._neg_cum)[idx]
        sign_ok = self._interval_sign[idx] > 0 if positive else self._interval_sign[idx] < 0
        part = self._partial(self._nodes[idx], u, positive)
        return base + np.where(sign_ok, part, 0.0)

    def pos_integral(self, u):
        """P(u) = int_0^u max(F'(s), 0) ds."""
        return self._one_sided_raw(u, True) - self._pos_at_zero

    def neg_integral(self, u):
        """N(u) = int_0^u min(F'(s), 0) ds."""
        return self._one_sided_raw(u, False) - self._neg_at_zero

    def _check_range(self, u) -> None:
        lo, hi = self.flux.u_range
        u = np.asarray(u)
        if np.any(u < lo - 1e-9) or np.any(u > hi + 1e-9):
            raise ValueError(f"state outside certified u_range [{lo}, {hi}]")

    def eo(self, u_l, u_r):
        """Engquist-Osher flux F(0) + P(u_l) + N(u_r)."""
        self._check_range(u_l)
        self._check_range(u_r)
        return self.f0 + self.pos_integral(u_l) + self.neg_integral(u_r)

    def godunov_convex(self, u_l, u_r):
        """Godunov flux assuming F convex on the range (caller's responsibility)."""
        self._check_range(u_l)
        self._check_range(u_r)
        u_l = np.asarray(u_l, dtype=float)
        u_r = np.asarray(u_r, dtype=float)
        crit = self.breakpoints
        omega = float(crit[0]) if crit.size else (self._lo if self.deriv(np.asarray(self._lo)) > 0 else self._hi)
        lo_star = np.clip(omega, np.minimum(u_l, u_r), np.maximum(u_l, u_r))
        return np.where(
            u_l <= u_r,
            self.value(lo_star),
            np.maximum(self.value(u_l), self.value(u_r)),
        )


def segment_flux(flux: FluxModel, c, quadrature_points: int = 64) -> SegmentFlux:
    return SegmentFlux(flux, c, quadrature_points)
