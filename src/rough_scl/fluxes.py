"""Flux models for multi-channel scalar conservation laws.

Every channel is a polynomial A_i(u) = sum_k c_k u^k of degree at most
MAX_POLY_DEGREE.  A FluxModel holds one per driver channel together with a
certified sup bound for |a_i| = |A_i'| on the working range of u, taken exactly
at the endpoints and the real roots of a_i' (`Channel.inflections`).  On a
linear piece of the driver with slope c the solver sees the frozen polynomial
F(u) = sum_i c_i A_i(u); SegmentFlux packages F with the one-sided integrals

    P(u) = int_0^u max(F'(s), 0) ds,    N(u) = int_0^u min(F'(s), 0) ds,

which are the building blocks of the Engquist-Osher flux and of the kinetic
defect extraction.  The breakpoints are the real roots of F'; F is monotone
between them, so P, N and both numerical fluxes are exact in closed form from
the values of F there.  `SegmentFlux.interface_flux` is the solver's one
numerical-flux path, for the Engquist-Osher flux and the exact Godunov flux,
which is right for concave and non-convex F too (a negative driver slope makes
F concave).  When a step's states all lie in one node interval (every Burgers
1/0 solve), F is monotone on them and the two schemes coincide: both are F at
the upwind state, F(u_l) where F rises and F(u_r) where it falls or is flat.
The node tables serve only states that straddle a breakpoint, Godunov's loop
over the breakpoints and the kinetic integrals P and N (`one_sided_integrals`:
both from one node lookup and one evaluation of F).

The solver calls `interface_flux` once per step and builds one SegmentFlux per
driver segment, so both avoid numpy's per-call wrappers.  F and each channel's
A, a and a' are evaluated by `_horner` from a plan built once per polynomial
(`_horner_plan`): the recurrence c0 = c[-i] + c0 * x of
`numpy.polynomial.polynomial.polyval` in its own operation order, less each
add of a coefficient +0.0, other than the last one (c_0), whose next
coefficient is not -0.0.  Such an add can change only the sign of a zero; the
next add, of a nonzero or a +0.0, gives the same bits from either zero, so
every finite value stays bitwise equal to polyval's (Burgers' F takes 3
whole-array operations, not 4).  The set-up builds F, F' = polyder(F), the
degree-1 root of F' and the sign of F' on each node interval on Python floats
in numpy's operation order; the node tables of F and of the one-sided sums are
built on first use, since a one-interval step reads none of them.
"""
from __future__ import annotations

import bisect
import math
from itertools import accumulate, repeat
from operator import mul

import numpy as np
import numpy.polynomial.polynomial as npp

MAX_POLY_DEGREE = 8


class Channel:
    """One polynomial flux A, given by finite ascending coefficients, with a = A' and a'."""

    def __init__(self, name: str, coeffs) -> None:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError(f"channel {name!r}: coefficients must be a non-empty 1-D sequence")
        if coeffs.size - 1 > MAX_POLY_DEGREE:
            raise ValueError(f"polynomial degree {coeffs.size - 1} exceeds cap {MAX_POLY_DEGREE}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError(f"channel {name!r}: coefficients must be finite, got {coeffs.tolist()}")
        self.name = name
        self.coeffs = coeffs
        # Horner plans, built once: a is called at every characteristic and quadrature node.  A derivative
        # coefficient may overflow; `FluxModel` rejects the bound that follows.
        with np.errstate(over="ignore"):
            a_coeffs, self._a_prime_coeffs = npp.polyder(coeffs), npp.polyder(coeffs, 2)
        self._a, self._a_prime = _horner_plan(a_coeffs.tolist()), _horner_plan(self._a_prime_coeffs.tolist())

    def a(self, u) -> np.ndarray:
        return _horner(self._a, np.asarray(u, dtype=float))

    def a_prime(self, u) -> np.ndarray:
        return _horner(self._a_prime, np.asarray(u, dtype=float))

    def inflections(self, lo: float, hi: float) -> np.ndarray:
        """The real roots of A'' = a' inside (lo, hi), strictly increasing (`_real_roots`); A'' has
        finite coefficients, as in every channel of a `FluxModel`."""
        return _real_roots(self._a_prime_coeffs, lo, hi)


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


def _horner_plan(c) -> tuple:
    """Ascending Python-float coefficients `c` with None for each add `_horner` may drop.

    The add of c_j = +0.0 (0 < j < len(c) - 1) is dropped unless c_{j-1} is -0.0:
    it can only turn a -0.0 into +0.0, a zero stays a zero under the multiply by
    x, and adding a nonzero or a +0.0 next gives the same bits from either zero.
    The last add (c_0) and the start (c[-1]) stay.
    """
    c = tuple(c)
    negative_zero = [x == 0.0 and math.copysign(1.0, x) < 0.0 for x in c]
    return tuple(None if 0 < j < len(c) - 1 and c[j] == 0.0 and not (negative_zero[j] or negative_zero[j - 1])
                 else cj for j, cj in enumerate(c))


def _horner(c, x):
    """`npp.polyval(x, c)` for ascending coefficients `c` (or their `_horner_plan`)
    and finite float `x`, bit for bit.

    Same recurrence and operation order, c0 = c[-i] + c0 * x (in place), less
    the adds a plan marks None.  polyval's start c[-1] + x * 0 is the scalar
    c[-1] for finite x unless c[-1] is -0.0 (then its sign follows x's), so the
    scalar start is taken where exact.
    """
    y = c[-1]
    if len(c) == 1 or (y == 0.0 and math.copysign(1.0, y) < 0.0):
        y = y + x * 0
    for ci in c[-2::-1]:
        y *= x  # in place once y is an array of our own
        if ci is not None:
            y += ci
    return y


def _real_roots(coeffs, lo: float, hi: float) -> np.ndarray:
    """Real roots of a polynomial (ascending coeffs) inside (lo, hi)."""
    # Drop leading zeros, from degree 2 a leading c_n so small that some c_k / c_n overflows (`polyroots`
    # would raise on it; its roots lie beyond 1e308), and a c_n with |c_n| r^(n-k) <= 2^-60 |c_k| for some
    # k, r = max(|lo|, |hi|), under the others' roundoff on (lo, hi), where the companion matrix loses roots.
    c, r = [float(x) for x in coeffs], max(abs(lo), abs(hi))
    while c and (c[-1] == 0.0 or len(c) > 2 and max(map(abs, c[:-1])) / abs(c[-1]) == math.inf or any(
            t <= 2.0**-60 * abs(ck) for ck, t in zip(c[-2::-1], accumulate(repeat(r), mul, initial=abs(c[-1]) * r)))):
        c.pop()
    if len(c) <= 1:
        return np.empty(0)
    if len(c) == 2:  # npp.polyroots' own degree-1 root
        r = -c[0] / c[1]
        return np.array([r]) if lo < r < hi else np.empty(0)
    r = npp.polyroots(c)
    r = r[np.abs(r.imag) <= 1e-9 * (1.0 + np.abs(r.real))].real
    return np.unique(r[(r > lo) & (r < hi)])  # strictly increasing, as `bisect` and the tables need


class FluxModel:
    """Multi-channel flux with certified derivative bounds on u_range."""

    def __init__(self, channels: list[Channel], u_range: tuple[float, float]) -> None:
        lo, hi = float(u_range[0]), float(u_range[1])
        if not lo < hi:
            raise ValueError(f"empty u_range {u_range}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"u_range [{lo}, {hi}] must have finite ends")
        if not channels:
            raise ValueError("need at least one channel")
        self.channels = list(channels)
        self.u_range = (lo, hi)
        self.lip_a = np.array([self._certified_sup(ch) for ch in channels])
        for ch, lip in zip(self.channels, self.lip_a.tolist()):
            if not math.isfinite(lip):
                raise ValueError(f"channel {ch.name!r}: the certified bound of |a| on u_range "
                                 f"[{lo}, {hi}] is {lip}, not a finite number")
        self._validate()

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def _certified_sup(self, ch: Channel) -> float:
        """Exact sup of |a|: extrema sit at the endpoints or at real roots of a'.

        A bound that overflows comes back inf or NaN, for the caller to reject.
        """
        lo, hi = self.u_range
        if not np.all(np.isfinite(ch._a_prime_coeffs)):
            return math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.max(np.abs(ch.a(np.concatenate([[lo, hi], ch.inflections(lo, hi)])))))

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

    Built once per segment: max_speed, F and F' with F's Horner plan, the
    breakpoints (the real roots of F' on hull(u_range, 0)) and the sign of F'
    between them.  The node tables, the values of F and the one-sided sums at the
    nodes that make P, N and the straddling fluxes exact, are built on first use.
    """

    _NODE_TABLES = ("_f_nodes", "_pos_cum", "_neg_cum", "_rising", "_falling", "_pos_at_zero", "_neg_at_zero")

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
        self._v_lo, self._v_hi = flux.u_range[0] - 1e-9, flux.u_range[1] + 1e-9
        self.max_speed = float(np.dot(np.abs(c), flux.lip_a))
        # Python floats in numpy's order: `coeffs[:n] += ci * ch.coeffs`, polyder's j * c_j or c_0 * 0
        coeffs = [0.0] * max(len(ch.coeffs) for ch in flux.channels)
        for ci, ch in zip(c.tolist(), flux.channels):
            coeffs[: len(ch.coeffs)] = [s + ci * a for s, a in zip(coeffs, ch.coeffs.tolist())]
        dcoeffs = [cj * j for j, cj in enumerate(coeffs) if j] or [coeffs[0] * 0]
        self.breakpoints = _real_roots(dcoeffs, self._lo, self._hi)
        # `bisect` finds a node interval in `_bp`, `_rises` says whether F rises on it
        self._bp = tuple(self.breakpoints.tolist())
        self._dcoeffs = tuple(dcoeffs)
        self._plan = _horner_plan(coeffs)
        nodes = (self._lo, *self._bp, self._hi)
        d = [_horner(self._dcoeffs, 0.5 * (a + b)) for a, b in zip(nodes, nodes[1:])]
        self._rises, self._falls = tuple([x > 0 for x in d]), tuple([x < 0 for x in d])

    def __getattr__(self, name: str):
        """The node tables, built on first use (a one-interval step reads none)."""
        if name not in SegmentFlux._NODE_TABLES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build_tables()
        return self.__dict__[name]

    # -- raw evaluations ---------------------------------------------------

    def value(self, u):
        return _horner(self._plan, np.asarray(u, dtype=float))

    # -- sign structure ----------------------------------------------------

    def _build_tables(self) -> None:
        f = [_horner(self._plan, x) for x in (self._lo, *self._bp, self._hi)]
        seg = [fb - fa for fa, fb in zip(f, f[1:])]  # exact int of F' over each interval
        # `accumulate` starts from the first term, as np.cumsum does, so a -0.0 survives
        pos, neg = ([0.0, *accumulate(s if k else 0.0 for s, k in zip(seg, keep))]
                    for keep in (self._rises, self._falls))
        arrays = map(np.array, (f, pos, neg, self._rises, self._falls))
        self._f_nodes, self._pos_cum, self._neg_cum, self._rising, self._falling = arrays
        # the one-sided sums at u = 0, as `one_sided_integrals` forms them
        i = bisect.bisect_right(self._bp, 0.0)
        part = _horner(self._plan, 0.0) - f[i]
        self._pos_at_zero = pos[i] + (part if self._rises[i] else 0.0)
        self._neg_at_zero = neg[i] + (part if self._falls[i] else 0.0)

    def one_sided_integrals(self, u):
        """(P(u), N(u)), vectorized, from one node lookup and one evaluation of F.

        Each is its cumulative sum from self._lo to u's node plus, where F' has
        that sign on u's node interval, the partial part F(u) - F(node) (F' keeps
        one sign inside the interval), less its value at u = 0.
        """
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(self.breakpoints, u, side="right")  # node interval of u
        part = self.value(u) - self._f_nodes[idx]
        p = self._pos_cum[idx] + np.where(self._rising[idx], part, 0.0)
        n = self._neg_cum[idx] + np.where(self._falling[idx], part, 0.0)
        return p - self._pos_at_zero, n - self._neg_at_zero

    def pos_integral(self, u):
        """P(u) = int_0^u max(F'(s), 0) ds."""
        return self.one_sided_integrals(u)[0]

    def neg_integral(self, u):
        """N(u) = int_0^u min(F'(s), 0) ds."""
        return self.one_sided_integrals(u)[1]

    def interface_flux(self, v, scheme: str):
        """Flux at every interface of `v`, cell values padded by one ghost each end.

        Works along the last axis and evaluates F(v) once.  With no breakpoint in
        (min v, max v] F is monotone on every interface's states, and both schemes
        are F at the upwind state: F(u_l) where F rises on that node interval,
        F(u_r) where it falls or is flat; no node table is read.  Straddling states
        take each scheme's general form.  "engquist_osher" is
        F(0) + P(u_l) + N(u_r) = P~(u_l) + (F - P~)(u_r), P~ the one-sided integral
        from the bottom node.  "godunov_convex" is the exact Godunov flux for any F:
        min F on [u_l, u_r], or max F on [u_r, u_l], taken at both ends and the
        breakpoints between them (F is monotone in between).
        """
        # arguments by position: numpy's keyword parsing is a measurable share of a call on ~400 values
        v = np.asarray(v, float)
        v_min, v_max = np.minimum.reduce(v, None), np.maximum.reduce(v, None)  # over all axes
        if not (self._v_lo <= v_min and v_max <= self._v_hi):  # a NaN fails too
            lo, hi = self.flux.u_range
            raise ValueError(f"state outside certified u_range [{lo}, {hi}]")
        if scheme not in ("engquist_osher", "godunov_convex"):
            raise ValueError(f"unknown scheme {scheme!r}")
        fv = _horner(self._plan, v)
        i = bisect.bisect_right(self._bp, v_min)  # `searchsorted(v_min, "right")`
        if i == bisect.bisect_right(self._bp, v_max):  # no breakpoint in (v_min, v_max]
            return fv[..., :-1] if self._rises[i] else fv[..., 1:]
        if scheme == "engquist_osher":
            idx = self.breakpoints.searchsorted(v, "right")
            p = self._pos_cum[idx] + np.where(self._rising[idx], fv - self._f_nodes[idx], 0.0)
            return p[..., :-1] + (fv - p)[..., 1:]
        u_l, u_r = v[..., :-1], v[..., 1:]
        s = np.where(u_l <= u_r, 1.0, -1.0)  # a max is the min of -F
        lowest = np.minimum(s * fv[..., :-1], s * fv[..., 1:])
        below, above = np.minimum(u_l, u_r), np.maximum(u_l, u_r)
        for b, fb in zip(self._bp, self._f_nodes[1:-1].tolist()):
            if not (b <= v_min or v_max <= b):  # else no interval holds b
                np.minimum(lowest, s * fb, out=lowest, where=(below < b) & (b < above))
        return s * lowest
