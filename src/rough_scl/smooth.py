"""Smooth compactly supported profiles shared by the verification modules.

One type, `Weight`, holds each of them: a test weight of the kinetic or
dissipative checks, or the datum of a local smooth solution.  Everything is
built from the reference bump B(z) = exp(1 - 1/(1 - z^2)) on (-1, 1), which is
C-infinity, equals 1 at z = 0 and vanishes with all derivatives at the
endpoints.  Derivatives are closed-form, no finite differencing anywhere, and
the mass of B is the value of a fixed Gauss-Legendre rule, which converges fast
because B is flat at the endpoints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _bump(z, with_deriv: bool) -> list[np.ndarray]:
    """B(z) (and B'(z)), 0 outside (-1, 1): the closed form runs on the whole
    array, in place on two fresh arrays (three with B'), with no mask gather,
    and 0 is stored outside; each point inside takes the same operations as
    when only the points inside are evaluated."""
    z = np.asarray(z, dtype=float)
    zs = z.ravel()  # 1-D, so every product below is an array
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # only outside (-1, 1)
        w = zs * zs
        np.subtract(1.0, w, out=w)
        e = np.divide(1.0, w)
        np.subtract(1.0, e, out=e)
        parts = [np.exp(e, out=e)]
        if with_deriv:
            d = zs * -2.0
            d /= np.multiply(w, w, out=w)
            parts.append(np.multiply(e, d, out=d))
    outside = ~(np.abs(zs) < 1.0)
    for v in parts:
        v[outside] = 0.0
    return [v.reshape(z.shape) for v in parts]


def bump_raw(z) -> np.ndarray:
    return _bump(z, False)[0]


def bump_raw_pair(z) -> tuple[np.ndarray, np.ndarray]:
    """B(z) and B'(z) from one shared exponential."""
    return tuple(_bump(z, True))


def bump_integral() -> float:
    """int_{-1}^{1} B(z) dz, the value of the 256-node Gauss-Legendre rule on B.

    B is flat at +-1, so the rule is accurate to a few ulp; tests check that the
    rule still gives this literal bit for bit.
    """
    return 1.2069003224378765


@dataclass(frozen=True)
class Weight:
    """Smooth compactly supported scalar function with its closed-form derivative, its sup
    and its support: a test weight, or the datum phi of a local smooth solution, which
    vanishes outside `support`, the interval on which the characteristics probe it."""

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    sup: float
    support: tuple[float, float]


def bump_weight(center: float, halfwidth: float, height: float = 1.0) -> Weight:
    """height * B((x - center)/halfwidth); sup = height at the center."""
    if not 0.0 < halfwidth < math.inf:  # a NaN fails too
        raise ValueError(f"halfwidth must be positive and finite, got {halfwidth}")
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")

    def value(x):
        return height * bump_raw((np.asarray(x, dtype=float) - center) / halfwidth)

    def deriv(x):
        z = (np.asarray(x, dtype=float) - center) / halfwidth
        return height * bump_raw_pair(z)[1] / halfwidth

    return Weight(value, deriv, abs(height), (center - halfwidth, center + halfwidth))


bump_datum = bump_weight  # the name the benchmark's workloads import
