"""Smooth compactly supported profiles shared by the verification modules.

Everything is built from the reference bump B(z) = exp(1 - 1/(1 - z^2)) on
(-1, 1), which is C-infinity, equals 1 at z = 0 and vanishes with all
derivatives at the endpoints.  Derivatives are closed-form, no finite
differencing anywhere, and the mass of B comes from a fixed Gauss-Legendre
rule, which converges fast because B is flat at the endpoints.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def bump_raw(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    m = np.abs(z) < 1.0
    zm = z[m]
    out[m] = np.exp(1.0 - 1.0 / (1.0 - zm * zm))
    return out


def bump_raw_pair(z) -> tuple[np.ndarray, np.ndarray]:
    """B(z) and B'(z) from one shared exponential."""
    z = np.asarray(z, dtype=float)
    val = np.zeros_like(z)
    der = np.zeros_like(z)
    m = np.abs(z) < 1.0
    zm = z[m]
    w = 1.0 - zm * zm
    e = np.exp(1.0 - 1.0 / w)
    val[m] = e
    der[m] = e * (-2.0 * zm / (w * w))
    return val, der


def bump_raw_deriv(z) -> np.ndarray:
    return bump_raw_pair(z)[1]


_BUMP_NODES = 256  # Gauss-Legendre nodes for the mass of B
_BUMP_INTEGRAL: float | None = None


def bump_integral() -> float:
    """int_{-1}^{1} B(z) dz = 1.2069003224378765 by a fixed Gauss-Legendre rule.

    B is flat at +-1, so the rule is accurate to a few ulp.  Its nodes are
    built on the first call, not at import, and the value is cached.
    """
    global _BUMP_INTEGRAL
    if _BUMP_INTEGRAL is None:
        z, w = np.polynomial.legendre.leggauss(_BUMP_NODES)
        _BUMP_INTEGRAL = float(bump_raw(z) @ w)
    return _BUMP_INTEGRAL


@dataclass(frozen=True)
class Weight:
    """Smooth compactly supported scalar test weight with its derivative."""

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    sup: float
    support: tuple[float, float]


def bump_weight(center: float, halfwidth: float, height: float = 1.0) -> Weight:
    """height * B((x - center)/halfwidth); sup = height at the center."""
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")

    def value(x):
        return height * bump_raw((np.asarray(x, dtype=float) - center) / halfwidth)

    def deriv(x):
        return height * bump_raw_deriv((np.asarray(x, dtype=float) - center) / halfwidth) / halfwidth

    return Weight(value, deriv, abs(height), (center - halfwidth, center + halfwidth))


@dataclass(frozen=True)
class SmoothDatum:
    """Smooth initial datum phi with its closed-form derivative; phi vanishes
    outside `support`, the interval on which the characteristics probe it."""

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]


def bump_datum(center: float, halfwidth: float, height: float) -> SmoothDatum:
    """height * B((x - center)/halfwidth) as a datum."""
    w = bump_weight(center, halfwidth, height)
    return SmoothDatum(w.value, w.deriv, w.support)
