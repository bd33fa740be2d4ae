"""Reference forms shared by the tests: earlier kernel forms that the lean ones
must equal bit for bit, and the pointwise kernel rho with its transport shift,
which the residual oracle sums term by term."""
import numpy as np

FLUX_SPECS = ("burgers", "cubic", "poly:0.1,-0.3,0.2,0.5,-0.25,0.15", "burgers;cubic", "cubic;poly:0,1,-0.5")


def masked_bump_raw(z):
    """B(z), the closed form evaluated only on the points inside (-1, 1)."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    m = np.abs(z) < 1.0
    zm = z[m]
    out[m] = np.exp(1.0 - 1.0 / (1.0 - zm * zm))
    return out


def masked_bump_raw_pair(z):
    """B(z) and B'(z), evaluated only on the points inside (-1, 1)."""
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


def rho(kernel, z):
    """rho_eta(z) = profile(z / eta) / eta of a `KernelRho`."""
    return kernel.profile(np.asarray(z, dtype=float) / kernel.width) / kernel.width


def drho(kernel, z):
    """rho_eta'(z) = profile'(z / eta) / eta^2."""
    return kernel.profile_pair(np.asarray(z, dtype=float) / kernel.width)[1] / kernel.width**2


def transport_shift(flux, path, xi, t):
    """sum_i a_i(xi) W^i(t): the kernel centre offset at level xi and time t."""
    w = path.eval(t)
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    for wi, ch in zip(np.atleast_1d(w), flux.channels):
        out = out + wi * ch.a(xi)
    return out


def rho_eval(kernel, y, x, xi, t, path, flux):
    """rho(y, x, xi, t) = rho_eta(y - x + sum_i a_i(xi) W^i(t))."""
    shift = transport_shift(flux, path, xi, t)
    return rho(kernel, np.asarray(y, dtype=float) - np.asarray(x, dtype=float) + shift)
