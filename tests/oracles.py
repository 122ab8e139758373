"""Test-only oracles: independent checks of the library's results.

locate_critical_wavenumber finds the strain-rate k_c from the root
classification alone, fit_mode_rates recovers the rates of a sampled mode
history, and first_order_residual measures how well a front solves its
profile ODE.  The tests import them from here, next to their own checks.
"""

import numpy as np

from slve import InvalidParameterError, KinkProfile, balance_function, strain_rate_dispersion
from slve.core import _require_count


def locate_critical_wavenumber(nu: float, tol: float = 1e-8) -> float:
    """Bisect for the wavenumber where the root pair stops oscillating.

    Uses only the classification of computed roots (complex pair vs two
    reals), not the closed-form k_c, so it serves as an independent check of
    the discriminant's sign change.
    """
    if not tol > 0.0:
        raise InvalidParameterError(f"tol must be positive, got {tol}")
    lo = 1e-9
    if not strain_rate_dispersion(nu, lo).is_oscillatory:
        raise InvalidParameterError(f"no oscillatory band found for nu = {nu}")
    hi = 1.0
    while strain_rate_dispersion(nu, hi).is_oscillatory:
        hi *= 2.0
        if hi > 1e12:
            raise InvalidParameterError(f"no monotone band found for nu = {nu}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if strain_rate_dispersion(nu, mid).is_oscillatory:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fit_mode_rates(times, values, n_modes: int = 2) -> np.ndarray:
    """Complex rates of an n_modes exponential mixture, by linear recurrence.

    Uniformly sampled z_n = sum_j c_j exp(r_j t_n) satisfies an order-n_modes
    linear recurrence; the recurrence is fit by least squares and the rates
    recovered from its characteristic roots.  Exact for noise-free mixtures,
    which is what a linear constant-coefficient semi-discretization produces
    in each spatial Fourier bin.
    """
    m = _require_count("n_modes", n_modes, 1)
    t = np.asarray(times, dtype=float)
    z = np.asarray(values, dtype=complex)
    if len(t) < 2 * m + 1:
        raise InvalidParameterError("history too short for the requested mode count")
    steps = np.diff(t)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise InvalidParameterError("recurrence fit needs uniform sampling")
    scale = np.max(np.abs(z))
    if scale == 0.0:
        raise InvalidParameterError("history is identically zero")
    z = z / scale
    cols = [z[j : len(z) - m + j] for j in range(m)]
    coeffs, *_ = np.linalg.lstsq(np.column_stack(cols), z[m:], rcond=None)
    lam = np.roots(np.concatenate(([1.0], -coeffs[::-1])))
    rates = np.log(lam.astype(complex)) / dt
    return rates[np.argsort(-rates.real)]


def first_order_residual(profile: KinkProfile, h: float = 0.01) -> np.ndarray:
    """kappa*T' - B(T) at the samples, T' from a 5-point centered stencil."""
    half = float(profile.xi[-1])
    xi = profile.xi[(profile.xi >= -half + 2.05 * h) & (profile.xi <= half - 2.05 * h)]
    f = profile.interpolant
    d1 = (-f(xi + 2 * h) + 8 * f(xi + h) - 8 * f(xi - h) + f(xi - 2 * h)) / (12 * h)
    return profile.kappa_signed * d1 - balance_function(profile.problem, f(xi))
