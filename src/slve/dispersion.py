"""Fourier-mode analysis of the two linearized models.

Substituting T = Re{T_a * exp(r t) * exp(i k x)} into the linearized
equations of motion (unit small-stress slope) leaves one polynomial in the
temporal rate r per model:

    strain-rate:  r**2 + nu * k**2 * r + k**2 = 0
    stress-rate:  gamma * r**3 - r**2 - k**2 = 0

The quadratic's roots are (-nu*k**2 -+ sqrt(D))/2 with
D = k**2 * (nu**2 * k**2 - 4): an oscillatory decaying pair below the
critical wavenumber k_c = 2/nu, two negative reals above it, never a growing
mode.  The cubic has discriminant -k**2 * (4 + 27 * gamma**2 * k**2) < 0 for
every k > 0, hence exactly one real root, and the sign pattern of the
coefficients forces that root to be positive: every wavenumber grows.  At
k = 0 the quadratic has a double root at 0, and the cubic has {0, 0, 1/gamma}
so even the uniform mode grows.

Roots are computed and returned in numpy extended precision (80-bit on
x86-64) with a cancellation-free quadratic formula and Newton polish; double
precision cannot deliver residuals below 1e-10 * (1 + |r|**3) for the
quadratic's small root once k**2 * eps/2 crosses that bound (k around 1e3).
The cubic starts from the companion-matrix roots and polishes in extended
precision, keeping the real root in real arithmetic and forcing the other
two to be an exact conjugate pair.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Variant
from .errors import InvalidParameterError
from .pde import _march

__all__ = [
    "LinearModel",
    "Classification",
    "FourierMode",
    "DispersionResult",
    "ModeTrajectory",
    "strain_rate_dispersion",
    "stress_rate_dispersion",
    "solve_dispersion",
    "growth_rate_curve",
    "evolve_single_mode",
    "locate_critical_wavenumber",
    "fit_growth_rate",
    "fit_mode_rates",
]

_LD = np.longdouble
_CLD = np.clongdouble

# |Im r| below this counts as a real root when classifying pair structure
IMAG_TOL = 1e-12


class LinearModel(str, enum.Enum):
    STRESS_RATE = "stress_rate_linear"
    STRAIN_RATE = "strain_rate_linear"


class Classification(str, enum.Enum):
    STABLE = "stable"
    MARGINALLY_STABLE = "marginally_stable"
    UNSTABLE = "unstable"


def _coerce_model(model) -> LinearModel:
    if isinstance(model, LinearModel):
        return model
    if isinstance(model, Variant):
        model = model.value + "_linear"
    try:
        return LinearModel(model)
    except ValueError:
        pass
    try:
        return LinearModel(str(model) + "_linear")
    except ValueError:
        raise InvalidParameterError(f"no linearized model named {model!r}") from None


@dataclass(frozen=True)
class FourierMode:
    """One spatial Fourier mode of a linearized model."""

    model: LinearModel
    k: float
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "model", _coerce_model(self.model))
        k = float(self.k)
        if not math.isfinite(k) or k < 0.0:
            raise InvalidParameterError(f"wavenumber must be finite and >= 0, got {k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "amplitude", complex(self.amplitude))


@dataclass(frozen=True)
class DispersionResult:
    """Temporal rates of one mode, with the facts needed to judge them.

    roots is a clongdouble array (length 2 or 3) so residual checks can be
    made in the precision the roots were solved in.  discriminant follows
    each polynomial's classical formula.  positive_real_root is the growing
    real rate when one exists (always, for the stress-rate model), else None.
    k_critical is the oscillatory/monotone boundary 2/nu of the strain-rate
    model, None for the stress-rate model which has no such transition.
    """

    model: LinearModel
    k: float
    coeff: float
    roots: np.ndarray
    classification: Classification
    k_critical: Optional[float]
    discriminant: float
    positive_real_root: Optional[float]

    @property
    def max_real_part(self) -> float:
        return float(np.max(self.roots.real))

    @property
    def is_oscillatory(self) -> bool:
        """True when some root has |Im r| above IMAG_TOL."""
        return bool(np.any(np.abs(self.roots.imag) > IMAG_TOL))

    def residuals(self) -> np.ndarray:
        """|p(r)| per root, evaluated in extended precision."""
        if self.model is LinearModel.STRAIN_RATE:
            b = _LD(self.coeff) * _LD(self.k) * _LD(self.k)
            c = _LD(self.k) * _LD(self.k)
            vals = (self.roots + b) * self.roots + c
        else:
            g = _LD(self.coeff)
            ksq = _LD(self.k) * _LD(self.k)
            vals = ((g * self.roots - 1.0) * self.roots) * self.roots - ksq
        return np.abs(vals).astype(float)


def _classify(roots: np.ndarray) -> Classification:
    re_max = np.max(roots.real)
    if re_max > 0.0:
        return Classification.UNSTABLE
    if re_max == 0.0:
        return Classification.MARGINALLY_STABLE
    return Classification.STABLE


def strain_rate_dispersion(nu: float, k: float) -> DispersionResult:
    """Both temporal rates of the strain-rate model at wavenumber k.

    Parameters
    ----------
    nu : float
        Strain-rate coefficient, > 0.
    k : float
        Wavenumber, >= 0.

    Returns
    -------
    DispersionResult with two roots, k_critical = 2/nu, and discriminant
    k**2 * (nu**2 * k**2 - 4).
    """
    nu = float(nu)
    k = float(k)
    if not math.isfinite(nu) or nu <= 0.0:
        raise InvalidParameterError(f"nu must be positive and finite, got {nu}")
    if not math.isfinite(k) or k < 0.0:
        raise InvalidParameterError(f"wavenumber must be finite and >= 0, got {k}")

    nuL = _LD(nu)
    kL = _LD(k)
    b = nuL * kL * kL
    c = kL * kL
    disc = b * b - 4.0 * c

    if k == 0.0:
        roots = np.zeros(2, dtype=_CLD)
    elif disc < 0.0:
        s = np.sqrt(-disc)
        z = _CLD(-0.5 * b + 0.5j * s)
        z = _polish_quadratic(z, b, c)
        roots = np.array([z, z.conjugate()], dtype=_CLD)
    else:
        s = np.sqrt(disc)
        r1 = -(b + s) / 2.0  # large-magnitude root, no cancellation
        r2 = c / r1 if r1 != 0.0 else _LD(0.0)
        r1 = _polish_quadratic(r1, b, c)
        r2 = _polish_quadratic(r2, b, c)
        roots = np.array([_CLD(r2), _CLD(r1)], dtype=_CLD)

    return DispersionResult(
        model=LinearModel.STRAIN_RATE,
        k=k,
        coeff=nu,
        roots=roots,
        classification=_classify(roots),
        k_critical=2.0 / nu,
        discriminant=float(disc),
        positive_real_root=None,
    )


def _polish_quadratic(r, b, c):
    # Newton on r**2 + b*r + c in whatever precision r carries
    for _ in range(3):
        p = (r + b) * r + c
        dp = 2.0 * r + b
        if dp == 0.0:
            break
        r = r - p / dp
    return r


def _polish_cubic(r, g, ksq):
    # Newton on g*r**3 - r**2 - ksq
    for _ in range(4):
        p = ((g * r - 1.0) * r) * r - ksq
        dp = (3.0 * g * r - 2.0) * r
        if dp == 0.0:
            break
        r = r - p / dp
    return r


def stress_rate_dispersion(gamma: float, k: float) -> DispersionResult:
    """All three temporal rates of the stress-rate model at wavenumber k.

    The discriminant -k**2 * (4 + 27 * gamma**2 * k**2) is negative for every
    k > 0, so there is one real root and a conjugate pair; the real root is
    positive (one sign change in the coefficients), so the classification is
    always unstable.  At k = 0 the roots are {0, 0, 1/gamma}.
    """
    gamma = float(gamma)
    k = float(k)
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise InvalidParameterError(f"gamma must be positive and finite, got {gamma}")
    if not math.isfinite(k) or k < 0.0:
        raise InvalidParameterError(f"wavenumber must be finite and >= 0, got {k}")

    gL = _LD(gamma)
    kL = _LD(k)
    ksq = kL * kL
    disc = -ksq * (4.0 + 27.0 * gL * gL * ksq)

    if k == 0.0:
        real_root = _LD(1.0) / gL
        roots = np.array([_CLD(real_root), _CLD(0.0), _CLD(0.0)], dtype=_CLD)
        positive = float(real_root)
    else:
        start = np.roots([gamma, -1.0, 0.0, -k * k])
        i_real = int(np.argmin(np.abs(start.imag)))
        r_real = _polish_cubic(_LD(start[i_real].real), gL, ksq)
        pair = [start[i] for i in range(3) if i != i_real]
        z = max(pair, key=lambda w: w.imag)  # polish the Im > 0 member
        z = _polish_cubic(_CLD(z), gL, ksq)
        roots = np.array([_CLD(r_real), z, z.conjugate()], dtype=_CLD)
        if not r_real > 0.0:
            raise InvalidParameterError(
                f"internal inconsistency: real rate {float(r_real)} not positive"
            )
        positive = float(r_real)

    return DispersionResult(
        model=LinearModel.STRESS_RATE,
        k=k,
        coeff=gamma,
        roots=roots,
        classification=Classification.UNSTABLE,
        k_critical=None,
        discriminant=float(disc),
        positive_real_root=positive,
    )


def solve_dispersion(model, coeff: float, k: float) -> DispersionResult:
    """Model-switching wrapper over the two dispersion solvers."""
    model = _coerce_model(model)
    if model is LinearModel.STRAIN_RATE:
        return strain_rate_dispersion(coeff, k)
    return stress_rate_dispersion(coeff, k)


def growth_rate_curve(model, coeff: float, k_values) -> np.ndarray:
    """Max Re r over the supplied wavenumbers.

    Returns an (n, 2) float array of rows (k, max real part).  For the
    strain-rate model the second column is <= 0 everywhere; for the
    stress-rate model it is the positive real root, which grows without
    bound as k does.
    """
    model = _coerce_model(model)
    k_values = np.asarray(k_values, dtype=float)
    out = np.empty((k_values.size, 2))
    for i, k in enumerate(k_values.ravel()):
        res = solve_dispersion(model, coeff, float(k))
        out[i, 0] = k
        out[i, 1] = res.max_real_part
    return out


def locate_critical_wavenumber(nu: float, tol: float = 1e-8) -> float:
    """Bisect for the wavenumber where the root pair stops oscillating.

    Uses only the classification of computed roots (complex pair vs two
    reals), not the closed-form k_c, so it serves as an independent check of
    the discriminant's sign change.
    """
    if tol <= 0.0:
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


@dataclass(frozen=True)
class ModeTrajectory:
    """Complex amplitude samples of one evolved mode."""

    times: np.ndarray
    amplitudes: np.ndarray


def evolve_single_mode(
    mode: FourierMode, coeff: float, t_final: float, dt: float
) -> ModeTrajectory:
    """Integrate one mode's amplitude ODE with classical fourth-order RK.

    The mode starts at the given amplitude with vanishing time derivatives,
    a(0) = amplitude, a'(0) = 0 (and a''(0) = 0 for the stress-rate model).
    Samples are emitted at every step; the last step is shortened to land on
    t_final exactly.

    Raises
    ------
    InvalidStepError for a non-finite dt, dt <= 0 or dt > t_final;
    InvalidParameterError for a non-finite or non-positive t_final.
    """
    coeff = float(coeff)
    if not math.isfinite(coeff) or coeff <= 0.0:
        raise InvalidParameterError(f"coefficient must be positive, got {coeff}")

    ksq = mode.k * mode.k
    if mode.model is LinearModel.STRAIN_RATE:
        y = np.array([mode.amplitude, 0.0], dtype=complex)

        def rhs(state):
            return np.array([state[1], -coeff * ksq * state[1] - ksq * state[0]])

    else:
        y = np.array([mode.amplitude, 0.0, 0.0], dtype=complex)

        def rhs(state):
            return np.array(
                [state[1], state[2], (state[2] + ksq * state[0]) / coeff]
            )

    times = [0.0]
    amps = [y[0]]
    for t, y in _march(rhs, y, t_final, dt):
        times.append(t)
        amps.append(y[0])
    return ModeTrajectory(times=np.asarray(times), amplitudes=np.asarray(amps))


def fit_growth_rate(times, values, fit_start: Optional[float] = None) -> float:
    """Least-squares slope of log|values| over the tail of a history.

    fit_start defaults to the midpoint time, which discards the transient
    while subdominant modes die off (or are outgrown).
    """
    t = np.asarray(times, dtype=float)
    mag = np.abs(np.asarray(values))
    if fit_start is None:
        fit_start = t[len(t) // 2]
    mask = (t >= fit_start) & (mag > 0.0)
    if mask.sum() < 2:
        raise InvalidParameterError("not enough samples beyond fit_start")
    slope, _ = np.polyfit(t[mask], np.log(mag[mask]), 1)
    return float(slope)


def fit_mode_rates(times, values, n_modes: int = 2) -> np.ndarray:
    """Complex rates of an n_modes exponential mixture, by linear recurrence.

    Uniformly sampled z_n = sum_j c_j exp(r_j t_n) satisfies an order-n_modes
    linear recurrence; the recurrence is fit by least squares and the rates
    recovered from its characteristic roots.  Exact for noise-free mixtures,
    which is what a linear constant-coefficient semi-discretization produces
    in each spatial Fourier bin.
    """
    t = np.asarray(times, dtype=float)
    z = np.asarray(values, dtype=complex)
    if len(t) < 2 * n_modes + 1:
        raise InvalidParameterError("history too short for the requested mode count")
    steps = np.diff(t)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise InvalidParameterError("recurrence fit needs uniform sampling")
    scale = np.max(np.abs(z))
    if scale == 0.0:
        raise InvalidParameterError("history is identically zero")
    z = z / scale
    m = int(n_modes)
    cols = [z[j : len(z) - m + j] for j in range(m)]
    coeffs, *_ = np.linalg.lstsq(np.column_stack(cols), z[m:], rcond=None)
    lam = np.roots(np.concatenate(([1.0], -coeffs[::-1])))
    rates = np.log(lam.astype(complex)) / dt
    return rates[np.argsort(-rates.real)]
