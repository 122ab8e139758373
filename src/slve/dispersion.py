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
The cubic's real root starts from Cardano's formula in a form where every
term is positive (Kahan, "To Solve a Real Cubic Equation", 1986), the pair
from Vieta's sum and product; both are polished by Newton steps in extended
precision, the real root in real arithmetic and the other two forced to be
an exact conjugate pair.

Both solvers take one wavenumber or a 1-D array of them and solve an array
in one vectorized pass, with the same operations per mode; a scalar call is
the length-1 batch, so the two agree bit for bit.

On a periodic grid the centred stencil of pde.simulate turns k into
kappa = sin(k dx)/dx, so a run with a linear response carries each spatial
mode at exactly these rates taken at kappa, one RK4 polynomial per step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ModelParams, Variant
from .errors import InvalidParameterError

__all__ = [
    "Classification",
    "DispersionResult",
    "strain_rate_dispersion",
    "stress_rate_dispersion",
    "solve_dispersion",
]

_LD = np.longdouble
_CLD = np.clongdouble
_DBL_MAX = np.finfo(float).max

# |Im r| below this counts as a real root when classifying pair structure
IMAG_TOL = 1e-12


class Classification(str, enum.Enum):
    STABLE = "stable"
    MARGINALLY_STABLE = "marginally_stable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class DispersionResult:
    """Temporal rates of one mode, or of a batch of modes, with the facts
    needed to judge them.

    roots is a clongdouble array (length 2 or 3) so residual checks can be
    made in the precision the roots were solved in.  discriminant follows
    each polynomial's classical formula; one beyond the double range reads
    as an infinity (the stress-rate one is -inf at gamma = k = 1e150),
    while the roots stay finite.  positive_real_root is the growing
    real rate when one exists (always, for the stress-rate model), else None.
    k_critical is the oscillatory/monotone boundary 2/nu of the strain-rate
    model, None for the stress-rate model which has no such transition.

    A solver given a 1-D array of n wavenumbers returns one result whose
    per-mode fields carry a leading mode axis: k, discriminant and
    positive_real_root are (n,) float arrays, classification an (n,) object
    array of Classification members and roots (n, m).  max_real_part,
    is_oscillatory and residuals() then work along the last axis.
    """

    model: Variant
    k: float
    coeff: float
    roots: np.ndarray
    classification: Classification
    k_critical: Optional[float]
    discriminant: float
    positive_real_root: Optional[float]

    @property
    def max_real_part(self) -> float:
        top = self.roots.real.max(axis=-1).astype(float)
        return top if top.ndim else float(top)

    @property
    def is_oscillatory(self) -> bool:
        """True when some root has |Im r| above IMAG_TOL."""
        osc = (np.abs(self.roots.imag) > IMAG_TOL).any(axis=-1)
        return osc if osc.ndim else bool(osc)

    def residuals(self) -> np.ndarray:
        """|p(r)| per root, evaluated in extended precision."""
        k = np.asarray(self.k, dtype=_LD)[..., None]
        coeff = _LD(self.coeff)
        poly = (_quadratic(coeff * k * k, k * k) if self.model is Variant.STRAIN_RATE
                else _cubic(coeff, k * k))
        return np.abs(poly(self.roots)[0]).astype(float)


# indexed by (re_max == 0) + 2 * (re_max > 0)
_CLASSES = np.array(list(Classification), dtype=object)


def _classify(roots: np.ndarray) -> np.ndarray:
    re_max = roots.real.max(axis=-1)
    return _CLASSES[(re_max == 0.0) + 2 * (re_max > 0.0)]


def _result(scalar, model, k, coeff, roots, k_critical, disc, positive) -> DispersionResult:
    """Pack a batch of modes; a scalar k gets its one mode with scalar fields."""
    with np.errstate(over="ignore"):  # a discriminant beyond the double range is inf
        disc = disc.astype(float)
    classification = _classify(roots)
    if scalar:
        k, roots, classification, disc = float(k[0]), roots[0], classification[0], float(disc[0])
        positive = None if positive is None else float(positive[0])
    return DispersionResult(model, k, coeff, roots, classification, k_critical, disc, positive)


def _accepted(params: ModelParams, k):
    """The rate coefficient and the wavenumbers a solver runs for params, and
    whether k was given as a scalar; the wavenumbers come back as a 1-D
    float array.  params itself holds a positive, finite coefficient.

    Refuses the elastic variant, which has no rate term; k that is not
    finite and >= 0, or whose k*k overflows a double (the roots and the
    residuals would be infinite); for the strain-rate model, a nu whose
    critical wavenumber 2/nu overflows and k whose nu*k*k overflows (the
    quadratic's linear coefficient, about the fast decay rate); and, for
    the stress-rate model, a gamma whose 1/gamma overflows (the real rate
    at k = 0) or whose 1/gamma**2 does (the cubic's terms at that root, so
    |p(r)| has no double value), and k whose k*k/gamma overflows (the
    cubic's constant term, and so every root, would not be finite in double
    precision).
    """
    if params.variant is Variant.ELASTIC:
        raise InvalidParameterError("the elastic variant has no rate term to linearize")
    name = "nu" if params.variant is Variant.STRAIN_RATE else "gamma"
    coeff = params.coefficient
    k = np.asarray(k, dtype=float)
    if k.ndim > 1:
        raise InvalidParameterError(
            f"wavenumbers must be a scalar or a 1-D array, got shape {k.shape}"
        )
    ks = k.reshape(-1)
    with np.errstate(over="ignore"):
        ok = (ks >= 0.0) & (ks * ks <= _DBL_MAX)  # NaN and inf fail too
    if not ok.all():
        bad = float(ks[~ok][0])
        if math.isfinite(bad) and bad >= 0.0:
            raise InvalidParameterError(f"wavenumber {bad} is too large: k*k overflows a double")
        raise InvalidParameterError(f"wavenumber must be finite and >= 0, got {bad}")
    if name == "gamma":  # the cubic's k = 0 root 1/gamma, and its terms 1/gamma**2 there
        for term, value in (("1/gamma", 1.0 / coeff), ("1/gamma**2", 1.0 / coeff / coeff)):
            if not math.isfinite(value):
                raise InvalidParameterError(
                    f"gamma {coeff} is too small: {term} overflows a double")
    elif not math.isfinite(2.0 / coeff):  # the critical wavenumber
        raise InvalidParameterError(f"nu {coeff} is too small: 2/nu overflows a double")
    with np.errstate(over="ignore"):
        finite = np.isfinite(ks * ks / coeff if name == "gamma" else coeff * ks * ks)
    if not finite.all():
        term = "k*k/gamma" if name == "gamma" else "nu*k*k"
        raise InvalidParameterError(
            f"wavenumber {float(ks[~finite][0])} is too large: {term} overflows a double"
        )
    return coeff, ks, k.ndim == 0


def _newton(r: np.ndarray, p_and_dp, steps: int) -> np.ndarray:
    """Newton steps on every entry of r in place, in r's precision.

    An entry whose derivative vanishes keeps its value, and so its zero
    derivative, from then on, as a scalar loop that breaks there would.
    """
    if r.size == 0:  # a scalar strain-rate call leaves one branch empty
        return r
    for _ in range(steps):
        p, dp = p_and_dp(r)
        moving = dp != 0.0
        np.subtract(r, np.divide(p, dp, out=p, where=moving), out=r, where=moving)
    return r


def _quadratic(b, c):
    # r**2 + b*r + c and its derivative
    return lambda r: ((r + b) * r + c, 2.0 * r + b)


def _cubic(g, ksq):
    # g*r**3 - r**2 - ksq and its derivative
    return lambda r: (((g * r - 1.0) * r) * r - ksq, (3.0 * g * r - 2.0) * r)


def strain_rate_dispersion(nu: float, k) -> DispersionResult:
    """Both temporal rates of the strain-rate model at wavenumber k.

    Parameters
    ----------
    nu : float
        Strain-rate coefficient, > 0.
    k : float or 1-D array of float
        Wavenumber(s), >= 0, with k*k finite in double precision.

    Returns
    -------
    DispersionResult with two roots, k_critical = 2/nu, and discriminant
    k**2 * (nu**2 * k**2 - 4); batched along a leading axis for array k.
    """
    nu, k, scalar = _accepted(ModelParams(Variant.STRAIN_RATE, nu=nu), k)

    kL = k.astype(_LD)
    b = _LD(nu) * kL * kL
    c = kL * kL
    disc = b * b - 4.0 * c

    roots = np.zeros((k.size, 2), dtype=_CLD)  # k = 0: the double root 0
    osc = (k != 0.0) & (disc < 0.0)
    z = -0.5 * b[osc] + 0.5j * np.sqrt(-disc[osc])
    z = _newton(z, _quadratic(b[osc], c[osc]), 3)
    roots[osc, 0] = z
    roots[osc, 1] = np.conj(z)

    real = (k != 0.0) & ~osc
    br, cr = b[real, None], c[real, None]
    r1 = -(br + np.sqrt(disc[real, None])) / 2.0  # large-magnitude root, no cancellation
    r2 = cr / r1  # r1 < 0 for every k > 0
    roots[real] = _newton(np.hstack([r2, r1]), _quadratic(br, cr), 3)

    return _result(scalar, Variant.STRAIN_RATE, k, nu, roots, 2.0 / nu, disc, None)


def stress_rate_dispersion(gamma: float, k) -> DispersionResult:
    """All three temporal rates of the stress-rate model at wavenumber k.

    The discriminant -k**2 * (4 + 27 * gamma**2 * k**2) is negative for every
    k > 0, so there is one real root and a conjugate pair; the real root is
    positive (one sign change in the coefficients), so the classification is
    always unstable.  At k = 0 the roots are {0, 0, 1/gamma}.  k may be a
    1-D array (k*k/gamma finite in double precision); the result is then
    batched along a leading axis.

    The real rate starts from Cardano's formula, in extended precision: with
    third = 1/(3 gamma) and half = k**2/(2 gamma),
    u = cbrt(third**3 + half + sqrt(half) * sqrt(2 third**3 + half)) and
    r = third + u + third**2/u.  Every term is positive, so nothing cancels.
    The pair z, conj(z) starts from Vieta: its sum s = 1/gamma - r and its
    product p = k**2/(gamma r) give z = s/2 + i sqrt(p - s**2/4).  s is
    formed as -(u - third)**2/u, with u - third = (u**3 - third**3)/
    (u**2 + u third + third**2), since 1/gamma - r itself cancels once
    gamma k**2 is tiny.  Both starts take four Newton steps in extended
    precision.
    """
    gamma, k, scalar = _accepted(ModelParams(Variant.STRESS_RATE, gamma=gamma), k)

    gL = _LD(gamma)
    kL = k.astype(_LD)
    ksq = kL * kL
    disc = -ksq * (4.0 + 27.0 * gL * gL * ksq)

    third = 1.0 / (3.0 * gL)
    half = ksq / (2.0 * gL)
    cube = third * third * third
    lift = half + np.sqrt(half) * np.sqrt(2.0 * cube + half)  # u**3 - third**3
    u = np.cbrt(cube + lift)
    r_real = _newton(third + u + third * third / u, _cubic(gL, ksq), 4)
    gap = lift / ((u + third) * u + third * third)  # u - third, from lift
    s = -gap * gap / u  # 1/gamma - r, which cancels once gamma*k*k is tiny
    im = np.sqrt(np.maximum(ksq / (gL * r_real) - s * s / 4.0, 0.0))
    z = _newton(s / 2.0 + 1j * im, _cubic(gL, ksq), 4)

    zero = k == 0.0
    r_real[zero] = _LD(1.0) / gL
    roots = np.stack([r_real.astype(_CLD), z, np.conj(z)], axis=1)
    roots[zero, 1:] = 0.0

    positive = r_real.astype(float)
    return _result(scalar, Variant.STRESS_RATE, k, gamma, roots, None, disc, positive)


def solve_dispersion(params: ModelParams, k) -> DispersionResult:
    """The dispersion solver of params' variant, run at its rate coefficient.

    The elastic variant has no rate term and so no dispersion here.  k is a
    scalar or a 1-D array, as for the solvers themselves.
    """
    _accepted(params, k)
    if params.variant is Variant.STRAIN_RATE:
        return strain_rate_dispersion(params.nu, k)
    return stress_rate_dispersion(params.gamma, k)
