"""Traveling fronts: both models reduce to one first-order profile ODE.

Inserting T(x - c t) into either model's equation of motion and integrating
twice with decaying conditions at infinity leaves

    kappa * T'(xi) = T - c**2 * f(T) - A2  =: B(T)

with the single coefficient

    kappa = gamma * c**3   (stress-rate model, f = h)
    kappa = nu * c         (strain-rate model, f = g),

so the two models share every profile shape up to the xi-scaling kappa.  The
end states fix the speed and the momentum constant:

    c**2 = (T_plus - T_minus) / (f(T_plus) - f(T_minus)),
    A2   = T_minus - c**2 * f(T_minus),

and the once-integrated momentum balance ties the strain to the stress along
the wave, eps = (T - A2) / c**2, v = -c * eps + const.

A monotone heteroclinic front between the end states exists exactly when
B(T) has no zero strictly between them; B vanishing identically (linear f)
is the degenerate case where every speed-c profile family collapses and no
front is selected.  When B's sign drives the raw ODE from T_plus to T_minus
instead, the labeled profile is the xi-reflection of the raw one, i.e. the
same front traveling at -c; profiles returned here always honor the labels
T(-infinity) = T_minus, T(+infinity) = T_plus and record the signed speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .constitutive import ConstitutiveFunction
from .core import Field, Grid1D, Variant
from .errors import (
    DegenerateEquilibriaError,
    InvalidParameterError,
    NoKinkError,
    NoRealSpeedError,
    SingularLimitError,
    SpanTooShortError,
)
from .pde import SimState

__all__ = [
    "TravelingWaveProblem",
    "KinkDiagnostic",
    "KinkProfile",
    "UnificationReport",
    "wave_speed",
    "reduction_kappa",
    "make_problem",
    "balance_function",
    "kink_exists",
    "kink_profile",
    "first_order_residual",
    "unified_reduction_check",
    "kink_initial_state",
]

# interior scan resolution for sign changes of the balance function
_SCAN_POINTS = 10000


def wave_speed(f: ConstitutiveFunction, t_minus: float, t_plus: float) -> Tuple[float, float]:
    """Squared speed and momentum constant selected by the end states.

    Returns
    -------
    (c_squared, a2)

    Raises
    ------
    DegenerateEquilibriaError
        If the end states coincide in stress or in response value.
    NoRealSpeedError
        If the end states give c**2 <= 0 (response decreasing between them).
    """
    t_minus = float(t_minus)
    t_plus = float(t_plus)
    if not (math.isfinite(t_minus) and math.isfinite(t_plus)):
        raise InvalidParameterError("end states must be finite")
    if t_minus == t_plus:
        raise DegenerateEquilibriaError(f"end states coincide: {t_minus}")
    fm = float(f.value(t_minus))
    fp = float(f.value(t_plus))
    if fm == fp:
        raise DegenerateEquilibriaError(
            f"response takes the same value {fm} at both end states"
        )
    c_squared = (t_plus - t_minus) / (fp - fm)
    if c_squared <= 0.0:
        raise NoRealSpeedError(
            f"end states give c^2 = {c_squared:.6g} <= 0; no real speed"
        )
    a2 = t_minus - c_squared * fm
    return c_squared, a2


def reduction_kappa(variant: Variant | str, coeff: float, c: float) -> float:
    """The single profile-ODE coefficient kappa for a variant.

    gamma * c**3 for stress-rate, nu * c for strain-rate.  A vanishing
    coefficient (or the elastic variant) collapses the reduction to the
    algebraic relation B(T) = 0 and selects no profile.
    """
    variant = Variant(variant)
    coeff = float(coeff)
    c = float(c)
    if c <= 0.0 or not math.isfinite(c):
        raise InvalidParameterError(f"speed must be positive, got {c}")
    if variant is Variant.ELASTIC or coeff == 0.0:
        raise SingularLimitError(
            "kappa vanishes: the profile equation degenerates in the elastic limit"
        )
    if coeff < 0.0 or not math.isfinite(coeff):
        raise InvalidParameterError(f"rate coefficient must be positive, got {coeff}")
    if variant is Variant.STRESS_RATE:
        return coeff * c**3
    return coeff * c


@dataclass(frozen=True)
class TravelingWaveProblem:
    """A front connection problem with its derived constants."""

    f: ConstitutiveFunction
    t_minus: float
    t_plus: float
    variant: Variant
    coeff: float
    c_squared: float
    c: float
    kappa: float
    a2: float


def make_problem(
    f: ConstitutiveFunction,
    t_minus: float,
    t_plus: float,
    variant: Variant | str,
    coeff: float,
) -> TravelingWaveProblem:
    """Assemble a TravelingWaveProblem, validating the equilibrium algebra."""
    variant = Variant(variant)
    c_squared, a2 = wave_speed(f, t_minus, t_plus)
    c = math.sqrt(c_squared)
    kappa = reduction_kappa(variant, coeff, c)
    problem = TravelingWaveProblem(
        f=f,
        t_minus=float(t_minus),
        t_plus=float(t_plus),
        variant=variant,
        coeff=float(coeff),
        c_squared=c_squared,
        c=c,
        kappa=kappa,
        a2=a2,
    )
    scale = max(1.0, abs(problem.t_minus), abs(problem.t_plus))
    for t_end in (problem.t_minus, problem.t_plus):
        if abs(float(balance_function(problem, t_end))) > 1e-12 * scale:
            raise InvalidParameterError(
                f"end state {t_end} fails the equilibrium identity"
            )
    return problem


def balance_function(problem: TravelingWaveProblem, T):
    """B(T) = T - c**2 * f(T) - A2; kappa*T' = B(T) along the front."""
    return np.asarray(T, dtype=float) - problem.c_squared * np.asarray(
        problem.f.value(T), dtype=float
    ) - problem.a2


@dataclass(frozen=True)
class KinkDiagnostic:
    """Existence verdict for a monotone front, with the reasons."""

    exists: bool
    degenerate: bool
    reversed_orientation: bool
    interior_zeros: Tuple[float, ...]
    message: str

    def __bool__(self) -> bool:
        return self.exists


def kink_exists(problem: TravelingWaveProblem) -> KinkDiagnostic:
    """Scan the balance function strictly between the end states.

    A front exists iff B keeps one sign there.  Sign changes are refined by
    bisection to width 1e-12 and reported; an identically vanishing B (the
    linear response) is flagged degenerate.  The orientation records whether
    B's sign drives the raw ODE opposite to the labels.
    """
    lo, hi = sorted((problem.t_minus, problem.t_plus))
    ts = np.linspace(lo, hi, _SCAN_POINTS + 1)[1:-1]
    vals = np.asarray(balance_function(problem, ts))
    scale = max(
        1.0,
        abs(problem.t_minus),
        abs(problem.t_plus),
        problem.c_squared * float(np.max(np.abs([problem.f.value(lo), problem.f.value(hi)]))),
    )
    if float(np.max(np.abs(vals))) <= 1e-13 * scale:
        return KinkDiagnostic(
            exists=False,
            degenerate=True,
            reversed_orientation=False,
            interior_zeros=(),
            message="balance function vanishes identically between the end "
            "states; the profile family degenerates (linear response)",
        )

    zeros = []
    signs = np.sign(vals)
    for i in np.nonzero(signs == 0.0)[0]:
        zeros.append(float(ts[i]))
    for i in np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]:
        a, b = float(ts[i]), float(ts[i + 1])
        fa = float(balance_function(problem, a))
        while b - a > 1e-12:
            m = 0.5 * (a + b)
            fmid = float(balance_function(problem, m))
            if fa * fmid <= 0.0:
                b = m
            else:
                a, fa = m, fmid
        zeros.append(0.5 * (a + b))
    zeros = tuple(sorted(zeros))
    if zeros:
        return KinkDiagnostic(
            exists=False,
            degenerate=False,
            reversed_orientation=False,
            interior_zeros=zeros,
            message=f"interior equilibria at {zeros} block the connection",
        )

    interior_sign = float(np.sign(vals[len(vals) // 2]))
    natural_sign = float(np.sign(problem.t_plus - problem.t_minus))
    reversed_orientation = interior_sign != natural_sign
    return KinkDiagnostic(
        exists=True,
        degenerate=False,
        reversed_orientation=reversed_orientation,
        interior_zeros=(),
        message="monotone front exists"
        + (" (labels honored by xi-reflection, speed -c)" if reversed_orientation else ""),
    )


@dataclass(frozen=True)
class KinkProfile:
    """Sampled front profile plus its dense interpolant.

    Samples honor the labels (T runs from t_minus on the left to t_plus on
    the right) and are clamped to an end state when within 1e-10 of it.
    interpolant evaluates the unclamped dense solution inside the window and
    the exact end states beyond it.  signed_speed is +c when the raw ODE
    already runs with the labels, -c when the profile was xi-reflected.
    """

    problem: TravelingWaveProblem
    xi: np.ndarray
    T: np.ndarray
    signed_speed: float
    reversed_orientation: bool
    interpolant: Callable

    @property
    def kappa_signed(self) -> float:
        """Reduction coefficient for the propagating direction actually used.

        kappa is odd in the speed (gamma*c^3 or nu*c), so a profile built by
        xi-reflection satisfies its first-order equation with -kappa.
        """
        return -self.problem.kappa if self.reversed_orientation else self.problem.kappa

    def strain(self, xi):
        """Strain along the wave: eps = (T - A2)/c^2."""
        return (self.interpolant(xi) - self.problem.a2) / self.problem.c_squared

    def velocity(self, xi):
        """Material velocity along the wave: v = -s*eps."""
        return -self.signed_speed * self.strain(xi)


def kink_profile(
    problem: TravelingWaveProblem,
    xi_span: float = 200.0,
    n_samples: int = 2001,
) -> KinkProfile:
    """Integrate the profile ODE outward from the middle of the front, the
    midpoint stress of the end states, which sits at xi = 0.

    scipy's solve_ivp is imported on the first call, not with the package,
    so `slve twave` is the one command that always loads scipy.

    Parameters
    ----------
    problem : TravelingWaveProblem
    xi_span : float
        Total window length; the profile is sampled on [-span/2, span/2].
    n_samples : int
        Sample count (>= 9 so downstream stencils fit).

    Raises
    ------
    NoKinkError
        When no monotone front connects the end states.
    SpanTooShortError
        When the window ends are not within 1e-6 of the end states.
    """
    from scipy.integrate import solve_ivp

    diag = kink_exists(problem)
    if not diag.exists:
        raise NoKinkError(diag.message)
    if xi_span <= 0.0 or not math.isfinite(xi_span):
        raise InvalidParameterError(f"xi_span must be positive, got {xi_span}")
    if not (math.isfinite(n_samples) and int(n_samples) == n_samples and n_samples >= 9):
        raise InvalidParameterError(f"n_samples must be an integer >= 9, got {n_samples}")
    center_value = 0.5 * (problem.t_minus + problem.t_plus)

    kappa = problem.kappa
    half = 0.5 * float(xi_span)

    def ode(_, y):
        return balance_function(problem, y) / kappa

    opts = dict(method="DOP853", rtol=1e-11, atol=1e-13, dense_output=True)
    fwd = solve_ivp(ode, (0.0, half), [center_value], **opts)
    bwd = solve_ivp(ode, (0.0, -half), [center_value], **opts)
    if not (fwd.success and bwd.success):
        raise NoKinkError(f"profile integration failed: {fwd.message or bwd.message}")

    flip = diag.reversed_orientation
    # raw ODE runs t_minus -> t_plus unless flipped
    raw_left = problem.t_plus if flip else problem.t_minus
    raw_right = problem.t_minus if flip else problem.t_plus

    def raw_eval(s: np.ndarray) -> np.ndarray:
        out = np.full_like(s, np.nan)  # NaN fails every mask below
        m_fwd = (s >= 0.0) & (s <= half)
        m_bwd = (s < 0.0) & (s >= -half)
        if np.any(m_fwd):
            out[m_fwd] = fwd.sol(s[m_fwd])[0]
        if np.any(m_bwd):
            out[m_bwd] = bwd.sol(s[m_bwd])[0]
        out[s > half] = raw_right
        out[s < -half] = raw_left
        return out

    def interpolant(xi):
        arr = np.asarray(xi, dtype=float)
        scalar = arr.ndim == 0
        s = -np.atleast_1d(arr) if flip else np.atleast_1d(arr)
        out = raw_eval(s.astype(float))
        return float(out[0]) if scalar else out

    end_left = float(interpolant(-half))
    end_right = float(interpolant(half))
    settle_tol = 1e-6
    if abs(end_left - problem.t_minus) > settle_tol or abs(end_right - problem.t_plus) > settle_tol:
        raise SpanTooShortError(
            f"window [-{half}, {half}] ends at ({end_left:.9g}, {end_right:.9g}), "
            f"not within {settle_tol} of ({problem.t_minus}, {problem.t_plus}); "
            "increase xi_span"
        )

    xi = np.linspace(-half, half, int(n_samples))
    T = interpolant(xi).copy()
    for eq in (problem.t_minus, problem.t_plus):
        T[np.abs(T - eq) < 1e-10] = eq

    return KinkProfile(
        problem=problem,
        xi=xi,
        T=T,
        signed_speed=-problem.c if flip else problem.c,
        reversed_orientation=flip,
        interpolant=interpolant,
    )


def first_order_residual(profile: KinkProfile, h: float = 0.01) -> np.ndarray:
    """kappa*T' - B(T) at the samples, T' from a 5-point centered stencil."""
    half = float(profile.xi[-1])
    xi = profile.xi[(profile.xi >= -half + 2.05 * h) & (profile.xi <= half - 2.05 * h)]
    f = profile.interpolant
    d1 = (-f(xi + 2 * h) + 8 * f(xi + h) - 8 * f(xi - h) + f(xi - 2 * h)) / (12 * h)
    return profile.kappa_signed * d1 - np.asarray(balance_function(profile.problem, f(xi)))


@dataclass(frozen=True)
class UnificationReport:
    """Cross-variant coincidence of the front shapes after xi-rescaling."""

    c: float
    kappa_stress: float
    kappa_strain: float
    max_mismatch: float
    window: float


def unified_reduction_check(
    f: ConstitutiveFunction,
    t_minus: float,
    t_plus: float,
    gamma: float,
    nu: float,
    xi_span: float = 200.0,
    n_compare: int = 1001,
) -> UnificationReport:
    """Verify both variants produce one front shape up to the kappa scaling.

    The stress-rate profile at xi must equal the strain-rate profile at
    xi * kappa_strain / kappa_stress; the report carries the largest
    mismatch over a window where both interpolants are in range.
    """
    prob_stress = make_problem(f, t_minus, t_plus, Variant.STRESS_RATE, gamma)
    prob_strain = make_problem(f, t_minus, t_plus, Variant.STRAIN_RATE, nu)
    profile_stress = kink_profile(prob_stress, xi_span=xi_span)
    profile_strain = kink_profile(prob_strain, xi_span=xi_span)
    ks = prob_stress.kappa
    kn = prob_strain.kappa
    window = 0.45 * xi_span * min(1.0, ks / kn)
    xi = np.linspace(-window, window, int(n_compare))
    mismatch = np.max(
        np.abs(profile_stress.interpolant(xi) - profile_strain.interpolant(xi * kn / ks))
    )
    return UnificationReport(
        c=prob_stress.c,
        kappa_stress=ks,
        kappa_strain=kn,
        max_mismatch=float(mismatch),
        window=window,
    )


def kink_initial_state(
    profile: KinkProfile,
    grid: Grid1D,
    center: float,
) -> SimState:
    """Sample a front onto a grid as (v, eps, T) initial data.

    The wave relations eps = (T - A2)/c^2 and v = -s*eps make this
    an exact traveling solution of the underlying model (up to truncation of
    the tails).  On a periodic grid a single front is discontinuous across
    the seam; superpose a front and its mirror for seam-free initial data.
    """
    x = grid.nodes()
    xi = x - float(center)
    T0 = profile.interpolant(xi)
    eps0 = profile.strain(xi)
    v0 = profile.velocity(xi)
    return SimState(
        t=0.0,
        v=Field(v0, grid),
        eps=Field(eps0, grid),
        stress=Field(T0, grid),
    )
