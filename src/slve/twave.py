"""Traveling fronts: both models reduce to one first-order profile ODE.

Inserting T(x - c t) into either model's equation of motion and integrating
twice with decaying conditions at infinity leaves

    kappa * T'(xi) = T - c**2 * f(T) - A2  =: B(T)

with the single coefficient

    kappa = gamma * c**3   (stress-rate model, f = h)
    kappa = nu * c         (strain-rate model, f = g),

so the two models share every profile shape up to the xi-scaling kappa, which
make_problem computes from the unit-form ModelParams.  The end states fix the
speed and the momentum constant:

    c**2 = (T_plus - T_minus) / (f(T_plus) - f(T_minus)),
    A2   = T_minus - c**2 * f(T_minus),

and the once-integrated momentum balance ties the strain to the stress along
the wave, eps = (T - A2) / c**2, v = -c * eps + const.

A monotone heteroclinic front between the end states exists exactly when
B(T) has no zero strictly between them; B vanishing identically (linear f)
is the degenerate case where every speed-c profile family collapses and no
front is selected.  When B's sign drives kappa*T' = B(T) from T_plus to
T_minus instead, the front that honors the labels travels at -c and solves
-kappa*T' = B(T); profiles returned here always honor the labels
T(-infinity) = T_minus, T(+infinity) = T_plus and record the signed speed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .constitutive import ConstitutiveFunction
from .core import Field, Grid1D, ModelParams, Variant, _require_count, _require_finite
from .errors import InvalidParameterError, NoKinkError, SpanTooShortError
from .pde import SimState

__all__ = [
    "TravelingWaveProblem",
    "KinkDiagnostic",
    "KinkProfile",
    "UnificationReport",
    "wave_speed",
    "make_problem",
    "balance_function",
    "kink_exists",
    "kink_profile",
    "unified_reduction_check",
    "kink_initial_state",
]

# interior scan resolution for sign changes of the balance function
_SCAN_POINTS = 10000

# front integrator: the Dormand-Prince 5(4) pair (Dormand & Prince 1980) with
# Shampine's quartic dense output (1986); Hairer, Norsett & Wanner, Solving
# ODEs I, II.4-II.5.  _front_branch spells the tableau out as literal
# fractions, which compile to constants.
_RTOL, _ATOL = 1e-11, 1e-13
_MAX_ATTEMPTS = 100_000  # accepted plus rejected steps, per half window
# rows for k1, k3, k4, k5, k6, k7 (k2's row is zero); columns for x, ..., x**4
_DENSE = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def wave_speed(f: ConstitutiveFunction, t_minus: float, t_plus: float) -> Tuple[float, float]:
    """Squared speed and momentum constant selected by the end states.

    Returns
    -------
    (c_squared, a2)

    Raises
    ------
    InvalidParameterError
        If an end state is not finite (the message names it), the end states
        coincide in stress or in response value, or they give c**2 <= 0
        (response decreasing between them: no real speed).
    """
    t_minus = _require_finite("t_minus", t_minus)
    t_plus = _require_finite("t_plus", t_plus)
    if t_minus == t_plus:
        raise InvalidParameterError(f"end states coincide: {t_minus}")
    fm = float(f.value(t_minus))
    fp = float(f.value(t_plus))
    if fm == fp:
        raise InvalidParameterError(
            f"response takes the same value {fm} at both end states"
        )
    c_squared = (t_plus - t_minus) / (fp - fm)
    if c_squared <= 0.0:
        raise InvalidParameterError(
            f"end states give c^2 = {c_squared:.6g} <= 0; no real speed"
        )
    a2 = t_minus - c_squared * fm
    return c_squared, a2


@dataclass(frozen=True)
class TravelingWaveProblem:
    """A front connection problem with its derived constants; params is the
    unit-form model whose rate coefficient sets kappa."""

    f: ConstitutiveFunction
    t_minus: float
    t_plus: float
    params: ModelParams
    c_squared: float
    c: float
    kappa: float
    a2: float


def make_problem(
    f: ConstitutiveFunction,
    t_minus: float,
    t_plus: float,
    params: ModelParams,
) -> TravelingWaveProblem:
    """Assemble a TravelingWaveProblem, validating the equilibrium algebra.

    kappa is gamma * c**3 for the stress-rate variant and nu * c for the
    strain-rate one.  The elastic variant has no rate term: kappa vanishes,
    the reduction collapses to the algebraic relation B(T) = 0 and selects
    no profile.  A speed or a kappa beyond the double range is refused too.
    """
    c_squared, a2 = wave_speed(f, t_minus, t_plus)
    c = math.sqrt(c_squared)
    if not math.isfinite(c):
        raise InvalidParameterError(f"speed must be positive, got {c}")
    if params.variant is Variant.ELASTIC:
        raise InvalidParameterError(
            "kappa vanishes: the profile equation degenerates in the elastic limit"
        )
    try:
        kappa = params.gamma * c**3 if params.variant is Variant.STRESS_RATE else params.nu * c
    except OverflowError:  # c**3 beyond the double range
        kappa = math.inf
    if kappa == math.inf:
        raise InvalidParameterError(f"kappa overflows a double at speed c = {c}")
    problem = TravelingWaveProblem(
        f=f,
        t_minus=float(t_minus),
        t_plus=float(t_plus),
        params=params,
        c_squared=c_squared,
        c=c,
        kappa=kappa,
        a2=a2,
    )
    scale = max(1.0, abs(problem.t_minus), abs(problem.t_plus))
    for t_end in (problem.t_minus, problem.t_plus):
        if abs(balance_function(problem, t_end)) > 1e-12 * scale:
            raise InvalidParameterError(
                f"end state {t_end} fails the equilibrium identity"
            )
    return problem


def balance_function(problem: TravelingWaveProblem, T):
    """B(T) = T - c**2 * f(T) - A2; kappa*T' = B(T) along the front.  A
    Python float T gives a Python float, an array an array."""
    return T - problem.c_squared * problem.f.value(T) - problem.a2


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
    vals = balance_function(problem, ts)
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
        fa = balance_function(problem, a)
        while b - a > 1e-12:
            m = 0.5 * (a + b)
            fmid = balance_function(problem, m)
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
        + (" (B reversed: kappa_signed = -kappa, speed -c)" if reversed_orientation else ""),
    )


@dataclass(frozen=True)
class KinkProfile:
    """Sampled front profile plus its dense interpolant.

    Samples honor the labels (T runs from t_minus on the left to t_plus on
    the right) and are clamped to an end state when within 1e-10 of it.
    interpolant evaluates the unclamped dense solution inside the window and
    the exact end states beyond it.  signed_speed is +c when B's sign already
    drives T' = B(T)/kappa from t_minus to t_plus, -c when the labels need the
    reversed direction.  diagnostic is the existence scan kink_profile ran,
    so a caller has the verdict without scanning again.
    """

    problem: TravelingWaveProblem
    xi: np.ndarray
    T: np.ndarray
    signed_speed: float
    reversed_orientation: bool
    interpolant: Callable
    diagnostic: KinkDiagnostic

    @property
    def kappa_signed(self) -> float:
        """Reduction coefficient for the propagating direction actually used.

        kappa is odd in the speed (gamma*c^3 or nu*c), so a front traveling
        at -c satisfies its first-order equation with -kappa.
        """
        return -self.problem.kappa if self.reversed_orientation else self.problem.kappa

    def strain(self, xi):
        """Strain along the wave: eps = (T - A2)/c^2."""
        return (self.interpolant(xi) - self.problem.a2) / self.problem.c_squared

    def velocity(self, xi):
        """Material velocity along the wave: v = -s*eps."""
        return -self.signed_speed * self.strain(xi)


def _front_branch(
    problem: TravelingWaveProblem, y0: float, rate: float, length: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Integrate T' = rate * B(T) from T(0) = y0 over s in [0, length].

    Adaptive Dormand-Prince 5(4) on Python floats, one balance_function call
    per stage, local extrapolation and the standard step control; the first
    step follows Hairer II.4.  Returns the dense output, a vectorized
    function of s in [0, length].

    Raises
    ------
    NoKinkError
        On a non-finite stage, a step below 10 ulp of s, or more than
        _MAX_ATTEMPTS steps.
    """
    bf = balance_function
    s, y = 0.0, float(y0)
    k1 = bf(problem, y)
    scale = _ATOL + _RTOL * abs(y)
    d0, d1 = abs(y) / scale, abs(rate * k1) / scale
    h0 = min(length, 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1)
    d2 = abs(rate * (bf(problem, y + h0 * rate * k1) - k1)) / scale / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1, length)

    steps = []
    rejected = False
    for _ in range(_MAX_ATTEMPTS):
        if h < 10.0 * math.ulp(s):
            raise NoKinkError(f"profile integration failed: step size underflow at |xi| = {s:.9g}")
        s_new = min(s + h, length)
        step = s_new - s
        hk = step * rate
        k2 = bf(problem, y + hk * (k1 / 5))
        k3 = bf(problem, y + hk * (3 / 40 * k1 + 9 / 40 * k2))
        k4 = bf(problem, y + hk * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
        k5 = bf(problem, y + hk * (19372 / 6561 * k1 - 25360 / 2187 * k2
                                   + 64448 / 6561 * k3 - 212 / 729 * k4))
        k6 = bf(problem, y + hk * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3
                                   + 49 / 176 * k4 - 5103 / 18656 * k5))
        # fifth-order solution (b_2 = 0) and the embedded pair's difference
        y_new = y + hk * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                          - 2187 / 6784 * k5 + 11 / 84 * k6)
        k7 = bf(problem, y_new)
        err = abs(hk * (-71 / 57600 * k1 + 71 / 16695 * k3 - 71 / 1920 * k4
                        + 17253 / 339200 * k5 - 22 / 525 * k6 + k7 / 40)) / (
            _ATOL + _RTOL * max(abs(y), abs(y_new)))
        # a NaN or infinite stage reaches err through k7 or the stages after it
        if not math.isfinite(err):
            raise NoKinkError(
                f"profile integration failed: non-finite B(T) near |xi| = {s:.9g}, T = {y!r}"
            )
        if err < 1.0:
            factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err**-0.2)
            steps.append((s, step, y, hk, k1, k3, k4, k5, k6, k7))
            s, y, k1 = s_new, y_new, k7
            if s >= length:
                break
            h = step * (min(1.0, factor) if rejected else factor)
            rejected = False
        else:
            h = step * max(0.2, 0.9 * err**-0.2)
            rejected = True
    else:
        raise NoKinkError(
            f"profile integration failed: {_MAX_ATTEMPTS} steps did not reach |xi| = {length}"
        )

    t, width, start, hk, *k = np.array(steps).T
    # T(t_i + x*width_i) = start_i + sum_j q_j * x**j with q = hk * (k @ _DENSE)
    q1, q2, q3, q4 = hk * (_DENSE.T @ np.array(k))

    def dense(s_eval: np.ndarray) -> np.ndarray:
        # t[0] = 0 <= s_eval, so i indexes the step that holds s_eval
        i = np.searchsorted(t, s_eval, side="right") - 1
        x = (s_eval - t[i]) / width[i]
        return start[i] + x * (q1[i] + x * (q2[i] + x * (q3[i] + x * q4[i])))

    return dense


def _window(xi_span, n_samples) -> Tuple[float, int]:
    """(xi_span, n_samples) as (float, int), refusing a span that is not a
    positive finite number or a count that is not an integer >= 9."""
    if not (isinstance(xi_span, numbers.Real) and math.isfinite(xi_span) and xi_span > 0.0):
        raise InvalidParameterError(f"xi_span must be positive, got {xi_span!r}")
    return float(xi_span), _require_count("n_samples", n_samples, 9)


def kink_profile(
    problem: TravelingWaveProblem,
    xi_span: float = 200.0,
    n_samples: int = 2001,
) -> KinkProfile:
    """Integrate the profile ODE outward from the middle of the front, the
    midpoint stress of the end states, which sits at xi = 0.

    Each half of the window is one Dormand-Prince 5(4) run (_front_branch,
    numpy and Python floats only) at rtol 1e-11, atol 1e-13, of
    kappa_signed * T' = B(T), so T runs from t_minus to t_plus; the
    interpolant evaluates its quartic dense output.  The existence scan runs
    once and the profile carries its verdict as diagnostic.

    Parameters
    ----------
    problem : TravelingWaveProblem
    xi_span : float
        Total window length; the profile is sampled on [-span/2, span/2].
    n_samples : int
        Sample count (>= 9 so downstream stencils fit).

    Raises
    ------
    InvalidParameterError
        When xi_span is not a positive finite number or n_samples not an
        integer >= 9.
    NoKinkError
        When no monotone front connects the end states (the scan's
        KinkDiagnostic is the error's diagnostic), or the integration fails
        (a non-finite B, step-size underflow, the step budget; diagnostic
        None).
    SpanTooShortError
        When the window ends are not within 1e-6 of the end states.
    """
    xi_span, n_samples = _window(xi_span, n_samples)
    diag = kink_exists(problem)
    if not diag.exists:
        raise NoKinkError(diag.message, diagnostic=diag)
    center_value = 0.5 * (problem.t_minus + problem.t_plus)
    flip = diag.reversed_orientation
    kappa_signed = -problem.kappa if flip else problem.kappa

    half = 0.5 * xi_span
    # kappa_signed*T' = B(T) forward in xi, and in s = -xi for the left half
    right = _front_branch(problem, center_value, 1.0 / kappa_signed, half)
    left = _front_branch(problem, center_value, -1.0 / kappa_signed, half)

    def interpolant(xi):
        arr = np.asarray(xi, dtype=float)
        scalar = arr.ndim == 0
        xi = np.atleast_1d(arr)
        out = np.full_like(xi, np.nan)  # NaN fails every mask below
        m_right = (xi >= 0.0) & (xi <= half)
        m_left = (xi < 0.0) & (xi >= -half)
        out[m_right] = right(xi[m_right])
        out[m_left] = left(-xi[m_left])
        out[xi > half] = problem.t_plus
        out[xi < -half] = problem.t_minus
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

    xi = np.linspace(-half, half, n_samples)
    T = interpolant(xi)
    for eq in (problem.t_minus, problem.t_plus):
        T[np.abs(T - eq) < 1e-10] = eq

    return KinkProfile(
        problem=problem,
        xi=xi,
        T=T,
        signed_speed=-problem.c if flip else problem.c,
        reversed_orientation=flip,
        interpolant=interpolant,
        diagnostic=diag,
    )


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
    prob_stress = make_problem(f, t_minus, t_plus, ModelParams(Variant.STRESS_RATE, gamma=gamma))
    prob_strain = make_problem(f, t_minus, t_plus, ModelParams(Variant.STRAIN_RATE, nu=nu))
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
