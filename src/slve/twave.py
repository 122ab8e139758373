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

# front quadrature: the 5-point Gauss-Legendre rule on [0, 1], in closed form
_GL_R = (math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0,
         math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0)
_GL_X = 0.5 + 0.5 * np.array([-_GL_R[0], -_GL_R[1], 0.0, _GL_R[1], _GL_R[0]])
_GL_W = np.array([322.0 - 13.0 * math.sqrt(70.0), 322.0 + 13.0 * math.sqrt(70.0), 512.0,
                  322.0 + 13.0 * math.sqrt(70.0), 322.0 - 13.0 * math.sqrt(70.0)]) / 1800.0


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
    no profile.  A speed or a kappa beyond the double range is refused too,
    and so is a kappa that underflows to 0.
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
    if kappa == 0.0:
        raise InvalidParameterError(f"kappa underflows to 0 at speed c = {c}")
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
    """Existence verdict for a monotone front: what the scan found."""

    degenerate: bool
    reversed_orientation: bool
    interior_zeros: Tuple[float, ...]

    @property
    def exists(self) -> bool:
        return not (self.degenerate or self.interior_zeros)

    def __bool__(self) -> bool:
        return self.exists

    @property
    def message(self) -> str:
        if self.degenerate:
            return ("balance function vanishes identically between the end "
                    "states; the profile family degenerates (linear response)")
        if self.interior_zeros:
            return f"interior equilibria at {self.interior_zeros} block the connection"
        return "monotone front exists" + (
            " (B reversed: kappa_signed = -kappa, speed -c)" if self.reversed_orientation else "")

    @property
    def sign(self) -> float:
        """-1.0 for a reversed orientation, else +1.0: the sign of the front's
        speed and of its kappa_signed."""
        return -1.0 if self.reversed_orientation else 1.0


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
    degenerate = float(np.max(np.abs(vals))) <= 1e-13 * scale
    zeros = []
    signs = np.sign(vals)
    if not degenerate:
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
    reversed_orientation = not (degenerate or zeros) and (
        signs[len(vals) // 2] != np.sign(problem.t_plus - problem.t_minus))
    return KinkDiagnostic(degenerate, bool(reversed_orientation), tuple(sorted(zeros)))


@dataclass(frozen=True)
class KinkProfile:
    """Sampled front profile plus its dense interpolant.

    Samples honor the labels (T runs from t_minus on the left to t_plus on
    the right) and are clamped to an end state when within 1e-10 of it.
    interpolant evaluates the unclamped dense solution inside the window and
    the exact end states beyond it.  signed_speed is +c when B's sign already
    drives T' = B(T)/kappa from t_minus to t_plus, -c when the labels need the
    reversed direction.  diagnostic is the existence scan kink_profile ran,
    so a caller has the verdict without scanning again; its sign, read from
    reversed_orientation, is the one record of which way the front runs.
    """

    problem: TravelingWaveProblem
    xi: np.ndarray
    T: np.ndarray
    signed_speed: float
    interpolant: Callable
    diagnostic: KinkDiagnostic

    @property
    def kappa_signed(self) -> float:
        """Reduction coefficient for the propagating direction actually used.

        kappa is odd in the speed (gamma*c^3 or nu*c), so a front traveling
        at -c satisfies its first-order equation with -kappa.
        """
        return self.diagnostic.sign * self.problem.kappa

    def strain(self, xi):
        """Strain along the wave: eps = (T - A2)/c^2."""
        return (self.interpolant(xi) - self.problem.a2) / self.problem.c_squared

    def velocity(self, xi):
        """Material velocity along the wave: v = -s*eps."""
        return -self.signed_speed * self.strain(xi)


def _front_branch(
    problem: TravelingWaveProblem, y0: float, e: float, rate: float, length: float
) -> Callable[[np.ndarray], np.ndarray]:
    """T(s) solving T' = rate * B(T), T(0) = y0, for s in [0, length].

    T runs from y0 to its end state e.  With T(u) = e - (e - y0) exp(-u) the
    equation is the quadrature s(u) = integral of g = (e - T) / (rate * B(T))
    from 0, and g stays bounded as T -> e wherever B'(e) != 0.  s is
    tabulated by Gauss-Legendre on panels of width 1/8 in u, in one
    balance_function call, until |e - T| is within 1e-13 of max(1, |e|,
    |A2|), the scale B(T) is rounded at.  The returned vectorized function
    inverts it: a cubic Hermite start for u(s) in its panel (slopes 1/g at
    the panel ends), then one Newton step with the partial panel done by the
    same rule.  Past the table it returns e, calling no balance_function
    when no entry is inside the table.

    Raises NoKinkError on a non-finite or non-positive g in the table before
    s reaches length.
    """
    gap, panel = e - y0, 0.125
    n = max(1, math.ceil(math.log(abs(gap) / (1e-13 * max(1.0, abs(e), abs(problem.a2)))) / panel))

    def g(u):
        d = gap * np.exp(-u)
        with np.errstate(divide="ignore", invalid="ignore"):
            return d / (rate * balance_function(problem, e - d))

    ends = panel * np.arange(n + 1)
    table = g(np.concatenate([ends, (ends[:-1, None] + panel * _GL_X).ravel()]))
    g_ends = table[: n + 1]
    S = np.concatenate([[0.0], np.cumsum(panel * (table[n + 1 :].reshape(n, 5) @ _GL_W))])
    ok = (table > 0.0) & (table < math.inf)  # NaN fails both
    bad = np.flatnonzero(~(ok[n + 1 :].reshape(n, 5).all(axis=1) & ok[:n] & ok[1 : n + 1]))
    if bad.size:  # keep the panels before the first bad one if they reach length
        k = bad[0]
        if S[k] < length:
            raise NoKinkError("profile quadrature failed: non-finite or non-positive 1/B(T) "
                              f"past T = {e - gap * math.exp(-ends[k])!r}, |xi| = {S[k]:.9g}")
        S, ends, g_ends = S[: k + 1], ends[: k + 1], g_ends[: k + 1]
    x = np.append(_GL_X, 1.0)  # the partial panel's nodes, then its end

    def dense(s_eval: np.ndarray) -> np.ndarray:
        out = np.full(s_eval.shape, e)
        inside = s_eval < S[-1]
        s = s_eval[inside]
        if not s.size:
            return out
        i = np.searchsorted(S, s, side="right") - 1  # S[0] = 0 <= s
        h = S[i + 1] - S[i]
        t = (s - S[i]) / h
        u = ends[i] + t * t * (3.0 - 2.0 * t) * panel + t * (1.0 - t) * h * (
            (1.0 - t) / g_ends[i] - t / g_ends[i + 1])
        du = u - ends[i]
        gu = g(ends[i, None] + du[:, None] * x)
        # column by column, so each entry has the bits of its one-element call
        u -= (S[i] + du * sum(w * gu[:, j] for j, w in enumerate(_GL_W)) - s) / gu[:, 5]
        out[inside] = e - gap * np.exp(-u)
        return out

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
    """Solve the profile ODE outward from the middle of the front, the
    midpoint stress of the end states, which sits at xi = 0.

    kappa_signed * T' = B(T) is separable, so each half of the window is one
    quadrature of xi(T) = kappa_signed * integral dS / B(S) toward its end
    state (_front_branch, numpy alone), and the interpolant inverts it; T
    runs from t_minus to t_plus.  The existence scan runs once and the
    profile carries its verdict as diagnostic.

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
        KinkDiagnostic is the error's diagnostic), or the quadrature meets a
        non-finite B(T) or one of the wrong sign inside the window
        (diagnostic None).
    SpanTooShortError
        When the window ends are not within 1e-6 of the end states.
    """
    xi_span, n_samples = _window(xi_span, n_samples)
    diag = kink_exists(problem)
    if not diag.exists:
        raise NoKinkError(diag.message, diagnostic=diag)
    center_value = 0.5 * (problem.t_minus + problem.t_plus)
    kappa_signed = diag.sign * problem.kappa

    half = 0.5 * xi_span
    # kappa_signed*T' = B(T) forward in xi, and in s = -xi for the left half
    right = _front_branch(problem, center_value, problem.t_plus, 1.0 / kappa_signed, half)
    left = _front_branch(problem, center_value, problem.t_minus, -1.0 / kappa_signed, half)

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

    xi = np.linspace(-half, half, n_samples)  # its ends are -half and half exactly
    T = interpolant(xi)
    end_left, end_right = float(T[0]), float(T[-1])
    settle_tol = 1e-6
    if abs(end_left - problem.t_minus) > settle_tol or abs(end_right - problem.t_plus) > settle_tol:
        raise SpanTooShortError(
            f"window [-{half}, {half}] ends at ({end_left:.9g}, {end_right:.9g}), "
            f"not within {settle_tol} of ({problem.t_minus}, {problem.t_plus}); "
            "increase xi_span"
        )
    for eq in (problem.t_minus, problem.t_plus):
        T[np.abs(T - eq) < 1e-10] = eq

    return KinkProfile(
        problem=problem,
        xi=xi,
        T=T,
        signed_speed=diag.sign * problem.c,
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
