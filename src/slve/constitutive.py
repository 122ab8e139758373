"""Monotone stress-to-strain response functions.

Both model variants express strain through a response function of stress:
strain = h(T) - gamma*T_t (stress-rate form) or strain + nu*strain_t = g(T)
(strain-rate form).  A response function satisfies h(0) = 0 and dh/dT > 0;
the strain-limiting members of the catalog are bounded, |h| < 1, so strains
stay below a fixed limit no matter how large the stress grows.

The catalog:

    linear      h(T) = beta*T
    saturating  h(T) = beta*T / (1 + (beta*|T|)**a)**(1/a),   bound 1
    arctan      h(T) = (2/pi)*arctan(beta*pi*T/2),             bound 1

all normalized so dh/dT at 0 equals beta.  The name only chooses which h
make_constitutive builds; a response is its h, and keeps no record of the
entry that built it.  Each carries its derivative
(the compliance), its antiderivative H(T) = int_0^T h(s) ds (the stored
complementary potential rho*phi_c), and a monotone inverse where one exists
in closed form.  For a = 1 and a = 2 the saturating value, derivative and
inverse are branch-free closed forms in u = beta*T:

    a = 1:  u/(1 + |u|),     beta/(1 + |u|)**2,     w/(beta*(1 - |w|))
    a = 2:  u/hypot(1, u),   beta/(1 + u**2)**1.5,  w/(beta*sqrt((1-w)(1+w)))

any other a splits small and large |u| so that |u|**a never overflows.

The dissipation audit checks the sign of the rate gamma*(T_t)^2 along
sampled stress histories, a whole run's nodes at once; it is
nonnegative exactly when gamma >= 0, which is the admissibility condition
for the stress-rate coefficient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import _require_rate
from .errors import InvalidParameterError, SlveError, StrainLimitExceededError

__all__ = [
    "ConstitutiveFunction",
    "DissipationAudit",
    "make_constitutive",
    "custom_constitutive",
    "audit_dissipation",
    "invert",
    "invert_array",
]

# Step scale for one-shot centered differences: eps**(1/3) balances
# truncation against roundoff for second-order stencils.
_FD_STEP = float(np.cbrt(np.finfo(float).eps))


def _elementwise(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Make an array function accept scalars and return scalars for them.

    fn gets a float array, 0-d for a scalar, and a 0-d result comes back as
    a float.
    """

    def wrapped(T):
        arr = np.asarray(T, dtype=float)
        out = np.asarray(fn(arr))
        if arr.ndim == 0:
            return float(out)
        return out

    return wrapped


@dataclass(frozen=True)
class ConstitutiveFunction:
    """A response function bundled with its calculus: the response is h
    itself, with no label of the catalog entry or custom call that built it.

    beta is dh/dT at 0.  value, derivative, antiderivative accept scalars or
    arrays; inverse is None when no closed form exists (invert() then falls
    back to iteration).  A scalar gives a float; the catalog's has the bits
    of the one-element array call.
    bound is sup |value|, np.inf when unbounded; derivative must be positive
    for the inversion contract to hold (true for the whole catalog).
    """

    beta: float
    value: Callable
    derivative: Callable
    antiderivative: Callable
    inverse: Optional[Callable]
    bound: float

    def __call__(self, T):
        return self.value(T)


def _saturating_masked(beta: float, a: float):
    """Value, derivative and inverse for any exponent a, each split into a
    small-|u| and a large-|u| branch by a boolean mask."""
    p = (a + 1.0) / a

    def raw_value(arr):
        # u overflows to inf at a finite T past DBL_MAX/beta, where the large
        # branch gives the bound 1, as h does to double precision
        with np.errstate(over="ignore"):
            u = beta * np.abs(arr)
        out = np.empty_like(u)
        small = u < 1.0
        large = ~small
        us = u[small]
        out[small] = us * (1.0 + us**a) ** (-1.0 / a)
        ub = u[large]
        # rewrite avoids overflow of u**a for large |T|
        out[large] = (1.0 + ub ** (-a)) ** (-1.0 / a)
        # an infinite T gives NaN, as the a in {1, 2} closed forms and the
        # antiderivatives do
        out[np.isinf(arr)] = np.nan
        return np.sign(arr) * out

    def raw_deriv(arr):
        # as in raw_value; an infinite u gives 0, h' to double precision
        with np.errstate(over="ignore"):
            u = beta * np.abs(arr)
        out = np.empty_like(u)
        small = u < 1.0
        us = u[small]
        out[small] = (1.0 + us**a) ** (-p)
        ub = u[~small]
        out[~small] = ub ** (-(a + 1.0)) * (1.0 + ub ** (-a)) ** (-p)
        return beta * out

    def raw_inverse(arr):
        # at least 1-d, so a 0-d call runs the array power loop, not numpy's
        # scalar power, and gets the bits of the one-element array call
        w = np.abs(np.atleast_1d(arr))
        return (np.sign(arr) * w / (beta * (1.0 - w**a) ** (1.0 / a))).reshape(arr.shape)

    return raw_value, raw_deriv, raw_inverse


def _saturating_callables(beta: float, a: float):
    # a = 1 and a = 2 have branch-free closed forms; the derivatives divide
    # one factor at a time so that no power of a huge |u| overflows
    if a == 1.0:

        def raw_value(arr):
            u = beta * arr
            return u / (1.0 + np.abs(u))

        def raw_deriv(arr):
            s = 1.0 + beta * np.abs(arr)
            return beta / s / s

        def raw_antider(arr):
            u = beta * np.abs(arr)
            return (u - np.log1p(u)) / beta

        def raw_inverse(arr):
            return arr / (beta * (1.0 - np.abs(arr)))

    elif a == 2.0:

        def raw_value(arr):
            u = beta * arr
            return u / np.hypot(1.0, u)

        def raw_deriv(arr):
            r = np.hypot(1.0, beta * arr)
            return beta / r / r / r

        def raw_antider(arr):
            u = beta * np.abs(arr)
            # sqrt(1+u^2)-1 without cancellation at small u
            return u * u / (1.0 + np.hypot(1.0, u)) / beta

        def raw_inverse(arr):
            # (1-w)(1+w) keeps the digits that 1 - w*w loses near |w| = 1
            return arr / (beta * np.sqrt((1.0 - arr) * (1.0 + arr)))

    else:
        raw_value, raw_deriv, raw_inverse = _saturating_masked(beta, a)

        def raw_antider(arr):
            return quad(raw_value, arr)

    return raw_value, raw_deriv, raw_antider, raw_inverse


def _arctan_callables(beta: float):
    c = beta * math.pi / 2.0

    def raw_value(arr):
        return (2.0 / math.pi) * np.arctan(c * arr)

    def raw_deriv(arr):
        x = c * arr
        return beta / (1.0 + x * x)

    def raw_antider(arr):
        # x * x overflows once |c*T| > 1.3e154, and x itself past DBL_MAX/c
        with np.errstate(over="ignore", invalid="ignore"):
            x = c * arr
            xx = x * x
            H = (2.0 / math.pi) * (arr * np.arctan(x) - np.log1p(xx) / (2.0 * c))
            big = np.isinf(xx)
            if not big.any():
                return H
            # there log1p(x*x) = 2 log|x| + log1p(1/x**2), whose last term is
            # below 1e-308 and vanishes in the sum; log|x| = log c + log|T| is
            # finite at x = inf, and |T| times h, at most 1, cannot overflow
            T = np.abs(arr)
            with np.errstate(divide="ignore"):  # log 0 where the first form holds
                far = T * raw_value(T) - (2.0 / math.pi) * (math.log(c) + np.log(T)) / c
            return np.where(big, far, H)

    def raw_inverse(arr):
        return np.tan(math.pi * arr / 2.0) / c

    return raw_value, raw_deriv, raw_antider, raw_inverse


def make_constitutive(kind: str, beta: float = 1.0, a: float = 1.0) -> ConstitutiveFunction:
    """Build a catalog response function.

    Parameters
    ----------
    kind : {"linear", "saturating", "arctan"}
        The catalog entry; "custom" is refused with a pointer to
        custom_constitutive().
    beta : float
        Small-stress slope dh/dT at T = 0; must be positive and finite.
    a : float
        Saturation exponent, used by the saturating kind only; positive.

    Returns
    -------
    ConstitutiveFunction
    """
    if kind not in ("linear", "saturating", "arctan", "custom"):
        raise InvalidParameterError(
            f"unknown response kind {kind!r}; catalog kinds are linear, saturating, arctan")
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise InvalidParameterError(f"beta must be positive and finite, got {beta}")
    if kind == "linear":
        bound = math.inf
        raw = (lambda arr: beta * arr, lambda arr: beta * np.ones_like(arr),
               lambda arr: 0.5 * beta * arr * arr, lambda arr: arr / beta)
    elif kind == "saturating":
        a, bound = float(a), 1.0
        if not math.isfinite(a) or a <= 0.0:
            raise InvalidParameterError(f"saturation exponent a must be positive, got {a}")
        raw = _saturating_callables(beta, a)
    elif kind == "arctan":
        bound = 1.0
        raw = _arctan_callables(beta)
    else:
        raise InvalidParameterError("use custom_constitutive() for kind='custom'")
    value, derivative, antiderivative, inverse = map(_elementwise, raw)
    return ConstitutiveFunction(beta=beta, value=value, derivative=derivative,
                                antiderivative=antiderivative, inverse=inverse, bound=bound)


def _fd_derivative(value: Callable) -> Callable:
    def raw(arr):
        step = _FD_STEP * np.maximum(1.0, np.abs(arr))
        return (np.asarray(value(arr + step)) - np.asarray(value(arr - step))) / (2.0 * step)

    return raw


# quad's Gauss-Legendre panels: nodes per panel, and the most panels one
# call may use before it gives up; and the most nodes one value call gets
_GAUSS_NODES = 10
_QUAD_PANELS = 256
_CHUNK_NODES = 2**13


@functools.cache
def _gauss_legendre():
    """The _GAUSS_NODES-point Gauss-Legendre rule on [0, 1], read-only;
    numpy.polynomial is imported on the first call, not with the package."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(_GAUSS_NODES)
    rule = (0.5 * (x + 1.0), 0.5 * w)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def quad(value: Callable, T) -> np.ndarray:
    """H(T) = int_0^T h(s) ds for every entry of T, in one adaptive quadrature.

    The substitution s = t*x puts every integral on [0, 1], and the whole
    batch shares one subdivision of it into panels.  A panel's integral is
    the 10-point Gauss-Legendre rule on its two halves; its error estimate
    is the largest difference, over the batch, to the rule on the whole
    panel.  Each round bisects every panel whose estimate exceeds an equal
    share of the tolerance, until the estimates sum to at most
    max(1e-13, 1e-12*max|H|) (QUADPACK-style subdivision; Piessens et al.
    1983).  A round evaluates its new panels in chunks of whole entries:
    value is called with (rows, nodes) arrays of at most _CHUNK_NODES = 2**13
    values, which keeps a large batch's temporaries in cache.  One entry's
    round has at most 5,120 nodes (128 split panels, the most the 256-panel
    budget allows, each ruled on 4 quarters of 10 nodes), below the bound,
    so no entry is split and every entry keeps the bits of a one-call round.
    A non-finite entry gives NaN, as the closed forms do, and an empty T an
    empty array.  numpy only; no CLI command loads scipy.

    Raises
    ------
    SlveError
        As soon as an error estimate is NaN, as when the integrand is NaN
        at a node, or if the estimates still miss the tolerance at
        _QUAD_PANELS panels.
    """
    t = np.asarray(T, dtype=float)
    out = np.full(t.shape, np.nan)
    finite = np.isfinite(t)
    if not finite.any():
        return out
    t = t[finite][:, None]
    x, w = _gauss_legendre()

    def rule(lo, width):
        # the rule on panels [lo, lo + width] for every entry: (batch, panels),
        # evaluated a chunk of whole entries at a time
        s = (lo[:, None] + width[:, None] * x).ravel()
        out = np.empty((t.size, lo.size))
        rows = max(1, _CHUNK_NODES // s.size)
        for i in range(0, t.size, rows):
            tc = t[i:i + rows]
            fx = np.asarray(value(tc * s)).reshape(tc.size, lo.size, x.size)
            out[i:i + rows] = (fx @ w) * width * tc
        return out

    # [0, 1] and its halves, then per panel: start, width, the rule on each
    # half (batch, panels) and the error estimate
    first = rule(np.array([0.0, 0.0, 0.5]), np.array([1.0, 0.5, 0.5]))
    lo, width, left, right = np.zeros(1), np.ones(1), first[:, 1:2], first[:, 2:]
    err = np.max(np.abs(left + right - first[:, :1]), axis=0)
    while True:
        total = (left + right).sum(axis=1)
        tol = max(1e-13, 1e-12 * float(np.max(np.abs(total))))
        err_sum = err.sum()
        if err_sum <= tol:
            out[finite] = total
            return out
        if np.isnan(err_sum):
            # no subdivision meets the tolerance with a NaN estimate
            raise SlveError("quadrature error estimate is NaN: a non-finite integrand on [0, T]")
        split = err > tol / err.size
        if err.size + np.count_nonzero(split) > _QUAD_PANELS:
            raise SlveError(f"quadrature did not converge within {_QUAD_PANELS} panels")
        keep = ~split
        # a split panel's halves become panels, whose whole-panel rule the
        # split panel already holds
        half = 0.5 * width[split]
        new_lo, new_width = np.concatenate([lo[split], lo[split] + half]), np.tile(half, 2)
        coarse = np.concatenate([left[:, split], right[:, split]], axis=1)
        new_left, new_right = np.hsplit(
            rule(np.concatenate([new_lo, new_lo + new_width / 2]), np.tile(half / 2, 4)), 2
        )
        lo, width = np.concatenate([lo[keep], new_lo]), np.concatenate([width[keep], new_width])
        left = np.concatenate([left[:, keep], new_left], axis=1)
        right = np.concatenate([right[:, keep], new_right], axis=1)
        err = np.concatenate([err[keep], np.max(np.abs(new_left + new_right - coarse), axis=0)])


def custom_constitutive(
    value: Callable,
    derivative: Optional[Callable] = None,
    antiderivative: Optional[Callable] = None,
    inverse: Optional[Callable] = None,
    bound: float = math.inf,
) -> ConstitutiveFunction:
    """Wrap a user-supplied response function h.

    h must satisfy h(0) = 0 (checked) and should be strictly increasing for
    inversion to be meaningful (not checkable globally; invert() fails loudly
    on a bad bracket instead).  Missing pieces are filled numerically:
    derivative by centered differences, antiderivative by quadrature from 0.
    The callables are called with arrays and must work elementwise.
    """
    value = _elementwise(value)
    v0 = value(0.0)
    if not math.isfinite(v0) or abs(v0) > 1e-12:
        raise InvalidParameterError(f"a response function must vanish at T = 0, got h(0) = {v0}")
    derivative = _elementwise(derivative if derivative is not None else _fd_derivative(value))
    antiderivative = _elementwise(
        antiderivative if antiderivative is not None else lambda arr: quad(value, arr)
    )
    inverse = _elementwise(inverse) if inverse is not None else None
    return ConstitutiveFunction(
        beta=float(derivative(0.0)),
        value=value,
        derivative=derivative,
        antiderivative=antiderivative,
        inverse=inverse,
        bound=float(bound),
    )


@dataclass(frozen=True)
class DissipationAudit:
    """Sign check of the dissipation rate gamma*(T_t)^2 along N histories:
    (N,) arrays, one entry per history."""

    min_rate: np.ndarray
    total_dissipation: np.ndarray
    passed: np.ndarray


def audit_dissipation(gamma: float, t, stress) -> DissipationAudit:
    """Audit the stress-rate dissipation along sampled histories.

    Parameters
    ----------
    gamma : float
        Stress-rate coefficient; nonnegative values must audit clean.
    t : array-like, shape (n,)
        Shared sample times, n >= 3 and strictly increasing.
    stress : array-like, shape (n, N)
        Column j is history T_j(t), N >= 1; a strided view such as a
        trajectory's stress rows is read in place, never copied whole.

    Returns
    -------
    DissipationAudit
        Per history, from the rates gamma*(T_t)^2 with T_t from second-order
        one-sided/centered stencils: their minimum, their trapezoid total,
        and passed = (min_rate >= -1e-12).  Each history audits to the bits
        of its own (n, 1) call.
    """
    gamma = _require_rate("gamma", gamma)
    t = np.asarray(t, dtype=float)
    stress = np.asarray(stress, dtype=float)
    n = t.size
    if t.ndim != 1 or n < 3 or stress.ndim != 2 or stress.shape[0] != n or not stress.size:
        raise InvalidParameterError(
            f"histories need times (n >= 3,) and stresses (n, N >= 1), got "
            f"{t.shape} and {stress.shape}"
        )
    if not np.all(np.diff(t) > 0.0):
        raise InvalidParameterError("history times must be strictly increasing")
    # histories go in blocks of about 2**16 samples, which bounds the
    # temporaries however long the run; each block's rates fill one
    # contiguous row per history, so each trapezoid sums in the order of a
    # lone call
    n_hist = stress.shape[1]
    min_rate = np.empty(n_hist)
    total = np.empty(n_hist)
    block = max(1, 2**16 // n)
    for lo in range(0, n_hist, block):
        T_t = np.gradient(stress[:, lo:lo + block].T, t, axis=1, edge_order=2)
        rates = np.multiply(gamma, T_t, order="C")
        rates *= T_t
        min_rate[lo:lo + block] = rates.min(axis=1)
        total[lo:lo + block] = np.trapezoid(rates, t)
    return DissipationAudit(min_rate=min_rate, total_dissipation=total, passed=min_rate >= -1e-12)


def invert(f: ConstitutiveFunction, y, start=0.0):
    """Solve h(T) = y for T, for a scalar target or every entry of an array.

    Uses the closed-form inverse when the catalog provides one, otherwise
    bracketing bisection refined by safeguarded Newton steps.  Each entry
    runs its own iteration: it widens its own bracket, and once it meets
    |h(T) - y| < 1e-12 * max(1, |y|) it takes one more Newton step inside
    the bracket, which carries T to roundoff, and freezes.  So a batch gives
    the bits of entry-by-entry calls with the same starts.  A scalar target
    gives a float, an array an array of its shape; value and derivative are
    called with arrays.  The targets are validated by one scan, the largest
    |y| against the bound, which a NaN fails too; only a failed scan runs
    the finite check and then the bound check, which name the culprit.

    start, broadcast to y's shape, is each entry's Newton start (0 is the
    cold start); one outside the entry's bracket, NaN or inf included, gives
    way to the bracket's midpoint.  A warm start meets the cold start's
    residual test, so the two agree to that test, not to the bit.  A
    closed-form inverse ignores start.

    Raises
    ------
    InvalidParameterError
        If a target is not finite, or start does not broadcast to y's shape.
    StrainLimitExceededError
        If |y| meets or exceeds the response bound (strain-limited responses
        never attain their limit at finite stress), or no bracket is found;
        node is the flat index of the first such target and value the target.
    SlveError
        If an entry does not converge in 200 iterations.
    """
    y_in = np.asarray(y, dtype=float)
    start = _starts(start, y_in.shape)
    y = y_in.reshape(-1)
    if not y.size:
        return np.empty(y_in.shape)
    ay = np.abs(y)
    if not np.maximum.reduce(ay) < f.bound:
        finite = np.isfinite(y)
        if not finite.all():
            raise InvalidParameterError(f"target must be finite, got {y[~finite][0]}")
        node = int(np.argmax(ay >= f.bound))
        raise StrainLimitExceededError(
            f"target {y[node]} is outside the attainable range (|h| < {f.bound})",
            node=node, value=float(y[node]),
        )
    if f.inverse is None:
        T = _newton_bisection(f, y, ay, start.reshape(-1), range(y.size))
    else:
        T = np.array(f.inverse(y), dtype=float)
        # polish what the closed form misses (defensive; the catalog inverses are exact)
        todo = np.flatnonzero(~(np.abs(np.asarray(f.value(T)) - y) < 1e-12 * np.maximum(1.0, ay)))
        if todo.size:
            T[todo] = _newton_bisection(f, y[todo], ay[todo], T[todo], todo)
    return float(T[0]) if y_in.ndim == 0 else T.reshape(y_in.shape)


def _starts(start, shape) -> np.ndarray:
    """start as a float array broadcast to the targets' shape."""
    start = np.asarray(start, dtype=float)
    try:
        return start if start.shape == shape else np.broadcast_to(start, shape)
    except ValueError:
        raise InvalidParameterError(f"start of shape {start.shape} does not broadcast to "
                                    f"the targets' shape {shape}") from None


def _newton_bisection(f: ConstitutiveFunction, y, ay, T, nodes) -> np.ndarray:
    """Bracketed, safeguarded Newton on every entry, from starts T; ay is |y|
    and nodes are the entries' flat indices in the caller's target.

    Each sweep evaluates h and h' once over a working set of entries and
    updates it with masks: the brackets where the residual says, T only
    where the entry has not frozen.  Each time half the working set or more
    has frozen, the set is written back and its live entries gathered, so a
    slow entry does not drag the whole batch through its sweeps.
    """
    tol = 1e-12 * np.maximum(1.0, ay)
    # each entry widens its own bracket [lo, hi] until h(lo) <= y <= h(hi)
    scale = np.maximum(1.0, ay / max(f.beta, 1e-12))
    lo, hi = -scale, scale
    expansions = np.zeros(y.size, dtype=int)
    for end, short, side in ((hi, np.less, "exceed"), (lo, np.greater, "be below")):
        grow = np.flatnonzero(short(f.value(end), y))
        while grow.size:
            end[grow] *= 2.0
            expansions[grow] += 1
            stuck = (expansions[grow] > 600) | ~np.isfinite(end[grow])
            if stuck.any():
                i = grow[stuck][0]
                raise StrainLimitExceededError(
                    f"target {y[i]} appears to {side} the attainable range",
                    node=int(nodes[i]), value=float(y[i]),
                )
            grow = grow[short(f.value(end[grow]), y[grow])]

    roots = T = np.where((lo <= T) & (T <= hi), T, 0.5 * (lo + hi))
    live = np.ones(y.size, dtype=bool)
    kept = None  # the working set's places in roots, None while it is all of them
    for _ in range(200):
        r = np.asarray(f.value(T)) - y
        above = r > 0.0
        np.copyto(hi, T, where=above)
        np.copyto(lo, T, where=~above)
        slope = np.asarray(f.derivative(T))
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = np.where(slope > 0.0, T - r / slope, mid)
        inside = (lo < step) & (step < hi)
        # a converged entry takes this Newton step if it stays inside the
        # bracket, which carries T from the residual test to roundoff, and
        # freezes
        converged = np.abs(r) < tol
        np.copyto(T, np.where(inside, step, np.where(converged, T, mid)), where=live)
        live &= ~converged
        n_live = np.count_nonzero(live)
        if 2 * n_live > live.size:
            continue
        if kept is not None:
            roots[kept] = T
        if not n_live:
            return roots
        gather = np.flatnonzero(live)
        kept = gather if kept is None else kept[gather]
        T, y, lo, hi, tol = T[gather], y[gather], lo[gather], hi[gather], tol[gather]
        live = np.ones(n_live, dtype=bool)
    raise SlveError(f"inversion did not converge for target {y[np.argmax(live)]}")


def invert_array(f: ConstitutiveFunction, y: np.ndarray, start=0.0) -> np.ndarray:
    """Vectorized invert(); the closed-form inverse when available.

    start is invert()'s; a NaN target's start goes unused.

    Raises
    ------
    StrainLimitExceededError
        If a |target| meets or exceeds the response bound; node is the flat
        index of the largest |target| and value that target.  A NaN target
        never fails this check and comes back NaN.
    InvalidParameterError
        If start does not broadcast to y's shape.
    Otherwise what invert() raises, when there is no closed form.
    """
    y = np.asarray(y, dtype=float)
    start = _starts(start, y.shape)
    ay = np.abs(y)
    nan = None
    # one scan, which a NaN fails too; fmax skips the NaN that maximum
    # propagates, and empty has no max
    if y.size and not np.maximum.reduce(ay, axis=None) < f.bound:
        if np.fmax.reduce(ay, axis=None) >= f.bound:
            node = int(np.nanargmax(ay))  # a NaN target never fails the bound check
            bad = float(y.flat[node])
            raise StrainLimitExceededError(
                f"target {bad} is outside the attainable range (|h| < {f.bound})",
                node=node, value=bad,
            )
        nan = np.isnan(y)
    if f.inverse is not None:
        return np.asarray(f.inverse(y), dtype=float)
    if nan is None:
        return np.asarray(invert(f, y, start))
    # invert refuses NaN: it inverts 0 in a NaN's place, so its node still
    # counts every target, and the NaN goes back after
    T = np.asarray(invert(f, np.where(nan, 0.0, y), start))
    T[nan] = np.nan
    return T
