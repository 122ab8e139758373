"""Exception types shared across the package.

Everything raised on purpose derives from SlveError so callers can catch the
package's failures in one clause.  Most validation errors also inherit
ValueError, which is what the offending argument would have raised anyway.
"""

from __future__ import annotations


class SlveError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SlveError, ValueError):
    """An argument violates a documented precondition."""


class InvalidHistoryError(SlveError, ValueError):
    """A time history is too short or its times are not strictly increasing."""


class OutOfRangeError(SlveError, ValueError):
    """Target value lies outside the attainable range of the response."""


class StrainLimitExceededError(SlveError):
    """The reconstructed response argument left the invertible range."""

    def __init__(self, message: str, node: int | None = None, value: float | None = None):
        super().__init__(message)
        self.node = node
        self.value = value


class InvalidStepError(SlveError, ValueError):
    """Time step is nonpositive or exceeds the integration horizon."""


class InvalidWindowError(SlveError, ValueError):
    """State window unsuitable for a finite-difference energy balance."""


class BlowUpError(SlveError):
    """Simulation left the finite (or configured) range; carries the time and
    the field ('v', 'eps' or 'stress') and node of the first bad entry."""

    def __init__(self, t: float, max_abs_stress: float, field: str, node: int):
        super().__init__(
            f"solution blew up at t = {t:.6g} in {field} at node {node} "
            f"(max |stress| = {max_abs_stress:.6g})"
        )
        self.t = t
        self.max_abs_stress = max_abs_stress
        self.field = field
        self.node = node


class DegenerateEquilibriaError(SlveError, ValueError):
    """End states coincide in stress or in response value."""


class NoRealSpeedError(SlveError, ValueError):
    """End states give a nonpositive squared wave speed."""


class NoKinkError(SlveError):
    """No monotone front connects the requested end states.

    diagnostic is the existence scan's KinkDiagnostic when the scan found
    no front, None when the front exists but its integration failed.
    """

    def __init__(self, message: str, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic


class SpanTooShortError(SlveError):
    """Profile window too short for the tails to settle onto the end states."""


class SingularLimitError(SlveError, ValueError):
    """The requested reduction coefficient vanishes (elastic limit)."""


class ConfigError(SlveError, ValueError):
    """Config text is malformed, has unknown names, or fails validation."""
