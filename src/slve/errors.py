"""Exception types shared across the package: one per way a run can end.

Everything raised on purpose derives from SlveError so callers can catch the
package's failures in one clause.  The CLI maps each class to an outcome:

* InvalidParameterError: an argument violates a documented precondition
  (a ValueError too, as the offending argument would have raised); the
  config parser refuses it as a ConfigError, and after parsing it exits 1.
* ConfigError: config text is malformed or fails validation; exit 2.
* BlowUpError: an unstable run left the finite or configured range; exit 3.
* StrainLimitExceededError: a target of the response's inverse is at or
  past its bound, or no bracket holds it; exit 4 when a strain-rate run's
  stress reconstruction meets it.
* NoKinkError: no monotone front connects the twave end states; an ok
  record that says so (exit 0), or exit 1 when a front's integration fails.
* SpanTooShortError: the twave window is too short for the tails to
  settle; exit 1 with its name as the category.
* SlveError: any other model failure (a quadrature or an inversion that
  does not converge); exit 1.
"""

from __future__ import annotations


class SlveError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SlveError, ValueError):
    """An argument violates a documented precondition."""


class StrainLimitExceededError(SlveError):
    """A target of the response's inverse is outside its attainable range;
    carries the flat index (node) and the value of the target it names."""

    def __init__(self, message: str, node: int, value: float):
        super().__init__(message)
        self.node = node
        self.value = value


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


class ConfigError(SlveError, ValueError):
    """Config text is malformed, has unknown names, or fails validation."""
