"""Shared 1D toolkit: grids, fields, model parameters, and scalings.

The rest of the package works on a reference interval in nondimensional
variables.  With density rho, small-stress shear modulus mu and length scale
L, the scalings are

    x_bar = x / L,   t_bar = (t / L) * sqrt(mu / rho),   T_bar = T / mu,

and the two rate coefficients carry over as

    nu_bar    = (nu / L) * sqrt(mu / rho),
    gamma_bar = (gamma * mu / L) * sqrt(mu / rho).

ModelParams holds the dimensionless unit form rho = mu = L = 1 that every
solver runs; `nondimensionalize` gives its nu and gamma from a dimensional
material once, at the boundary (the CLI), so solver code never mixes units.

Spatial discretization lives here too: second-order centered differences
(periodic wrap, or one-sided second-order stencils at fixed ends) and the
trapezoid rule, which on a periodic uniform grid is the plain spacing-weighted
sum.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "Boundary",
    "Variant",
    "Grid1D",
    "Field",
    "ModelParams",
    "NondimScales",
    "nondimensionalize",
    "integrate_field",
    "first_derivative",
]


class _Choice(str, enum.Enum):
    """A string enum that refuses an unknown value as InvalidParameterError."""

    @classmethod
    def _missing_(cls, value):
        known = ", ".join(member.value for member in cls)
        raise InvalidParameterError(
            f"unknown {cls.__name__.lower()} {value!r}; expected one of {known}")


class Boundary(_Choice):
    """Supported boundary treatments of the truncated interval."""

    PERIODIC = "periodic"
    DIRICHLET_ZERO = "dirichlet_zero"


class Variant(_Choice):
    """Which constitutive rate term the model carries.

    stress_rate: strain = h(T) - gamma * T_t   (rate acts on the stress)
    strain_rate: strain + nu * strain_t = g(T) (rate acts on the strain)
    elastic:     strain = h(T)                 (no rate term)
    """

    STRESS_RATE = "stress_rate"
    STRAIN_RATE = "strain_rate"
    ELASTIC = "elastic"


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


def _require_count(name: str, value, least: int) -> int:
    """value as an int, refusing anything but a whole real number >= least."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)
            and int(value) == value and value >= least):
        raise InvalidParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [0, length].

    Periodic grids store one node per cell (the right endpoint duplicates the
    left and is not stored); dirichlet_zero grids store both endpoints.
    """

    length: float
    n_cells: int
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        object.__setattr__(self, "length", _require_finite("length", self.length))
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if self.length <= 0.0:
            raise InvalidParameterError(f"length must be positive, got {self.length}")
        object.__setattr__(self, "n_cells", _require_count("n_cells", self.n_cells, 4))

    @property
    def spacing(self) -> float:
        return self.length / self.n_cells

    @property
    def n_nodes(self) -> int:
        if self.boundary is Boundary.PERIODIC:
            return self.n_cells
        return self.n_cells + 1

    def nodes(self) -> np.ndarray:
        """Node coordinates, matching the storage convention."""
        if self.boundary is Boundary.PERIODIC:
            return self.spacing * np.arange(self.n_cells)
        return np.linspace(0.0, self.length, self.n_cells + 1)


@dataclass(frozen=True)
class Field:
    """Immutable nodal values of one scalar unknown on a grid."""

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        values = np.array(self.values, dtype=float, copy=True)
        if values.ndim != 1 or values.size != self.grid.n_nodes:
            raise InvalidParameterError(
                f"field needs {self.grid.n_nodes} nodal values, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise InvalidParameterError("field values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def _checked(cls, values: np.ndarray, grid: Grid1D) -> "Field":
        """A Field holding values itself, with no copy and no check: values
        must already be a read-only float row of grid.n_nodes finite entries."""
        field = object.__new__(cls)
        object.__setattr__(field, "values", values)
        object.__setattr__(field, "grid", grid)
        return field


def _require_rate(name: str, value: float) -> float:
    # a negative gamma or nu makes the dissipation rate negative
    value = _require_finite(name, value)
    if value < 0.0:
        raise InvalidParameterError(
            f"{name} must be nonnegative (dissipation requires it), got {value}"
        )
    return value


@dataclass(frozen=True)
class ModelParams:
    """The model in the unit form rho = mu = L = 1 that every solver runs.

    The variant decides which rate coefficient must be active: stress_rate
    needs gamma > 0, strain_rate needs nu > 0, elastic needs both zero.
    Both coefficients must be nonnegative and finite regardless.  A
    dimensional material gives its coefficients through nondimensionalize.
    """

    variant: Variant
    nu: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        object.__setattr__(self, "nu", _require_rate("nu", self.nu))
        object.__setattr__(self, "gamma", _require_rate("gamma", self.gamma))
        if self.variant is Variant.STRESS_RATE and self.gamma == 0.0:
            raise InvalidParameterError("stress_rate variant requires gamma > 0")
        if self.variant is Variant.STRAIN_RATE and self.nu == 0.0:
            raise InvalidParameterError("strain_rate variant requires nu > 0")
        if self.variant is Variant.ELASTIC and (self.nu != 0.0 or self.gamma != 0.0):
            raise InvalidParameterError("elastic variant requires nu = gamma = 0")

    @property
    def coefficient(self) -> float:
        """The active rate coefficient (0 for the elastic variant)."""
        if self.variant is Variant.STRESS_RATE:
            return self.gamma
        if self.variant is Variant.STRAIN_RATE:
            return self.nu
        return 0.0


@dataclass(frozen=True)
class NondimScales:
    """Scale factors carrying dimensional fields to dimensionless ones."""

    x_scale: float
    t_scale: float
    stress_scale: float
    nu_bar: float
    gamma_bar: float


def nondimensionalize(rho: float = 1.0, mu: float = 1.0, length_scale: float = 1.0,
                      nu: float = 0.0, gamma: float = 0.0) -> NondimScales:
    """Scale factors and dimensionless coefficients of a dimensional material.

    rho, mu and length_scale must be positive and finite, nu and gamma
    nonnegative and finite.  The wave speed sqrt(mu/rho) and t_scale must be
    positive and finite in double precision; nu_bar and gamma_bar finite,
    and zero only where nu or gamma is.

    Returns
    -------
    NondimScales
        x_scale = L, t_scale = L*sqrt(rho/mu), stress_scale = mu, and the
        dimensionless rate coefficients nu_bar, gamma_bar defined in the
        module docstring: ModelParams(variant, nu=nu_bar, gamma=gamma_bar)
        is the material's unit form.
    """
    for name, value in (("rho", rho), ("mu", mu), ("length_scale", length_scale)):
        if _require_finite(name, value) <= 0.0:
            raise InvalidParameterError(f"{name} must be positive, got {float(value)}")
    rho, mu, L = float(rho), float(mu), float(length_scale)
    nu, gamma = _require_rate("nu", nu), _require_rate("gamma", gamma)
    speed = math.sqrt(mu / rho)  # small-stress wave speed
    if not 0.0 < speed < math.inf:
        raise InvalidParameterError(f"the wave speed sqrt(mu/rho) must be positive and "
                                    f"finite, got {speed} for mu = {mu}, rho = {rho}")
    scales = NondimScales(
        x_scale=L,
        t_scale=L / speed,
        stress_scale=mu,
        nu_bar=nu / L * speed,
        gamma_bar=gamma * mu / L * speed,
    )
    for name, value, given in (("t_scale", scales.t_scale, L), ("nu_bar", scales.nu_bar, nu),
                               ("gamma_bar", scales.gamma_bar, gamma)):
        if not math.isfinite(value) or (value == 0.0) != (given == 0.0):
            raise InvalidParameterError(f"{name} = {value} leaves the double range")
    return scales


def _trapezoid(values: np.ndarray, grid: Grid1D):
    """Trapezoid rule along the last axis: one integral per row of nodal values.

    On a periodic grid the two endpoint half-weights merge, so the rule is
    the plain spacing-weighted nodal sum.  Each row is summed on its own, so
    it gets the bits of a one-row call.
    """
    dx = grid.spacing
    if grid.boundary is Boundary.PERIODIC:
        return dx * values.sum(axis=-1)
    return np.trapezoid(values, dx=dx, axis=-1)


def integrate_field(field: Field) -> float:
    """Trapezoid-rule integral of a field over its grid."""
    return float(_trapezoid(field.values, field.grid))


def _is_periodic(boundary: Boundary | str) -> bool:
    # == takes a member or its string value, with no Boundary(...) per call
    if boundary != Boundary.PERIODIC and boundary != Boundary.DIRICHLET_ZERO:
        raise InvalidParameterError(f"unknown boundary {boundary!r}")
    return boundary == Boundary.PERIODIC


def first_derivative(
    values: np.ndarray, spacing: float, boundary: Boundary | str, out: np.ndarray | None = None
) -> np.ndarray:
    """Second-order first derivative on nodal values (array kernel), along
    the last axis: each row of a block gets the bits of its own 1-D call.

    The last axis needs at least 3 nodes.  out, if given, is a float array of
    the shape of values that shares no memory with it; the derivative is
    written there and returned, with the bits of the allocating call.
    """
    periodic = boundary is Boundary.PERIODIC or _is_periodic(boundary)
    values = np.asarray(values)
    if values.ndim == 0 or values.shape[-1] < 3:
        raise InvalidParameterError(
            f"values need at least 3 nodes on the last axis, got shape {values.shape}"
        )
    width = 2.0 * spacing
    if out is None:
        # integer input gives floats, as the arithmetic below does
        out = np.empty(values.shape, np.result_type(values, width))
    elif out.shape != values.shape or np.shares_memory(out, values):
        raise InvalidParameterError(
            f"out must have shape {values.shape} and share no memory with values"
        )
    return _centered(values, width, periodic, out)


def _centered(values: np.ndarray, width: float, periodic: bool, out: np.ndarray) -> np.ndarray:
    """The stencil of first_derivative, unchecked: width = 2*spacing, and out
    is a float array of the shape of values that shares no memory with it,
    whose last axis has at least 3 nodes.

    Every entry's difference, ends included, is written first and the block
    divided once, the IEEE operations of the per-entry formulas
    (values[i+1] - values[i-1]) / width and the one-sided end stencils, along
    the last axis: each row of a block keeps the bits of its own 1-D call.
    The formulas index the node-first views values.T and out.T, so one body
    serves any number of rows: a node is the first index there, which picks
    a scalar from a 1-D row and every row's value at that node from a block.
    """
    v, o = values.T, out.T
    np.subtract(v[2:], v[:-2], out=o[1:-1])
    if periodic:  # wrapped ends
        o[0] = v[1] - v[-1]
        o[-1] = v[0] - v[-2]
    else:
        o[0] = -3.0 * v[0] + 4.0 * v[1] - v[2]
        o[-1] = 3.0 * v[-1] - 4.0 * v[-2] + v[-3]
    out /= width
    return out
