"""Strain-limiting viscoelasticity in one dimension.

Two rate-type viscoelastic regularizations of the same strain-limited
elastic response, side by side:

* stress-rate: eps = h(T) - gamma*dT/dt, which is catastrophically
  unstable in the linearized dynamics (growth at every wavelength), and
* strain-rate: eps + nu*d(eps)/dt = g(T), which is uniformly stable.

The package provides the constitutive catalog, exact linear mode analysis
of both models in extended precision, energy-balance-audited PDE solvers,
traveling-wave front construction with the shared reduction that maps one
model's profiles onto the other's, and a small CLI (``slve``) driving all
of it from INI configs.
"""

from .constitutive import (
    ConstitutiveFunction,
    DissipationAudit,
    audit_dissipation,
    custom_constitutive,
    invert,
    invert_array,
    make_constitutive,
)
from .core import (
    Boundary,
    Field,
    Grid1D,
    ModelParams,
    NondimScales,
    Variant,
    first_derivative,
    integrate_field,
    nondimensionalize,
)
from .dispersion import (
    Classification,
    DispersionResult,
    solve_dispersion,
    strain_rate_dispersion,
    stress_rate_dispersion,
)
from .errors import (
    BlowUpError,
    ConfigError,
    InvalidParameterError,
    NoKinkError,
    SlveError,
    SpanTooShortError,
    StrainLimitExceededError,
)
from .pde import (
    EnergyReport,
    SimState,
    SolverConfig,
    Trajectory,
    energy_series,
    gaussian_bump_state,
    plan,
    relax_stress,
    simulate,
    single_mode_state,
    stored_energy_density,
    total_energy,
    zero_state,
)
from .twave import (
    KinkDiagnostic,
    KinkProfile,
    TravelingWaveProblem,
    UnificationReport,
    balance_function,
    kink_exists,
    kink_initial_state,
    kink_profile,
    make_problem,
    unified_reduction_check,
    wave_speed,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Boundary",
    "Variant",
    "Grid1D",
    "Field",
    "ModelParams",
    "NondimScales",
    "nondimensionalize",
    "integrate_field",
    "first_derivative",
    # constitutive
    "ConstitutiveFunction",
    "DissipationAudit",
    "make_constitutive",
    "custom_constitutive",
    "audit_dissipation",
    "invert",
    "invert_array",
    # dispersion
    "Classification",
    "DispersionResult",
    "solve_dispersion",
    "strain_rate_dispersion",
    "stress_rate_dispersion",
    # pde
    "SimState",
    "Trajectory",
    "SolverConfig",
    "EnergyReport",
    "plan",
    "simulate",
    "stored_energy_density",
    "total_energy",
    "energy_series",
    "zero_state",
    "gaussian_bump_state",
    "single_mode_state",
    "relax_stress",
    # twave
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
    # errors
    "SlveError",
    "InvalidParameterError",
    "ConfigError",
    "StrainLimitExceededError",
    "BlowUpError",
    "NoKinkError",
    "SpanTooShortError",
]
