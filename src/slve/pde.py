"""Method-of-lines solvers for the two models and their energy bookkeeping.

Both models share the kinematics and momentum balance

    v_t = T_x,      eps_t = v_x,

and differ in the constitutive closure.  As first-order systems:

    stress-rate  (unknowns v, eps, T):   T_t = (h(T) - eps) / gamma
    strain-rate  (unknowns v, eps):      T   = g^{-1}(eps + nu * v_x)
                                         eps_t = v_x
    elastic      (unknowns v, T):        T_t = v_x / h'(T),  eps = h(T)

The strain-rate closure eps + nu*eps_t = g(T) is the stress reconstruction
itself, so that model's strain follows the kinematics alone.

The solvers run the dimensionless unit form rho = mu = length_scale = 1,
the only form core.ModelParams can hold, so no formula here carries rho, mu
or length_scale.

Space: second-order centered differences, periodic wrap or one-sided
second-order stencils with pinned values at dirichlet_zero ends.  Time:
classical fourth-order Runge-Kutta with a fixed step below the variant's
explicit stability ceiling

    stress-rate:  dt <= min(0.5*dx, 0.5*gamma)
    strain-rate:  dt <= min(0.5*dx, 0.25*dx**2/nu)
    elastic:      dt <= 0.5*dx

(plan refuses a dt above the ceiling: a configuration error, not a warning).

Both time integrations, simulate and relax_stress, step through one RK4
loop, _march, on a schedule decided before it starts by the one landing
rule, _landing: simulate's is its plan's steps and last_step.  _march yields
states only.  A right-hand side is called as rhs(Y, out) and writes dY/dt
into out.  _march allocates its workspace once per run: the four stage
slopes, the stage state and two result buffers used in alternation.  The
stage sums and the stencils write into these buffers; only the response
calls and the blow-up check make temporaries of their own.  A yielded state
is valid only until the next iteration, so callers copy what they keep.
The stress-rate and elastic stages make one checked first_derivative call
each, on the row pair (T, v) of the stage state into two rows of the slope;
it differentiates each row with the bits of its own 1-D call.  _make_rhs
builds each variant's stage with its snapshot writer; the strain-rate pair
shares one rebuild of the stress T = g^{-1}(eps + nu*v_x), whose v_x (and a
stage's T_x) comes from core's unchecked kernel (first_derivative less its
checks: the buffers never alias and keep the grid's shape).  Without a
closed form each inversion starts from the tangent of the previous one,
T + (y - y_last)/g'(T) at the stress T it rebuilt from y_last, one
derivative call that saves Newton sweeps; the first, the initial snapshot's,
starts from the initial state's stress, and a stage after a snapshot has
its target, so one sweep confirms that stress.

With a linear response on a periodic grid the scheme is a linear
recurrence: a step of length h multiplies each spatial Fourier mode by
R(h M), where R(z) = 1 + z + z**2/2 + z**3/6 + z**4/24 and M is the
variant's symbol at the stencil's wavenumber kappa = sin(k dx)/dx, whose
eigenvalues are the dispersion rates at kappa.  The Nyquist mode has
kappa = 0, so the strain-rate scheme leaves a checkerboard untouched.

Energy: with stored density omega = T*eps - H(T) (stress-rate, elastic)
or T*g(T) - G1(T) (strain-rate), total energy obeys

    d/dt int v**2/2 + omega dx  =  - gamma * int (T_t)**2 dx
                                =  - nu * int (T_x)**2 dx

for the stress-rate / strain-rate model respectively.  The stress-rate
density is not sign-definite (H grows like T**2/2 only near 0), which is why
decaying energy and a growing solution coexist for that model: it is
unstable at every wavenumber even though its dissipation rate is
nonnegative.  Simulations of it are meaningful on short horizons only, and
growth past the configured threshold is reported as blow-up, not treated as
a bug.

The truncation to a periodic or pinned interval of what is naturally a
whole-line problem is a modeling choice made here once: waves that leave a
pinned boundary reflect, and periodic runs must keep features away from the
seam for as long as the comparison window lasts.

The rate coefficients are constants; a stress-dependent gamma(T) would slot
into the same RHS assembly but is deliberately out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Tuple

import numpy as np

from .constitutive import ConstitutiveFunction, invert_array
from .core import (
    Boundary,
    Field,
    Grid1D,
    ModelParams,
    Variant,
    _centered,
    _even_gaps,
    _require_count,
    _trapezoid,
    first_derivative,
    integrate_field,
)
from .errors import BlowUpError, InvalidParameterError, StrainLimitExceededError

__all__ = [
    "SimState",
    "Trajectory",
    "SolverConfig",
    "RunPlan",
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
]


@dataclass(frozen=True)
class SimState:
    """Snapshot of (velocity, strain, stress) fields at one time.

    A Trajectory's traj[i] holds read-only views of the run's block, which
    was checked once with the run, so it copies and checks nothing.
    """

    t: float
    v: Field
    eps: Field
    stress: Field

    def __post_init__(self):
        if not (self.v.grid == self.eps.grid == self.stress.grid):
            raise InvalidParameterError("state fields must share one grid")

    @property
    def grid(self) -> Grid1D:
        return self.v.grid


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one run: times t (n,) and read-only fields (n, 3, N) with
    rows (v, eps, stress), checked once for the whole run.  traj[i] is a
    SimState whose fields are read-only views of that block, as traj.v and
    traj.stress are; traj[a:b] is a Trajectory."""

    t: np.ndarray
    fields: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        # read-only views, checked once for the whole run
        t = np.asarray(self.t, dtype=float).view()
        fields = np.asarray(self.fields, dtype=float).view()
        if t.ndim != 1 or fields.shape != (t.size, 3, self.grid.n_nodes):
            n = self.grid.n_nodes
            raise InvalidParameterError(f"fields need shape ({t.size}, 3, {n}), got {fields.shape}")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(fields))):
            raise InvalidParameterError("trajectory values must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise InvalidParameterError("trajectory times must be strictly increasing")
        for name, block in (("t", t), ("fields", fields)):
            block.setflags(write=False)
            object.__setattr__(self, name, block)

    v = property(lambda self: self.fields[:, 0])
    eps = property(lambda self: self.fields[:, 1])
    stress = property(lambda self: self.fields[:, 2])

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trajectory(self.t[i], self.fields[i], self.grid)
        v, eps, stress = (Field._checked(row, self.grid) for row in self.fields[i])
        return SimState(float(self.t[i]), v, eps, stress)


@dataclass(frozen=True)
class SolverConfig:
    """Everything a time stepper needs besides the state itself."""

    params: ModelParams
    constitutive: ConstitutiveFunction
    dt: float
    t_final: float
    output_stride: int = 1
    blowup_threshold: float = 1e6

    def __post_init__(self):
        dt, t_final = _checked_times(self.dt, self.t_final)
        stride = _require_count("output_stride", self.output_stride, 1)
        if not math.isfinite(self.blowup_threshold) or self.blowup_threshold <= 0.0:
            raise InvalidParameterError(
                f"blowup_threshold must be positive, got {self.blowup_threshold}"
            )
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "t_final", t_final)
        object.__setattr__(self, "output_stride", stride)
        object.__setattr__(self, "blowup_threshold", float(self.blowup_threshold))

    @property
    def variant(self) -> Variant:
        return self.params.variant


@dataclass(frozen=True)
class RunPlan:
    """What simulate will do, decided before it starts: _march steps its schedule."""

    ceiling: float  # the largest admissible RK4 step for the variant on the grid
    steps: int  # all RK4 steps, the shortened landing step included
    last_step: float  # the last step's length: dt, or the landing remainder
    snapshots: int  # the initial state, every output_stride-th step and the last


def plan(initial: SimState, config: SolverConfig) -> RunPlan:
    """The plan of simulate(initial, config); a dt over the ceiling is refused."""
    dx = initial.grid.spacing
    if config.variant is Variant.STRESS_RATE:
        ceiling = min(0.5 * dx, 0.5 * config.params.gamma)
    elif config.variant is Variant.STRAIN_RATE:
        ceiling = min(0.5 * dx, 0.25 * dx * dx / config.params.nu)
    else:
        ceiling = 0.5 * dx
    if config.dt > ceiling:
        raise InvalidParameterError(
            f"dt = {config.dt} exceeds the stability ceiling {ceiling:.6g} "
            f"for variant {config.variant.value} on spacing {dx:.6g}"
        )
    steps, last_step = _landing(config.dt, config.t_final)
    return RunPlan(ceiling, steps, last_step, 1 + -(-steps // config.output_stride))


def _make_rhs(config: SolverConfig, initial: SimState) -> Tuple[Callable, Callable]:
    """The run's rhs(Y, out), writing dY/dt of the rows (v, eps, T), (v, eps) or
    (v, T) by variant into out, and snapshot(Y, out), writing (v, eps, stress)."""
    variant, f, params, grid = config.variant, config.constitutive, config.params, initial.grid
    dx, bdy = grid.spacing, grid.boundary

    if variant is Variant.STRESS_RATE:
        gamma = params.gamma

        def rhs(Y, out):
            # rows (T, v) give (T_x, v_x) = (v_t, eps_t)
            first_derivative(Y[::-2], dx, bdy, out[:2])
            np.subtract(f.value(Y[2]), Y[1], out=out[2])
            out[2] /= gamma

        def snapshot(Y, out):
            out[...] = Y

    elif variant is Variant.STRAIN_RATE:
        nu = params.nu
        # this rebuild's target, the last one's and the stress rebuilt from
        # it, which starts the next Newton solve (the first, the initial state's)
        target, last = np.empty(grid.n_nodes), np.empty(grid.n_nodes)
        width = 2.0 * dx
        periodic = bdy is Boundary.PERIODIC
        T, tangent = initial.stress.values, False

        def rebuild(Y, vx):
            nonlocal T, target, last, tangent
            np.add(Y[1], np.multiply(vx, nu, out=target), out=target)
            start = T
            if tangent:
                # T + (y - y_last)/g'(T); a non-finite one gives way to the
                # bracket's midpoint
                slope = f.derivative(T)
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    start = T + (target - last) / slope
            T = invert_array(f, target, start)
            target, last = last, target
            # a closed form ignores the start
            tangent = f.inverse is None
            return T

        def rhs(Y, out):
            # eps_t = (g(T) - eps)/nu, which the reconstruction makes v_x
            _centered(rebuild(Y, _centered(Y[0], width, periodic, out[1])), width, periodic, out[0])

        def snapshot(Y, out):
            out[:2] = Y
            out[2] = rebuild(Y, _centered(Y[0], width, periodic, out[2]))

    else:

        def rhs(Y, out):
            # rows (T, v) give (T_x, v_x) = (v_t, h'(T) * T_t)
            first_derivative(Y[::-1], dx, bdy, out)
            out[1] /= f.derivative(Y[1])

        def snapshot(Y, out):
            out[::2] = Y
            out[1] = f.value(Y[1])

    if bdy is Boundary.DIRICHLET_ZERO:
        bare = rhs

        def rhs(Y, out):  # the pinned end values never change
            bare(Y, out)
            out[:, 0] = 0.0
            out[:, -1] = 0.0

    return rhs, snapshot


# the rows of (v, eps, stress) that each variant evolves, as basic slices
# so that packing and naming a row index no list
_EVOLVED = {Variant.STRESS_RATE: slice(0, 3), Variant.STRAIN_RATE: slice(0, 2),
            Variant.ELASTIC: slice(0, 3, 2)}


def _check_blowup(Y: np.ndarray, t: float, variant: Variant, threshold: float) -> None:
    # NaN and inf fail the comparison too (the threshold itself is finite)
    if np.maximum.reduce(np.abs(Y), axis=None) <= threshold:
        return
    # the first bad entry in row order names the field and the node
    row, node = divmod(int(np.argmin(np.abs(Y) <= threshold)), Y.shape[1])
    # stress row for the variants that carry one; largest state entry else
    stress = Y if variant is Variant.STRAIN_RATE else Y[-1]
    finite = stress[np.isfinite(stress)]
    max_abs = float(np.max(np.abs(finite))) if finite.size else math.inf
    field = ("v", "eps", "stress")[_EVOLVED[variant]][row]
    raise BlowUpError(t=float(t), max_abs_stress=max_abs, field=field, node=node)


def _rk4_step(rhs, Y, h, work, out):
    # Y + (h/6)*(k1 + 2*k2 + 2*k3 + k4) into out, in the out-of-place
    # operation order, with the stages and their sums in the buffers of work
    k1, k2, k3, k4, stage = work
    rhs(Y, k1)
    rhs(np.add(Y, np.multiply(k1, 0.5 * h, out=stage), out=stage), k2)
    rhs(np.add(Y, np.multiply(k2, 0.5 * h, out=stage), out=stage), k3)
    rhs(np.add(Y, np.multiply(k3, h, out=stage), out=stage), k4)
    np.add(k1, np.multiply(k2, 2.0, out=out), out=out)
    out += np.multiply(k3, 2.0, out=stage)
    out += k4
    out *= h / 6.0
    out += Y
    return out


def _checked_times(dt, t_final) -> Tuple[float, float]:
    """dt and t_final as floats, held to the rules every integration shares."""
    dt = float(dt)
    t_final = float(t_final)
    if not math.isfinite(dt) or dt <= 0.0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    if not math.isfinite(t_final) or t_final <= 0.0:
        raise InvalidParameterError(f"t_final must be positive, got {t_final}")
    if dt > t_final:
        raise InvalidParameterError(f"dt = {dt} exceeds t_final = {t_final}")
    return dt, t_final


def _landing(dt: float, t_final: float) -> Tuple[int, float]:
    """The landing rule: (all steps, the last step's length), landing on t_final."""
    q = t_final / dt
    n_full = int(q)
    if q - n_full > 1.0 - 1e-9:  # q is an integer up to roundoff
        n_full += 1
    remainder = t_final - n_full * dt
    return (n_full + 1, remainder) if remainder > 1e-12 * dt else (n_full, dt)


def _march(rhs, Y: np.ndarray, dt: float, steps: int, last_step: float) -> Iterator[np.ndarray]:
    """Fixed-step RK4 on a decided schedule, steps - 1 steps of dt and then
    one of last_step, yielding the state Y after each; the caller keeps time.

    rhs(Y, out) writes dY/dt into out.  The stage buffers and two result
    buffers, used in alternation, are allocated once per run, so each
    yielded Y is valid only until the next iteration: keep a copy.
    """
    work = [np.empty_like(Y) for _ in range(5)]
    spare = [np.empty_like(Y), np.empty_like(Y)]
    for i in range(steps):
        Y = _rk4_step(rhs, Y, dt if i < steps - 1 else last_step, work, spare[i % 2])
        yield Y


def simulate(initial: SimState, config: SolverConfig) -> Trajectory:
    """March from the initial state to t_final, collecting snapshots.

    Snapshots are the initial state, every output_stride-th step, and the
    final state.  The final step is shortened to land on t0 + t_final
    exactly.  A snapshot's strain-rate stress is always rebuilt from (v, eps)
    and its elastic strain is always h(T).

    Raises
    ------
    BlowUpError
        When the state leaves the finite range or passes the configured
        magnitude threshold; carries the time it happened and max_abs_stress,
        the largest finite |stress| (|v| or |eps| for the strain-rate variant).
    StrainLimitExceededError
        When the strain-rate stress reconstruction reaches the strain limit;
        carries the node and the value.  Both carry the snapshots so far as
        ``partial``.
    """
    p = plan(initial, config)
    grid = initial.grid
    variant = config.variant
    rhs, snapshot = _make_rhs(config, initial)
    Y = np.array((initial.v.values, initial.eps.values, initial.stress.values)[_EVOLVED[variant]])
    t0 = float(initial.t)
    t = np.full(p.snapshots, t0)
    fields = np.empty((p.snapshots, 3, grid.n_nodes))
    k = 0  # snapshots kept; t[k] holds the current step's time until one is
    try:
        snapshot(Y, fields[0])
        k = 1
        for i, Y in enumerate(_march(rhs, Y, config.dt, p.steps, p.last_step), 1):
            t[k] = t0 + (config.t_final if i == p.steps else i * config.dt)
            _check_blowup(Y, t[k], variant, config.blowup_threshold)
            if i == p.steps or i % config.output_stride == 0:
                snapshot(Y, fields[k])
                k += 1
    except (BlowUpError, StrainLimitExceededError) as exc:
        # hand back what was collected so callers can report the run so far
        exc.partial = Trajectory(t[:k], fields[:k], grid)
        raise
    return Trajectory(t, fields, grid)


def stored_energy_density(variant: Variant, f: ConstitutiveFunction, T, eps):
    """Stored energy per unit length, omega.

    stress-rate and elastic: T*eps - H(T) (not sign-definite, and unbounded
    below in T for bounded h), with H the antiderivative of h: the
    complementary potential phi_c = H, and the Gibbs potential G = -H;
    strain-rate: T*g(T) - G1(T), nonnegative for monotone g.
    """
    variant = Variant(variant)
    T = np.asarray(T, dtype=float)
    if variant is Variant.STRAIN_RATE:
        return T * np.asarray(f.value(T)) - np.asarray(f.antiderivative(T))
    eps = np.asarray(eps, dtype=float)
    return T * eps - np.asarray(f.antiderivative(T))


def total_energy(state: SimState, params: ModelParams, f: ConstitutiveFunction) -> float:
    """Kinetic plus stored energy over the grid."""
    ke = 0.5 * state.v.values**2
    se = stored_energy_density(params.variant, f, state.stress.values, state.eps.values)
    return float(integrate_field(Field(ke + se, state.grid)))


@dataclass(frozen=True)
class EnergyReport:
    """Energy balance at one sample: d(total)/dt should equal -dissipation."""

    t: float
    kinetic: float
    internal: float
    total: float
    dissipation_rate: float
    balance_residual: float


def _dissipation_rates(T, eps, params: ModelParams, f: ConstitutiveFunction, grid: Grid1D):
    """Dissipation rate of each row of stresses T and strains eps, shape (r, N)."""
    if params.variant is Variant.STRESS_RATE:
        T_t = (np.asarray(f.value(T)) - eps) / params.gamma
        return _trapezoid(params.gamma * T_t * T_t, grid)
    if params.variant is Variant.STRAIN_RATE:
        T_x = first_derivative(T, grid.spacing, grid.boundary)
        return _trapezoid(T_x * T_x, grid) * params.nu
    return np.zeros(len(T))


# nodal values per field in one block of energy reports (one row at least)
_REPORT_BLOCK = 2**12


def energy_series(
    traj: Trajectory, params: ModelParams, f: ConstitutiveFunction
) -> List[EnergyReport]:
    """Energy balance at every uniformly spaced interior sample of a run.

    Each sample gives its energies and dissipation rate, the totals of its
    neighbors a centered dE/dt; balance_residual = |dE/dt + dissipation_rate|
    vanishes for the exact dynamics.  Samples next to the shortened landing
    step have no centered stencil and are skipped.

    Each snapshot's total is one total_energy call.  The reports' energies
    and dissipation rates come from blocks of at most _REPORT_BLOCK nodal
    values per field: one stored_energy_density call per block, so a
    response without a closed-form antiderivative makes one quadrature per
    block; each report keeps the bits of a one-snapshot evaluation, except
    that such a quadrature shares its adaptive subdivision across the block.
    """
    if len(traj) < 3:
        raise InvalidParameterError(f"energy series needs >= 3 states, got {len(traj)}")
    totals = np.array([total_energy(state, params, f) for state in traj])
    steps = np.diff(traj.t)
    d1, d2 = steps[:-1], steps[1:]
    uniform = _even_gaps(d1, d2)
    if not uniform.any():
        raise InvalidParameterError("no uniformly spaced interior sample in the run")
    dEdt = ((totals[2:] - totals[:-2]) / (d1 + d2))[uniform]
    mids = np.flatnonzero(uniform) + 1
    grid = traj.grid
    rows = max(1, _REPORT_BLOCK // grid.n_nodes)
    kinetic, internal, dissipation = [], [], []
    for lo in range(0, mids.size, rows):
        v, eps, T = traj.fields[mids[lo:lo + rows]].transpose(1, 0, 2)
        kinetic += _trapezoid(0.5 * v**2, grid).tolist()
        internal += _trapezoid(stored_energy_density(params.variant, f, T, eps), grid).tolist()
        dissipation += _dissipation_rates(T, eps, params, f, grid).tolist()
    residual = np.abs(dEdt + dissipation).tolist()
    return [
        EnergyReport(t=t, kinetic=k, internal=u, total=k + u, dissipation_rate=d,
                     balance_residual=r)
        for t, k, u, d, r in zip(traj.t[mids].tolist(), kinetic, internal, dissipation, residual)
    ]


def zero_state(grid: Grid1D) -> SimState:
    """The rest state: the equilibrium every variant shares."""
    z = np.zeros(grid.n_nodes)
    return SimState(t=0.0, v=Field(z, grid), eps=Field(z, grid), stress=Field(z, grid))


def _manifold_state(grid: Grid1D, f: ConstitutiveFunction, T0: np.ndarray) -> SimState:
    # v = 0 and eps = f(T0) make t = 0 an exact constitutive equilibrium for
    # every variant, so runs start with zero dissipation transient
    eps0 = np.asarray(f.value(T0))
    return SimState(
        t=0.0,
        v=Field(np.zeros(grid.n_nodes), grid),
        eps=Field(eps0, grid),
        stress=Field(T0, grid),
    )


def gaussian_bump_state(
    grid: Grid1D, f: ConstitutiveFunction, center: float, width: float, amplitude: float
) -> SimState:
    """Stress bump amplitude*exp(-((x-center)/width)**2) on the manifold."""
    if not width > 0.0:
        raise InvalidParameterError(f"width must be positive, got {width}")
    if not math.isfinite(center):  # at an infinite center the bump would be all zero
        raise InvalidParameterError(f"center must be finite, got {center}")
    x = grid.nodes()
    T0 = amplitude * np.exp(-(((x - center) / width) ** 2))
    return _manifold_state(grid, f, T0)


def single_mode_state(
    grid: Grid1D, f: ConstitutiveFunction, k: float, amplitude: float
) -> SimState:
    """One spatial mode of the stress on the manifold.

    Periodic grids take cos(k x) and need k*length to be a whole number of
    turns; pinned grids take sin(k x) and need k*length to be a whole number
    of half-turns, so the ends stay at zero.
    """
    if not math.isfinite(k):
        raise InvalidParameterError(f"k must be finite, got {k}")
    x = grid.nodes()
    if grid.boundary is Boundary.PERIODIC:
        turns = k * grid.length / (2.0 * math.pi)
        if abs(turns - round(turns)) > 1e-9 or round(turns) < 1:
            raise InvalidParameterError(
                f"k = {k} does not fit the periodic length {grid.length}"
            )
        T0 = amplitude * np.cos(k * x)
    else:
        half_turns = k * grid.length / math.pi
        if abs(half_turns - round(half_turns)) > 1e-9 or round(half_turns) < 1:
            raise InvalidParameterError(
                f"k = {k} does not vanish at the pinned ends for length {grid.length}"
            )
        T0 = amplitude * np.sin(k * x)
        T0[[0, -1]] = 0.0  # sin(k * length) is 0 only to rounding
    return _manifold_state(grid, f, T0)


def relax_stress(
    h: ConstitutiveFunction, eps, gamma: float, t_final: float, dt: float, T0=0.0
):
    """Integrate the frozen-strain nodewise ODE T_t = (h(T) - eps)/gamma.

    This is the constitutive relation of the stress-rate model with the
    strain held fixed; the stress-rate dispersion's k = 0 root 1/gamma is
    its linearized rate at the equilibrium h(T*) = eps.  eps and T0 may be
    scalars or arrays (broadcast together).  Returns T at t_final.
    """
    gamma = ModelParams(Variant.STRESS_RATE, gamma=gamma).gamma
    dt, t_final = _checked_times(dt, t_final)
    eps_arr, T = np.broadcast_arrays(np.asarray(eps, dtype=float), np.asarray(T0, dtype=float))
    scalar = T.ndim == 0
    # at least 1-d, so the in-place RK4 stage sums have arrays to write into
    eps_arr, T = np.atleast_1d(eps_arr, T)

    def rhs(Tv, out):
        np.subtract(h.value(Tv), eps_arr, out=out)
        out /= gamma

    with np.errstate(over="ignore", invalid="ignore"):
        for T in _march(rhs, T, dt, *_landing(dt, t_final)):
            pass
    return float(T[0]) if scalar else T
