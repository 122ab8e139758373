"""Headline acceptance checks, one numbered criterion per test.

Each test prints a single [PASS]/[FAIL] line with the measured quantity next
to its bound; the line bypasses output capture so the run log always carries
the full scorecard.  Simulated trajectories are built once in module fixtures
and shared (criterion 6 audits every trajectory the suite produced).

Every criterion must pass.  Criterion 8a checks the frozen-strain flow of the
stress-rate law, whose equilibrium h^{-1}(eps) repels, against the exact
separable solution of that ODE (see that test's docstring).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from slve import (
    Classification,
    Grid1D,
    ModelParams,
    SolverConfig,
    audit_dissipation,
    balance_function,
    energy_series,
    gaussian_bump_state,
    invert,
    kink_initial_state,
    kink_profile,
    make_constitutive,
    make_problem,
    relax_stress,
    simulate,
    single_mode_state,
    strain_rate_dispersion,
    stress_rate_dispersion,
    total_energy,
    unified_reduction_check,
)

from oracles import first_order_residual, fit_mode_rates, locate_critical_wavenumber

SUPERGOLDEN = 1.4655712318767682  # positive root of r^3 - r^2 - 1


def _report(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {tag}: {detail}")
    assert ok, f"criterion {tag}: {detail}"


def _bisect_cubic_root(gamma, k, tol=1e-13):
    """Independent oracle for the positive root of gamma*r^3 - r^2 - k^2."""

    def p(r):
        return gamma * r * r * r - r * r - k * k

    hi = 1.0
    while p(hi) <= 0.0:
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol * hi:
        m = 0.5 * (lo + hi)
        if p(m) > 0.0:
            hi = m
        else:
            lo = m
    return 0.5 * (lo + hi)


# --- shared trajectories ---------------------------------------------------


@pytest.fixture(scope="module")
def mode_runs():
    """Single-mode k=1 runs with the linear response, both rate variants."""
    grid = Grid1D(length=2.0 * np.pi, n_cells=128, boundary="periodic")
    lin = make_constitutive("linear", beta=1.0)
    st0 = single_mode_state(grid, lin, k=1.0, amplitude=1e-3)

    p_growth = ModelParams(variant="stress_rate", gamma=1.0)
    cfg_growth = SolverConfig(
        params=p_growth,
        constitutive=lin,
        dt=0.02,
        t_final=5.0,
        output_stride=10,
        blowup_threshold=1e12,
    )
    p_decay = ModelParams(variant="strain_rate", nu=1.0)
    dx = grid.spacing
    cfg_decay = SolverConfig(
        params=p_decay, constitutive=lin, dt=0.2 * dx * dx, t_final=10.0, output_stride=200
    )
    return {
        "stress_rate": (simulate(st0, cfg_growth), p_growth),
        "strain_rate": (simulate(st0, cfg_decay), p_decay),
    }


@pytest.fixture(scope="module")
def bump_runs():
    """Gaussian-bump refinement ladder for the energy balance, both variants."""
    f = make_constitutive("saturating", beta=1.0, a=2.0)
    out = {}
    for n_cells in (128, 256, 512):
        grid = Grid1D(length=2.0 * np.pi, n_cells=n_cells, boundary="periodic")
        dx = grid.spacing
        st0 = gaussian_bump_state(grid, f, center=np.pi, width=0.5, amplitude=0.4)

        p_n = ModelParams(variant="strain_rate", nu=1.0)
        dt_n = 0.2 * dx * dx
        cfg_n = SolverConfig(
            params=p_n,
            constitutive=f,
            dt=dt_n,
            t_final=0.5,
            # observation clock ~ dx^1.5 so the centered dE/dt stencil error
            # refines one order faster than the spatial truncation
            output_stride=max(1, round(0.5 * dx**1.5 / dt_n)),
        )
        out[("strain_rate", n_cells)] = (simulate(st0, cfg_n), p_n, f)

        p_g = ModelParams(variant="stress_rate", gamma=1.0)
        dt_g = 0.05 * dx
        cfg_g = SolverConfig(
            params=p_g,
            constitutive=f,
            dt=dt_g,
            t_final=2.0,
            output_stride=max(1, round(dx**1.5 / dt_g)),
        )
        out[("stress_rate", n_cells)] = (simulate(st0, cfg_g), p_g, f)
    return out


@pytest.fixture(scope="module")
def kink_run():
    """A strain-rate front sampled onto a pinned grid and evolved to t=1.

    The pinned ends freeze the evolved fields at their initial values, which
    are exactly the front's far-field constants, so the truncated line does
    not disturb the wave until it approaches a wall.
    """
    f = make_constitutive("saturating", beta=1.0, a=1.0)
    problem = make_problem(f, 0.0, 1.0, ModelParams("strain_rate", nu=1.0))
    profile = kink_profile(problem, xi_span=200.0)
    grid = Grid1D(length=100.0, n_cells=3072, boundary="dirichlet_zero")
    st0 = kink_initial_state(profile, grid, center=50.0)
    dx = grid.spacing
    cfg = SolverConfig(
        params=ModelParams(variant="strain_rate", nu=1.0),
        constitutive=f,
        dt=0.25 * dx * dx,
        t_final=1.0,
        output_stride=1000,
    )
    return simulate(st0, cfg), profile, grid


# --- criteria --------------------------------------------------------------


def test_criterion_1_critical_wavenumber(capsys):
    worst = 0.0
    for nu in (0.5, 1.0, 2.0, 4.0):
        found = locate_critical_wavenumber(nu, tol=1e-8)
        worst = max(worst, abs(found - 2.0 / nu))
    _report(capsys, 1, worst <= 1e-8, f"max |k_c - 2/nu| = {worst:.2e} (bound 1e-8)")


def test_criterion_2_strain_rate_uniform_stability(capsys):
    rng = np.random.default_rng(20260819)
    n = 10_000
    nus = 10.0 ** rng.uniform(-3.0, 3.0, n)
    ks = rng.uniform(0.0, 1e3, n)
    ks[:100] = 0.0  # the marginal k=0 line, sampled exactly
    worst_re = -np.inf
    worst_ratio = 0.0
    for nu, k in zip(nus, ks):
        res = strain_rate_dispersion(nu, k)
        worst_re = max(worst_re, res.max_real_part)
        r = res.roots
        # coefficients built in extended precision: rounding nu*k*k through
        # float64 first would itself cost ~1e-9 absolute at nu*k*k ~ 1e9
        ksq = np.longdouble(k) * np.longdouble(k)
        resid = np.abs(r * r + np.longdouble(nu) * ksq * r + ksq)
        ratio = resid / (1e-10 * (1.0 + np.abs(r) ** 3))
        worst_ratio = max(worst_ratio, float(np.max(ratio)))
    ok = worst_re <= 0.0 and worst_ratio < 1.0
    _report(
        capsys,
        2,
        ok,
        f"{n} samples: max Re r = {worst_re:.2e} (bound 0), "
        f"residual/bound = {worst_ratio:.2e} (bound 1)",
    )


def test_criterion_3_stress_rate_uniform_instability(capsys):
    rng = np.random.default_rng(20260820)
    n = 10_000
    gammas = 10.0 ** rng.uniform(-3.0, 3.0, n)
    ks = 10.0 ** rng.uniform(-3.0, 3.0, n)
    all_shape_ok = True
    worst_rel = 0.0
    worst_ratio = 0.0
    worst_term_rel = 0.0  # |p(r)| over the sum of its terms' magnitudes
    for gamma, k in zip(gammas, ks):
        res = stress_rate_dispersion(gamma, k)
        r = res.roots
        one_real = int(np.count_nonzero(r.imag == 0.0)) == 1
        growing = res.positive_real_root is not None and res.positive_real_root > 0.0
        all_shape_ok &= one_real and growing and res.classification is Classification.UNSTABLE
        # discriminant of a r^3 + b r^2 + c r + d, computed from scratch
        a, b, c, d = gamma, -1.0, 0.0, -k * k
        generic = (
            18.0 * a * b * c * d
            - 4.0 * b**3 * d
            + b * b * c * c
            - 4.0 * a * c**3
            - 27.0 * a * a * d * d
        )
        worst_rel = max(worst_rel, abs(res.discriminant - generic) / abs(generic))
        ksq = np.longdouble(k) * np.longdouble(k)
        resid = np.abs(np.longdouble(gamma) * r**3 - r * r - ksq)
        ratio = resid / (1e-10 * (1.0 + np.abs(r) ** 3))
        worst_ratio = max(worst_ratio, float(np.max(ratio)))
        terms = np.longdouble(gamma) * np.abs(r) ** 3 + np.abs(r) ** 2 + ksq
        worst_term_rel = max(worst_term_rel, float(np.max(resid / terms)))
    ok = all_shape_ok and worst_rel < 1e-9 and worst_ratio < 1.0 and worst_term_rel <= 1e-13
    _report(
        capsys,
        3,
        ok,
        f"{n} samples: one growing real root everywhere = {all_shape_ok}, "
        f"discriminant rel err = {worst_rel:.2e} (bound 1e-9), "
        f"residual/bound = {worst_ratio:.2e} (bound 1), "
        f"residual/terms = {worst_term_rel:.2e} (bound 1e-13)",
    )


def _fitted_rates(states, n_modes):
    times = np.array([st.t for st in states])
    bins = np.array([np.fft.rfft(st.stress.values)[1] for st in states])
    # the recurrence fit needs a uniform clock; drop the shortened landing step
    return fit_mode_rates(times[:-1], bins[:-1], n_modes)


def test_criterion_4_dispersion_matches_simulation(mode_runs, capsys):
    ref = _bisect_cubic_root(1.0, 1.0)
    growth = _fitted_rates(mode_runs["stress_rate"][0], 3)[0]
    rel_growth = abs(growth.real - ref) / ref
    decay = _fitted_rates(mode_runs["strain_rate"][0], 2)[0]
    rel_decay = abs(decay.real - (-0.5)) / 0.5
    ok = rel_growth < 0.01 and rel_decay < 0.01
    _report(
        capsys,
        4,
        ok,
        f"growth rate vs {ref:.7f}: rel err {rel_growth:.2e}; "
        f"decay rate vs -0.5: rel err {rel_decay:.2e} (bound 1e-2)",
    )


def test_criterion_5_energy_balance(bump_runs, capsys):
    ok = True
    parts = []
    for variant, t_final in (("strain_rate", 0.5), ("stress_rate", 2.0)):
        rels = []
        spacings = []
        for n_cells in (128, 256, 512):
            states, params, f = bump_runs[(variant, n_cells)]
            reports = energy_series(states, params, f)
            mid = min(reports, key=lambda rep: abs(rep.t - t_final / 2.0))
            rels.append(mid.balance_residual / max(mid.dissipation_rate, 1e-300))
            spacings.append(states[0].grid.spacing)
            if variant == "strain_rate":
                totals = [total_energy(st, params, f) for st in states]
                ok &= all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
        orders = [
            math.log(rels[i] / rels[i + 1]) / math.log(spacings[i] / spacings[i + 1])
            for i in range(2)
        ]
        ok &= rels[1] < 1e-3 and min(orders) >= 2.0
        parts.append(f"{variant}: rel {rels[1]:.2e} at N=256, orders {orders[0]:.2f}/{orders[1]:.2f}")
    _report(capsys, 5, ok, "; ".join(parts) + " (bounds 1e-3 and 2)")


def test_criterion_6_dissipation_audit(mode_runs, bump_runs, kink_run, capsys):
    runs = [mode_runs["stress_rate"], mode_runs["strain_rate"]]
    runs += [(states, params) for states, params, _ in bump_runs.values()]
    runs += [(kink_run[0], None)]
    worst = np.inf
    n_histories = 0
    for states, params in runs:
        # the audited rate is gamma*(T_t)^2; runs without a gamma of their own
        # are audited with coefficient 1 so the squared rate itself is checked
        gamma = params.gamma if params is not None and params.gamma > 0.0 else 1.0
        # one call audits every node's history, each to the bits of its own call
        audit = audit_dissipation(gamma, states.t, states.stress)
        worst = min(worst, float(np.min(audit.min_rate)))
        n_histories += states.stress.shape[1]
    ok = worst >= -1e-12
    _report(
        capsys, 6, ok, f"min rate {worst:.2e} over {n_histories} nodal histories (bound -1e-12)"
    )


def test_criterion_7_traveling_wave(kink_run, capsys):
    f = make_constitutive("saturating", beta=1.0, a=1.0)
    problem = make_problem(f, 0.0, 1.0, ModelParams("strain_rate", nu=1.0))
    err_c = abs(problem.c - math.sqrt(2.0))
    states, profile, grid = kink_run
    ode_resid = float(np.max(np.abs(first_order_residual(profile))))
    overlay = unified_reduction_check(f, 0.0, 1.0, gamma=1.0, nu=1.0).max_mismatch
    end = states[-1]
    x = grid.nodes()
    shift = profile.signed_speed * end.t
    predicted = profile.interpolant(x - 50.0 - shift)
    window = np.abs(x - (50.0 + shift)) <= 10.0
    shape_err = float(np.max(np.abs(end.stress.values[window] - predicted[window])))
    ok = err_c <= 1e-10 and ode_resid < 1e-8 and overlay < 1e-9 and shape_err < 1e-3
    _report(
        capsys,
        7,
        ok,
        f"|c - sqrt(2)| = {err_c:.1e} (1e-10); profile residual {ode_resid:.1e} (1e-8); "
        f"variant overlay {overlay:.1e} (1e-9); translated shape err {shape_err:.1e} (1e-3)",
    )


def _closed_form_front_error(profile, beta):
    """Largest stress error of a saturating a = 1 front's samples against the
    exact implicit profile.

    For end states T-, T+ of one sign, (1 + beta T) B(T) = beta (T - T-)(T - T+),
    so kappa_signed T' = B(T) integrates in closed form to
        xi(T) = kappa_signed / (beta (T+ - T-))
                * [(1 + beta T+) log|T - T+| - (1 + beta T-) log|T - T-|] + C
    with xi(T_mid) = 0.  Each sample's xi mismatch becomes a stress mismatch
    through T' = B / kappa_signed; samples within 1e-9 of an end are skipped.
    """
    problem = profile.problem
    lo, hi = problem.t_minus, problem.t_plus

    def xi_exact(T):
        return profile.kappa_signed / (beta * (hi - lo)) * (
            (1.0 + beta * hi) * np.log(np.abs(T - hi)) - (1.0 + beta * lo) * np.log(np.abs(T - lo))
        )

    T = profile.T
    inner = (np.abs(T - lo) > 1e-9) & (np.abs(T - hi) > 1e-9)
    d_xi = profile.xi[inner] - (xi_exact(T[inner]) - xi_exact(0.5 * (lo + hi)))
    slope = balance_function(problem, T[inner]) / profile.kappa_signed
    return float(np.max(np.abs(d_xi * slope)))


def test_criterion_7_front_matches_closed_form(capsys):
    cases = [(1.0, t_minus, t_plus, variant)
             for t_minus, t_plus in ((0.03, 1.0), (0.0, 0.95), (0.049, 1.09))
             for variant in ("stress_rate", "strain_rate")]
    # labels against the raw ODE's direction, and a beta other than 1
    cases += [(1.0, 1.0, 0.03, "stress_rate"), (2.5, 0.0, 1.0, "strain_rate")]
    worst = 0.0
    for beta, t_minus, t_plus, variant in cases:
        f = make_constitutive("saturating", beta=beta, a=1.0)
        params = ModelParams(variant, **{"nu" if variant == "strain_rate" else "gamma": 1.0})
        profile = kink_profile(make_problem(f, t_minus, t_plus, params), xi_span=400.0,
                               n_samples=5001)
        worst = max(worst, _closed_form_front_error(profile, beta))
    _report(capsys, 7, worst < 1e-9,
            f"front against its closed form: max |T - T_exact| {worst:.1e} over "
            f"{len(cases)} fronts (1e-9)")


def test_criterion_8a_stress_relaxes_to_inverse(capsys):
    """Frozen-strain flow away from T* = h^{-1}(eps), exact to 1e-8 at t = 1.

    With the strain held at eps the stress-rate law is the nodewise ODE
    T_t = (h(T) - eps)/gamma.  Its equilibrium T* = h^{-1}(eps) repels, with
    linearized rate h'(T*)/gamma > 0 (the k = 0 dispersion root 1/gamma scaled
    by h'(T*)), so a state started 1e-3 above T* does not relax onto it: it
    leaves upward and, since h < 1, goes on at a speed below (1 - eps)/gamma.
    relax_stress must land within 1e-8 of the exact T(1) and above T* + 1e-3.

    The oracle is the separable solution, built from h.value alone: T(1)
    solves gamma * int_{T0}^{T} ds / (h(s) - eps) = 1, with the integral by
    adaptive quadrature and the root by brentq.  On (T0, inf) the integrand
    exceeds 1/(1 - eps), so T0 + (1 - eps)/gamma brackets the root.
    """
    h = make_constitutive("saturating", beta=1.0, a=2.0)
    eps, gamma, offset = 0.3, 1e-2, 1e-3
    target = invert(h, eps)
    T0 = target + offset
    final = float(relax_stress(h, eps, gamma, t_final=1.0, dt=1e-4, T0=T0))

    def elapsed(T):
        integral, _ = quad(
            lambda s: 1.0 / (float(h.value(s)) - eps), T0, T, epsabs=0.0, epsrel=1e-13, limit=200
        )
        return gamma * integral

    exact = brentq(lambda T: elapsed(T) - 1.0, T0, T0 + (1.0 - eps) / gamma, xtol=1e-13)
    err = abs(final - exact)
    distance = final - target
    _report(
        capsys,
        "8a",
        err <= 1e-8 and distance > offset,
        f"|T(1) - T_exact| = {err:.3e} (bound 1e-8); "
        f"T(1) - h^-1(eps) = {distance:.3e} (started at {offset:.0e}, must grow)",
    )


def test_criterion_8b_elastic_relation_exact(capsys):
    f = make_constitutive("saturating", beta=1.0, a=2.0)
    grid = Grid1D(length=2.0 * np.pi, n_cells=128, boundary="periodic")
    st0 = gaussian_bump_state(grid, f, center=np.pi, width=0.5, amplitude=0.4)
    cfg = SolverConfig(
        params=ModelParams(variant="elastic"),
        constitutive=f,
        dt=0.4 * grid.spacing,
        t_final=1.0,
        output_stride=10,
    )
    states = simulate(st0, cfg)
    gap = max(float(np.max(np.abs(st.eps.values - f.value(st.stress.values)))) for st in states)
    _report(capsys, "8b", gap == 0.0, f"max |eps - h(T)| = {gap:.1e} (exact)")
