"""Traveling fronts: speed selection, existence, profiles, unification.

The saturating a=1 response between end states 0 and 1 is the workhorse:
c^2 = (1 - 0)/(h(1) - h(0)) = 2 exactly, A2 = 0.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import slve.twave as twave
from slve import (
    InvalidParameterError,
    Grid1D,
    ModelParams,
    NoKinkError,
    SpanTooShortError,
    Variant,
    balance_function,
    custom_constitutive,
    kink_exists,
    kink_initial_state,
    kink_profile,
    make_constitutive,
    make_problem,
    unified_reduction_check,
    wave_speed,
)

from oracles import first_order_residual


STRESS = ModelParams(Variant.STRESS_RATE, gamma=1.0)  # the workhorse rate model


def unit(variant, coeff):
    """The unit-form model of variant whose active rate coefficient is coeff."""
    return ModelParams(variant, **{"nu" if variant == "strain_rate" else "gamma": coeff})


def saturating_problem(variant="stress_rate", coeff=1.0):
    f = make_constitutive("saturating", beta=1.0, a=1.0)
    return make_problem(f, 0.0, 1.0, unit(variant, coeff))


def interior_zero_response():
    # the response of TestExistence's interior-zero case: B(T) = T - f(T)
    # vanishes at T = 1/2 between the states 0 and 1
    return custom_constitutive(
        value=lambda T: T + 2.0 * T * (T - 1.0) * (T - 0.5),
        derivative=lambda T: 1.0 + 2.0 * ((T - 1.0) * (T - 0.5) + T * (T - 0.5) + T * (T - 1.0)),
    )


class TestSpeed:
    def test_saturating_speed_exact(self):
        f = make_constitutive("saturating", beta=1.0, a=1.0)
        c_squared, a2 = wave_speed(f, 0.0, 1.0)
        assert c_squared == pytest.approx(2.0, abs=1e-14)
        assert a2 == pytest.approx(0.0, abs=1e-14)

    def test_speed_label_symmetric(self):
        f = make_constitutive("saturating", beta=1.0, a=2.0)
        cs1, _ = wave_speed(f, -0.5, 1.5)
        cs2, _ = wave_speed(f, 1.5, -0.5)
        assert cs1 == pytest.approx(cs2, rel=1e-14)

    def test_coincident_states_rejected(self):
        f = make_constitutive("linear")
        with pytest.raises(InvalidParameterError, match="end states coincide: 0.3"):
            wave_speed(f, 0.3, 0.3)

    def test_no_real_speed_for_backward_response(self):
        # f decreasing between the states makes c^2 negative
        f = custom_constitutive(
            value=lambda T: T - T**3, derivative=lambda T: 1.0 - 3.0 * T**2
        )
        with pytest.raises(InvalidParameterError, match=r"c\^2 = -\S+ <= 0; no real speed"):
            wave_speed(f, 0.0, 1.5)

    def test_equal_response_values_rejected(self):
        # f(0) = f(1) = 0 divides by zero in the speed formula
        f = custom_constitutive(
            value=lambda T: T * (1.0 - T), derivative=lambda T: 1.0 - 2.0 * T
        )
        with pytest.raises(InvalidParameterError, match="same value 0.0 at both end states"):
            wave_speed(f, 0.0, 1.0)


class TestReduction:
    def test_kappa_values(self):
        # the saturating a=1 states 0 and 1 give c = sqrt(2)
        assert saturating_problem("stress_rate", 1.0).kappa == pytest.approx(2.0 * np.sqrt(2.0))
        assert saturating_problem("strain_rate", 1.0).kappa == pytest.approx(np.sqrt(2.0))
        # a linear response of slope 1/4 gives c = 2 exactly
        quarter = make_constitutive("linear", beta=0.25)
        assert make_problem(quarter, 0.0, 1.0, unit("stress_rate", 0.5)).kappa == 4.0

    def test_stress_rate_kappa_is_gamma_times_c_cubed(self):
        # gamma * c**3 as written: c * c * c rounds 1 ulp lower at these states
        f = make_constitutive("saturating", beta=1.0, a=1.0)
        prob = make_problem(f, 0.03, 1.0, STRESS)
        assert prob.kappa == 2.9566562194479094 == prob.c**3

    def test_elastic_kappa_vanishes(self):
        f = make_constitutive("saturating", beta=1.0, a=1.0)
        with pytest.raises(InvalidParameterError, match="^kappa vanishes: the profile equation "
                           "degenerates in the elastic limit$"):
            make_problem(f, 0.0, 1.0, ModelParams(Variant.ELASTIC))
        # a rate variant with a zero coefficient is no model at all
        with pytest.raises(InvalidParameterError, match="stress_rate variant requires gamma > 0"):
            unit("stress_rate", 0.0)

    @pytest.mark.parametrize("params", [STRESS, unit("strain_rate", 1e308)],
                             ids=["c**3", "nu*c"])
    def test_overflowing_kappa_refused(self, params):
        # c = 1e154: c**3 overflows a double, and so does nu * c at nu = 1e308
        f = make_constitutive("saturating", beta=1.0, a=1.0)
        with pytest.raises(InvalidParameterError, match="^kappa overflows a double at speed "
                           "c = 1e[+]?154$"):
            make_problem(f, 0.0, 1e308, params)

    @pytest.mark.parametrize("params", [STRESS, unit("strain_rate", 1e-200)],
                             ids=["c**3", "nu*c"])
    def test_underflowing_kappa_refused(self, params):
        # beta = 1e300 from 0 to 1e-310 gives c = 1e-150: gamma * c**3 and
        # nu * c at nu = 1e-200 round to 0, which would divide kink_profile's
        # rate by zero
        f = make_constitutive("saturating", beta=1e300, a=1.0)
        with pytest.raises(InvalidParameterError, match="^kappa underflows to 0 at speed "
                           "c = 1.00000000005e-150$"):
            make_problem(f, 0.0, 1e-310, params)

    def test_non_finite_speed_refused(self):
        # a linear response from -1e308 to 1e308: the jump overflows to inf
        # in both h and T, and c**2 = inf/inf is NaN
        with pytest.raises(InvalidParameterError, match="^speed must be positive, got nan$"):
            make_problem(make_constitutive("linear"), -1e308, 1e308, STRESS)

    def test_problem_carries_consistent_kappa(self):
        prob = saturating_problem("strain_rate", 2.0)
        assert prob.kappa == pytest.approx(2.0 * prob.c)
        assert prob.params == ModelParams(Variant.STRAIN_RATE, nu=2.0)


class TestExistence:
    def test_saturating_kink_exists(self):
        diag = kink_exists(saturating_problem())
        assert diag.exists and not diag.degenerate
        assert diag.interior_zeros == ()
        assert bool(diag)

    def test_linear_response_degenerate(self):
        prob = make_problem(make_constitutive("linear"), 0.0, 1.0, STRESS)
        diag = kink_exists(prob)
        assert diag.degenerate and not diag.exists

    def test_interior_zero_blocks_connection(self):
        # B(T) = T - f(T) vanishes at T = 1/2 between the states
        f = custom_constitutive(
            value=lambda T: T + 2.0 * T * (T - 1.0) * (T - 0.5),
            derivative=lambda T: 1.0 + 2.0 * ((T - 1.0) * (T - 0.5) + T * (T - 0.5) + T * (T - 1.0)),
        )
        prob = make_problem(f, 0.0, 1.0, STRESS)
        diag = kink_exists(prob)
        assert not diag.exists and not diag.degenerate
        assert any(z == pytest.approx(0.5, abs=1e-9) for z in diag.interior_zeros)

    def test_interior_zero_off_the_scan_nodes_is_bisected(self):
        # B(T) = T - f(T) = -2T(T - 1)(T - 1/3) changes sign at 1/3, between
        # two scan nodes, so the bisection finds it
        f = custom_constitutive(value=lambda T: T + 2.0 * T * (T - 1.0) * (T - 1.0 / 3.0))
        diag = kink_exists(make_problem(f, 0.0, 1.0, STRESS))
        assert not diag.exists and not diag.degenerate
        (zero,) = diag.interior_zeros
        assert abs(zero - 1.0 / 3.0) < 1e-12

    def test_balance_function_signs(self):
        prob = saturating_problem()
        # B(T) = T - 2*h(T): negative on (0, 1) for the a=1 response
        mid = balance_function(prob, 0.5)
        assert mid < 0.0
        assert balance_function(prob, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert balance_function(prob, 1.0) == pytest.approx(0.0, abs=1e-14)


def _array_balance(problem, T):
    """B(T) with T and f(T) made float arrays first: the array formula
    whose bits every scalar call must keep."""
    return np.asarray(T, dtype=float) - problem.c_squared * np.asarray(
        problem.f.value(T), dtype=float
    ) - problem.a2


# (response, end states): t_minus = 0.1 makes A2 nonzero, and a = 1.5
# between 0.1 and 2 takes both masked branches
_BALANCE_CASES = {
    "linear": (make_constitutive("linear", beta=1.3), 0.1, 1.0),
    "saturating_a1": (make_constitutive("saturating", a=1.0), 0.1, 1.0),
    "saturating_a2": (make_constitutive("saturating", a=2.0), 0.1, 1.0),
    "saturating_a1.5": (make_constitutive("saturating", a=1.5), 0.1, 2.0),
    "arctan": (make_constitutive("arctan"), 0.1, 1.0),
    "custom": (custom_constitutive(value=lambda T: T / np.sqrt(1.0 + T * T)), 0.1, 1.0),
}


class TestBalanceFunction:
    @pytest.mark.parametrize("case", sorted(_BALANCE_CASES))
    @pytest.mark.parametrize("T", [0.3, 1, np.float64(0.7), np.array(1.7), 1.0 / 3.0, -0.25])
    def test_scalar_has_the_bits_of_the_array_call(self, case, T):
        f, t_minus, t_plus = _BALANCE_CASES[case]
        prob = make_problem(f, t_minus, t_plus, STRESS)
        got = balance_function(prob, T)
        want = balance_function(prob, np.array([float(T)]))[0]
        assert np.float64(got).tobytes() == want.tobytes()
        assert np.float64(got).tobytes() == np.float64(_array_balance(prob, T)).tobytes()
        if type(T) in (float, int):
            assert type(got) is float

    def test_list_gives_an_array(self):
        prob = saturating_problem()
        got = balance_function(prob, [0.25, 0.5, 0.75])
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert np.array_equal(got, balance_function(prob, np.array([0.25, 0.5, 0.75])))

    @pytest.mark.parametrize("case", ["saturating_a1", "saturating_a1.5", "arctan"])
    def test_profile_equals_the_array_formula(self, monkeypatch, case):
        f, t_minus, t_plus = _BALANCE_CASES[case]
        prob = make_problem(f, t_minus, t_plus, ModelParams("strain_rate", nu=0.7))
        T = kink_profile(prob).T
        monkeypatch.setattr(twave, "balance_function", _array_balance)
        assert (kink_profile(prob).T == T).all()


class TestProfile:
    def test_orientation_and_endpoints(self):
        prof = kink_profile(saturating_problem())
        # labels honored: t_minus on the left, t_plus on the right
        assert prof.interpolant(-1e9) == 0.0
        assert prof.interpolant(1e9) == 1.0
        # span edges settle to the ends at each tail's own exponential rate;
        # the profile contract asks for 1e-6
        assert prof.T[0] == pytest.approx(0.0, abs=1e-6)
        assert prof.T[-1] == pytest.approx(1.0, abs=1e-6)
        # interior decrease of B forces the xi-reflected branch: speed -c
        assert prof.diagnostic.reversed_orientation
        assert prof.signed_speed == pytest.approx(-np.sqrt(2.0), rel=1e-12)
        assert prof.kappa_signed == pytest.approx(-prof.problem.kappa)

    def test_default_centering_at_midpoint_stress(self):
        prof = kink_profile(saturating_problem())
        assert prof.interpolant(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_label_swap_mirrors_profile(self):
        f = make_constitutive("saturating", beta=1.0, a=1.0)
        p1 = make_problem(f, 0.0, 1.0, STRESS)
        p2 = make_problem(f, 1.0, 0.0, STRESS)
        prof1, prof2 = kink_profile(p1), kink_profile(p2)
        assert prof2.signed_speed == pytest.approx(-prof1.signed_speed, rel=1e-14)
        xs = np.linspace(-60.0, 60.0, 41)
        assert np.max(np.abs(prof2.interpolant(xs) - prof1.interpolant(-xs))) < 1e-10

    @pytest.mark.parametrize("t_minus,t_plus,sign", [(0.0, 1.0, -1.0), (1.0, 0.0, 1.0)])
    def test_one_sign_orients_speed_and_kappa(self, t_minus, t_plus, sign):
        f = make_constitutive("saturating", beta=1.0, a=1.0)
        prof = kink_profile(make_problem(f, t_minus, t_plus, STRESS))
        assert prof.diagnostic.sign == sign
        assert prof.diagnostic.reversed_orientation == (sign < 0.0)
        # x * -1.0 is -x to the bit, so both read exactly the one sign
        assert prof.signed_speed == sign * prof.problem.c
        assert prof.kappa_signed == sign * prof.problem.kappa

    def test_monotone_samples(self):
        prof = kink_profile(saturating_problem())
        assert np.all(np.diff(prof.T) >= 0.0)

    def test_strain_and_velocity_ties(self):
        prof = kink_profile(saturating_problem())
        xi = np.linspace(-20.0, 20.0, 11)
        T = prof.interpolant(xi)
        assert np.allclose(prof.strain(xi), (T - 0.0) / 2.0, atol=1e-14)
        v = prof.velocity(xi)
        assert np.allclose(v, -prof.signed_speed * prof.strain(xi), atol=1e-14)

    def test_first_order_residual_small(self):
        prof = kink_profile(saturating_problem())
        assert np.max(np.abs(first_order_residual(prof))) < 1e-8

    def test_strain_rate_variant_profile(self):
        prof = kink_profile(saturating_problem("strain_rate", 1.0))
        assert np.max(np.abs(first_order_residual(prof))) < 1e-8
        assert prof.signed_speed == pytest.approx(-np.sqrt(2.0), rel=1e-12)

    def test_nan_input_gives_nan(self):
        # NaN fails every window mask, so it must not read unset memory
        prof = kink_profile(saturating_problem())
        assert np.isnan(prof.interpolant(np.nan))
        xi = np.array([-1e9, np.nan, 0.0, np.nan, 1e9])
        out = prof.interpolant(xi)
        assert np.isnan(out[[1, 3]]).all()
        assert out[[0, 2, 4]].tolist() == [0.0, prof.interpolant(0.0), 1.0]
        assert np.isnan(prof.strain(xi)[1]) and np.isnan(prof.velocity(xi)[3])

    @pytest.mark.parametrize("n_samples", [8, 9.5, np.inf, np.nan])
    def test_bad_sample_count_rejected(self, n_samples):
        with pytest.raises(InvalidParameterError, match="n_samples"):
            kink_profile(saturating_problem(), n_samples=n_samples)

    @pytest.mark.parametrize("bad", ["9", None])
    def test_non_number_arguments_rejected_before_the_scan(self, bad, monkeypatch):
        # checked before kink_exists runs its 10^4-point scan
        def no_scan(problem):
            raise AssertionError("kink_exists ran before the argument checks")

        monkeypatch.setattr(twave, "kink_exists", no_scan)
        with pytest.raises(InvalidParameterError, match="xi_span"):
            kink_profile(saturating_problem(), xi_span=bad)
        with pytest.raises(InvalidParameterError, match="n_samples"):
            kink_profile(saturating_problem(), n_samples=bad)

    def test_short_span_rejected(self):
        with pytest.raises(SpanTooShortError):
            kink_profile(saturating_problem(), xi_span=10.0)

    def test_no_kink_profile_raises(self):
        prob = make_problem(make_constitutive("linear"), 0.0, 1.0, STRESS)
        with pytest.raises(NoKinkError):
            kink_profile(prob)

    def test_no_kink_error_carries_the_scan(self):
        prob = make_problem(interior_zero_response(), 0.0, 1.0, STRESS)
        with pytest.raises(NoKinkError) as info:
            kink_profile(prob)
        diag = info.value.diagnostic
        assert not diag.exists and not diag.degenerate
        assert diag.interior_zeros == kink_exists(prob).interior_zeros
        assert str(info.value) == diag.message

    def test_profile_carries_the_scan(self):
        prof = kink_profile(saturating_problem())
        assert prof.diagnostic == kink_exists(saturating_problem())

    @pytest.mark.parametrize("variant", ["stress_rate", "strain_rate"])
    def test_balance_function_runs_on_entries_only(self, monkeypatch, variant):
        # one scan, one table per half and one block of samples per half: the
        # window-end checks, which land past each table, evaluate no B
        shapes = []

        def counted(problem, T):
            shapes.append(np.shape(T))
            return balance_function(problem, T)

        f = make_constitutive("saturating", beta=1.0, a=1.0)
        prob = make_problem(f, 0.03, 1.0, unit(variant, 1.0))
        monkeypatch.setattr(twave, "balance_function", counted)
        kink_profile(prob, xi_span=400.0, n_samples=5001)
        assert len(shapes) == 5
        assert all(np.prod(shape) > 0 for shape in shapes), shapes


def _oracle(profile, xi):
    """The profile at xi from scipy's DOP853 at rtol 1e-13, atol 1e-15,
    integrated outward from the midpoint stress as kink_profile does."""
    problem = profile.problem
    half = float(np.max(np.abs(xi)))
    center = 0.5 * (problem.t_minus + problem.t_plus)

    def ode(_, y):
        return balance_function(problem, y) / problem.kappa

    opts = dict(method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
    fwd = solve_ivp(ode, (0.0, half), [center], **opts)
    bwd = solve_ivp(ode, (0.0, -half), [center], **opts)
    assert fwd.success and bwd.success
    s = -xi if profile.diagnostic.reversed_orientation else xi
    return np.where(s >= 0.0, fwd.sol(np.abs(s))[0], bwd.sol(-np.abs(s))[0])


class TestIntegratorOracle:
    """The front quadrature against scipy's DOP853 at tight tolerances, or
    against a closed form: every sample within 1e-9."""

    @pytest.mark.parametrize("kind, beta, a, t_minus, t_plus, variant, coeff", [
        ("saturating", 1.0, 1.0, 0.0, 1.0, "stress_rate", 1.0),
        ("saturating", 1.0, 1.0, 0.0, 1.0, "strain_rate", 1.0),
        # reversed labels: the raw ODE already runs with them
        ("saturating", 1.0, 1.0, 1.0, 0.0, "stress_rate", 1.0),
        # a = 1.5 takes the masked branches, |T| < 1 and |T| >= 1
        ("saturating", 1.0, 1.5, 0.0, 2.0, "strain_rate", 0.7),
        ("arctan", 1.0, 1.0, 0.0, 1.0, "strain_rate", 1.0),
    ])
    def test_samples_match_oracle(self, kind, beta, a, t_minus, t_plus, variant, coeff):
        f = make_constitutive(kind, beta=beta, a=a)
        prof = kink_profile(make_problem(f, t_minus, t_plus, unit(variant, coeff)))
        assert prof.diagnostic.reversed_orientation == (t_minus < t_plus)
        assert np.max(np.abs(prof.T - _oracle(prof, prof.xi))) < 1e-9

    def test_steep_front_matches_oracle(self):
        # kappa = 2.8e-4: the tails decay by e every 1/1,770 in xi or
        # faster, so the default window is some 10^5 decay lengths wide
        prof = kink_profile(saturating_problem("stress_rate", 1e-4))
        xi = np.linspace(-0.05, 0.05, 2001)
        assert np.max(np.abs(prof.interpolant(xi) - _oracle(prof, xi))) < 1e-9
        # every sample but the middle one is clamped to its end state
        mid = len(prof.xi) // 2
        assert prof.T[mid] == 0.5
        assert (prof.T[:mid] == 0.0).all() and (prof.T[mid + 1:] == 1.0).all()

    @pytest.mark.parametrize("variant", ["stress_rate", "strain_rate"])
    def test_wide_front_of_large_end_states_is_too_long(self, variant):
        # c^2 is about 1e6 and A2 about -1e6: the front is wider than the
        # window, and B stays well above its rounding floor where the
        # quadrature stops
        f = make_constitutive("saturating", beta=1.0, a=1.0)
        with pytest.raises(SpanTooShortError, match="increase xi_span"):
            kink_profile(make_problem(f, 1000.0, 1005.0, unit(variant, 1.0)))

    def test_degenerate_end_state_keeps_its_algebraic_tail(self):
        # B(T) = -T (1 - T)**2 has a double root at T = 1, so T' = T (1 - T)**2
        # has the algebraic right tail xi = log(T / (1 - T)) + 1 / (1 - T) - 2;
        # B rounds to 0 near 1 - T = 1e-8, far past either window's end, and
        # the quadrature's table stops there without refusing the front
        f = custom_constitutive(value=lambda T: T + T * (1.0 - T) ** 2,
                                derivative=lambda T: 2.0 - 4.0 * T + 3.0 * T * T)
        prob = make_problem(f, 0.0, 1.0, STRESS)
        with pytest.raises(SpanTooShortError, match="0.989736344"):
            kink_profile(prob)
        prof = kink_profile(prob, xi_span=1e7)
        inner = (prof.T > 1e-9) & (prof.T < 1.0 - 1e-9)
        T, xi = prof.T[inner], prof.xi[inner]
        xi_exact = np.log(T / (1.0 - T)) + 1.0 / (1.0 - T) - 2.0
        # the xi mismatch as a stress mismatch, through T'
        assert np.max(np.abs((xi - xi_exact) * T * (1.0 - T) ** 2)) < 1e-9

    def test_nan_balance_raises_within_the_step_budget(self, monkeypatch):
        # h is NaN on (0.7, 0.8), between the end states, so B is NaN on
        # one side of the front
        f = custom_constitutive(
            value=lambda T: np.where((T > 0.7) & (T < 0.8), np.nan, T / (1.0 + np.abs(T)))
        )
        prob = make_problem(f, 0.0, 1.0, STRESS)
        calls = []

        def counted(problem, T):
            calls.append(T)
            return balance_function(problem, T)

        monkeypatch.setattr(twave, "balance_function", counted)
        with pytest.raises(NoKinkError, match="non-finite"):
            kink_profile(prob)
        # the existence scan, then the first half window's direction and its
        # table, which holds the NaN: three calls, none spent retrying it
        assert len(calls) < 3000


class TestUnification:
    def test_profiles_coincide_after_xi_rescaling(self):
        f = make_constitutive("saturating", beta=1.0, a=1.0)
        rep = unified_reduction_check(f, 0.0, 1.0, gamma=1.0, nu=1.0)
        assert rep.max_mismatch < 1e-9
        assert rep.c == pytest.approx(np.sqrt(2.0), rel=1e-14)
        assert rep.kappa_stress == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)
        assert rep.kappa_strain == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_rescaling_matters_when_kappas_differ(self):
        # gamma chosen so the two reductions have very different widths
        f = make_constitutive("saturating", beta=1.0, a=1.0)
        rep = unified_reduction_check(f, 0.0, 1.0, gamma=0.2, nu=2.5)
        assert rep.max_mismatch < 1e-9


class TestKinkInitialState:
    def test_state_on_strain_tie(self):
        prob = saturating_problem("strain_rate", 1.0)
        prof = kink_profile(prob)
        grid = Grid1D(length=100.0, n_cells=512)
        st = kink_initial_state(prof, grid, center=50.0)
        T = st.stress.values
        assert np.allclose(st.eps.values, (T - prob.a2) / prob.c_squared, atol=1e-14)
        assert st.v.values.shape == (512,)
        # left end at t_minus, right end at t_plus (up to the seam)
        assert T[0] == pytest.approx(0.0, abs=1e-6)
        assert T[-1] == pytest.approx(1.0, abs=1e-4)
