"""Linear mode analysis for both models.

The positive real root of r^3 - r^2 - 1 (the gamma = 1, k = 1 cubic) was
frozen from an independent bisection: 1.4655712318767682.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slve import (
    Classification,
    Grid1D,
    InvalidParameterError,
    ModelParams,
    SolverConfig,
    Variant,
    make_constitutive,
    simulate,
    single_mode_state,
    solve_dispersion,
    strain_rate_dispersion,
    stress_rate_dispersion,
)

from oracles import fit_mode_rates, locate_critical_wavenumber

SUPERGOLDEN = 1.4655712318767682  # bisection oracle for r^3 = r^2 + 1

# negative, NaN and infinite wavenumbers, alone and inside an array
BAD_WAVENUMBERS = [-2.0, np.nan, np.inf, -np.inf] + [
    np.array([1.0, bad, 3.0]) for bad in (-2.0, np.nan, np.inf)
]


# |p(r)| against the sum of the magnitudes of p's terms at the root
RELATIVE_RESIDUAL = 1e-13


def relative_residual_ok(res):
    """Each root's residual within RELATIVE_RESIDUAL of p's terms at |r|:
    gamma|r|^3 + |r|^2 + k^2 (stress rate) or |r|^2 + nu k^2|r| + k^2
    (strain rate), in the roots' extended precision.  Unlike the absolute
    bound it scales with k, so it holds at huge k and refuses roots that
    are small only because k is."""
    r = np.abs(res.roots)
    k2 = np.asarray(res.k, dtype=np.longdouble)[..., None] ** 2
    coeff = np.longdouble(res.coeff)
    if res.model is Variant.STRESS_RATE:
        terms = coeff * r**3 + r**2 + k2
    else:
        terms = r**2 + coeff * k2 * r + k2
    return bool(np.all(res.residuals() <= RELATIVE_RESIDUAL * terms))


def bisect_positive_root(gamma, k, lo, hi):
    # independent of the implementation under test: plain float bisection
    p = lambda r: gamma * r**3 - r**2 - k**2
    assert p(lo) < 0.0 < p(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStrainRateQuadratic:
    def test_double_root_at_critical_wavenumber(self):
        res = strain_rate_dispersion(2.0, 1.0)
        assert res.k_critical == pytest.approx(1.0)
        assert res.discriminant == pytest.approx(0.0, abs=1e-30)
        r = np.sort_complex(res.roots)
        assert complex(r[0]) == pytest.approx(-1.0, abs=1e-14)
        assert complex(r[1]) == pytest.approx(-1.0, abs=1e-14)
        assert res.classification is Classification.STABLE

    def test_oscillatory_below_critical(self):
        res = strain_rate_dispersion(1.0, 1.0)
        assert res.is_oscillatory
        r = res.roots[np.argmax(res.roots.imag)]
        assert float(r.real) == pytest.approx(-0.5, abs=1e-15)
        assert float(r.imag) == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-15)
        assert res.roots[0] == np.conj(res.roots[1])

    def test_real_branch_above_critical(self):
        res = strain_rate_dispersion(1.0, 4.0)
        assert not res.is_oscillatory
        r = np.sort(res.roots.real.astype(float))
        assert r[0] == pytest.approx(-8.0 - 4.0 * np.sqrt(3.0), rel=1e-14)
        assert r[1] == pytest.approx(-8.0 + 4.0 * np.sqrt(3.0), rel=1e-14)
        assert res.classification is Classification.STABLE

    def test_zero_wavenumber_is_marginal(self):
        res = strain_rate_dispersion(1.0, 0.0)
        assert np.all(res.roots == 0.0)
        assert res.classification is Classification.MARGINALLY_STABLE

    def test_stable_for_all_positive_k(self):
        for k in (1e-6, 0.1, 1.0, 10.0, 1e3):
            assert strain_rate_dispersion(0.7, k).classification is Classification.STABLE

    def test_oscillation_flips_exactly_at_critical(self):
        nu = 1.0
        assert strain_rate_dispersion(nu, 2.0 * (1 - 1e-6)).is_oscillatory
        assert not strain_rate_dispersion(nu, 2.0 * (1 + 1e-6)).is_oscillatory

    def test_vieta(self):
        res = strain_rate_dispersion(0.3, 7.0)
        assert float(np.prod(res.roots).real) == pytest.approx(49.0, rel=1e-13)
        assert float(np.sum(res.roots).real) == pytest.approx(-0.3 * 49.0, rel=1e-13)

    def test_bad_nu_rejected(self):
        # the coefficient rule is ModelParams'
        with pytest.raises(InvalidParameterError, match="strain_rate variant requires nu > 0"):
            strain_rate_dispersion(0.0, 1.0)
        with pytest.raises(InvalidParameterError, match="nu must be finite, got inf"):
            strain_rate_dispersion(np.inf, 1.0)
        for k in BAD_WAVENUMBERS:
            with pytest.raises(InvalidParameterError, match="finite and >= 0"):
                strain_rate_dispersion(1.0, k)


class TestStressRateCubic:
    def test_supergolden_case(self):
        res = stress_rate_dispersion(1.0, 1.0)
        assert res.positive_real_root == pytest.approx(SUPERGOLDEN, rel=1e-15)
        assert res.classification is Classification.UNSTABLE
        assert res.discriminant == pytest.approx(-31.0, rel=1e-14)

    def test_positive_root_matches_independent_bisection(self):
        # the closed-form start at the ends of the range, with a Vieta check
        # of all three roots within the residual bound
        for gamma, k in [(0.5, 2.0), (3.0, 0.25), (0.01, 40.0), (2.0, 2.3e-162),
                         (0.5, 1e-160), (1e-3, 1e150), (1e3, 1e-3)]:
            res = stress_rate_dispersion(gamma, k)
            # the root is below (k*k/gamma)**(1/3) + 1/gamma; the 2 covers pow's rounding
            hi = 2.0 * (k * k / gamma) ** (1 / 3) + 1.0 / gamma + 1.0
            ref = bisect_positive_root(gamma, k, 0.0, hi)
            assert res.positive_real_root == pytest.approx(ref, rel=1e-13)
            r = res.roots
            bound = 1e-10 * (1.0 + abs(res.positive_real_root) ** 3)
            assert abs(complex(r.sum()) - 1.0 / gamma) <= bound
            assert abs(complex(r.prod()) - k * k / gamma) <= bound

    def test_discriminant_example(self):
        assert stress_rate_dispersion(0.5, 2.0).discriminant == pytest.approx(-124.0, rel=1e-14)

    def test_exactly_one_real_root_always_positive(self):
        for gamma, k in [(0.2, 0.5), (1.0, 1.0), (5.0, 100.0), (1e-3, 1e3), (1e3, 1e-160)]:
            res = stress_rate_dispersion(gamma, k)
            n_real = int(np.sum(res.roots.imag == 0.0))
            assert n_real == 1
            assert res.positive_real_root > 0.0
            assert res.classification is Classification.UNSTABLE

    def test_complex_pair_is_exact_conjugate(self):
        res = stress_rate_dispersion(0.7, 3.0)
        pair = res.roots[res.roots.imag != 0.0]
        assert pair.size == 2
        assert pair[0] == np.conj(pair[1])

    def test_zero_wavenumber_roots(self):
        res = stress_rate_dispersion(0.25, 0.0)
        r = np.sort(res.roots.real.astype(float))
        assert r[0] == 0.0 and r[1] == 0.0
        assert r[2] == pytest.approx(4.0, rel=1e-15)
        assert res.classification is Classification.UNSTABLE

    def test_vieta(self):
        gamma, k = 0.8, 2.5
        res = stress_rate_dispersion(gamma, k)
        assert float(np.sum(res.roots).real) == pytest.approx(1.0 / gamma, rel=1e-12)
        assert float(np.prod(res.roots).real) == pytest.approx(k * k / gamma, rel=1e-12)

    def test_bad_gamma_rejected(self):
        # the coefficient rule is ModelParams'
        with pytest.raises(InvalidParameterError, match=r"gamma must be nonnegative "
                           r"\(dissipation requires it\), got -1.0"):
            stress_rate_dispersion(-1.0, 1.0)
        with pytest.raises(InvalidParameterError, match="stress_rate variant requires gamma > 0"):
            stress_rate_dispersion(0.0, 1.0)
        with pytest.raises(InvalidParameterError, match="gamma must be finite, got nan"):
            stress_rate_dispersion(np.nan, 1.0)
        for k in BAD_WAVENUMBERS:
            with pytest.raises(InvalidParameterError, match="finite and >= 0"):
                stress_rate_dispersion(1.0, k)


class TestResiduals:
    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e3),
    )
    @settings(max_examples=120, deadline=None)
    def test_strain_rate_residual_bound(self, nu, k):
        res = strain_rate_dispersion(nu, k)
        bound = 1e-10 * (1.0 + np.abs(res.roots) ** 3)
        assert np.all(res.residuals() <= bound)
        assert relative_residual_ok(res)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e3),
    )
    @settings(max_examples=120, deadline=None)
    def test_stress_rate_residual_bound(self, gamma, k):
        res = stress_rate_dispersion(gamma, k)
        bound = 1e-10 * (1.0 + np.abs(res.roots) ** 3)
        assert np.all(res.residuals() <= bound)
        assert relative_residual_ok(res)

    @pytest.mark.parametrize("solver,coeff", [(strain_rate_dispersion, 1e-150),
                                              (stress_rate_dispersion, 1e150)])
    def test_relative_residual_holds_at_huge_wavenumbers(self, solver, coeff):
        res = solver(coeff, 1e150)
        assert relative_residual_ok(res)
        if solver is stress_rate_dispersion:
            # the absolute bound, 1e-10*(1 + |r|^3) ~ 1e140 at the growth
            # rate 1e50, cannot hold a residual of k^2 = 1e300 times eps
            assert res.residuals().max() > 1e200
            assert res.discriminant == -np.inf  # beyond the double range

    def test_relative_residual_refuses_a_collapsed_pair(self):
        # at gamma = 1, k = 8.2e-33 the pair is +-8.2e-33i; {0, 0} in its
        # place leaves the residual k^2 = 6.7e-65, which the absolute bound passes
        res = stress_rate_dispersion(1.0, 8.2e-33)
        assert relative_residual_ok(res)
        pair = res.roots.imag != 0.0
        assert pair.sum() == 2
        roots = np.where(pair, 0.0, res.roots).astype(res.roots.dtype)
        collapsed = dataclasses.replace(res, roots=roots)
        assert np.all(collapsed.residuals() <= 1e-10 * (1.0 + np.abs(collapsed.roots) ** 3))
        assert not relative_residual_ok(collapsed)


class TestWrapperAndCurve:
    def test_wrapper_runs_the_variants_solver(self):
        res = solve_dispersion(ModelParams("strain_rate", nu=1.0), 1.0)
        assert res.model is Variant.STRAIN_RATE
        res2 = solve_dispersion(ModelParams("stress_rate", gamma=1.0), 1.0)
        assert res2.model is Variant.STRESS_RATE
        assert res2.positive_real_root == pytest.approx(SUPERGOLDEN, rel=1e-14)
        same = stress_rate_dispersion(1.0, 1.0)
        assert same.positive_real_root == res2.positive_real_root
        with pytest.raises(InvalidParameterError,
                           match="the elastic variant has no rate term to linearize"):
            solve_dispersion(ModelParams(Variant.ELASTIC), 1.0)
        with pytest.raises(InvalidParameterError, match="unknown variant 'stress_rate_linear'"):
            ModelParams("stress_rate_linear", gamma=1.0)

    def test_growth_rate_curve_shapes_and_monotonicity(self):
        ks = np.linspace(0.0, 20.0, 41)
        growth = solve_dispersion(ModelParams("stress_rate", gamma=1.0), ks).max_real_part
        assert growth.shape == (41,)
        assert np.all(np.diff(growth) > 0.0)  # growth rate increases with k
        decay = solve_dispersion(ModelParams("strain_rate", nu=1.0), ks).max_real_part
        assert decay[0] == 0.0 and np.all(decay[1:] < 0.0)

    def test_locate_critical_wavenumber(self):
        for nu in (0.5, 1.0, 2.0, 4.0):
            assert locate_critical_wavenumber(nu) == pytest.approx(2.0 / nu, abs=1e-8)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan])
    def test_locate_critical_wavenumber_rejects_bad_tol(self, tol):
        # a NaN tol would skip the bisection and return its first bracket
        with pytest.raises(InvalidParameterError, match="tol must be positive"):
            locate_critical_wavenumber(1.0, tol=tol)


def _same_bits(a, b) -> bool:
    """Equal dtype, shape, values and signs of zero, part by part (no NaNs)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    parts = (np.real, np.imag) if np.iscomplexobj(a) else (np.real,)
    return all(
        np.array_equal(p(a), p(b)) and np.array_equal(np.signbit(p(a)), np.signbit(p(b)))
        for p in parts
    )


# k = 0, ordinary k, k whose k*k (or k*k/coeff) underflows, and k near 1e150
_WAVENUMBER = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=1e-170, max_value=1e-150),
    st.floats(min_value=1e149, max_value=1e151),
)


class TestBatch:
    @given(
        st.sampled_from(["strain_rate", "stress_rate"]),
        st.floats(min_value=1e-3, max_value=1e3),
        st.lists(_WAVENUMBER, min_size=1, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_scalar_calls_bit_for_bit(self, model, coeff, ks):
        ks = ks + [2.0 / coeff]  # the strain-rate critical wavenumber, exactly
        params = ModelParams(model, **{"nu" if model == "strain_rate" else "gamma": coeff})
        batch = solve_dispersion(params, np.array(ks))
        residuals = batch.residuals()
        assert batch.roots.shape == (len(ks), 2 if model == "strain_rate" else 3)
        for i, k in enumerate(ks):
            one = solve_dispersion(params, k)
            assert one.k == batch.k[i] == k
            assert one.classification is batch.classification[i]
            assert one.k_critical == batch.k_critical
            assert _same_bits(one.roots, batch.roots[i])
            assert _same_bits(one.discriminant, batch.discriminant[i])
            assert _same_bits(one.max_real_part, batch.max_real_part[i])
            assert one.is_oscillatory == batch.is_oscillatory[i]
            assert _same_bits(one.residuals(), residuals[i])
            if model == "strain_rate":
                assert one.positive_real_root is None and batch.positive_real_root is None
            else:
                assert _same_bits(one.positive_real_root, batch.positive_real_root[i])

    def test_batch_fields_have_a_mode_axis(self):
        ks = np.array([0.0, 1.0, 4.0])
        res = strain_rate_dispersion(1.0, ks)
        assert res.roots.shape == (3, 2) and res.residuals().shape == (3, 2)
        assert list(res.classification) == [
            Classification.MARGINALLY_STABLE, Classification.STABLE, Classification.STABLE]
        assert res.is_oscillatory.tolist() == [False, True, False]
        assert res.max_real_part[0] == 0.0 and np.all(res.max_real_part[1:] < 0.0)
        assert res.discriminant.shape == (3,) and res.positive_real_root is None
        res = stress_rate_dispersion(1.0, ks)
        assert res.roots.shape == (3, 3)
        assert res.positive_real_root[1] == pytest.approx(SUPERGOLDEN, rel=1e-15)

    def test_not_one_dimensional_rejected(self):
        with pytest.raises(InvalidParameterError):
            strain_rate_dispersion(1.0, np.ones((2, 2)))
        with pytest.raises(InvalidParameterError):
            stress_rate_dispersion(1.0, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("solver", [strain_rate_dispersion, stress_rate_dispersion])
    @pytest.mark.parametrize("k", [1e160, [1.0, 1e160]])
    def test_overflowing_wavenumber_rejected(self, solver, k):
        # k*k is inf: the roots and residuals would be infinite
        with pytest.raises(InvalidParameterError, match="too large"):
            solver(1.0, k)

    def test_overflowing_companion_coefficient_rejected(self):
        # k*k is finite, k*k/gamma is not
        with pytest.raises(InvalidParameterError, match="too large"):
            stress_rate_dispersion(1e-3, 1e154)

    def test_overflowing_strain_rate_coefficient_rejected(self):
        # k*k is finite, nu*k*k (about the fast decay rate) is not: the root would read -inf
        for k in (1e150, [1.0, 1e150]):
            with pytest.raises(InvalidParameterError, match=r"nu\*k\*k overflows"):
                strain_rate_dispersion(1e150, k)
        # just inside the range the fast root is finite
        assert np.isfinite(strain_rate_dispersion(1e150, 1e79).roots.astype(complex)).all()

    @pytest.mark.parametrize("gamma", [5e-324, 1e-310])
    def test_overflowing_reciprocal_gamma_rejected(self, gamma):
        # 1/gamma, the real rate at k = 0, is inf in double precision
        for k in (0.0, 1.0, [0.0, 1.0]):
            with pytest.raises(InvalidParameterError, match="1/gamma overflows"):
                stress_rate_dispersion(gamma, k)
        with pytest.raises(InvalidParameterError, match="1/gamma overflows"):
            solve_dispersion(ModelParams("stress_rate", gamma=gamma), 1.0)

    @pytest.mark.parametrize("gamma", [1e-225, 1e-200, 7e-155])
    def test_overflowing_squared_reciprocal_gamma_rejected(self, gamma):
        # 1/gamma is finite, but the cubic's terms at that root, 1/gamma**2,
        # are not: |p(r)| has no double value, and its residual would read inf
        for k in (0.0, 1.0, [0.0, 1.0]):
            with pytest.raises(InvalidParameterError, match=r"1/gamma\*\*2 overflows"):
                stress_rate_dispersion(gamma, k)
        # just inside the range every residual is finite, cast without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(stress_rate_dispersion(7.5e-155, [0.0, 1.0]).residuals()).all()

    @pytest.mark.parametrize("nu", [5e-324, 1e-310])
    def test_overflowing_critical_wavenumber_rejected(self, nu):
        # k_critical = 2/nu would read inf
        with pytest.raises(InvalidParameterError, match="2/nu overflows"):
            strain_rate_dispersion(nu, 0.5)
        with pytest.raises(InvalidParameterError, match="2/nu overflows"):
            solve_dispersion(ModelParams("strain_rate", nu=nu), [0.0, 0.5])
        assert strain_rate_dispersion(1.2e-308, 0.5).k_critical < np.inf

    def test_underflowing_companion_coefficient(self):
        # k*k/gamma rounds to 0 in double while k*k does not: the real rate
        # is 1/gamma to double precision, and the pair still has |Im| = k
        k = 2.3e-162
        assert k * k > 0.0 and k * k / 2.0 == 0.0
        res = stress_rate_dispersion(2.0, k)
        assert res.positive_real_root == 0.5
        assert res.roots[1] == np.conj(res.roots[2])
        assert float(abs(res.roots[1].imag)) == pytest.approx(k, rel=1e-15)


class TestModeEvolution:
    """One Fourier mode of the stress marched by simulate; how each grid
    mode grows or decays is checked in tests/test_pde.py against R(dt M)."""

    @staticmethod
    def config(dt, t_final):
        return SolverConfig(params=ModelParams(variant="strain_rate", nu=0.5),
                            constitutive=make_constitutive("linear"), dt=dt, t_final=t_final)

    @staticmethod
    def mode(k=2.0):
        # 8 cells on [0, 2 pi): the strain-rate ceiling min(dx/2, dx^2/(4 nu)) is 0.31
        return single_mode_state(Grid1D(length=2 * np.pi, n_cells=8),
                                 make_constitutive("linear"), k=k, amplitude=0.1)

    def test_invalid_steps_rejected(self):
        for dt, t_final, message in [
            (0.0, 1.0, "dt must be positive"),
            (2.0, 1.0, "dt = 2.0 exceeds t_final = 1.0"),
            (np.nan, 1.0, "dt must be positive"),
            (0.1, np.inf, "t_final must be positive"),
            (0.1, np.nan, "t_final must be positive"),
        ]:
            with pytest.raises(InvalidParameterError, match=message):
                simulate(self.mode(), self.config(dt, t_final))

    def test_exact_landing(self):
        traj = simulate(self.mode(), self.config(0.3, 1.0))
        assert traj.t[-1] == 1.0
        # no shortened step: 3*0.1 rounds to 0.30000000000000004
        traj = simulate(self.mode(), self.config(0.1, 0.3))
        assert len(traj) == 4
        assert traj.t[-1] == 0.3

    def test_negative_k_rejected(self):
        for k in [-2.0, np.nan, np.inf]:
            with pytest.raises(InvalidParameterError):
                self.mode(k)


class TestRateFitting:
    def test_prony_recovers_two_synthetic_rates(self):
        t = np.linspace(0.0, 4.0, 81)
        y = 2.0 * np.exp(-0.3 * t) + 0.5 * np.exp(0.1 * t)
        rates = fit_mode_rates(t, y, 2)
        assert rates[0].real == pytest.approx(0.1, abs=1e-9)
        assert rates[1].real == pytest.approx(-0.3, abs=1e-9)

    def test_prony_recovers_oscillatory_pair(self):
        t = np.linspace(0.0, 10.0, 201)
        y = np.exp(-0.25 * t) * np.cos(1.3 * t)
        rates = fit_mode_rates(t, y, 2)
        assert sorted(r.imag for r in rates) == pytest.approx([-1.3, 1.3], abs=1e-9)
        assert rates[0].real == pytest.approx(-0.25, abs=1e-9)

    @pytest.mark.parametrize("n_modes", [0, -1, 2.5])
    def test_bad_mode_count_rejected(self, n_modes):
        t = np.linspace(0.0, 4.0, 81)
        with pytest.raises(InvalidParameterError, match="n_modes"):
            fit_mode_rates(t, np.exp(-0.3 * t), n_modes)

    def test_nonuniform_spacing_rejected(self):
        t = np.array([0.0, 0.1, 0.25, 0.3])
        with pytest.raises(InvalidParameterError):
            fit_mode_rates(t, np.ones_like(t), 2)
