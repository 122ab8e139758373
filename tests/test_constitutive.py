"""Response catalog, quadrature, inversion, and the dissipation audit.

Reference values frozen from independent quadrature/bisection runs:
saturating a=1: H(1) = 1 - ln 2 = 0.30685281944005469
saturating a=2: H(1) = sqrt(2) - 1 = 0.41421356237309515
saturating a=3: H(1) = 0.45146882299423685   (adaptive quadrature)
arctan beta=2:  h(1) = 0.80381347609541280, H(1) = 0.56206414047224750
"""

import contextlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from slve import (
    DissipationAudit,
    InvalidParameterError,
    SlveError,
    StrainLimitExceededError,
    audit_dissipation,
    custom_constitutive,
    invert,
    invert_array,
    make_constitutive,
)
from slve import constitutive
from slve.constitutive import _CHUNK_NODES, _GAUSS_NODES, _QUAD_PANELS, _saturating_masked
from slve.constitutive import quad as slve_quad


class TestCatalog:
    def test_linear(self):
        h = make_constitutive("linear", beta=1.0)
        assert h(5.0) == 5.0
        assert h.derivative(5.0) == 1.0
        assert h.antiderivative(5.0) == 12.5
        assert h.bound == np.inf
        assert h.inverse(3.0) == 3.0

    def test_saturating_a1(self):
        h = make_constitutive("saturating", beta=1.0, a=1.0)
        assert h(1.0) == pytest.approx(0.5, abs=1e-15)
        assert h.antiderivative(1.0) == pytest.approx(0.30685281944005469, abs=1e-13)
        assert h.inverse(0.5) == pytest.approx(1.0, rel=1e-13)
        assert h.bound == 1.0
        assert h.derivative(1.0) == pytest.approx(0.25, rel=1e-12)

    def test_saturating_a2(self):
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        assert h(1.0) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)
        assert h.antiderivative(1.0) == pytest.approx(0.41421356237309515, abs=1e-13)

    def test_saturating_general_a_quadrature(self):
        h = make_constitutive("saturating", beta=1.0, a=3.0)
        assert h.antiderivative(1.0) == pytest.approx(0.45146882299423685, abs=1e-11)

    def test_saturating_large_argument_no_overflow(self):
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        big = h(1e200)
        assert np.isfinite(big) and big == pytest.approx(1.0, rel=1e-12)
        assert h(-1e200) == pytest.approx(-1.0, rel=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("T", [np.inf, -np.inf])
    def test_saturating_infinite_stress_gives_nan(self, a, T):
        # one rule for every exponent, as for the antiderivative
        h = make_constitutive("saturating", beta=1.0, a=a)
        with np.errstate(invalid="ignore"):
            assert np.isnan(h.value(T)) and np.isnan(h.antiderivative(T))
            values = h.value(np.array([T, 0.5, 1e300]))
        assert np.isnan(values[0]) and np.all(np.isfinite(values[1:]))

    @pytest.mark.parametrize("a", [0.5, 1.5, 3.0])
    def test_saturating_finite_stress_past_the_overflow_gives_the_bound(self, a):
        # beta*|T| overflows to inf at T = 1e308, beta = 2, where h is 1 to
        # double precision; only an infinite T gives NaN.  H(T) is |T| less
        # O(|T|**(1-a)) for a < 1 and O(1) for a > 1, so it rounds to |T|
        h = make_constitutive("saturating", beta=2.0, a=a)
        top = np.finfo(float).max
        with _no_runtime_warning():
            assert h.value(1e308) == 1.0 and h.value(-1e308) == -1.0
            assert np.array_equal(h.value(np.array([1e308, -1e308])), [1.0, -1.0])
            assert np.array_equal(h.antiderivative(np.array([top, -top])), [top, top])

    def test_arctan(self):
        h = make_constitutive("arctan", beta=2.0)
        assert h.derivative(0.0) == pytest.approx(2.0, rel=1e-14)
        assert h.bound == 1.0
        assert h(1.0) == pytest.approx(0.80381347609541280, rel=1e-14)
        assert h.antiderivative(1.0) == pytest.approx(0.56206414047224750, abs=1e-12)
        assert h.inverse(h(0.7)) == pytest.approx(0.7, rel=1e-12)

    def test_arctan_antiderivative_over_the_double_range(self):
        # x*x overflows once |x| = |c*T| passes sqrt(DBL_MAX), with c = beta*pi/2
        h = make_constitutive("arctan", beta=2.0)
        top = np.finfo(float).max
        switch = math.sqrt(top) / math.pi
        near_switch = switch * (1.0 + np.arange(-20, 21) * 1e-12)
        T = np.concatenate([[0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 1.0, 1e100,
                             1e154, 2e154, 1e300, 1e308, top], near_switch])
        with np.errstate(over="ignore"):
            x = math.pi * near_switch
            overflows = np.isinf(x * x)
        assert overflows.any() and not overflows.all()
        with _no_runtime_warning():
            H = h.antiderivative(T)
            even = h.antiderivative(-T)
            floats = [h.antiderivative(t) for t in T.tolist()]
        assert np.all(np.isfinite(H)) and np.array_equal(even, H)
        assert np.all(H >= 0.0) and np.all(H <= T)
        order = np.argsort(T)
        assert np.all(np.diff(H[order]) >= 0.0)
        # far out H = |T| (1 - O(1/|x|)) - O(log|x|)/c: |T| to rounding
        far = T >= 1e150
        assert np.all(np.abs(H[far] / T[far] - 1.0) <= 4.0 * np.finfo(float).eps)
        assert np.float64(floats).tobytes() == H.tobytes()

    def test_odd_symmetry(self):
        for kind in ("linear", "saturating", "arctan"):
            h = make_constitutive(kind, beta=0.8, a=2.0)
            for T in (0.3, 1.7, 42.0):
                assert h(-T) == pytest.approx(-h(T), rel=1e-14)
        assert make_constitutive("saturating")(0.0) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_constitutive("cubic")

    @pytest.mark.parametrize("kind, message", [
        ("cubic", "unknown response kind 'cubic'; catalog kinds are linear, saturating, arctan"),
        ("custom", "use custom_constitutive() for kind='custom'"),
    ])
    def test_non_catalog_kind_messages(self, kind, message):
        with pytest.raises(InvalidParameterError) as info:
            make_constitutive(kind)
        assert str(info.value) == message

    def test_bad_beta_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_constitutive("linear", beta=0.0)
        with pytest.raises(InvalidParameterError):
            make_constitutive("saturating", beta=1.0, a=-2.0)

    @given(
        st.sampled_from(["linear", "saturating", "arctan"]),
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_derivative_matches_finite_difference(self, kind, beta, T):
        h = make_constitutive(kind, beta=beta, a=2.0)
        d = 1e-6 * max(1.0, abs(T))
        fd = (h(T + d) - h(T - d)) / (2 * d)
        assert h.derivative(T) == pytest.approx(fd, rel=2e-7, abs=2e-9)

    @given(
        st.sampled_from(["saturating", "arctan"]),
        st.floats(min_value=0.5, max_value=3.0),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip(self, kind, beta, y):
        h = make_constitutive(kind, beta=beta, a=1.0)
        T = invert(h, y)
        assert h(T) == pytest.approx(y, abs=1e-11)


# stresses from 0 through subnormals to 1e300, and moderate ones densely
_STRESSES = arrays(
    np.float64,
    st.integers(min_value=1, max_value=64),
    elements=st.one_of(
        st.floats(min_value=-1e300, max_value=1e300), st.floats(min_value=-50.0, max_value=50.0)
    ),
)
# attainable strains, including the last few floats below |w| = 1
_STRAINS = arrays(
    np.float64,
    st.integers(min_value=1, max_value=64),
    elements=st.one_of(
        st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.integers(min_value=1, max_value=2**20).map(lambda k: 1.0 - k * 2.0**-53),
        st.integers(min_value=1, max_value=2**20).map(lambda k: k * 2.0**-53 - 1.0),
    ),
)


@contextlib.contextmanager
def _no_runtime_warning():
    # underflow to subnormals or zero is the intended tail of the derivative
    with warnings.catch_warnings(), np.errstate(over="warn", divide="warn", invalid="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        yield


class TestSaturatingClosedForms:
    """a = 1 and a = 2 take branch-free closed forms; the masked two-branch
    path every other a takes is their reference."""

    @given(st.sampled_from([1.0, 2.0]), st.floats(min_value=0.1, max_value=10.0), _STRESSES)
    @settings(max_examples=150, deadline=None)
    def test_value_and_derivative_match_masked_branch(self, a, beta, T):
        h = make_constitutive("saturating", beta=beta, a=a)
        ref_value, ref_deriv, _ = _saturating_masked(beta, a)
        with _no_runtime_warning():
            value, deriv = h.value(T), h.derivative(T)
            odd, even = h.value(-T), h.derivative(-T)
        ref = ref_value(T)
        assert np.all(np.abs(value - ref) <= 4.0 * np.spacing(np.abs(ref)))
        # relative, floored at the smallest normal float: a derivative that
        # underflows to a subnormal carries fewer digits than 2e-15 asks
        ref = ref_deriv(T)
        floor = np.maximum(np.abs(ref), np.finfo(float).tiny)
        assert np.all(np.abs(deriv - ref) <= 2e-15 * floor)
        assert np.array_equal(odd, -value) and np.array_equal(even, deriv)
        assert h.value(0.0) == 0.0 and h.inverse(0.0) == 0.0

    @given(st.sampled_from([1.0, 2.0]), st.floats(min_value=0.1, max_value=10.0), _STRAINS)
    @settings(max_examples=150, deadline=None)
    def test_inverse_residual(self, a, beta, w):
        h = make_constitutive("saturating", beta=beta, a=a)
        with _no_runtime_warning():
            T = h.inverse(w)
            back = h.value(T)
            odd = h.inverse(-w)
        assert np.all(np.isfinite(T))
        assert np.all(np.abs(back - w) < 1e-12 * np.maximum(1.0, np.abs(w)))
        # T itself to a few ulp (subnormals to the smallest normal float):
        # the same formula in extended precision
        W, B = w.astype(np.longdouble), np.longdouble(beta)
        exact = W / (B * (1 - np.abs(W))) if a == 1.0 else W / (B * np.sqrt((1 - W) * (1 + W)))
        assert np.all(np.abs(T - exact) <= 1e-15 * np.maximum(np.abs(exact), np.finfo(float).tiny))
        assert np.array_equal(odd, -T)
        assert np.array_equal(invert_array(h, w), T)


# Python floats: signed zeros, subnormals, huge and infinite stresses, NaN,
# and moderate ones densely
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300,
                     -1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    st.floats(),
    st.floats(min_value=-50.0, max_value=50.0),
)
# inverse targets of a bounded response: up to the bound and the last few
# floats below it
_FLOAT_STRAINS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=1, max_value=2**20).map(lambda k: 1.0 - k * 2.0**-53),
    st.integers(min_value=1, max_value=2**20).map(lambda k: k * 2.0**-53 - 1.0),
)


class TestFloatPath:
    """A Python float gives a float with the bits of the one-element array
    call, whether it skips the array (closed forms) or not (general a)."""

    @pytest.mark.parametrize("kind,a", [("linear", 1.0), ("saturating", 1.0), ("saturating", 2.0),
                                        ("saturating", 1.5), ("arctan", 1.0)])
    @pytest.mark.parametrize("method", ["value", "derivative", "antiderivative", "inverse"])
    @given(beta=st.floats(min_value=0.1, max_value=10.0), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_float_has_the_bits_of_the_array_call(self, kind, a, method, beta, data):
        f = make_constitutive(kind, beta=beta, a=a)
        T = data.draw(_FLOAT_STRAINS if method == "inverse" and f.bound < np.inf else _FLOATS)
        fn = getattr(f, method)
        with np.errstate(all="ignore"):
            try:
                want = fn(np.array([T]))[0]
            except SlveError as exc:
                # what the array call refuses, the float call refuses alike
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    fn(T)
                return
            got = fn(T)
        assert type(got) is float
        assert (math.isnan(got) and np.isnan(want)) or np.float64(got).tobytes() == want.tobytes()


def _bounded(T):
    return T / np.sqrt(1.0 + T * T)


def _bounded_slope(T):
    return (1.0 + T * T) ** -1.5


def _s_shaped(T):
    # flat at 0, steep, then flat again: plain Newton from T = 0 overshoots
    return _bounded(0.01 * T + T**3)


def _s_shaped_slope(T):
    return (0.01 + 3.0 * T * T) * _bounded_slope(0.01 * T + T**3)


# responses without a closed-form inverse: invert() iterates on them
NO_INVERSE = {
    "bounded": (custom_constitutive(_bounded, derivative=_bounded_slope, bound=1.0),
                st.floats(min_value=-0.999999, max_value=0.999999)),
    "s_shaped": (custom_constitutive(_s_shaped, derivative=_s_shaped_slope, bound=1.0),
                 st.floats(min_value=-0.999, max_value=0.999)),
    "cubic": (custom_constitutive(lambda T: T + T**3, derivative=lambda T: 1.0 + 3.0 * T**2),
              st.floats(min_value=-1e6, max_value=1e6)),
}


@st.composite
def _no_inverse_targets(draw):
    name = draw(st.sampled_from(sorted(NO_INVERSE)))
    f, targets = NO_INVERSE[name]
    return f, np.array(draw(st.lists(targets, min_size=1, max_size=30)))


class TestInvert:
    def test_out_of_range(self):
        h = make_constitutive("saturating", beta=1.0, a=1.0)
        with pytest.raises(StrainLimitExceededError,
                           match=r"target 1.0 is outside the attainable range \(\|h\| < 1.0\)"):
            invert(h, 1.0)
        with pytest.raises(StrainLimitExceededError, match="target -1.2 is outside"):
            invert(h, -1.2)

    def test_newton_path_without_analytic_inverse(self):
        f = custom_constitutive(
            value=lambda T: T + T**3,
            derivative=lambda T: 1.0 + 3.0 * T**2,
        )
        assert invert(f, 10.0) == pytest.approx(2.0, rel=1e-12)
        assert invert(f, -10.0) == pytest.approx(-2.0, rel=1e-12)

    def test_invert_array(self):
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        y = np.linspace(-0.9, 0.9, 41)
        T = invert_array(h, y)
        assert np.max(np.abs(np.asarray(h(T)) - y)) < 1e-11

    def test_invert_array_passes_empty_and_all_nan_batches(self):
        # the bound check reduces to one largest |target|, which neither an
        # empty nor an all-NaN batch has
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        assert invert_array(h, np.array([])).shape == (0,)
        assert np.all(np.isnan(invert_array(h, np.full((2, 2), np.nan))))

    def test_invert_array_out_of_range_element(self):
        h = make_constitutive("arctan", beta=1.0)
        with pytest.raises(StrainLimitExceededError, match="target 1.0 is outside"):
            invert_array(h, np.array([0.0, 0.5, 1.0]))

    def test_invert_array_names_the_largest_non_nan_target(self):
        h = make_constitutive("saturating", beta=1.0, a=1.0)  # bound 1
        with pytest.raises(StrainLimitExceededError, match="target 2.0 is outside"):
            invert_array(h, np.array([np.nan, 0.1, 2.0]))
        with pytest.raises(StrainLimitExceededError, match="target -3.0 is outside"):
            invert_array(h, np.array([[0.5, np.nan], [-3.0, 2.0]]))
        # a NaN target alone is within no bound check: it passes through
        T = invert_array(h, np.array([np.nan, 0.1]))
        assert np.isnan(T[0]) and T[1] == invert(h, 0.1)

    def test_invert_array_passes_nan_without_a_closed_form(self):
        # the custom twin of saturating a = 2 has no closed-form inverse; a
        # NaN target comes back NaN, as the catalog's closed form gives it,
        # and every other entry keeps the bits of invert
        twin = custom_constitutive(lambda T: T / np.sqrt(1.0 + T * T), bound=1.0)
        assert twin.inverse is None
        y = np.array([[np.nan, 0.1], [-0.6, np.nan]])
        nan = np.isnan(y)
        for h in (twin, make_constitutive("saturating", beta=1.0, a=2.0)):
            T = invert_array(h, y)
            assert np.array_equal(np.isnan(T), nan)
        T = invert_array(twin, y)
        assert np.array_equal(T[~nan], invert(twin, y[~nan]))
        assert np.isnan(invert_array(twin, np.nan))
        with pytest.raises(InvalidParameterError, match="target must be finite, got nan"):
            invert(twin, y)

    def test_strain_limit_names_the_flat_node_and_value(self):
        h = make_constitutive("saturating", beta=1.0, a=1.0)  # bound 1
        y = np.array([[0.5, 0.2], [-1.5, 3.0]])
        # invert names the first target past the bound, invert_array the largest
        for call, node, value in ((invert, 2, -1.5), (invert_array, 3, 3.0)):
            with pytest.raises(StrainLimitExceededError, match=f"target {value} is outside") as ei:
                call(h, y)
            assert (ei.value.node, ei.value.value) == (node, value)
        with pytest.raises(StrainLimitExceededError) as ei:
            invert(h, 1.0)
        assert (ei.value.node, ei.value.value) == (0, 1.0)

    def test_failed_bracket_names_its_node(self):
        # tanh declared unbounded: no bracket reaches 2.0
        def slope(T):
            return 1.0 / np.cosh(T) ** 2

        f = custom_constitutive(np.tanh, derivative=slope)
        y = np.array([[0.1, -0.3], [0.2, 2.0]])
        for call in (invert, invert_array):
            with pytest.raises(StrainLimitExceededError,
                               match="target 2.0 appears to exceed the attainable range") as ei:
                call(f, y)
            assert (ei.value.node, ei.value.value) == (3, 2.0)
        # a NaN target still counts toward the node
        with pytest.raises(StrainLimitExceededError) as ei:
            invert_array(f, np.array([np.nan, 0.1, 2.0]))
        assert (ei.value.node, ei.value.value) == (2, 2.0)
        # a closed form that misses leaves only some entries to iterate: the
        # node is still the index in the whole target, not among those
        f = custom_constitutive(np.tanh, derivative=slope, inverse=lambda y: 0.0 * y)
        with pytest.raises(StrainLimitExceededError,
                           match="target -2.0 appears to be below") as ei:
            invert(f, np.array([0.0, 0.1, -2.0]))
        assert (ei.value.node, ei.value.value) == (2, -2.0)

    @given(_no_inverse_targets())
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_single_calls_and_meets_tolerance(self, case):
        f, y = case
        T = invert(f, y)
        assert T.shape == y.shape
        # each entry iterates on its own: the batch gives the scalar bits
        assert all(T[i] == invert(f, float(v)) for i, v in enumerate(y))
        assert np.all(np.abs(np.asarray(f(T)) - y) < 1e-12 * np.maximum(1.0, np.abs(y)))

    def test_batch_shape_and_empty(self):
        f = NO_INVERSE["bounded"][0]
        y = np.linspace(-0.9, 0.9, 6).reshape(2, 3)
        assert invert(f, y).shape == (2, 3)
        assert invert_array(f, y).shape == (2, 3)
        assert invert(f, np.array([])).shape == (0,)
        assert isinstance(invert(f, 0.5), float)

    def test_batch_refuses_any_bad_entry(self):
        f = NO_INVERSE["bounded"][0]
        with pytest.raises(InvalidParameterError):
            invert(f, np.array([0.1, np.nan, 0.2]))
        with pytest.raises(StrainLimitExceededError, match="target -1.0 is outside"):
            invert(f, np.array([0.1, -1.0, 0.2]))

    @given(st.lists(st.floats(min_value=-0.99, max_value=0.99), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_custom_agrees_with_its_catalog_twin(self, ys):
        # T/sqrt(1+T^2) is saturating a = 2: iterated and closed-form inverses
        # agree to the 1e-12 residual tolerance, carried to T through the slope
        y = np.array(ys)
        twin = make_constitutive("saturating", beta=1.0, a=2.0)
        T_twin = invert(twin, y)
        T = invert(NO_INVERSE["bounded"][0], y)
        scale = np.maximum(1.0, np.abs(y)) / np.asarray(twin.derivative(T_twin))
        assert np.all(np.abs(T - T_twin) <= 1e-12 * scale + 1e-15 * np.abs(T_twin))

    def test_iterated_inverse_is_polished_to_roundoff(self):
        # the Newton step a converged entry takes carries T past the 1e-12
        # residual test (7.8e-9 relative off without it) to a few ulp of the
        # closed form in extended precision, as the catalog inverse is
        y = np.random.default_rng(3).uniform(-0.9, 0.9, 200_000)
        f = NO_INVERSE["bounded"][0]
        T = invert(f, y)
        Y = y.astype(np.longdouble)
        exact = Y / np.sqrt((1 - Y) * (1 + Y))
        assert np.all(np.abs(T - exact) <= 4e-15 * np.abs(exact))
        assert np.all(np.abs(np.asarray(f(T)) - y) < 1e-12 * np.maximum(1.0, np.abs(y)))


def _tanh_slope(T):
    return 1.0 / np.cosh(T) ** 2


# custom responses for the warm-start tests, each with the largest |target|
# drawn: near a bound the inverse is so ill-conditioned that two starts may
# part by more than roundoff
WARM_START = {
    "bench": (lambda T: T / np.sqrt(1.0 + T * T), lambda T: (1.0 + T * T) ** -1.5, 1.0, 0.99),
    "tanh": (np.tanh, _tanh_slope, 1.0, 0.99),
    "cubic": (lambda T: T + T**3, lambda T: 1.0 + 3.0 * T * T, math.inf, 1e6),
}


def _warm_start_response(name, given_slope):
    value, slope, bound, _ = WARM_START[name]
    # without a given slope custom_constitutive differences value (_fd_derivative)
    return custom_constitutive(value, derivative=slope if given_slope else None, bound=bound)


# starts that no bracket holds, and starts near and far from the root
_ODD_STARTS = st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0])
_STARTS = st.one_of(_ODD_STARTS, st.floats(min_value=-10.0, max_value=10.0), st.floats())


@st.composite
def _warm_start_case(draw):
    name = draw(st.sampled_from(sorted(WARM_START)))
    given_slope = draw(st.booleans())
    limit = WARM_START[name][3]
    n = draw(st.integers(min_value=1, max_value=20))
    y = draw(arrays(float, n, elements=st.floats(min_value=-limit, max_value=limit)))
    start = draw(arrays(float, n, elements=_STARTS))
    return name, given_slope, y, start


class TestWarmStart:
    @given(_warm_start_case())
    @settings(max_examples=200, deadline=None)
    def test_warm_start_meets_the_cold_residual_and_agrees(self, case):
        name, given_slope, y, start = case
        f = _warm_start_response(name, given_slope)
        cold = invert(f, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no start may overflow a response call
            warm = invert(f, y, start)
        tol = 1e-12 * np.maximum(1.0, np.abs(y))
        for T in (cold, warm):
            assert np.all(np.abs(np.asarray(f(T)) - y) < tol)
        assert np.all(np.abs(warm - cold) <= 1e-14 * np.maximum(1.0, np.abs(cold)))
        # each entry iterates on its own: a batch has the bits of entry-by-entry
        # calls with the same starts, and invert_array those of invert
        assert all(warm[i] == invert(f, y[i], start[i]) for i in range(y.size))
        assert np.array_equal(invert_array(f, y, start), warm)

    @pytest.mark.parametrize("given_slope", [True, False], ids=["given", "fd"])
    def test_refusals_name_the_same_node_whatever_the_start(self, given_slope):
        starts = (0.0, np.array([np.nan, 3.0, -np.inf, 1e300]), np.array([0.5, -0.2, 2.0, 7.0]))
        # past the declared bound, and past what tanh declared unbounded reaches
        cases = ((_warm_start_response("bench", given_slope), np.array([0.1, -0.5, 1.5, 0.2]), 2),
                 (custom_constitutive(np.tanh, derivative=_tanh_slope if given_slope else None),
                  np.array([0.1, -0.3, 0.2, 2.0]), 3))
        for f, y, node in cases:
            for call in (invert, invert_array):
                for start in starts:
                    with pytest.raises(StrainLimitExceededError) as ei:
                        call(f, y, start)
                    assert (ei.value.node, ei.value.value) == (node, y[node])

    @pytest.mark.parametrize("kind,a", [("saturating", 1.0), ("saturating", 2.0),
                                        ("saturating", 1.5), ("arctan", 1.0)],
                             ids=["saturating_a1", "saturating_a2", "saturating_a1.5", "arctan"])
    def test_closed_forms_ignore_the_start(self, kind, a):
        h = make_constitutive(kind, beta=1.3, a=a)
        y = np.random.default_rng(5).uniform(-0.999, 0.999, (4, 25))
        start = np.random.default_rng(6).choice([np.nan, np.inf, -1e300, 0.3, -4.0], y.shape)
        for call in (invert, invert_array):
            for s in (start, np.inf, start[0]):
                assert np.array_equal(call(h, y, s), call(h, y))
        assert invert(h, 0.4, np.nan) == invert(h, 0.4)

    def test_start_must_broadcast_to_the_targets(self):
        y = np.array([0.1, 0.2, 0.3])
        for f in (make_constitutive("saturating", a=2.0), NO_INVERSE["bounded"][0]):
            for call in (invert, invert_array):
                for start, shape in ((np.zeros(2), r"\(2,\)"), (np.zeros((2, 3)), r"\(2, 3\)")):
                    with pytest.raises(InvalidParameterError,
                                       match=rf"start of shape {shape} does not broadcast to "
                                             r"the targets' shape \(3,\)"):
                        call(f, y, start)
            with pytest.raises(InvalidParameterError, match=r"shape \(3,\) does not broadcast "
                                                            r"to the targets' shape \(\)"):
                invert(f, 0.5, y)
            # a row that broadcasts is the start of every row
            targets = np.stack([y, -y])
            rows = invert(f, targets, np.stack([3.0 * y] * 2))
            assert np.array_equal(invert(f, targets, 3.0 * y), rows)


def _reference_antiderivative(f, T):
    return np.array([quad(f, 0.0, t, epsabs=1e-13, epsrel=1e-12, limit=200)[0] for t in T])


def _chunk_batch(n):
    # n entries in [-1e3, 1e3], with NaN, +-inf, +-0 and +-1e3 among them
    rng = np.random.default_rng(n)
    T = rng.uniform(-1e3, 1e3, n)
    specials = [1e3, -1e3, 0.0, -0.0, np.nan, np.inf, -np.inf]
    T[:min(n, 7)] = specials[:n]
    return rng.permutation(T)


_CHUNK_RESPONSES = pytest.mark.parametrize(
    "f",
    [make_constitutive("saturating", beta=1.0, a=1.5),
     make_constitutive("saturating", beta=2.5, a=1.5),
     custom_constitutive(lambda T: T / np.sqrt(1.0 + T * T))],
    ids=["saturating_a1.5_beta1", "saturating_a1.5_beta2.5", "custom"],
)


class TestQuadrature:
    @_CHUNK_RESPONSES
    @pytest.mark.parametrize("n", [1, 300, 3000])
    def test_chunked_rounds_keep_the_bits(self, f, n, monkeypatch):
        # the batch shares one subdivision however its rounds are chunked:
        # the default bound, one call per round, and chunks of a row or two
        T = _chunk_batch(n)
        H = np.asarray(f.antiderivative(T))
        assert np.array_equal(np.isnan(H), ~np.isfinite(T))
        for nodes in (2**30, 64):
            monkeypatch.setattr(constitutive, "_CHUNK_NODES", nodes)
            assert np.array_equal(np.asarray(f.antiderivative(T)), H, equal_nan=True)

    @_CHUNK_RESPONSES
    def test_value_calls_stay_within_the_chunk(self, f):
        shapes = []

        def spy(T):
            shapes.append(T.shape)
            return f.value(T)

        T = _chunk_batch(3000)
        assert np.array_equal(slve_quad(spy, T), slve_quad(f.value, T), equal_nan=True)
        assert shapes and all(len(shape) == 2 for shape in shapes)
        assert max(math.prod(shape) for shape in shapes) <= _CHUNK_NODES

    @given(
        st.floats(min_value=0.5, max_value=4.0),
        st.floats(min_value=0.2, max_value=3.0),
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_saturating_matches_per_node_quad(self, a, beta, ts):
        h = make_constitutive("saturating", beta=beta, a=a)
        T = np.array(ts)
        H, ref = np.asarray(h.antiderivative(T)), _reference_antiderivative(h, T)
        assert np.all(np.abs(H - ref) <= 1e-12 * max(1.0, np.max(np.abs(ref))) + 1e-13)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_custom_matches_per_node_quad(self, ts):
        f = custom_constitutive(lambda T: np.tanh(T) + 0.1 * np.arctan(T))
        T = np.array(ts)
        H, ref = np.asarray(f.antiderivative(T)), _reference_antiderivative(f, T)
        assert np.all(np.abs(H - ref) <= 1e-12 * max(1.0, np.max(np.abs(ref))) + 1e-13)

    @pytest.mark.parametrize(
        "f",
        [make_constitutive("saturating", beta=1.0, a=3.0), custom_constitutive(np.tanh)],
        ids=["saturating_a3", "custom"],
    )
    def test_non_finite_gives_nan_and_empty_gives_empty(self, f):
        H = np.asarray(f.antiderivative(np.array([np.nan, np.inf, -np.inf, 1.0])))
        assert np.isnan(H[:3]).all() and np.isfinite(H[3])
        assert np.isnan(f.antiderivative(np.nan)) and np.isnan(f.antiderivative(np.inf))
        empty = f.antiderivative(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    # checks against closed forms, with no scipy reference

    @given(
        st.sampled_from([("saturating", 1.0), ("saturating", 2.0), ("arctan", 1.0),
                         ("linear", 1.0)]),
        st.floats(min_value=0.2, max_value=3.0),
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_form_antiderivatives(self, kind_a, beta, ts):
        h = make_constitutive(kind_a[0], beta=beta, a=kind_a[1])
        T = np.array(ts)
        H, exact = slve_quad(h.value, T), np.asarray(h.antiderivative(T))
        assert np.all(np.abs(H - exact) <= 1e-12 * max(1.0, np.max(np.abs(exact))) + 1e-13)

    def test_kinked_custom_response_converges(self):
        # slope 1 up to |T| = 1, then 0.3: each entry's kink sits elsewhere
        # on [0, 1], and the shared panels are bisected around all of them
        f = custom_constitutive(
            lambda T: np.where(np.abs(T) < 1.0, T, np.sign(T) * (0.7 + 0.3 * np.abs(T)))
        )
        T = np.array([-3.0, -0.5, 0.7, 2.0, 5.0])
        A = np.abs(T)
        exact = np.where(A < 1.0, 0.5 * T * T, 0.5 + 0.7 * (A - 1.0) + 0.15 * (A * A - 1.0))
        H = np.asarray(f.antiderivative(T))
        assert np.all(np.abs(H - exact) <= 1e-12 * max(1.0, np.max(np.abs(exact))) + 1e-13)

    def test_nan_integrand_raises_within_the_panel_budget(self):
        # NaN past |s| = 0.5: no subdivision meets the tolerance, so the
        # first NaN error estimate raises instead of returning a NaN
        evaluated = []

        def value(T):
            evaluated.append(T.size)
            return np.where(np.abs(T) > 0.5, np.nan, T)

        T = np.array([0.25, 1.0, 2.0])
        with pytest.raises(SlveError, match="NaN"):
            slve_quad(value, T)
        # the whole interval, then the two halves of at most 2*_QUAD_PANELS panels
        assert sum(evaluated) <= T.size * _GAUSS_NODES * (1 + 4 * _QUAD_PANELS)
        # a full 4,096-value energy-report block raises before bisecting its
        # NaN panels, which to the panel budget would peak near 290 MB
        T = np.linspace(-2.0, 2.0, 4096)
        evaluated.clear()
        tracemalloc.start()
        try:
            with pytest.raises(SlveError, match="NaN"):
                slve_quad(value, T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert sum(evaluated) <= T.size * _GAUSS_NODES * (1 + 4 * _QUAD_PANELS)

    def test_unresolved_integrand_raises_at_the_panel_budget(self):
        # about 1,600 periods on [0, 1] need more than _QUAD_PANELS panels
        with pytest.raises(SlveError, match=f"within {_QUAD_PANELS} panels"):
            slve_quad(lambda T: np.sin(1e4 * T), np.array([1.0]))

    @pytest.mark.parametrize(
        "f",
        [make_constitutive("saturating", beta=1.0, a=1.5),
         make_constitutive("saturating", beta=2.0, a=3.0),
         custom_constitutive(lambda T: np.tanh(T) + 0.1 * np.arctan(T))],
        ids=["saturating_a1.5", "saturating_a3", "custom"],
    )
    @pytest.mark.parametrize("span", [0.5, 3.0, 1e3])
    def test_batch_matches_single_entries(self, f, span):
        # the batch shares one subdivision; an entry alone gets its own
        T = np.random.default_rng(5).uniform(-span, span, 64)
        H = slve_quad(f.value, T)
        single = np.array([slve_quad(f.value, t) for t in T])
        assert np.all(np.abs(H - single) <= 1e-13 * max(1.0, np.max(np.abs(H))))


class TestCustom:
    def test_nonzero_at_origin_rejected(self):
        with pytest.raises(InvalidParameterError):
            custom_constitutive(value=lambda T: T + 1.0)

    def test_fd_derivative_fallback(self):
        f = custom_constitutive(value=lambda T: np.tanh(T))
        assert f.derivative(0.0) == pytest.approx(1.0, rel=1e-7)

    def test_float_reaches_user_callables_as_an_array(self):
        # the float path is the catalog's alone: user code is called with arrays
        seen = []

        def recorded(fn):
            def call(arr):
                seen.append(type(arr))
                return fn(arr)

            return call

        f = custom_constitutive(recorded(np.tanh), recorded(lambda T: 1.0 / np.cosh(T) ** 2),
                                recorded(lambda T: np.log(np.cosh(T))), recorded(np.arctanh), 1.0)
        seen.clear()
        got = [f.value(0.5), f.derivative(0.5), f.antiderivative(0.5), f.inverse(0.5)]
        assert [type(g) for g in got] == [float] * 4
        assert seen == [np.ndarray] * 4


class TestAudit:
    def test_linear_ramp(self):
        # T = 3t on [0,1]: rate = gamma*9 everywhere, total = 0.9 for gamma=0.1
        t = np.linspace(0.0, 1.0, 11)
        audit = audit_dissipation(0.1, t, 3.0 * t[:, None])
        assert isinstance(audit, DissipationAudit)
        assert audit.min_rate.shape == audit.total_dissipation.shape == audit.passed.shape == (1,)
        assert audit.min_rate[0] == pytest.approx(0.9, rel=1e-10)
        assert audit.total_dissipation[0] == pytest.approx(0.9, rel=1e-10)
        assert audit.passed[0]

    def test_zero_gamma_trivially_passes(self):
        t = np.linspace(0.0, 1.0, 5)
        audit = audit_dissipation(0.0, t, np.sin(t)[:, None])
        assert audit.min_rate[0] == 0.0
        assert audit.total_dissipation[0] == 0.0
        assert audit.passed[0]

    def test_quadratic_history_total(self):
        # T = t^2 on [0,1]: rate = 4*gamma*t^2, integral = 4/3*gamma
        t = np.linspace(0.0, 1.0, 201)
        audit = audit_dissipation(1.0, t, (t * t)[:, None])
        assert audit.total_dissipation[0] == pytest.approx(4.0 / 3.0, rel=1e-3)
        assert audit.passed[0]

    def test_negative_gamma_rejected(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(InvalidParameterError, match=r"gamma must be nonnegative "
                           r"\(dissipation requires it\), got -0.5"):
            audit_dissipation(-0.5, t, t[:, None])
        with pytest.raises(InvalidParameterError, match="gamma must be finite, got nan"):
            audit_dissipation(np.nan, t, t[:, None])

    def test_short_history_rejected(self):
        with pytest.raises(InvalidParameterError, match=r"histories need times \(n >= 3,\)"):
            audit_dissipation(0.1, np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))

    @pytest.mark.parametrize("shape", [(5,), (5, 0), (4, 2), (5, 2, 1)])
    def test_bad_stress_shape_rejected(self, shape):
        with pytest.raises(InvalidParameterError, match=r"histories need times \(n >= 3,\)"):
            audit_dissipation(0.1, np.linspace(0.0, 1.0, 5), np.zeros(shape))

    def test_non_monotone_times_rejected(self):
        with pytest.raises(InvalidParameterError, match="times must be strictly increasing"):
            audit_dissipation(0.1, np.array([0.0, 0.5, 0.4]), np.array([[0.0], [0.1], [0.2]]))

    @pytest.mark.parametrize("n,n_hist", [(3, 2), (9, 5), (200, 7), (1001, 40), (1001, 150)])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_block_equals_per_history_calls(self, n, n_hist, uniform):
        # one call over N histories gives each history the bits of its own
        # call, reading the stress rows of an (n, 3, N) block in place
        rng = np.random.default_rng(n)
        t = np.linspace(0.0, 2.0, n) if uniform else np.cumsum(rng.uniform(0.01, 1.0, n))
        fields = rng.normal(size=(n, 3, n_hist)) * 10.0 ** rng.uniform(-3, 3, n_hist)
        stresses = fields[:, 2]
        block = audit_dissipation(0.7, t, stresses)
        assert block.min_rate.shape == block.total_dissipation.shape == (n_hist,)
        assert block.passed.shape == (n_hist,)
        for j in range(n_hist):
            one = audit_dissipation(0.7, t, np.ascontiguousarray(stresses[:, j:j + 1]))
            assert block.total_dissipation[j] == one.total_dissipation[0]
            assert block.min_rate[j] == one.min_rate[0]
            assert block.passed[j] == one.passed[0]

    def test_memory_stays_below_half_the_stress(self):
        # the audit reads the histories in place and keeps per-block rates
        # only: no stacked copy and no (N, n) rates array
        rng = np.random.default_rng(5)
        t = np.cumsum(rng.uniform(0.5, 1.5, 1000))
        stress = rng.normal(size=(1000, 2048))
        tracemalloc.start()
        try:
            audit = audit_dissipation(0.3, t, stress)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert audit.passed.all()
        assert peak < 0.5 * stress.nbytes

    @given(st.floats(min_value=0.0, max_value=2.0), st.integers(min_value=3, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_rate_never_negative(self, gamma, n):
        # gamma*(dT/dt)^2 is a square: no history can make it negative
        rng = np.random.default_rng(n)
        t = np.sort(rng.uniform(0.0, 1.0, n))
        t += np.arange(n) * 1e-6  # force strict increase
        audit = audit_dissipation(gamma, t, rng.normal(size=(n, 3)))
        assert np.all(audit.min_rate >= -1e-12)
        assert audit.passed.all()
