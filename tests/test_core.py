"""Grids, fields, parameter scaling, and the discrete calculus kernels."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slve import (
    Boundary,
    Field,
    Grid1D,
    InvalidParameterError,
    ModelParams,
    first_derivative,
    integrate_field,
    nondimensionalize,
)


class TestGrid:
    def test_periodic_nodes_exclude_right_endpoint(self):
        g = Grid1D(length=2.0, n_cells=8, boundary="periodic")
        x = g.nodes()
        assert g.n_nodes == 8
        assert g.spacing == pytest.approx(0.25)
        assert x[0] == 0.0
        assert x[-1] == pytest.approx(2.0 - 0.25)

    def test_dirichlet_nodes_include_both_endpoints(self):
        g = Grid1D(length=1.0, n_cells=10, boundary=Boundary.DIRICHLET_ZERO)
        x = g.nodes()
        assert g.n_nodes == 11
        assert x[0] == 0.0 and x[-1] == 1.0

    @pytest.mark.parametrize("length", [0.0, -1.0, np.nan])
    def test_bad_length_rejected(self, length):
        with pytest.raises(InvalidParameterError):
            Grid1D(length=length, n_cells=8)

    def test_unknown_boundary_refused_naming_the_known_ones(self):
        with pytest.raises(InvalidParameterError, match="^unknown boundary 'bogus'; expected one "
                           "of periodic, dirichlet_zero$"):
            Grid1D(length=1.0, n_cells=8, boundary="bogus")

    def test_too_few_cells_rejected(self):
        # a non-finite count is refused before int() can overflow on it, and
        # a non-number whatever int() would make of it
        for n_cells in (3, np.inf, np.nan, "8"):
            with pytest.raises(InvalidParameterError):
                Grid1D(length=1.0, n_cells=n_cells)


class TestField:
    def test_values_are_read_only(self):
        g = Grid1D(length=2 * np.pi, n_cells=16)
        f = Field(np.sin(g.nodes()), g)
        assert f.values.shape == (16,)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_size_mismatch_rejected(self):
        g = Grid1D(length=1.0, n_cells=8)
        for shape in ((7,), (2, 4), (1, 8), (8, 1), ()):
            with pytest.raises(InvalidParameterError, match="nodal values"):
                Field(np.zeros(shape), g)

    def test_non_finite_rejected(self):
        g = Grid1D(length=1.0, n_cells=8)
        vals = np.zeros(8)
        for bad in (np.inf, np.nan, -np.inf):
            vals[3] = bad
            with pytest.raises(InvalidParameterError, match="finite"):
                Field(vals, g)

    def test_copies_its_input(self):
        # even a read-only float row of the right size
        g = Grid1D(length=1.0, n_cells=8)
        vals = np.arange(8.0)
        vals.setflags(write=False)
        f = Field(vals, g)
        assert not np.shares_memory(f.values, vals)
        assert np.array_equal(f.values, vals)
        source = np.arange(8.0)
        f = Field(source, g)
        source[0] = 5.0
        assert f.values[0] == 0.0


class TestModelParams:
    def test_holds_the_unit_form_only(self):
        # a dimensional material reaches the model through nondimensionalize
        assert [f.name for f in dataclasses.fields(ModelParams)] == ["variant", "nu", "gamma"]

    def test_variant_rules(self):
        ModelParams(variant="stress_rate", gamma=0.5)
        ModelParams(variant="strain_rate", nu=0.5)
        ModelParams(variant="elastic")
        with pytest.raises(InvalidParameterError):
            ModelParams(variant="stress_rate", gamma=0.0)
        with pytest.raises(InvalidParameterError):
            ModelParams(variant="strain_rate", nu=0.0)
        with pytest.raises(InvalidParameterError):
            ModelParams(variant="elastic", nu=0.1)

    def test_unknown_variant_refused_naming_the_known_ones(self):
        with pytest.raises(InvalidParameterError, match="^unknown variant 'bogus'; expected one "
                           "of stress_rate, strain_rate, elastic$"):
            ModelParams(variant="bogus")

    def test_negative_gamma_message_mentions_dissipation(self):
        with pytest.raises(InvalidParameterError, match="dissipation"):
            ModelParams(variant="stress_rate", gamma=-0.1)

    def test_coefficient_property(self):
        assert ModelParams(variant="stress_rate", gamma=0.25).coefficient == 0.25
        assert ModelParams(variant="strain_rate", nu=2.0).coefficient == 2.0


class TestScaling:
    # rho=1, mu=4, L=2 gives wave speed 2 and time scale 1;
    # nu=0.5 -> nu_bar = 0.5/2*2 = 0.5 and gamma=0.25 -> gamma_bar = 0.25*4/2*2 = 1
    def test_reference_values(self):
        sc = nondimensionalize(rho=1.0, mu=4.0, length_scale=2.0, nu=0.5)
        assert sc.x_scale == pytest.approx(2.0)
        assert sc.t_scale == pytest.approx(1.0)
        assert sc.stress_scale == pytest.approx(4.0)
        assert sc.nu_bar == pytest.approx(0.5)

        assert nondimensionalize(rho=1.0, mu=4.0, length_scale=2.0,
                                 gamma=0.25).gamma_bar == pytest.approx(1.0)

    def test_roundtrip(self):
        # the scales match their closed forms, and the closed forms solved
        # back for rho and gamma give the material again
        rho, mu, L, gamma = 2.7, 13.0, 0.4, 0.035
        sc = nondimensionalize(rho=rho, mu=mu, length_scale=L, gamma=gamma)
        assert sc.x_scale == L and sc.stress_scale == mu
        assert sc.t_scale == pytest.approx(L * np.sqrt(rho / mu), rel=1e-14)
        assert sc.gamma_bar == pytest.approx(gamma * mu / L * np.sqrt(mu / rho), rel=1e-14)
        assert sc.nu_bar == 0.0
        assert sc.stress_scale * (sc.t_scale / sc.x_scale) ** 2 == pytest.approx(rho, rel=1e-14)
        assert sc.gamma_bar * sc.t_scale / sc.stress_scale == pytest.approx(gamma, rel=1e-14)

    def test_zero_length_scale_rejected(self):
        with pytest.raises(InvalidParameterError):
            nondimensionalize(length_scale=0.0)

    @pytest.mark.parametrize(
        "material,quantity",
        [
            (dict(mu=1e-320, rho=1e300), "wave speed"),  # mu/rho underflows to 0
            (dict(mu=1e300, rho=1e-300), "wave speed"),  # mu/rho overflows
            (dict(length_scale=1e300, mu=1e-20, nu=1.0), "t_scale"),  # L/speed overflows
            (dict(length_scale=5e-324, mu=1e20), "t_scale"),  # L/speed underflows to 0
            (dict(length_scale=1e-300, nu=1e300), "nu_bar"),  # nu/L overflows
            (dict(length_scale=10.0, gamma=5e-324), "gamma_bar"),  # gamma/L underflows to 0
        ],
    )
    def test_material_out_of_double_range_refused(self, material, quantity):
        with pytest.raises(InvalidParameterError, match=quantity):
            nondimensionalize(**material)

    def test_unit_material_is_the_identity(self):
        sc = nondimensionalize(nu=0.9, gamma=0.25)
        assert (sc.x_scale, sc.t_scale, sc.stress_scale) == (1.0, 1.0, 1.0)
        assert (sc.nu_bar, sc.gamma_bar) == (0.9, 0.25)


class TestQuadrature:
    def test_periodic_sin_squared(self):
        # integral of sin^2 over one period is pi; midpoint sum is spectrally exact
        g = Grid1D(length=2 * np.pi, n_cells=64)
        f = Field(np.sin(g.nodes()) ** 2, g)
        assert integrate_field(f) == pytest.approx(np.pi, abs=1e-12)

    def test_dirichlet_linear_exact(self):
        g = Grid1D(length=1.0, n_cells=50, boundary="dirichlet_zero")
        f = Field(3.0 * g.nodes(), g)
        assert integrate_field(f) == pytest.approx(1.5, abs=1e-14)


class TestDerivatives:
    def test_periodic_trig_derivatives(self):
        g = Grid1D(length=2 * np.pi, n_cells=256)
        x = g.nodes()
        d1 = first_derivative(np.sin(x), g.spacing, g.boundary)
        assert np.max(np.abs(d1 - np.cos(x))) < 1e-3

    def test_dirichlet_exact_on_quadratics(self):
        # one-sided ends are second order, so quadratics differentiate exactly
        g = Grid1D(length=1.0, n_cells=16, boundary="dirichlet_zero")
        x = g.nodes()
        v = 2.0 * x**2 - 3.0 * x + 1.0
        d1 = first_derivative(v, g.spacing, g.boundary)
        assert np.max(np.abs(d1 - (4.0 * x - 3.0))) < 1e-12

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet_zero"])
    def test_first_derivative_second_order(self, boundary):
        errs = []
        for n in (32, 64, 128):
            g = Grid1D(length=1.0, n_cells=n, boundary=boundary)
            x = g.nodes()
            if boundary == "periodic":
                v, dv = np.sin(2 * np.pi * x), 2 * np.pi * np.cos(2 * np.pi * x)
            else:
                v, dv = np.sin(np.pi * x) ** 3, 3 * np.pi * np.sin(np.pi * x) ** 2 * np.cos(np.pi * x)
            d = first_derivative(v, g.spacing, g.boundary)
            errs.append(np.max(np.abs(d - dv)))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert order[0] == pytest.approx(2.0, abs=0.3)
        assert order[1] == pytest.approx(2.0, abs=0.3)

    def test_skew_adjointness_periodic(self):
        # sum u*(D1 v) = -sum (D1 u)*v on periodic grids; the exact discrete
        # energy identity rests on this
        rng = np.random.default_rng(7)
        g = Grid1D(length=1.0, n_cells=32)
        u, v = rng.normal(size=32), rng.normal(size=32)
        lhs = np.sum(u * first_derivative(v, g.spacing, g.boundary))
        rhs = -np.sum(first_derivative(u, g.spacing, g.boundary) * v)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("derivative", [first_derivative])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_integer_input_matches_float(self, derivative, boundary):
        ints = np.array([0, 1, 3, 4, 7, 8])
        out = derivative(ints, 1.0, boundary)
        assert out.dtype == np.float64
        assert np.array_equal(out, derivative(ints.astype(float), 1.0, boundary))

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("dtype", [float, int])
    def test_out_gives_the_bits_of_the_allocating_call(self, boundary, dtype):
        rng = np.random.default_rng(3)
        v = (rng.normal(size=12) * 100).astype(dtype)
        out = np.full(12, np.nan)
        assert first_derivative(v, 0.3, boundary, out) is out
        assert np.array_equal(out, first_derivative(v, 0.3, boundary))
        # rows of stacked blocks, in and out
        Y, dY = np.stack([v, 2 * v, 3 * v]), np.zeros((2, 12))
        first_derivative(Y[1], 0.3, boundary, dY[1])
        assert np.array_equal(dY[1], first_derivative(2 * v, 0.3, boundary))
        assert np.all(dY[0] == 0.0)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_out_overlapping_values_rejected(self, boundary):
        v = np.arange(12.0) ** 2
        with pytest.raises(InvalidParameterError, match="share no memory"):
            first_derivative(v, 1.0, boundary, v)
        block = np.zeros(13)
        block[1:] = v
        with pytest.raises(InvalidParameterError, match="share no memory"):
            first_derivative(block[1:], 1.0, boundary, block[:-1])
        # rows of one block do not overlap, so they are accepted
        Y = np.stack([v, v])
        first_derivative(Y[0], 1.0, boundary, Y[1])
        assert np.array_equal(Y[1], first_derivative(v, 1.0, boundary))

    @pytest.mark.parametrize("shape", [(11,), (13,), (1, 12)])
    def test_out_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(InvalidParameterError, match="shape"):
            first_derivative(np.arange(12.0), 1.0, "periodic", np.empty(shape))

    @pytest.mark.parametrize("derivative", [first_derivative])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_string_boundary_matches_member(self, derivative, boundary):
        v = np.sin(2.0 * np.pi * np.arange(8) / 8)
        assert np.array_equal(derivative(v, 1.0, boundary.value), derivative(v, 1.0, boundary))

    @pytest.mark.parametrize("derivative", [first_derivative])
    def test_unknown_boundary_rejected(self, derivative):
        with pytest.raises(InvalidParameterError, match="nonsense"):
            derivative(np.arange(8.0), 1.0, "nonsense")

    @given(
        arrays(
            np.float64,
            st.integers(min_value=4, max_value=600),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        st.floats(min_value=1e-6, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_periodic_stencils_match_roll_reference(self, v, spacing):
        # the slice kernel must equal the np.roll formula bit for bit,
        # overflow to inf/nan included
        periodic = Boundary.PERIODIC
        with np.errstate(over="ignore", invalid="ignore"):
            d1_ref = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * spacing)
            d1 = first_derivative(v, spacing, periodic)
        assert np.array_equal(d1, d1_ref, equal_nan=True)

    @given(
        st.one_of(
            arrays(
                np.float64,
                st.integers(min_value=4, max_value=300),
                elements=st.floats(allow_nan=False, allow_infinity=False),
            ),
            arrays(
                np.int64,
                st.integers(min_value=4, max_value=300),
                elements=st.integers(min_value=-(2**31), max_value=2**31),
            ),
        ),
        st.floats(min_value=1e-6, max_value=1e3),
        st.sampled_from(list(Boundary)),
    )
    @settings(max_examples=200, deadline=None)
    def test_stencils_match_the_per_entry_formulas(self, v, spacing, boundary):
        # the kernel divides the whole row once; each entry must keep the
        # bits of its own formula, ends included, overflow to inf/nan too
        w = 2.0 * spacing
        with np.errstate(over="ignore", invalid="ignore"):
            ref = np.empty(v.shape)
            ref[1:-1] = (v[2:] - v[:-2]) / w
            if boundary is Boundary.PERIODIC:
                ref[0] = (v[1] - v[-1]) / w
                ref[-1] = (v[0] - v[-2]) / w
            else:
                ref[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / w
                ref[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / w
            d1 = first_derivative(v, spacing, boundary)
        assert d1.dtype == np.float64
        assert np.array_equal(d1, ref, equal_nan=True)

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("shape", [(), (0,), (1,), (2,), (3, 2), (2, 0)], ids=str)
    def test_fewer_than_three_nodes_refused(self, boundary, shape):
        # no stencil fits: every end formula reaches 3 nodes, and 2 periodic
        # nodes would wrap each end onto itself
        with pytest.raises(InvalidParameterError, match="at least 3 nodes"):
            first_derivative(np.ones(shape), 1.0, boundary)
        with pytest.raises(InvalidParameterError, match="at least 3 nodes"):
            first_derivative(np.ones(shape), 1.0, boundary, np.empty(shape))

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_three_nodes_are_enough(self, boundary):
        # spacing 0.5: the stencil width is 1
        v = np.array([1.0, 4.0, 9.0])
        if boundary is Boundary.PERIODIC:
            ref = [4.0 - 9.0, 9.0 - 1.0, 1.0 - 4.0]
        else:
            ref = [-3.0 * 1.0 + 4.0 * 4.0 - 9.0, 9.0 - 1.0, 3.0 * 9.0 - 4.0 * 4.0 + 1.0]
        assert np.array_equal(first_derivative(v, 0.5, boundary), ref)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_strided_row_pair_into_rows_of_another_block(self, boundary):
        # the stress-rate stage: rows (T, v) of (v, eps, T) into (v_t, eps_t)
        rng = np.random.default_rng(11)
        Y, out = rng.normal(size=(3, 16)), np.full((3, 16), np.nan)
        assert first_derivative(Y[::-2], 0.3, boundary, out[:2]).base is out
        assert np.array_equal(out[0], first_derivative(Y[2], 0.3, boundary))
        assert np.array_equal(out[1], first_derivative(Y[0], 0.3, boundary))
        assert np.all(np.isnan(out[2]))
        # rows (T, v) into (v, eps) of the same block: both views hold row 0
        with pytest.raises(InvalidParameterError, match="share no memory"):
            first_derivative(Y[::-2], 0.3, boundary, Y[:2])

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_a_block_is_differentiated_along_its_last_axis(self, boundary):
        # rows 0..3, 4..7, 8..11: slope 1 along each row, 4 down each column
        d = first_derivative(np.arange(12.0).reshape(3, 4), 1.0, boundary)
        if boundary is Boundary.PERIODIC:  # the wrapped ends see the jump back
            assert np.array_equal(d, np.tile([-1.0, 1.0, 1.0, -1.0], (3, 1)))
        else:  # the one-sided ends are exact on a line
            assert np.array_equal(d, np.ones((3, 4)))

    @given(
        st.one_of(
            arrays(
                np.float64,
                st.tuples(st.integers(1, 4), st.integers(3, 80))
                | st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(3, 40)),
                elements=st.floats(allow_nan=False, allow_infinity=False),
            ),
            arrays(
                np.int64,
                st.tuples(st.integers(1, 4), st.integers(3, 80))
                | st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(3, 40)),
                elements=st.integers(min_value=-(2**31), max_value=2**31),
            ),
        ),
        st.booleans(),
        st.floats(min_value=1e-6, max_value=1e3),
        st.sampled_from(list(Boundary)),
    )
    @settings(max_examples=200, deadline=None)
    def test_each_row_of_a_block_gets_its_own_bits(self, Y, reversed_pair, spacing, boundary):
        # a block of 2 or 3 axes, or its reversed-stride rows Y[::-2] (the
        # stress-rate stage's row pair), is differentiated row by row with
        # the bits of the 1-D calls, overflow to inf/nan included
        if reversed_pair:
            Y = Y[::-2]
        with np.errstate(over="ignore", invalid="ignore"):
            d = first_derivative(Y, spacing, boundary)
            rows = [first_derivative(row, spacing, boundary) for row in Y.reshape(-1, Y.shape[-1])]
        assert d.dtype == np.float64
        assert np.array_equal(d, np.reshape(rows, Y.shape), equal_nan=True)
