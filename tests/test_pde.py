"""Method-of-lines solvers, energy accounting, and initial data."""

import dataclasses
import itertools

import numpy as np
import pytest

from slve import (
    BlowUpError,
    Field,
    Grid1D,
    InvalidParameterError,
    ModelParams,
    SimState,
    SolverConfig,
    StrainLimitExceededError,
    Trajectory,
    Variant,
    custom_constitutive,
    energy_series,
    first_derivative,
    gaussian_bump_state,
    invert,
    invert_array,
    make_constitutive,
    plan,
    relax_stress,
    simulate,
    single_mode_state,
    solve_dispersion,
    stored_energy_density,
    stress_rate_dispersion,
    total_energy,
    zero_state,
)

L = 2 * np.pi


def periodic_grid(n=64):
    return Grid1D(length=L, n_cells=n)


def uniform_state(grid, f, T0):
    vals = np.full(grid.n_nodes, T0)
    return SimState(
        t=0.0,
        v=Field(np.zeros(grid.n_nodes), grid),
        eps=Field(np.asarray(f(vals), dtype=float), grid),
        stress=Field(vals, grid),
    )


def one_step(state, params, f, dt=1e-3):
    """States of a one-step simulate: the initial snapshot and the next."""
    return simulate(state, SolverConfig(params=params, constitutive=f, dt=dt, t_final=dt))


def _record_checked_calls(monkeypatch):
    """The shapes of the values of every call to pde's first_derivative from now on."""
    import slve.pde

    shapes, public = [], slve.pde.first_derivative

    def recording(values, *args):
        shapes.append(values.shape)
        return public(values, *args)

    monkeypatch.setattr(slve.pde, "first_derivative", recording)
    return shapes


class TestRhs:
    """The right-hand side, seen through one simulate step."""

    def test_zero_state_has_zero_derivative(self):
        g = periodic_grid()
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        for params in (
            ModelParams(variant="stress_rate", gamma=0.5),
            ModelParams(variant="strain_rate", nu=0.5),
            ModelParams(variant="elastic"),
        ):
            final = one_step(zero_state(g), params, h)[-1]
            for field in (final.v, final.eps, final.stress):
                assert np.all(field.values == 0.0), params.variant

    def test_uniform_equilibrium_is_stationary(self):
        g = periodic_grid()
        h = make_constitutive("saturating", beta=1.0, a=1.0)
        st = uniform_state(g, h, 0.7)
        final = one_step(st, ModelParams(variant="stress_rate", gamma=0.3), h)[-1]
        assert np.max(np.abs(final.stress.values - st.stress.values)) < 1e-15
        assert np.max(np.abs(final.v.values)) < 1e-15

    def test_strain_limit_reported_by_node(self):
        g = periodic_grid(16)
        gfun = make_constitutive("saturating", beta=1.0, a=1.0)  # bound 1
        eps = np.zeros(g.n_nodes)
        eps[5] = 1.5  # beyond the limit
        st = SimState(
            t=0.0,
            v=Field(np.zeros(g.n_nodes), g),
            eps=Field(eps, g),
            stress=Field(np.zeros(g.n_nodes), g),
        )
        # the initial snapshot's stress reconstruction already fails
        with pytest.raises(StrainLimitExceededError) as ei:
            one_step(st, ModelParams(variant="strain_rate", nu=1.0), gfun)
        assert ei.value.node == 5
        assert ei.value.value == pytest.approx(1.5)

    def test_nan_target_does_not_hide_the_strain_limit_node(self):
        gfun = make_constitutive("saturating", beta=1.0, a=1.0)  # bound 1
        with pytest.raises(StrainLimitExceededError) as ei:
            invert_array(gfun, np.array([np.nan, 0.1, 2.0]))
        assert ei.value.node == 2
        assert ei.value.value == 2.0
        # a NaN target alone is no strain-limit event: it passes through
        T = invert_array(gfun, np.array([np.nan, 0.1]))
        assert np.isnan(T[0]) and T[1] == invert(gfun, 0.1)


class TestFastPathMatchesReference:
    def test_strain_rate_rhs_takes_two_derivatives(self, monkeypatch):
        # v_x is computed once per stage and shared with the stress
        # reconstruction: one stencil pass over v, one over T per stage, plus
        # the stress reconstruction of the initial and the final snapshot
        import slve.core
        import slve.pde

        passes, checked = [], []
        kernel, public = slve.core._centered, slve.pde.first_derivative

        def counting_kernel(*args):
            passes.append(1)
            return kernel(*args)

        def counting_public(*args):
            checked.append(1)
            return public(*args)

        # the stages call pde's binding of the kernel, first_derivative core's
        monkeypatch.setattr(slve.pde, "_centered", counting_kernel)
        monkeypatch.setattr(slve.core, "_centered", counting_kernel)
        monkeypatch.setattr(slve.pde, "first_derivative", counting_public)
        g = periodic_grid(32)
        gfun = make_constitutive("saturating", beta=1.0, a=2.0)
        st = gaussian_bump_state(g, gfun, center=np.pi, width=0.5, amplitude=0.4)
        states = one_step(st, ModelParams(variant="strain_rate", nu=0.5), gfun)
        assert len(states) == 2
        assert len(passes) == 1 + 4 * 2 + 1
        # the stages skip the checks; only the two snapshots pass through them
        assert len(checked) == 2

    def test_strain_rate_stages_warm_start_their_inversion(self, monkeypatch):
        # each stage starts Newton from the stress the last stage rebuilt,
        # within O(dt) of the root: at most 3.5 derivative calls per stage
        # inversion on average, where a cold start from 0 takes 4.2 here; each
        # snapshot's rebuild starts from the last snapshot's stress: at most
        # 3.75 per snapshot, where a cold start takes 4.2 again
        import slve.pde

        stages, slopes = [], []
        make_rhs = slve.pde._make_rhs

        def counting_rhs(*args):
            rhs = make_rhs(*args)

            def counted(Y, out):
                before = len(slopes)
                rhs(Y, out)
                stages.append(len(slopes) - before)

            return counted

        def counted_slope(T):
            slopes.append(1)
            return f.derivative(T)

        monkeypatch.setattr(slve.pde, "_make_rhs", counting_rhs)
        f = custom_constitutive(lambda T: T / np.sqrt(1.0 + T * T),
                                derivative=lambda T: (1.0 + T * T) ** -1.5, bound=1.0)
        counted_f = dataclasses.replace(f, derivative=counted_slope)
        g = periodic_grid(32)
        nu = 0.5
        dt = 0.2 * g.spacing**2 / nu
        st = gaussian_bump_state(g, f, center=np.pi, width=0.5, amplitude=0.4)
        cfg = SolverConfig(params=ModelParams(variant="strain_rate", nu=nu),
                           constitutive=counted_f, dt=dt, t_final=96 * dt, output_stride=1)
        first = simulate(st, cfg)
        assert len(stages) == 4 * 96
        assert sum(stages) / len(stages) <= 3.5
        assert (len(slopes) - sum(stages)) / len(first) <= 3.75
        # the start is held per run, so a rerun starts cold again
        assert np.array_equal(simulate(st, cfg).fields, first.fields)

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet_zero"])
    @pytest.mark.parametrize("params", [ModelParams(variant="stress_rate", gamma=0.5),
                                        ModelParams(variant="elastic")],
                             ids=["stress_rate", "elastic"])
    def test_stress_rate_and_elastic_stages_take_one_checked_call(
            self, monkeypatch, boundary, params):
        # one checked stencil call per stage on the row pair (T, v), looked up
        # as pde's first_derivative: 4 per RK4 step, none per snapshot
        shapes = _record_checked_calls(monkeypatch)
        g = Grid1D(length=L, n_cells=32, boundary=boundary)
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        st = gaussian_bump_state(g, h, center=np.pi, width=0.5, amplitude=0.4)
        cfg = SolverConfig(params=params, constitutive=h, dt=0.01, t_final=0.03)
        assert len(simulate(st, cfg)) == 4
        assert shapes == [(2, g.n_nodes)] * 4 * 3

    def test_strain_rate_energy_series_takes_one_call_per_block(self, monkeypatch):
        # the dissipation rates of a block of reports come from one checked
        # call on its (r, N) stresses, not one call per row
        import slve.pde

        g = periodic_grid(32)
        gfun = make_constitutive("saturating", beta=1.0, a=2.0)
        st = gaussian_bump_state(g, gfun, center=np.pi, width=0.5, amplitude=0.4)
        cfg = SolverConfig(params=ModelParams(variant="strain_rate", nu=0.5),
                           constitutive=gfun, dt=1e-3, t_final=9e-3)
        traj = simulate(st, cfg)
        shapes = _record_checked_calls(monkeypatch)
        monkeypatch.setattr(slve.pde, "_REPORT_BLOCK", 3 * g.n_nodes)
        assert len(energy_series(traj, cfg.params, gfun)) == 8
        assert shapes == [(3, 32), (3, 32), (2, 32)]

    @staticmethod
    def _strain_rate_matches_reference_rk4(boundary):
        # reference: np.roll or one-sided end stencils, v_x taken separately
        # for the stress, eps_t = v_x, out-of-place RHS and RK4 stage sums
        # with every division written out; the fast path must agree bit for
        # bit, the landing step included
        g = Grid1D(length=L, n_cells=48, boundary=boundary)
        gfun = make_constitutive("saturating", beta=1.0, a=2.0)
        nu, dx = 0.5, g.spacing
        dt = 0.2 * dx * dx / nu
        st0 = gaussian_bump_state(g, gfun, center=np.pi, width=0.5, amplitude=0.4)
        cfg = SolverConfig(
            params=ModelParams(variant="strain_rate", nu=nu),
            constitutive=gfun,
            dt=dt,
            t_final=40.5 * dt,
            output_stride=10,
        )

        def d1(u):
            if boundary == "periodic":
                return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)
            du = np.empty_like(u)
            du[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
            du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dx)
            du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dx)
            return du

        def stress(v, eps):
            return np.asarray(gfun.inverse(eps + nu * d1(v)), dtype=float)

        def rhs(Y):
            v, eps = Y
            vx = d1(v)
            T = stress(v, eps)
            dY = np.array([d1(T), vx])
            if boundary == "dirichlet_zero":
                dY[:, 0] = 0.0
                dY[:, -1] = 0.0
            return dY

        Y = np.array([st0.v.values, st0.eps.values])
        ref = [Y]
        for i, h in enumerate([dt] * 40 + [cfg.t_final - 40 * dt]):
            k1 = rhs(Y)
            k2 = rhs(Y + 0.5 * h * k1)
            k3 = rhs(Y + 0.5 * h * k2)
            k4 = rhs(Y + h * k3)
            Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if (i + 1) % 10 == 0 or i == 40:
                ref.append(Y)

        states = simulate(st0, cfg)
        assert len(states) == len(ref) == 6
        for s, Yr in zip(states, ref):
            assert np.array_equal(s.v.values, Yr[0])
            assert np.array_equal(s.eps.values, Yr[1])
            assert np.array_equal(s.stress.values, stress(Yr[0], Yr[1]))

    def test_strain_rate_simulate_matches_reference_rk4(self):
        self._strain_rate_matches_reference_rk4("periodic")

    def test_strain_rate_pinned_matches_reference_rk4(self):
        # the kernel's one-sided end rows and the pinned ends
        self._strain_rate_matches_reference_rk4("dirichlet_zero")

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet_zero"])
    @pytest.mark.parametrize(
        "params", [ModelParams(variant="stress_rate", gamma=0.5), ModelParams(variant="elastic")],
        ids=["stress_rate", "elastic"],
    )
    def test_simulate_matches_reference_rk4(self, params, boundary):
        # reference: np.roll or one-sided end stencils, out-of-place RHS and
        # RK4 stage sums; simulate must agree bit for bit, the landing step
        # included
        g = Grid1D(length=L, n_cells=48, boundary=boundary)
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        dx = g.spacing
        dt = 0.4 * dx
        st0 = gaussian_bump_state(g, h, center=np.pi, width=0.5, amplitude=0.8)
        cfg = SolverConfig(params=params, constitutive=h, dt=dt, t_final=40.5 * dt, output_stride=10)

        def d1(u):
            if boundary == "periodic":
                return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)
            du = np.empty_like(u)
            du[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
            du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dx)
            du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dx)
            return du

        if params.variant == "stress_rate":
            def rhs(Y):
                v, eps, T = Y
                return np.array([d1(T), d1(v), (h.value(T) - eps) / params.gamma])

            Y = np.array([st0.v.values, st0.eps.values, st0.stress.values])

            def snap(Y):
                return Y

        else:
            def rhs(Y):
                v, T = Y
                return np.array([d1(T), d1(v) / h.derivative(T)])

            Y = np.array([st0.v.values, st0.stress.values])

            def snap(Y):
                return np.array([Y[0], h.value(Y[1]), Y[1]])

        def pinned(dY):
            if boundary == "dirichlet_zero":
                dY[:, 0] = 0.0
                dY[:, -1] = 0.0
            return dY

        ref = [snap(Y)]
        for i, step in enumerate([dt] * 40 + [cfg.t_final - 40 * dt]):
            k1 = pinned(rhs(Y))
            k2 = pinned(rhs(Y + 0.5 * step * k1))
            k3 = pinned(rhs(Y + 0.5 * step * k2))
            k4 = pinned(rhs(Y + step * k3))
            Y = Y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if (i + 1) % 10 == 0 or i == 40:
                ref.append(snap(Y))

        traj = simulate(st0, cfg)
        assert len(traj) == len(ref) == 6
        assert np.all(traj.fields == np.array(ref))
        assert traj.t[-1] == cfg.t_final

    @pytest.mark.parametrize(
        "gfun, rel",
        [
            (make_constitutive("saturating", beta=1.0, a=2.0), 1e-14),
            (make_constitutive("saturating", beta=1.0, a=1.5), 1e-14),
            # no inverse: the residual form carried the Newton residual over nu
            (
                custom_constitutive(
                    lambda T: T / np.sqrt(1.0 + T * T),
                    derivative=lambda T: (1.0 + T * T) ** -1.5,
                    bound=1.0,
                ),
                1e-11,
            ),
        ],
        ids=["saturating_a2", "saturating_a1.5", "custom_no_inverse"],
    )
    def test_strain_rate_simulate_matches_residual_form(self, gfun, rel):
        # eps_t = v_x equals the relaxation form v_x + (g(T) - eps - nu*v_x)/nu
        # up to the inversion's rounding; a hand-written RK4 on that form
        # stays within rel of the largest field
        g = periodic_grid(32)
        nu, dx = 0.5, g.spacing
        dt = 0.2 * dx * dx / nu
        st0 = gaussian_bump_state(g, gfun, center=np.pi, width=0.5, amplitude=0.4)
        cfg = SolverConfig(
            params=ModelParams(variant="strain_rate", nu=nu),
            constitutive=gfun,
            dt=dt,
            t_final=96 * dt,
            output_stride=32,
        )

        def d1(u):
            return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)

        def stress(v, eps):
            return invert(gfun, eps + nu * d1(v))

        def rhs(Y):
            v, eps = Y
            vx = d1(v)
            T = stress(v, eps)
            return np.array([d1(T), vx + (gfun.value(T) - eps - nu * vx) / nu])

        Y = np.array([st0.v.values, st0.eps.values])
        ref = [Y]
        for i in range(96):
            k1 = rhs(Y)
            k2 = rhs(Y + 0.5 * dt * k1)
            k3 = rhs(Y + 0.5 * dt * k2)
            k4 = rhs(Y + dt * k3)
            Y = Y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if (i + 1) % 32 == 0:
                ref.append(Y)

        traj = simulate(st0, cfg)
        expected = np.array([[v, eps, stress(v, eps)] for v, eps in ref])
        assert traj.fields.shape == expected.shape
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(traj.fields - expected)) <= rel * scale


class TestNoBufferLeaks:
    """_march reuses its buffers, so nothing a run returns may point at them."""

    @pytest.mark.parametrize(
        "params",
        [ModelParams(variant="stress_rate", gamma=0.7), ModelParams(variant="strain_rate", nu=0.5),
         ModelParams(variant="elastic")],
        ids=["stress_rate", "strain_rate", "elastic"],
    )
    def test_trajectory_shares_no_memory_with_the_march_buffers(self, monkeypatch, params):
        import slve.pde

        seen = []
        original = slve.pde._march

        def recording(*args):
            for Y in original(*args):
                seen.append(Y)
                yield Y

        monkeypatch.setattr(slve.pde, "_march", recording)
        g = periodic_grid(32)
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        cfg = SolverConfig(params=params, constitutive=h, dt=1e-3, t_final=5.5e-3)
        traj = simulate(gaussian_bump_state(g, h, np.pi, 0.5, 0.4), cfg)
        assert len(traj) == len(seen) + 1 == 7
        assert not any(np.shares_memory(traj.fields, Y) or np.shares_memory(traj.t, Y) for Y in seen)
        # the snapshots differ, so no row was recorded as a reference to a buffer
        assert all(np.any(a != b) for a, b in zip(traj.v[1:], traj.v[2:]))

    def test_relax_stress_arrays_are_independent(self):
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        eps = np.array([0.1, 0.2, 0.3])
        a = relax_stress(h, eps, 0.5, t_final=0.1, dt=1e-2)
        a_copy = a.copy()
        b = relax_stress(h, -eps, 0.5, t_final=0.1, dt=1e-2)
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, a_copy) and np.array_equal(b, -a)


class TestTrajectory:
    def test_validation(self):
        g = periodic_grid(8)
        rest = np.zeros((2, 3, g.n_nodes))
        assert len(Trajectory(np.array([0.0, 0.1]), rest, g)) == 2
        with pytest.raises(InvalidParameterError, match="shape"):
            Trajectory(np.array([0.0, 0.1]), np.zeros((2, 3, 9)), g)
        with pytest.raises(InvalidParameterError, match="shape"):
            Trajectory(np.array([0.0, 0.1, 0.2]), rest, g)
        bad = rest.copy()
        bad[1, 2, 3] = np.nan
        with pytest.raises(InvalidParameterError, match="finite"):
            Trajectory(np.array([0.0, 0.1]), bad, g)
        for t in ([0.0, 0.0], [0.1, 0.0]):
            with pytest.raises(InvalidParameterError, match="increasing"):
                Trajectory(np.array(t), rest, g)

    def test_read_only_and_sequence_access(self):
        g = periodic_grid(16)
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        cfg = SolverConfig(
            params=ModelParams(variant="stress_rate", gamma=1.0), constitutive=h,
            dt=0.01, t_final=0.095, output_stride=3,
        )
        traj = simulate(gaussian_bump_state(g, h, np.pi, 0.5, 0.4), cfg)
        # t = 0, 0.03, 0.06, 0.09 and the landing time 0.095
        assert len(traj) == 5 and traj.fields.shape == (5, 3, 16)
        assert traj.t[-1] == 0.095
        for block in (traj.t, traj.fields, traj.v, traj.eps, traj.stress):
            assert not block.flags.writeable
        with pytest.raises(ValueError):
            traj.stress[0, 0] = 1.0
        last = traj[-1]
        assert isinstance(last, SimState) and last.t == 0.095 and last.grid == g
        # its fields are read-only views of the block, with its bits
        for row, name in enumerate(("v", "eps", "stress")):
            values = getattr(last, name).values
            assert values.tobytes() == traj.fields[-1, row].tobytes()
            assert np.shares_memory(values, traj.fields) and not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1.0
        middle = traj[1:3]
        assert isinstance(middle, Trajectory)
        assert np.array_equal(middle.fields, traj.fields[1:3])
        assert [s.t for s in traj] == traj.t.tolist()

    def test_simulate_builds_no_field_per_snapshot(self, monkeypatch):
        g = periodic_grid(32)
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        st0 = gaussian_bump_state(g, h, np.pi, 0.5, 0.4)
        cfg = SolverConfig(
            params=ModelParams(variant="strain_rate", nu=0.5), constitutive=h,
            dt=0.2 * g.spacing**2 / 0.5, t_final=20.5 * 0.2 * g.spacing**2 / 0.5,
        )
        built = []
        original = Field.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(Field, "__post_init__", counting)
        assert len(simulate(st0, cfg)) > 10
        assert built == []

    def test_snapshots_and_energy_series_build_a_field_per_total_only(self, monkeypatch):
        g = periodic_grid(16)
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        p = ModelParams(variant="stress_rate", gamma=1.0)
        cfg = SolverConfig(params=p, constitutive=h, dt=0.01, t_final=0.1)
        traj = simulate(gaussian_bump_state(g, h, np.pi, 0.5, 0.4), cfg)
        built = []
        original = Field.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(Field, "__post_init__", counting)
        states = [traj[i] for i in range(len(traj))]
        assert len(states) == 11 and built == []
        assert len(energy_series(traj, p, h)) == 9
        # the one Field is each snapshot's total_energy density
        assert len(built) == len(traj)

    @pytest.mark.parametrize(
        "dt,t_final,stride",
        [(0.01, 0.07, 1), (0.01, 0.075, 3), (0.01, 0.08, 4), (0.01, 0.085, 4),
         (0.01, 0.03, 10), (0.1, 0.3, 2)],
    )
    def test_snapshot_count_matches_simulate(self, dt, t_final, stride):
        # the CLI refuses short energy/audit runs by this count before running
        g = periodic_grid(16)
        h = make_constitutive("linear")
        cfg = SolverConfig(
            params=ModelParams(variant="elastic"), constitutive=h,
            dt=dt, t_final=t_final, output_stride=stride,
        )
        assert plan(zero_state(g), cfg).snapshots == len(simulate(zero_state(g), cfg))

    @pytest.mark.parametrize(
        "dt,t_final,stride,steps,shortened",
        [(0.1, 0.3, 1, 3, False), (0.01, 0.075, 3, 8, True), (0.01, 0.03, 10, 3, False)],
        ids=["exact_landing", "shortened_landing", "stride_over_steps"],
    )
    def test_plan_is_the_schedule_simulate_steps(self, monkeypatch, dt, t_final, stride, steps,
                                                 shortened):
        import slve.pde

        calls, lengths = [], []
        make_rhs, rk4_step = slve.pde._make_rhs, slve.pde._rk4_step

        def counting_rhs(*args):
            rhs = make_rhs(*args)

            def counted(Y, out):
                calls.append(1)
                rhs(Y, out)

            return counted

        def recording_step(rhs, Y, h, work, out):
            lengths.append(h)
            return rk4_step(rhs, Y, h, work, out)

        monkeypatch.setattr(slve.pde, "_make_rhs", counting_rhs)
        monkeypatch.setattr(slve.pde, "_rk4_step", recording_step)
        g = periodic_grid(16)
        cfg = SolverConfig(params=ModelParams(variant="stress_rate", gamma=1.0),
                           constitutive=make_constitutive("linear"), dt=dt, t_final=t_final,
                           output_stride=stride)
        p = plan(zero_state(g), cfg)
        traj = simulate(zero_state(g), cfg)
        assert p.steps == steps and len(calls) == 4 * p.steps and len(lengths) == p.steps
        assert lengths[:-1] == [dt] * (steps - 1) and lengths[-1] == p.last_step
        assert (p.last_step < dt) if shortened else (p.last_step == dt)
        assert len(traj) == p.snapshots and traj.t[-1] == t_final


class TestStepper:
    def test_equilibrium_holds_over_many_steps(self):
        g = periodic_grid(32)
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        p = ModelParams(variant="strain_rate", nu=1.0)
        dt = 0.2 * g.spacing**2
        cfg = SolverConfig(params=p, constitutive=h, dt=dt, t_final=1000 * dt)
        states = simulate(uniform_state(g, h, 0.4), cfg)
        drift = np.max(np.abs(states[-1].stress.values - 0.4))
        assert drift < 1e-12

    def test_exact_landing_on_t_final(self):
        g = periodic_grid(32)
        h = make_constitutive("linear")
        p = ModelParams(variant="elastic")
        cfg = SolverConfig(params=p, constitutive=h, dt=0.03, t_final=0.1)
        states = simulate(zero_state(g), cfg)
        assert states[-1].t == pytest.approx(0.1, abs=1e-15)
        # no shortened step: 3*0.1 rounds to 0.30000000000000004
        cfg = SolverConfig(params=p, constitutive=h, dt=0.1, t_final=0.3)
        states = simulate(zero_state(periodic_grid(16)), cfg)
        assert len(states) == 4
        assert states.t[-1] == 0.3

    @pytest.mark.parametrize(
        "variant,kw,expect",
        [
            ("stress_rate", dict(gamma=1.0), lambda dx: 0.5 * dx),
            ("strain_rate", dict(nu=2.0), lambda dx: 0.125 * dx * dx),
            ("elastic", dict(), lambda dx: 0.5 * dx),
        ],
    )
    def test_stability_ceiling_enforced(self, variant, kw, expect):
        g = periodic_grid(64)
        h = make_constitutive("linear")
        p = ModelParams(variant=variant, **kw)
        cfg = SolverConfig(params=p, constitutive=h, dt=1e-6, t_final=1.0)
        ceiling = plan(zero_state(g), cfg).ceiling
        assert ceiling == pytest.approx(expect(g.spacing))
        cfg = SolverConfig(params=p, constitutive=h, dt=1.01 * ceiling, t_final=1.0)
        with pytest.raises(InvalidParameterError, match="ceiling"):
            simulate(zero_state(g), cfg)

    def test_small_gamma_caps_the_step(self):
        g = periodic_grid(8)  # dx large, so the relaxation time dominates
        p = ModelParams(variant="stress_rate", gamma=0.01)
        cfg = SolverConfig(params=p, constitutive=make_constitutive("linear"), dt=1e-6, t_final=1.0)
        assert plan(zero_state(g), cfg).ceiling == pytest.approx(0.005)

    def test_solver_config_validation(self):
        h = make_constitutive("linear")
        p = ModelParams(variant="elastic")
        with pytest.raises(InvalidParameterError, match="dt must be positive, got 0.0"):
            SolverConfig(params=p, constitutive=h, dt=0.0, t_final=1.0)
        with pytest.raises(InvalidParameterError, match="dt = 2.0 exceeds t_final = 1.0"):
            SolverConfig(params=p, constitutive=h, dt=2.0, t_final=1.0)
        # a non-finite stride is refused before int() can overflow on it
        for stride in (0, np.inf, np.nan):
            with pytest.raises(InvalidParameterError):
                SolverConfig(params=p, constitutive=h, dt=0.1, t_final=1.0, output_stride=stride)

    def test_blow_up_carries_time_and_partial_history(self):
        g = periodic_grid(64)
        h = make_constitutive("linear")
        p = ModelParams(variant="stress_rate", gamma=1.0)
        cfg = SolverConfig(
            params=p, constitutive=h, dt=0.02, t_final=30.0, output_stride=50,
            blowup_threshold=100.0,
        )
        st0 = single_mode_state(g, h, k=1.0, amplitude=1.0)
        with pytest.raises(BlowUpError) as ei:
            simulate(st0, cfg)
        assert 0.0 < ei.value.t < 30.0
        assert ei.value.max_abs_stress > 0.0
        partial = ei.value.partial
        assert isinstance(partial, Trajectory) and len(partial) >= 1
        assert partial.t[-1] < ei.value.t
        assert np.max(np.abs(partial.stress)) <= 100.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_non_finite_state_is_a_blow_up(self, variant, bad):
        import slve.pde

        n_rows = 3 if variant is Variant.STRESS_RATE else 2
        Y = np.full((n_rows, 8), 0.25)
        Y[0, 1] = -0.9  # the largest entry, in v
        Y[-1, 2] = 0.75  # the largest of the last row: the stress but for strain-rate
        slve.pde._check_blowup(Y, 0.5, variant, 1.0)  # finite and below the threshold
        # the stress row for the variants that carry one, every entry otherwise
        reported = 0.9 if variant is Variant.STRAIN_RATE else 0.75
        # every evolved row is named: (v, eps, stress), (v, eps) or (v, stress)
        names = {Variant.STRESS_RATE: ("v", "eps", "stress"), Variant.STRAIN_RATE: ("v", "eps"),
                 Variant.ELASTIC: ("v", "stress")}[variant]
        last = names[-1]
        for row, field in enumerate(names):
            Yb = Y.copy()
            Yb[row, 5] = bad
            with pytest.raises(BlowUpError) as ei:
                slve.pde._check_blowup(Yb, 0.5, variant, 1.0)
            assert ei.value.t == 0.5
            assert ei.value.max_abs_stress == reported
            assert (ei.value.field, ei.value.node) == (field, 5)
            assert f"in {field} at node 5" in str(ei.value)
        # a stress row without a finite entry reports an infinite stress
        Yb = Y.copy()
        Yb[-1] = bad
        with pytest.raises(BlowUpError) as ei:
            slve.pde._check_blowup(Yb, 0.5, variant, 1.0)
        assert ei.value.max_abs_stress == (0.9 if variant is Variant.STRAIN_RATE else np.inf)
        assert (ei.value.field, ei.value.node) == (last, 0)
        # the first bad entry in row order is named, past the threshold or not finite
        Yb = Y.copy()
        Yb[-1, 2] = bad
        Yb[0, 6] = -1.5
        with pytest.raises(BlowUpError) as ei:
            slve.pde._check_blowup(Yb, 0.5, variant, 1.0)
        assert (ei.value.field, ei.value.node) == ("v", 6)

    def test_strain_limit_carries_node_and_partial_history(self):
        # the first RK4 stage of this steep bump pushes eps + nu*v_x past 1
        g = periodic_grid(64)
        gfun = make_constitutive("saturating", beta=1.0, a=2.0)
        cfg = SolverConfig(
            params=ModelParams(variant="strain_rate", nu=0.05), constitutive=gfun,
            dt=0.002, t_final=2.0, output_stride=10,
        )
        st0 = gaussian_bump_state(g, gfun, center=np.pi, width=0.3, amplitude=30.0)
        with pytest.raises(StrainLimitExceededError) as ei:
            simulate(st0, cfg)
        assert ei.value.node == 29
        assert ei.value.value > 1.0
        partial = ei.value.partial
        assert isinstance(partial, Trajectory) and len(partial) == 1
        # the initial snapshot: the evolved rows as given, the stress rebuilt
        assert partial.t.tolist() == [0.0]
        assert np.array_equal(partial.eps[0], st0.eps.values)
        assert np.allclose(partial.stress[0], st0.stress.values, rtol=1e-9, atol=0.0)

    def test_dirichlet_ends_stay_pinned(self):
        # pinning acts on the evolved fields: v and eps never leave zero at
        # the walls.  The reconstructed stress is NOT pinned; the viscous
        # branch of this model spreads v with diffusivity nu, so a small
        # wall stress appears immediately and that is correct behavior.
        g = Grid1D(length=1.0, n_cells=40, boundary="dirichlet_zero")
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        p = ModelParams(variant="strain_rate", nu=0.5)
        cfg = SolverConfig(
            params=p, constitutive=h, dt=0.2 * g.spacing**2, t_final=0.05
        )
        st0 = gaussian_bump_state(g, h, center=0.5, width=0.08, amplitude=0.3)
        states = simulate(st0, cfg)
        for st in states:
            assert st.v.values[0] == 0.0 and st.v.values[-1] == 0.0
            # end strain is frozen at its initial (tail) value, not re-zeroed
            assert st.eps.values[0] == st0.eps.values[0]
            assert st.eps.values[-1] == st0.eps.values[-1]
            assert abs(st.stress.values[0]) < 0.1 * 0.3

    def test_dirichlet_stress_rate_pins_all_evolved_fields(self):
        g = Grid1D(length=1.0, n_cells=40, boundary="dirichlet_zero")
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        p = ModelParams(variant="stress_rate", gamma=1.0)
        cfg = SolverConfig(params=p, constitutive=h, dt=0.01, t_final=0.2)
        st0 = gaussian_bump_state(g, h, center=0.5, width=0.08, amplitude=0.3)
        states = simulate(st0, cfg)
        final = states[-1]
        assert final.v.values[0] == 0.0 and final.v.values[-1] == 0.0
        # end stress never moves: it keeps the (tiny) initial tail value
        assert final.stress.values[0] == st0.stress.values[0]
        assert final.stress.values[-1] == st0.stress.values[-1]


def grid_kappa(grid):
    """Modified wavenumbers sin(k dx)/dx of the rfft modes k = 0 .. N/2."""
    k = 2.0 * np.pi * np.arange(grid.n_cells // 2 + 1) / grid.length
    return np.sin(k * grid.spacing) / grid.spacing


def symbol(variant, coeff, kappa):
    """M(kappa), shape (m, r, r): d/dt of the Fourier coefficients of the
    rows simulate evolves, for rho = 1 and the response h(T) = T.  The
    centred stencil takes each mode to i*kappa times itself."""
    ik = 1j * np.asarray(kappa, dtype=float)
    o = np.zeros_like(ik)
    if variant == "stress_rate":  # (v, eps, T): T_t = (T - eps)/gamma
        rows = [[o, o, ik], [ik, o, o], [o, o - 1.0 / coeff, o + 1.0 / coeff]]
    elif variant == "strain_rate":  # (v, eps): T = eps + nu*v_x
        rows = [[ik * ik * coeff, ik], [ik, o]]
    else:  # (v, T)
        rows = [[o, ik], [ik, o]]
    return np.moveaxis(np.array(rows), -1, 0)


def rk4_polynomial(Z):
    """R(Z) = I + Z + Z^2/2 + Z^3/6 + Z^4/24 for a stack of matrices."""
    Z2 = Z @ Z
    Z3 = Z2 @ Z
    return np.eye(Z.shape[-1]) + Z + Z2 / 2.0 + Z3 / 6.0 + (Z3 @ Z) / 24.0


class TestDiscreteDispersion:
    """With h(T) = T on a periodic grid, simulate is a linear recurrence:
    every RK4 step of length h takes the Fourier coefficients c of mode k
    to R(h M(kappa)) c, kappa = sin(k dx)/dx, and the eigenvalues of M(kappa)
    are the dispersion roots at kappa."""

    CASES = {
        # variant: (parameters, dt as a function of dx, full steps)
        "stress_rate": (ModelParams(variant="stress_rate", gamma=1.0), lambda dx: 0.4 * dx, 100),
        "strain_rate": (ModelParams(variant="strain_rate", nu=0.5), lambda dx: 0.4 * dx * dx, 300),
        "elastic": (ModelParams(variant="elastic"), lambda dx: 0.4 * dx, 300),
    }

    @pytest.mark.parametrize("landing", [False, True], ids=["exact", "landing"])
    @pytest.mark.parametrize("stride", [1, 7], ids=["stride1", "stride7"])
    @pytest.mark.parametrize("variant", list(CASES))
    def test_every_mode_follows_rk4(self, variant, stride, landing):
        params, step, n_full = self.CASES[variant]
        coeff = params.coefficient
        g = periodic_grid(64)
        dt = step(g.spacing)
        t_final = (n_full + 0.5 if landing else n_full) * dt
        lin = make_constitutive("linear")
        rng = np.random.default_rng(11)
        # every mode excited, the Nyquist one included
        v, eps, T = (Field(1e-3 * rng.standard_normal(g.n_nodes), g) for _ in range(3))
        cfg = SolverConfig(params=params, constitutive=lin, dt=dt, t_final=t_final,
                           output_stride=stride, blowup_threshold=1e12)
        traj = simulate(SimState(0.0, v, eps, T), cfg)

        kappa = grid_kappa(g)
        M = symbol(variant, coeff, kappa)
        # the symbol's eigenvalues are the dispersion roots at kappa
        eig = np.linalg.eigvals(M)
        if variant == "elastic":
            roots = np.stack([1j * kappa, -1j * kappa], axis=1)
        else:
            roots = solve_dispersion(params, kappa).roots.astype(complex)
        # each mode's roots against its eigenvalues in their best order
        gap = np.min(
            [np.max(np.abs(eig[:, list(perm)] - roots), axis=1)
             for perm in itertools.permutations(range(roots.shape[1]))],
            axis=0,
        )
        assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(roots).max(axis=1)))

        # march the coefficients of the evolved rows, snapshot by snapshot
        evolved = {"stress_rate": [0, 1, 2], "strain_rate": [0, 1], "elastic": [0, 2]}[variant]
        c = np.fft.rfft(traj.fields[0][evolved], axis=-1).T[..., None]  # (m, r, 1)
        steps = [dt] * n_full + ([t_final - n_full * dt] if landing else [])
        factor = {h: rk4_polynomial(h * M) for h in set(steps)}
        expected = [c]
        for i, h in enumerate(steps, 1):
            c = factor[h] @ c
            if i % stride == 0 or i == len(steps):
                expected.append(c)
        assert len(traj) == len(expected)
        assert traj.t[-1] == t_final

        for fields, c in zip(traj.fields, expected):
            got = np.fft.rfft(fields, axis=-1)
            want = np.empty_like(got)
            want[evolved] = c[..., 0].T
            if variant == "strain_rate":  # the reconstructed stress eps + nu*v_x
                want[2] = want[1] + coeff * 1j * kappa * want[0]
            elif variant == "elastic":  # the strain h(T) = T
                want[1] = want[2]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(got))

    def test_nyquist_mode_is_invisible_to_the_strain_rate_scheme(self):
        # N even: the centred stencil sends the checkerboard to 0, so kappa = 0,
        # M = 0 and R = I; the strain-rate scheme neither damps nor moves it,
        # and the dissipation sum of (D1 T)^2 does not see it
        g = periodic_grid(64)
        checker = (-1.0) ** np.arange(g.n_nodes)
        assert np.all(first_derivative(checker, g.spacing, g.boundary) == 0.0)
        p = ModelParams(variant="strain_rate", nu=0.5)
        dt = 0.2 * g.spacing**2 / p.nu
        assert np.array_equal(rk4_polynomial(dt * symbol("strain_rate", p.nu, [0.0]))[0], np.eye(2))
        lin = make_constitutive("linear")
        st0 = SimState(0.0, Field(0.3 * checker, g), Field(0.2 * checker, g), Field(0.0 * checker, g))
        cfg = SolverConfig(params=p, constitutive=lin, dt=dt, t_final=300 * dt, output_stride=30)
        traj = simulate(st0, cfg)
        assert len(traj) == 11
        assert np.all(traj.v == 0.3 * checker) and np.all(traj.eps == 0.2 * checker)
        assert np.all(traj.stress == 0.2 * checker)
        reports = energy_series(traj, p, lin)
        assert all(r.dissipation_rate == 0.0 and r.balance_residual == 0.0 for r in reports)

    def test_stress_rate_growth_is_capped_at_the_grid_scale(self):
        # kappa = sin(k dx)/dx peaks at 1/dx (k dx = pi/2) and the growing
        # root rises with kappa, so no grid mode outgrows the root at 1/dx;
        # that cap rises as dx shrinks, so the fastest grid mode blows up
        # sooner on a finer grid
        lin = make_constitutive("linear")
        p = ModelParams(variant="stress_rate", gamma=1.0)
        caps, blow_up_times = [], []
        for n in (32, 64, 128):
            g = periodic_grid(n)
            rates = stress_rate_dispersion(p.gamma, grid_kappa(g)).positive_real_root
            cap = stress_rate_dispersion(p.gamma, 1.0 / g.spacing).positive_real_root
            assert np.argmax(rates) == n // 4
            assert np.max(rates) == pytest.approx(cap, rel=1e-15)
            caps.append(cap)
            fastest = single_mode_state(g, lin, k=n / 4, amplitude=1e-6)
            cfg = SolverConfig(params=p, constitutive=lin, dt=0.005, t_final=10.0,
                               output_stride=100, blowup_threshold=1.0)
            with pytest.raises(BlowUpError) as ei:
                simulate(fastest, cfg)
            blow_up_times.append(ei.value.t)
        assert caps[0] < caps[1] < caps[2]
        assert blow_up_times[0] > blow_up_times[1] > blow_up_times[2]


class TestEnergy:
    def test_stored_energy_examples(self):
        lin = make_constitutive("linear")
        # strain-rate form: T*g(T) - G1(T) = 4 - 2 = 2 at T = 2
        assert stored_energy_density("strain_rate", lin, 2.0, None) == pytest.approx(2.0)
        # stress-rate form: T*eps - H(T) = 2*1 - 2 = 0
        assert stored_energy_density("stress_rate", lin, 2.0, 1.0) == pytest.approx(0.0)

    def test_strain_rate_density_nonnegative(self):
        g = make_constitutive("saturating", beta=1.0, a=1.0)
        T = np.linspace(-3.0, 3.0, 301)
        w = stored_energy_density("strain_rate", g, T, None)
        assert np.min(w) >= 0.0

    def test_total_energy_of_rest_state_is_zero(self):
        g = periodic_grid()
        h = make_constitutive("linear")
        p = ModelParams(variant="stress_rate", gamma=1.0)
        assert total_energy(zero_state(g), p, h) == pytest.approx(0.0, abs=1e-15)

    def test_balance_residual_shrinks_with_observation_spacing(self):
        grid = periodic_grid(128)
        f = make_constitutive("saturating", beta=1.0, a=2.0)
        p = ModelParams(variant="strain_rate", nu=1.0)
        dt = 0.2 * grid.spacing**2
        st0 = gaussian_bump_state(grid, f, center=np.pi, width=0.5, amplitude=0.4)
        rels = []
        for stride in (64, 16):
            cfg = SolverConfig(params=p, constitutive=f, dt=dt, t_final=0.4, output_stride=stride)
            reps = energy_series(simulate(st0, cfg), p, f)
            mid = min(reps, key=lambda r: abs(r.t - 0.2))
            rels.append(mid.balance_residual / mid.dissipation_rate)
        # quadratic in the sampling interval: 16x fewer steps per sample -> ~16x drop
        assert rels[1] < rels[0] / 8.0

    def test_strain_rate_total_energy_monotone(self):
        grid = periodic_grid(96)
        f = make_constitutive("saturating", beta=1.0, a=2.0)
        p = ModelParams(variant="strain_rate", nu=1.0)
        dt = 0.2 * grid.spacing**2
        cfg = SolverConfig(params=p, constitutive=f, dt=dt, t_final=0.5, output_stride=20)
        st0 = gaussian_bump_state(grid, f, center=np.pi, width=0.6, amplitude=0.4)
        states = simulate(st0, cfg)
        totals = [total_energy(s, p, f) for s in states]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_stress_rate_total_energy_nonincreasing_within_tolerance(self):
        grid = periodic_grid(128)
        f = make_constitutive("saturating", beta=1.0, a=1.0)
        p = ModelParams(variant="stress_rate", gamma=1.0)
        cfg = SolverConfig(params=p, constitutive=f, dt=0.01, t_final=1.0, output_stride=10)
        st0 = gaussian_bump_state(grid, f, center=np.pi, width=0.5, amplitude=0.4)
        states = simulate(st0, cfg)
        totals = [total_energy(s, p, f) for s in states]
        assert all(b <= a + 1e-6 for a, b in zip(totals, totals[1:]))

    def test_energy_report_window_validation(self):
        g = periodic_grid(16)
        h = make_constitutive("linear")
        p = ModelParams(variant="elastic")
        rest = np.zeros((3, 3, g.n_nodes))
        with pytest.raises(InvalidParameterError, match="energy series needs >= 3 states, got 2"):
            energy_series(Trajectory(np.array([0.0, 0.1]), rest[:2], g), p, h)
        # the only interior sample has unequal neighbor spacings
        with pytest.raises(InvalidParameterError, match="no uniformly spaced interior sample"):
            energy_series(Trajectory(np.array([0.0, 0.1, 0.3]), rest, g), p, h)

    @pytest.mark.parametrize(
        "variant,kw,dt",
        [("stress_rate", dict(gamma=1.0), 0.01), ("strain_rate", dict(nu=1.0), 2e-4),
         ("elastic", dict(), 0.01)],
    )
    def test_energy_series_matches_per_window_reference(self, variant, kw, dt):
        # reference: each report evaluated on its own 3-state window, the two
        # neighbor totals recomputed per window, as energy reports once were;
        # dirichlet_zero takes the trapezoid weights, and at N = 512 the
        # reports span a full and a partial block
        import slve.pde

        f = make_constitutive("saturating", beta=1.0, a=2.0)
        p = ModelParams(variant=variant, **kw)
        for boundary, n_cells in (("periodic", 64), ("dirichlet_zero", 64), ("periodic", 512)):
            grid = Grid1D(length=L, n_cells=n_cells, boundary=boundary)
            step = dt * (64 / n_cells) ** (2 if variant == "strain_rate" else 1)
            cfg = SolverConfig(params=p, constitutive=f, dt=step, t_final=30.5 * step,
                               output_stride=3)
            states = simulate(gaussian_bump_state(grid, f, np.pi, 0.5, 0.4), cfg)

            def integral(values):
                if boundary == "periodic":
                    return float(grid.spacing * np.sum(values))
                return float(np.trapezoid(values, dx=grid.spacing))

            def derivative(T):
                width = 2.0 * grid.spacing
                if boundary == "periodic":
                    return (np.roll(T, -1) - np.roll(T, 1)) / width
                ends = [(-3.0 * T[0] + 4.0 * T[1] - T[2]) / width,
                        (3.0 * T[-1] - 4.0 * T[-2] + T[-3]) / width]
                return np.concatenate([ends[:1], (T[2:] - T[:-2]) / width, ends[1:]])

            def reference(prev_s, mid_s, next_s):
                d1, d2 = mid_s.t - prev_s.t, next_s.t - mid_s.t
                T, eps = mid_s.stress.values, mid_s.eps.values
                kinetic = integral(0.5 * mid_s.v.values**2)
                internal = integral(stored_energy_density(variant, f, T, eps))
                if variant == "stress_rate":
                    T_t = (f.value(T) - eps) / p.gamma
                    diss = integral(p.gamma * T_t * T_t)
                elif variant == "strain_rate":
                    T_x = derivative(T)
                    diss = integral(T_x * T_x) * p.nu
                else:
                    diss = 0.0
                dEdt = (total_energy(next_s, p, f) - total_energy(prev_s, p, f)) / (d1 + d2)
                return (mid_s.t, kinetic, internal, kinetic + internal, diss, abs(dEdt + diss))

            windows = [states[i - 1 : i + 2] for i in range(1, len(states) - 1)]
            # the last interior sample borders the shortened landing step
            expected = [reference(*w) for w in windows[:-1]]
            got = [
                (r.t, r.kinetic, r.internal, r.total, r.dissipation_rate, r.balance_residual)
                for r in energy_series(states, p, f)
            ]
            assert len(got) == len(expected) == 9
            # one block of reports at N = 64; a full and a partial one at N = 512
            rows = slve.pde._REPORT_BLOCK // grid.n_nodes
            assert (rows < 9 < 2 * rows) if n_cells == 512 else (9 <= rows)
            for g_row, e_row in zip(got, expected):
                assert g_row == e_row

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("response", ["saturating_a1.5", "custom"])
    def test_quadrature_reports_match_per_report_evaluation(self, variant, response):
        # a response without a closed-form antiderivative integrates a whole
        # block in one quad call, whose adaptive subdivision (error in the
        # max norm) is shared by the block: each report's energies may then
        # move in the last bits against a one-snapshot evaluation, not past
        # 1e-13 (in the runs here a block and a snapshot end on the same
        # panels, and they agree to the bit)
        if response == "custom":
            f = custom_constitutive(lambda T: T / np.sqrt(1.0 + T * T),
                                    derivative=lambda T: (1.0 + T * T) ** -1.5, bound=1.0)
        else:
            f = make_constitutive("saturating", beta=1.0, a=1.5)
        calls = []

        def antiderivative(T):
            calls.append(np.size(T))
            return f.antiderivative(T)

        counted = dataclasses.replace(f, antiderivative=antiderivative)
        grid = periodic_grid(512)
        p = ModelParams(variant=variant, **{"stress_rate": dict(gamma=1.0),
                                            "strain_rate": dict(nu=1.0)}.get(variant, {}))
        dt = 0.2 * grid.spacing**2 if variant is Variant.STRAIN_RATE else 0.2 * grid.spacing
        cfg = SolverConfig(params=p, constitutive=f, dt=dt, t_final=30.5 * dt, output_stride=3)
        traj = simulate(gaussian_bump_state(grid, f, np.pi, 0.5, 0.4), cfg)
        reports = energy_series(traj, p, counted)
        assert len(reports) == 9
        # one per snapshot total, then one per block of 8 reports: 8 and 1
        assert calls == [grid.n_nodes] * len(traj) + [8 * grid.n_nodes, grid.n_nodes]
        dx = grid.spacing
        for i, r in enumerate(reports, 1):
            st = traj[i]
            T, eps = st.stress.values, st.eps.values
            kinetic = dx * np.sum(0.5 * st.v.values**2)
            internal = dx * np.sum(stored_energy_density(variant, f, T, eps))
            if variant is Variant.STRESS_RATE:
                diss = dx * np.sum((f.value(T) - eps) ** 2)
            elif variant is Variant.STRAIN_RATE:
                diss = dx * np.sum(first_derivative(T, dx, grid.boundary) ** 2)
            else:
                diss = 0.0
            dEdt = (total_energy(traj[i + 1], p, f) - total_energy(traj[i - 1], p, f)) / (
                traj.t[i + 1] - traj.t[i - 1])
            expected = (st.t, kinetic, internal, kinetic + internal, diss, abs(dEdt + diss))
            got = (r.t, r.kinetic, r.internal, r.total, r.dissipation_rate, r.balance_residual)
            assert got == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_elastic_variant_conserves_energy(self):
        grid = periodic_grid(128)
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        p = ModelParams(variant="elastic")
        dt = 0.3 * grid.spacing
        cfg = SolverConfig(params=p, constitutive=h, dt=dt, t_final=1.0, output_stride=5)
        st0 = gaussian_bump_state(grid, h, center=np.pi, width=0.7, amplitude=0.3)
        states = simulate(st0, cfg)
        totals = np.array([total_energy(s, p, h) for s in states])
        # no dissipation channel: drift comes from time integration only
        assert np.max(np.abs(totals - totals[0])) < 1e-6 * max(1.0, abs(totals[0]))
        for s in states:
            manifold_gap = np.max(np.abs(s.eps.values - np.asarray(h(s.stress.values))))
            assert manifold_gap == 0.0


class TestInitialData:
    def test_gaussian_bump_on_manifold(self):
        g = periodic_grid()
        h = make_constitutive("saturating", beta=1.0, a=1.0)
        st = gaussian_bump_state(g, h, center=np.pi, width=0.5, amplitude=0.4)
        assert np.all(st.v.values == 0.0)
        assert np.allclose(st.eps.values, np.asarray(h(st.stress.values)), atol=0.0)

    def test_single_mode_needs_commensurate_k(self):
        g = periodic_grid()
        h = make_constitutive("linear")
        with pytest.raises(InvalidParameterError):
            single_mode_state(g, h, k=1.5, amplitude=0.1)
        st = single_mode_state(g, h, k=3.0, amplitude=0.1)
        assert st.stress.values[0] == pytest.approx(0.1)

    def test_single_mode_on_a_pinned_grid_is_a_sine(self):
        g = Grid1D(length=2.0, n_cells=16, boundary="dirichlet_zero")
        h = make_constitutive("linear")
        k = 1.5 * np.pi  # three half-turns over the length
        st = single_mode_state(g, h, k=k, amplitude=0.1)
        assert np.array_equal(st.stress.values[1:-1], 0.1 * np.sin(k * g.nodes()[1:-1]))
        assert np.all(st.v.values == 0.0)
        assert np.array_equal(st.eps.values, st.stress.values)  # h(T) = T
        # 3*pi has no double value, so its sine is 0 to roundoff only; both
        # ends are set to 0 exactly
        assert st.stress.values[0] == 0.0
        assert st.stress.values[-1] == 0.0
        # the docstring's case: k * length = pi
        st = single_mode_state(Grid1D(np.pi, 16, "dirichlet_zero"), h, k=1.0, amplitude=1.0)
        assert st.stress.values[0] == st.stress.values[-1] == 0.0
        # none, or not a whole number, of half-turns
        for bad in (1.0, 0.0, -0.5 * np.pi):
            with pytest.raises(InvalidParameterError,
                               match="does not vanish at the pinned ends for length 2.0"):
                single_mode_state(g, h, k=bad, amplitude=0.1)

    def test_bad_bump_width_rejected(self):
        g = periodic_grid()
        h = make_constitutive("linear")
        with pytest.raises(InvalidParameterError):
            gaussian_bump_state(g, h, center=np.pi, width=0.0, amplitude=0.1)
        with pytest.raises(InvalidParameterError, match="width"):
            gaussian_bump_state(g, h, center=np.pi, width=np.nan, amplitude=0.1)
        # an infinite center would give the all-zero state without a complaint
        for center in (np.inf, -np.inf, np.nan):
            with pytest.raises(InvalidParameterError, match="center"):
                gaussian_bump_state(g, h, center=center, width=0.5, amplitude=0.1)


class TestRelaxStress:
    def test_linearized_rate_is_inverse_gamma(self):
        lin = make_constitutive("linear")
        a0 = 1e-6
        a1 = relax_stress(lin, 0.0, 1e-2, t_final=0.05, dt=1e-5, T0=a0)
        assert np.log(a1 / a0) / 0.05 == pytest.approx(100.0, rel=1e-6)

    def test_exact_equilibrium_is_stationary(self):
        h = make_constitutive("saturating", beta=1.0, a=2.0)
        T_star = float(h.inverse(0.3))
        assert relax_stress(h, 0.3, 0.1, t_final=1.0, dt=1e-3, T0=T_star) == pytest.approx(
            T_star, abs=1e-14
        )

    def test_array_broadcast(self):
        h = make_constitutive("linear")
        eps = np.array([0.0, 0.1])
        out = relax_stress(h, eps, 1.0, t_final=0.1, dt=1e-3, T0=eps)
        assert out.shape == (2,)

    def test_validation(self):
        h = make_constitutive("linear")
        with pytest.raises(InvalidParameterError, match="stress_rate variant requires gamma > 0"):
            relax_stress(h, 0.0, 0.0, t_final=1.0, dt=0.1)
        with pytest.raises(InvalidParameterError, match="gamma must be finite, got inf"):
            relax_stress(h, 0.0, np.inf, t_final=1.0, dt=0.1)
        with pytest.raises(InvalidParameterError, match="dt = 2.0 exceeds t_final = 1.0"):
            relax_stress(h, 0.0, 1.0, t_final=1.0, dt=2.0)
        with pytest.raises(InvalidParameterError, match="dt must be positive, got nan"):
            relax_stress(h, 0.0, 1.0, t_final=1.0, dt=np.nan)
        with pytest.raises(InvalidParameterError):
            relax_stress(h, 0.0, 1.0, t_final=np.inf, dt=0.1)
        with pytest.raises(InvalidParameterError):
            relax_stress(h, 0.0, 1.0, t_final=np.nan, dt=0.1)
