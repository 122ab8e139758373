"""The benchmark's tracer still reaches the library it wraps.

bench/tracing.py wraps module attributes by name and reads simulate's
return value through len() and indexing; a renamed function or a changed
return type would make traced benchmark runs fail.  These run a tiny
simulate and energy series, a tiny mode analysis, and tiny runs of responses
without closed forms under the tracer and check that the layers the
benchmark's self-test requires recorded calls, and that restore() puts every
original back.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module("tracing")
    yield module
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def _lookup(module_name, path):
    owner = importlib.import_module(f"slve.{module_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return getattr(owner, attr)


def test_tracer_wraps_and_restores_the_pde_layers(tracing):
    originals = [_lookup(m, p) for _, m, p in tracing.WRAPPED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # look everything up on the submodules, as the benchmark does
        core = importlib.import_module("slve.core")
        con = importlib.import_module("slve.constitutive")
        pde = importlib.import_module("slve.pde")
        lo = tracer.mark()
        f = con.make_constitutive("saturating", beta=1.0, a=2.0)
        grid = core.Grid1D(length=2.0 * np.pi, n_cells=16)
        params = core.ModelParams(variant="stress_rate", gamma=1.0)
        config = pde.SolverConfig(params=params, constitutive=f, dt=0.05, t_final=0.4)
        traj = pde.simulate(pde.gaussian_bump_state(grid, f, np.pi, 0.5, 0.4), config)
        reports = pde.energy_series(traj, params, f)
        metrics = tracer.layer_metrics(lo, tracer.mark())
    finally:
        tracer.restore()
    assert len(traj) == 9 and len(reports) == 7
    for name in ("pde.simulate", "pde.energy_series", "pde.total_energy",
                 "pde.stored_energy_density", "core.integrate_field", "core.Field.init",
                 "core.first_derivative"):
        assert metrics[f"{name}.calls"] >= 1, name
    assert metrics["pde.steps"] == 8 and metrics["pde.snapshots"] == 9
    assert metrics["pde.energy_reports"] == 7
    # one total per snapshot, none recomputed per report window
    assert metrics["pde.total_energy.calls"] == 9
    restored = [_lookup(m, p) for _, m, p in tracing.WRAPPED]
    assert all(a is b for a, b in zip(originals, restored))


MODE_INI = """
[run]
command = {command}

[model]
variant = {variant}
{key} = 1.0

[constitutive]
kind = saturating
beta = 1.0
a = 1.0

[dispersion]
k_values = 0.0 0.5 1.0 2.0 4.0

[twave]
t_minus = 0.0
t_plus = 1.0
xi_span = 200.0
n_samples = 101

[output]
directory = {out}
"""


def test_tracer_sees_every_mode_analysis_layer(tracing, tmp_path):
    originals = [_lookup(m, p) for _, m, p in tracing.WRAPPED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli = importlib.import_module("slve.cli")
        con = importlib.import_module("slve.constitutive")
        twave = importlib.import_module("slve.twave")
        lo = tracer.mark()
        commands = [("dispersion", "strain_rate", "nu"), ("dispersion", "stress_rate", "gamma"),
                    ("twave", "stress_rate", "gamma")]
        for command, variant, key in commands:
            text = MODE_INI.format(command=command, variant=variant, key=key,
                                   out=tmp_path / f"{command}_{variant}")
            assert cli.run(cli.parse_config(text)).exit_code == 0
        f = con.make_constitutive("saturating", beta=1.0, a=1.0)
        report = twave.unified_reduction_check(f, 0.0, 1.0, gamma=1.0, nu=1.0, n_compare=11)
        metrics = tracer.layer_metrics(lo, tracer.mark())
    finally:
        tracer.restore()
    assert report.max_mismatch < 1e-9
    for name in tracing.EXPECTED_CALLS["mode_analysis"]:
        assert metrics[f"{name}.calls"] >= 1, name
    # one batched solve per dispersion command, whole-array profile columns
    assert metrics["dispersion.dispersion.calls"] == 2
    assert metrics["dispersion.strain_rate_dispersion.calls"] == 1
    assert metrics["dispersion.stress_rate_dispersion.calls"] == 1
    assert metrics["twave.profile_eval.calls"] <= 3
    restored = [_lookup(m, p) for _, m, p in tracing.WRAPPED]
    assert all(a is b for a, b in zip(originals, restored))


def test_tracer_sees_every_general_response_layer(tracing):
    # a custom response inverted by iteration, then two energy series whose
    # antiderivatives come from quadrature (the custom one and a = 1.5)
    originals = [_lookup(m, p) for _, m, p in tracing.WRAPPED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        core = importlib.import_module("slve.core")
        con = importlib.import_module("slve.constitutive")
        pde = importlib.import_module("slve.pde")
        lo = tracer.mark()
        grid = core.Grid1D(length=2.0 * np.pi, n_cells=16)
        params = core.ModelParams(variant="strain_rate", nu=0.5)
        dt = 0.2 * grid.spacing**2 / 0.5
        custom = con.custom_constitutive(lambda T: T / np.sqrt(1.0 + T * T),
                                         derivative=lambda T: (1.0 + T * T) ** -1.5, bound=1.0)
        sat = con.make_constitutive("saturating", beta=1.0, a=1.5)
        n_reports = 0
        for f in (custom, sat):
            config = pde.SolverConfig(params=params, constitutive=f, dt=dt, t_final=8 * dt)
            traj = pde.simulate(pde.gaussian_bump_state(grid, f, np.pi, 0.5, 0.4), config)
            n_reports += len(pde.energy_series(traj, params, f))
        metrics = tracer.layer_metrics(lo, tracer.mark())
    finally:
        tracer.restore()
    assert n_reports > 0
    for name in ("constitutive.quad", "constitutive.invert", "constitutive.invert_array",
                 "constitutive.derivative"):
        assert metrics[f"{name}.calls"] >= 1, name
    # one array-wide quadrature per antiderivative call, none per node
    assert metrics["constitutive.quad.calls"] == metrics["constitutive.antiderivative.calls"]
    restored = [_lookup(m, p) for _, m, p in tracing.WRAPPED]
    assert all(a is b for a, b in zip(originals, restored))
