"""The benchmark's tracer still reaches the library it wraps.

bench/tracing.py wraps module attributes by name and reads simulate's
return value through len() and indexing; a renamed function or a changed
return type would make traced benchmark runs fail.  This runs a tiny
simulate and energy series under the tracer and checks that the layers the
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
                 "pde.stored_energy_density", "core.integrate_field", "core.Field.init"):
        assert metrics[f"{name}.calls"] >= 1, name
    assert metrics["pde.steps"] == 8 and metrics["pde.snapshots"] == 9
    assert metrics["pde.energy_reports"] == 7
    # one total per snapshot, none recomputed per report window
    assert metrics["pde.total_energy.calls"] == 9
    restored = [_lookup(m, p) for _, m, p in tracing.WRAPPED]
    assert all(a is b for a, b in zip(originals, restored))
