"""Exact symmetries of the discrete runs, checked with ==.

Three relations hold bit for bit and need no formula of their own, so they
catch a formula that the code and a reference written beside it would share:

- rescaling by 2: doubling the length, the bumps' centres and widths, dt,
  t_final, nu and gamma halves every stencil difference and leaves every
  h*k product unchanged, since scaling by a power of two is exact in binary
  floating point; the fields are bit-identical, the times and the energy
  totals double;
- reflection x -> L - x with v -> -v: float subtraction is exactly
  antisymmetric, so the centred and the one-sided stencils mirror;
- translation by whole nodes on a periodic grid: np.roll commutes with
  every stage.

The runs are short but end on a shortened landing step (20.3 steps of dt).
The rescaled pair also runs through the command line, where the table's t
and x columns double and its field columns are the same text.
"""

import csv
import dataclasses

import numpy as np
import pytest

from slve import (
    BlowUpError,
    Field,
    Grid1D,
    ModelParams,
    SolverConfig,
    energy_series,
    gaussian_bump_state,
    make_constitutive,
    simulate,
)
from slve.cli import main

LENGTH = 2 * np.pi
N_CELLS = 64
# off-centre bumps, so that the seam or a wall is near and no mirror is trivial
CENTER, V_CENTER, WIDTH = 1.0, 4.0, 0.4

RESPONSES = {
    "saturating_a2": dict(kind="saturating", beta=1.0, a=2.0),
    "saturating_a1.5": dict(kind="saturating", beta=1.0, a=1.5),
    "arctan_beta1.3": dict(kind="arctan", beta=1.3),
}
# (model coefficients, dt) per variant; the coefficients and dt double with the length
VARIANTS = {
    "stress_rate": (dict(gamma=0.7), 0.02),
    "strain_rate": (dict(nu=0.5), 0.004),
    "elastic": (dict(), 0.02),
}
BOUNDARIES = ("periodic", "dirichlet_zero")


def _state(boundary, f, scale):
    """Stress bump on the manifold with a velocity bump beside it, all
    lengths times scale."""
    grid = Grid1D(length=scale * LENGTH, n_cells=N_CELLS, boundary=boundary)
    state = gaussian_bump_state(grid, f, scale * CENTER, scale * WIDTH, 0.4)
    x = grid.nodes()
    v0 = 0.2 * np.exp(-(((x - scale * V_CENTER) / (scale * WIDTH)) ** 2))
    return dataclasses.replace(state, v=Field(v0, grid))


def _config(variant, f, scale):
    coeffs, dt = VARIANTS[variant]
    params = ModelParams(variant=variant, **{k: scale * c for k, c in coeffs.items()})
    return SolverConfig(params=params, constitutive=f, dt=scale * dt,
                        t_final=scale * (20.3 * dt), output_stride=5)


def _mirror(rows, boundary):
    """x -> L - x on the last axis: node j takes node N - j (mod N if periodic)."""
    flipped = rows[..., ::-1]
    return np.roll(flipped, 1, axis=-1) if boundary == "periodic" else flipped


def _reflected(state, boundary):
    grid = state.grid
    v, eps, stress = (_mirror(fld.values, boundary) for fld in (state.v, state.eps, state.stress))
    return dataclasses.replace(state, v=Field(-v, grid), eps=Field(eps, grid),
                               stress=Field(stress, grid))


def _unreflected(fields, boundary):
    """Fields (n, 3, N) of a reflected run mapped back: mirrored, v negated."""
    back = _mirror(fields, boundary).copy()
    back[:, 0] *= -1.0
    return back


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("response", RESPONSES)
def test_runs_keep_the_symmetries_exactly(response, variant, boundary):
    f = make_constitutive(**RESPONSES[response])
    initial = _state(boundary, f, 1.0)
    config = _config(variant, f, 1.0)
    traj = simulate(initial, config)
    assert len(traj) == 6 and traj.t[-1] - traj.t[-2] < config.dt  # a landing step

    doubled_config = _config(variant, f, 2.0)
    doubled = simulate(_state(boundary, f, 2.0), doubled_config)
    assert np.array_equal(doubled.fields, traj.fields)
    assert np.array_equal(doubled.t, 2.0 * traj.t)
    totals = [r.total for r in energy_series(traj, config.params, f)]
    doubled_totals = [r.total for r in energy_series(doubled, doubled_config.params, f)]
    assert doubled_totals == [2.0 * e for e in totals]

    reflected = simulate(_reflected(initial, boundary), config)
    assert np.array_equal(reflected.t, traj.t)
    assert np.array_equal(_unreflected(reflected.fields, boundary), traj.fields)

    if boundary == "periodic":
        shift = 17
        moved = dataclasses.replace(
            initial, **{name: Field(np.roll(getattr(initial, name).values, shift), initial.grid)
                        for name in ("v", "eps", "stress")})
        rolled = simulate(moved, config)
        assert np.array_equal(rolled.t, traj.t)
        assert np.array_equal(rolled.fields, np.roll(traj.fields, shift, axis=-1))


def test_pinned_blow_up_keeps_the_symmetries():
    # the stress-rate law grows at every wavenumber; the threshold stops the
    # run partway, at a time that doubles with the scale and the same time
    # in the mirror; the reported node is the first bad entry in row order,
    # so it need not mirror
    f = make_constitutive("saturating", beta=1.0, a=2.0)

    def blow_up(initial, scale):
        config = SolverConfig(params=ModelParams(variant="stress_rate", gamma=scale * 0.05),
                              constitutive=f, dt=scale * 0.02, t_final=scale * 20.3,
                              output_stride=5, blowup_threshold=50.0)
        with pytest.raises(BlowUpError) as info:
            simulate(initial, config)
        return info.value

    initial = _state("dirichlet_zero", f, 1.0)
    base = blow_up(initial, 1.0)
    assert len(base.partial) >= 3

    doubled = blow_up(_state("dirichlet_zero", f, 2.0), 2.0)
    assert doubled.t == 2.0 * base.t
    assert np.array_equal(doubled.partial.fields, base.partial.fields)
    assert np.array_equal(doubled.partial.t, 2.0 * base.partial.t)

    reflected = blow_up(_reflected(initial, "dirichlet_zero"), 1.0)
    assert reflected.t == base.t
    assert np.array_equal(reflected.partial.t, base.partial.t)
    assert np.array_equal(_unreflected(reflected.partial.fields, "dirichlet_zero"),
                          base.partial.fields)


def _simulate_ini(boundary, scale):
    """A stress-rate simulate config with every length, time and gamma times scale."""
    coeffs, dt = VARIANTS["stress_rate"]
    return f"""
[run]
command = simulate

[model]
variant = stress_rate
gamma = {scale * coeffs["gamma"]!r}

[constitutive]
kind = saturating
beta = 1.0
a = 2.0

[grid]
length = {scale * LENGTH!r}
n_cells = {N_CELLS}
boundary = {boundary}

[solver]
dt = {scale * dt!r}
t_final = {scale * (20.3 * dt)!r}
output_stride = 5

[initial]
type = gaussian_bump
center = {scale * CENTER!r}
width = {scale * WIDTH!r}
amplitude = 0.4
"""


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_cli_rescaled_twin(tmp_path, boundary):
    # through the command line: the t and x columns double, the field
    # columns are the same text
    columns = {}
    for scale in (1.0, 2.0):
        ini = tmp_path / f"run-{scale}.ini"
        ini.write_text(_simulate_ini(boundary, scale))
        out = tmp_path / f"out-{scale}"
        assert main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        columns[scale] = {name: [row[name] for row in rows] for name in rows[0]}
    base, twin = columns[1.0], columns[2.0]
    assert len(base["t"]) == 6 * (N_CELLS + (boundary == "dirichlet_zero"))
    for name in ("t", "x"):
        assert [float(c) for c in twin[name]] == [2.0 * float(c) for c in base[name]]
    for name in ("v", "eps", "stress"):
        assert twin[name] == base[name]
