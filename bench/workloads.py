"""Seeded inputs, one timed pass and the output checks of each workload.

A workload is a fixed sequence of steps.  A step is either one ``slve``
command run in-process through ``slve.cli.main`` on a generated INI file, or
one library call sequence made through the public modules.  The seed moves
only physical values (bump centre, width and amplitude, the k-grid offset,
the front end states); grid sizes, time steps, horizons, output strides and
sample counts are constants, so every seed does the same amount of work.

Library calls look their functions up on the submodules at call time
(``importlib.import_module("slve.pde").simulate``), never through names
bound at import, so the traced run sees every call.  ``slve.dispersion`` is
the re-exported function, not the submodule; the submodules are reached
through ``importlib`` for that reason.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

TWO_PI = 2.0 * math.pi

# the acceptance suite's bounds (tests/test_acceptance.py)
BALANCE_REL_BOUND = 1e-3  # criterion 5: mid-run residual / dissipation rate
ENERGY_SLACK = 1e-12  # criterion 5: strain-rate totals never increase
AUDIT_BOUND = -1e-12  # criterion 6: smallest audited dissipation rate
SPEED_BOUND = 1e-10  # criterion 7: front speed
OVERLAY_BOUND = 1e-9  # criterion 7: cross-variant front mismatch
ROOT_RESIDUAL = 1e-10  # criteria 2/3: |p(r)| < 1e-10 * (1 + |r|**3)
BLOWUP_THRESHOLD = 1e6  # the solver's default blow-up guard
# custom response (scalar Newton, quad) against its closed-form twin; the
# two inversions agree to ~1e-12 per step
TWIN_BOUND = 1e-10


def mod(name: str):
    """A slve submodule; ``slve.dispersion`` the attribute is a function."""
    return importlib.import_module(f"slve.{name}")


def rk4_steps(t_final: float, dt: float) -> int:
    """RK4 steps a run of t_final takes at dt, landing step included."""
    n_full = int(t_final / dt)
    if t_final / dt - n_full > 1.0 - 1e-9:
        n_full += 1
    return n_full + (1 if t_final - n_full * dt > 1e-12 * dt else 0)


def _ini(sections: Dict[str, Dict[str, object]]) -> str:
    def fmt(v):
        return repr(v) if isinstance(v, float) else str(v)

    out = []
    for name, keys in sections.items():
        out.append(f"[{name}]")
        out += [f"{k} = {fmt(v)}" for k, v in keys.items()]
        out.append("")
    return "\n".join(out)


@dataclass
class Step:
    """One command or library sequence of a pass, with what it must produce."""

    label: str
    command: Optional[str] = None  # slve command; None for a library step
    config: Optional[str] = None  # INI text of a command step
    expect: dict = field(default_factory=dict)

    @property
    def node_steps(self) -> int:
        """Grid nodes x RK4 steps the step integrates (0 without stepping)."""
        e = self.expect
        if "dt" not in e:
            return 0
        return e["n_cells"] * rk4_steps(e["t_final"], e["dt"])


@dataclass
class Inputs:
    workload: str
    seed: int
    values: Dict[str, float]  # the seeded physical values
    steps: List[Step]

    @property
    def node_steps(self) -> int:
        return sum(s.node_steps for s in self.steps)

    def describe(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seeded_values": self.values,
            "steps": [{"label": s.label, "command": s.command, **s.expect} for s in self.steps],
            "node_steps_per_pass": self.node_steps,
        }


@dataclass
class StepResult:
    label: str
    exit_code: int
    record: dict  # the status record; {"status": "ok"} for a library step
    out_dir: Optional[Path]
    digest: str  # hash of everything the step produced
    seconds: float = 0.0
    data: dict = field(default_factory=dict)  # a library step's results


def _bump(rng: random.Random) -> Dict[str, float]:
    return {
        "center": math.pi + rng.uniform(-0.3, 0.3),
        "width": rng.uniform(0.45, 0.55),
        "amplitude": rng.uniform(0.35, 0.45),
    }


def _pde_step(label, command, variant, coeff, a, n_cells, dt, t_final, stride, bump) -> Step:
    key = "nu" if variant == "strain_rate" else "gamma"
    config = _ini({
        "run": {"command": command},
        "model": {"variant": variant, key: coeff},
        "constitutive": {"kind": "saturating", "beta": 1.0, "a": a},
        "grid": {"length": TWO_PI, "n_cells": n_cells},
        "solver": {"dt": dt, "t_final": t_final, "output_stride": stride},
        "initial": {"type": "gaussian_bump", **bump},
        "output": {"directory": "out"},
    })
    expect = dict(variant=variant, **{key: coeff}, kind="saturating", a=a, n_cells=n_cells,
                  dt=dt, t_final=t_final, output_stride=stride)
    return Step(label, command, config, expect)


def make_inputs(workload: str, seed: int) -> Inputs:
    """Generate a workload's inputs from its seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "strain_rate_bump":
        n, nu = 512, 0.5
        dx = TWO_PI / n
        dt = 0.2 * dx * dx / nu  # 0.8 of the parabolic ceiling 0.25*dx**2/nu
        bump = _bump(rng)
        steps = [_pde_step("energy", "energy", "strain_rate", nu, 2.0, n, dt, 0.5, 100, bump)]
        return Inputs(workload, seed, bump, steps)

    if workload == "stress_rate_dense":
        n, gamma = 256, 1.0
        dt = 0.05 * TWO_PI / n
        bump = _bump(rng)
        steps = [
            _pde_step(cmd, cmd, "stress_rate", gamma, 2.0, n, dt, 2.0, stride, bump)
            for cmd, stride in (("simulate", 10), ("energy", 1), ("audit", 1))
        ]
        return Inputs(workload, seed, bump, steps)

    if workload == "general_response":
        n, nu = 128, 0.5
        dx = TWO_PI / n
        dt = 0.2 * dx * dx / nu
        bump = _bump(rng)
        library = dict(variant="strain_rate", nu=nu, n_cells=n, dt=dt, t_final=96 * dt,
                       output_stride=4)
        steps = [
            # saturating with a not in {1, 2}: antiderivative by quad per node
            _pde_step("energy_a1.5", "energy", "strain_rate", nu, 1.5, n, dt, 36 * dt, 3, bump),
            # value and derivative only: scalar Newton inversion per node
            Step("library_custom", expect=dict(library, response="custom T/sqrt(1+T^2)")),
            Step("library_twin", expect=dict(library, response="saturating a=2")),
        ]
        return Inputs(workload, seed, bump, steps)

    if workload == "mode_analysis":
        n_modes, k_max = 10_000, 100.0
        front = dict(kind="saturating", a=1.0, xi_span=400.0, n_samples=5001)
        values = {
            "k_offset": rng.uniform(1e-3, 1e-2),
            "t_minus": rng.uniform(0.0, 0.05),
            "t_plus": rng.uniform(0.9, 1.1),
        }
        ks = values["k_offset"] + np.linspace(0.0, k_max, n_modes)
        k_text = " ".join(repr(float(k)) for k in ks)
        steps = []
        for variant, key in (("strain_rate", "nu"), ("stress_rate", "gamma")):
            steps.append(Step(f"dispersion_{variant}", "dispersion", _ini({
                "run": {"command": "dispersion"},
                "model": {"variant": variant, key: 1.0},
                "dispersion": {"k_values": k_text},
                "output": {"directory": "out"},
            }), dict(variant=variant, **{key: 1.0}, n_modes=n_modes, k_max=k_max)))
        for variant, key in (("strain_rate", "nu"), ("stress_rate", "gamma")):
            steps.append(Step(f"twave_{variant}", "twave", _ini({
                "run": {"command": "twave"},
                "model": {"variant": variant, key: 1.0},
                "constitutive": {"kind": "saturating", "beta": 1.0, "a": front["a"]},
                "twave": {"t_minus": values["t_minus"], "t_plus": values["t_plus"],
                          "xi_span": front["xi_span"], "n_samples": front["n_samples"]},
                "output": {"directory": "out"},
            }), dict(variant=variant, **{key: 1.0}, **front)))
        steps.append(Step("library_unification", expect=dict(gamma=1.0, nu=1.0, **front)))
        return Inputs(workload, seed, values, steps)

    raise ValueError(f"unknown workload {workload!r}")


def parse_all(inputs: Inputs) -> None:
    """Parse and validate every generated config, as the CLI does."""
    cli = mod("cli")
    for step in inputs.steps:
        if step.config is not None:
            cli.parse_config(step.config)


def write_configs(inputs: Inputs, directory: Path) -> Dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for step in inputs.steps:
        if step.config is not None:
            paths[step.label] = directory / f"{step.label}.ini"
            paths[step.label].write_text(step.config)
    return paths


# --- library steps -----------------------------------------------------------


def _custom_value(T):
    return T / np.sqrt(1.0 + T * T)


def _custom_derivative(T):
    return (1.0 + T * T) ** -1.5


def _library_run(inputs: Inputs, step: Step) -> dict:
    """The README tour: a strain-rate bump run, then its energy series."""
    core, pde, con = mod("core"), mod("pde"), mod("constitutive")
    e, b = step.expect, inputs.values
    if step.label == "library_custom":
        f = con.custom_constitutive(_custom_value, derivative=_custom_derivative, bound=1.0)
    else:
        f = con.make_constitutive("saturating", beta=1.0, a=2.0)
    grid = core.Grid1D(length=TWO_PI, n_cells=e["n_cells"], boundary="periodic")
    params = core.ModelParams(variant=e["variant"], nu=e["nu"])
    state0 = pde.gaussian_bump_state(grid, f, b["center"], b["width"], b["amplitude"])
    config = pde.SolverConfig(params=params, constitutive=f, dt=e["dt"], t_final=e["t_final"],
                              output_stride=e["output_stride"])
    states = pde.simulate(state0, config)
    reports = pde.energy_series(states, params, f)
    return {
        "t_end": states[-1].t,
        "final": {k: np.array(getattr(states[-1], k).values) for k in ("v", "eps", "stress")},
        "reports": np.array([(r.t, r.total, r.dissipation_rate, r.balance_residual)
                             for r in reports]),
    }


def _library_unification(inputs: Inputs, step: Step) -> dict:
    con, twave = mod("constitutive"), mod("twave")
    e, v = step.expect, inputs.values
    f = con.make_constitutive(e["kind"], beta=1.0, a=e["a"])
    report = twave.unified_reduction_check(
        f, v["t_minus"], v["t_plus"], gamma=e["gamma"], nu=e["nu"], xi_span=e["xi_span"]
    )
    return {"c": report.c, "kappa_stress": report.kappa_stress,
            "kappa_strain": report.kappa_strain, "max_mismatch": report.max_mismatch}


def _digest_dir(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _digest_data(data: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(data):
        value = data[key]
        h.update(key.encode() + b"\0")
        if isinstance(value, dict):
            for k in sorted(value):
                h.update(k.encode() + np.ascontiguousarray(value[k]).tobytes())
        elif isinstance(value, np.ndarray):
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


# --- one pass ----------------------------------------------------------------


def run_pass(inputs: Inputs, configs: Dict[str, Path], out_root: Path,
             after_step: Optional[Callable[[], None]] = None):
    """Run every step once; returns (seconds, [StepResult]).

    Only the steps are timed: after_step() runs between them untimed, and
    reading and hashing the outputs comes after the last.
    """
    cli = mod("cli")
    raw = []
    for step in inputs.steps:
        out_dir = None if step.command is None else out_root / step.label
        t_step = perf_counter()
        try:
            if out_dir is None:
                run = _library_unification if step.label == "library_unification" else _library_run
                payload, code = run(inputs, step), 0
            else:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main([step.command, "--config", str(configs[step.label]),
                                     "--out", str(out_dir)])
                payload = buf.getvalue()
        except Exception:  # a step that raises is counted failed; the pass goes on
            traceback.print_exc()
            payload, code = None, 1
        raw.append((step, code, payload, out_dir, perf_counter() - t_step))
        if after_step is not None:
            after_step()
    seconds = sum(r[-1] for r in raw)

    results = []
    for step, code, payload, out_dir, secs in raw:
        if payload is None:
            results.append(StepResult(step.label, code, {"status": "exception"}, out_dir, "", secs))
        elif out_dir is None:
            results.append(StepResult(step.label, code, {"status": "ok"}, None,
                                      _digest_data(payload), secs, payload))
        else:
            try:
                record = json.loads(payload.strip().splitlines()[-1])
            except (ValueError, IndexError):
                record = {"status": "unparsable", "stdout": payload[-200:]}
            results.append(StepResult(step.label, code, record, out_dir, _digest_dir(out_dir), secs))
    return seconds, results


# --- output checks -----------------------------------------------------------


def _table(path: Path, keys) -> np.ndarray:
    with path.open(newline="") as fh:
        return np.array([[float(row[k]) for k in keys] for row in csv.DictReader(fh)])


def _check_energy(reports: np.ndarray, variant: str, t_final: float) -> List[str]:
    """reports: rows (t, total, dissipation_rate, balance_residual)."""
    if reports.shape[0] < 3 or not np.all(np.isfinite(reports)):
        return [f"{reports.shape[0]} energy reports, or a non-finite one"]
    t, total, diss, resid = reports.T
    bad = []
    mid = int(np.argmin(np.abs(t - 0.5 * t_final)))
    rel = resid[mid] / max(diss[mid], 1e-300)
    if not rel < BALANCE_REL_BOUND:
        bad.append(f"mid-run balance residual / dissipation {rel:.3e} >= {BALANCE_REL_BOUND}")
    if variant == "strain_rate" and np.any(total[1:] > total[:-1] + ENERGY_SLACK):
        bad.append("strain-rate total energy increased")
    return bad


def _check_pde(inputs: Inputs, step: Step, res: StepResult) -> List[str]:
    e = step.expect
    name = ("trajectory" if step.command == "simulate" else step.command) + ".csv"
    path = res.out_dir / name
    if res.record.get("files") != [name] or not path.is_file():
        return [f"expected exactly {name}, got {res.record.get('files')}"]
    if step.command == "energy":
        keys = ("t", "total", "dissipation_rate", "balance_residual")
        return _check_energy(_table(path, keys), e["variant"], e["t_final"])
    if step.command == "audit":
        rates = _table(path, ("min_rate",))[:, 0]
        if rates.size != e["n_cells"]:
            return [f"audit has {rates.size} nodes, want {e['n_cells']}"]
        worst = res.record.get("min_rate", -math.inf)
        if not (res.record.get("passed") is True and worst >= AUDIT_BOUND
                and np.all(rates >= AUDIT_BOUND)):
            return [f"dissipation audit min rate {worst} < {AUDIT_BOUND}"]
        return []
    # simulate: sample count, finiteness, landing time, the initial bump
    n, stride = e["n_cells"], e["output_stride"]
    n_steps = rk4_steps(e["t_final"], e["dt"])
    want = 1 + n_steps // stride + (1 if n_steps % stride else 0)
    table = _table(path, ("t", "x", "v", "eps", "stress"))
    if res.record.get("n_samples") != want or table.shape[0] != want * n:
        return [f"simulate wrote {table.shape[0]} rows / {res.record.get('n_samples')} samples, "
                f"want {want} samples of {n} nodes"]
    bad = []
    if not np.all(np.isfinite(table)):
        bad.append("non-finite trajectory value")
    if abs(table[-1, 0] - e["t_final"]) > 1e-12:
        bad.append(f"run ended at t={table[-1, 0]!r}, not {e['t_final']!r}")
    b = inputs.values
    bump = b["amplitude"] * np.exp(-(((table[:n, 1] - b["center"]) / b["width"]) ** 2))
    if np.max(np.abs(table[:n, 4] - bump)) > 1e-15:
        bad.append("initial stress is not the configured bump")
    if not np.max(np.abs(table[:, 4])) < BLOWUP_THRESHOLD:
        bad.append("stress reached the blow-up threshold")
    return bad


def _check_dispersion(step: Step, res: StepResult) -> List[str]:
    e = step.expect
    table = _table(res.out_dir / "dispersion.csv",
                   ["max_residual"] + [f"{p}_r{i}" for i in range(3 if e["variant"] == "stress_rate" else 2)
                                       for p in ("re", "im")])
    with (res.out_dir / "dispersion.csv").open(newline="") as fh:
        classes = {row["classification"] for row in csv.DictReader(fh)}
    want = "stable" if e["variant"] == "strain_rate" else "unstable"
    bad = []
    if table.shape[0] != e["n_modes"] or res.record.get("n_modes") != e["n_modes"]:
        bad.append(f"dispersion wrote {table.shape[0]} modes, want {e['n_modes']}")
    if classes != {want} or res.record.get("worst_classification") != want:
        bad.append(f"modes classified {sorted(classes)}, want only {want}")
    roots = table[:, 1::2] + 1j * table[:, 2::2]
    limit = ROOT_RESIDUAL * (1.0 + np.max(np.abs(roots), axis=1) ** 3)
    if not np.all(table[:, 0] < limit):
        bad.append("a dispersion root residual exceeds 1e-10 * (1 + |r|**3)")
    if e["variant"] == "strain_rate" and res.record.get("k_critical") != 2.0 / e["nu"]:
        bad.append(f"k_critical {res.record.get('k_critical')}, want 2/nu")
    return bad


def _front_speed(inputs: Inputs) -> float:
    # saturating a = 1, beta = 1 is h(T) = T/(1+T) for T >= 0, so
    # c**2 = (T+ - T-)/(h(T+) - h(T-)) = (1 + T-)(1 + T+)
    v = inputs.values
    return math.sqrt((1.0 + v["t_minus"]) * (1.0 + v["t_plus"]))


def _check_twave(inputs: Inputs, step: Step, res: StepResult) -> List[str]:
    v, rec = inputs.values, res.record
    bad = []
    if not abs(rec.get("c", math.inf) - _front_speed(inputs)) <= SPEED_BOUND:
        bad.append(f"front speed {rec.get('c')!r}, want {_front_speed(inputs)!r} within {SPEED_BOUND}")
    if rec.get("exists") is not True:
        return bad + [f"no front: {rec.get('message')}"]
    stress = _table(res.out_dir / "twave.csv", ("stress",))[:, 0]
    if stress.size != step.expect["n_samples"]:
        bad.append(f"twave wrote {stress.size} samples, want {step.expect['n_samples']}")
    # the dense-output interpolant wobbles by ~1e-10 where the front settles
    elif not (abs(stress[0] - v["t_minus"]) < 1e-6 and abs(stress[-1] - v["t_plus"]) < 1e-6
              and np.all(np.diff(stress) >= -OVERLAY_BOUND)):
        bad.append("front is not monotone between its end states")
    return bad


def _check_library(inputs: Inputs, results: Dict[str, StepResult]) -> Dict[str, List[str]]:
    steps = {s.label: s for s in inputs.steps if s.command is None}
    if any(results[label].exit_code for label in steps):
        return {label: ["raised an exception"] if results[label].exit_code else []
                for label in steps}
    if "library_unification" in steps:
        d = results["library_unification"].data
        bad = []
        if not d["max_mismatch"] < OVERLAY_BOUND:
            bad.append(f"front overlay mismatch {d['max_mismatch']:.3e} >= {OVERLAY_BOUND}")
        if not abs(d["c"] - _front_speed(inputs)) <= SPEED_BOUND:
            bad.append(f"unification front speed {d['c']!r}, want {_front_speed(inputs)!r}")
        return {"library_unification": bad}
    if "library_custom" not in steps:
        return {}
    out = {}
    for label in ("library_custom", "library_twin"):
        e, d = steps[label].expect, results[label].data
        out[label] = _check_energy(d["reports"], e["variant"], e["t_final"])
        if abs(d["t_end"] - e["t_final"]) > 1e-12:
            out[label].append(f"run ended at t={d['t_end']!r}, not {e['t_final']!r}")
    custom, twin = results["library_custom"].data, results["library_twin"].data
    for name in ("v", "eps", "stress"):
        gap = float(np.max(np.abs(custom["final"][name] - twin["final"][name])))
        if not gap <= TWIN_BOUND:
            out["library_custom"].append(f"final {name} differs from the catalog twin by {gap:.3e}")
    e_c, e_t = custom["reports"][:, 1], twin["reports"][:, 1]
    if e_c.shape != e_t.shape or not np.all(np.abs(e_c - e_t) <= TWIN_BOUND * np.abs(e_t)):
        out["library_custom"].append("energy totals differ from the catalog twin")
    return out


def check_pass(inputs: Inputs, results: List[StepResult]) -> Dict[str, List[str]]:
    """Failure messages per step label; an empty list means the step passed."""
    by_label = {r.label: r for r in results}
    bad: Dict[str, List[str]] = {}
    for step in inputs.steps:
        if step.command is None:
            continue
        res = by_label[step.label]
        if res.exit_code != 0 or res.record.get("status") != "ok":
            bad[step.label] = [f"exit code {res.exit_code}, status {res.record.get('status')!r}"]
        elif step.command == "dispersion":
            bad[step.label] = _check_dispersion(step, res)
        elif step.command == "twave":
            bad[step.label] = _check_twave(inputs, step, res)
        else:
            bad[step.label] = _check_pde(inputs, step, res)
    bad.update(_check_library(inputs, by_label))
    return bad
