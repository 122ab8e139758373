"""Command-line front end: INI configs in, CSV/JSONL tables + status out.

Usage:

    slve <command> --config run.ini [--nu X] [--gamma X] [--k X]
                                    [--t-final X] [--out DIR]

Commands: simulate, dispersion, twave, audit, energy.  The config is INI
text; _SCHEMA is its one table of sections, keys, types and defaults (the
README lists it).  Unknown sections or keys are rejected, as are values
violating a model precondition (a negative gamma, for instance, fails the
nonnegative-dissipation requirement gamma >= 0).
The parser builds what each command runs once, in unit form and through
the library's own checks, so a step over the stability ceiling, an
[initial] shape the grid cannot hold, an energy run with no uniformly
spaced interior sample, a wavenumber whose k*k (or k*k/gamma) overflows
and twave end states that are non-finite, coincide, give no real speed or
give a kappa beyond the double range or one that underflows to 0 are all
refused before the output directory is made.

Material parameters are given dimensionally in [model]: rho, mu and
length_scale only scale nu and gamma (and status.json's scales) into the
unit form every solver runs, so [grid] lengths, [solver] times and all
table output are in scaled units.  A material whose wave speed or scales
leave the double range is refused.

Outcomes are machine-parsable: each run writes its tables plus status.json
into the output directory and prints the same status record to stdout.
Exit codes: 0 ok, 2 bad config (refused before anything runs), 3 blow-up
of an unstable run (the time of blow-up and the field and node of the first
bad entry are in the record; this is an expected outcome for the
stress-rate model, not an internal error), 4 a strain-rate run whose stress
reconstruction reached the strain limit (the node and value are in the
record), 1 any other model error.  After a
blow-up or a strain-limit failure the snapshots recorded so far are written
as the trajectory table.  Reruns of one config are byte-identical.  CSV
floats carry 17 significant digits and JSONL floats are json's repr, so
parsing either back loses nothing.

Every command runs on numpy alone; none loads scipy.  twave computes the
front as a Gauss-Legendre quadrature of its separable profile equation, and
energy with a saturating response with a not in {1, 2}, whose stored energy
has no closed-form antiderivative, integrates it with a numpy quadrature.
"""

from __future__ import annotations

import argparse
import configparser
import enum
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from . import constitutive as con
from . import core, dispersion, pde, twave
from .dispersion import Classification, solve_dispersion
from .errors import BlowUpError, ConfigError, NoKinkError, SlveError, StrainLimitExceededError

__all__ = ["Command", "RunConfig", "RunResult", "parse_config", "run", "main"]


class Command(str, enum.Enum):
    SIMULATE = "simulate"
    DISPERSION = "dispersion"
    TWAVE = "twave"
    AUDIT = "audit"
    ENERGY = "energy"


def _numbers(raw: str) -> np.ndarray:
    """A number list: floats separated by commas or whitespace."""
    return np.asarray([float(tok) for tok in raw.replace(",", " ").split()], dtype=float)


# section -> key -> (type, default); a default of ... marks a key required
# when its section is present, and anything else in the config is an error
_SCHEMA: Dict[str, Dict[str, Tuple[Callable, Any]]] = {
    "run": {"command": (str, None)},
    "model": {"variant": (str, None), "rho": (float, 1.0), "mu": (float, 1.0),
              "length_scale": (float, 1.0), "nu": (float, 0.0), "gamma": (float, 0.0)},
    "constitutive": {"kind": (str, "linear"), "beta": (float, 1.0), "a": (float, 1.0)},
    "grid": {"length": (float, ...), "n_cells": (int, ...), "boundary": (str, "periodic")},
    "solver": {"dt": (float, None), "t_final": (float, None), "output_stride": (int, 1),
               "blowup_threshold": (float, 1e6)},
    "initial": {"type": (str, "zero"), "center": (float, None), "width": (float, 1.0),
                "amplitude": (float, 1.0), "k": (float, None)},
    "dispersion": {"k_values": (_numbers, None)},
    "twave": {"t_minus": (float, ...), "t_plus": (float, ...), "xi_span": (float, 200.0),
              "n_samples": (int, 2001)},
    "output": {"directory": (str, "."), "format": (str, "csv")},
}
_WHAT = {float: "a number", int: "an integer", _numbers: "a number list"}


@dataclass
class RunConfig:
    """Validated run description: what each command runs, built once."""

    command: Command
    scales: core.NondimScales  # of the [model] material
    unit: core.ModelParams  # the unit form every solver runs
    solver: Optional[pde.SolverConfig]  # simulate, energy and audit only
    initial: Optional[pde.SimState]  # likewise; its grid is the [grid] section
    k_values: Optional[np.ndarray]  # dispersion only
    twave: Optional[twave.TravelingWaveProblem]  # twave only
    window: Optional[Tuple[float, int]]  # twave's (xi_span, n_samples)
    out_dir: str
    fmt: str


@dataclass
class RunResult:
    status: str
    exit_code: int
    files: Tuple[str, ...]
    record: dict


def _load_ini(text: str, overrides: Dict[Tuple[str, str], str]) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config text is not valid INI: {exc}") from exc
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    for (section, key), raw in overrides.items():
        if key not in _SCHEMA.get(section, ()):
            raise ConfigError(f"override targets unknown key [{section}] {key}")
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][key] = raw
    return cp


def _section(cp: configparser.ConfigParser, name: str) -> Dict[str, Any]:
    """Every key of [name], in _SCHEMA's order, as its type; default when absent."""
    raw = cp[name] if cp.has_section(name) else {}
    values = {}
    for key, (kind, default) in _SCHEMA[name].items():
        text = raw.get(key)
        if text is None and default is ...:
            raise ConfigError(f"missing required key '{key}' in section [{name}]")
        try:
            values[key] = default if text is None else kind(text)
        except ValueError:
            raise ConfigError(f"[{name}] {key} = {text!r} is not {_WHAT[kind]}") from None
    return values


@contextmanager
def _refused(prefix: str):
    """Refuse a library ValueError as ConfigError(prefix + its message); a
    ConfigError, which names its block already, goes out as it is."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from exc


def parse_config(source: str, overrides: Optional[Dict[Tuple[str, str], str]] = None) -> RunConfig:
    """Parse and validate INI config text into a RunConfig.

    overrides maps (section, key) to raw string values applied after the
    text is read (this is how the CLI flags land).  Validation failures
    raise ConfigError naming the offending section, key, or precondition.
    """
    cp = _load_ini(source, overrides or {})

    raw_command = _section(cp, "run")["command"]
    if raw_command is None:
        raise ConfigError("missing [run] command (or pass the command on the CLI)")
    try:
        command = Command(raw_command)
    except ValueError:
        raise ConfigError(f"unknown command {raw_command!r}") from None

    model = _section(cp, "model")
    if model["variant"] is None:
        raise ConfigError("missing [model] variant")
    with _refused("[model] rejected: "):
        variant = core.Variant(model.pop("variant"))
        scales = core.nondimensionalize(**model)
        # every solver runs the dimensionless coefficients; checks run on them
        unit = core.ModelParams(variant, nu=scales.nu_bar, gamma=scales.gamma_bar)

    with _refused("[constitutive] rejected: "):
        response = con.make_constitutive(**_section(cp, "constitutive"))

    grid = None
    if cp.has_section("grid"):
        with _refused("[grid] rejected: "):
            grid = core.Grid1D(**_section(cp, "grid"))

    # [initial] and [solver] values are read for every command; the stepping
    # commands build them into their initial state and solver config below
    shape = None
    if cp.has_section("initial"):
        shape = _section(cp, "initial")
        if shape["type"] not in ("zero", "gaussian_bump", "single_mode"):
            raise ConfigError(f"[initial] type = {shape['type']!r} is not a known shape")

    k_values = _section(cp, "dispersion")["k_values"]
    if k_values is not None and k_values.size == 0:
        raise ConfigError("[dispersion] k_values is empty")

    front = _section(cp, "twave") if cp.has_section("twave") else None

    output = _section(cp, "output")
    if output["format"] not in ("csv", "jsonl"):
        raise ConfigError(f"[output] format must be csv or jsonl, got {output['format']!r}")

    steps = _section(cp, "solver")
    solver = initial = problem = window = None
    if command in (Command.SIMULATE, Command.AUDIT, Command.ENERGY):
        solver, initial = _stepping_inputs(command, unit, response, grid, steps, shape)
    elif command is Command.DISPERSION:
        if k_values is None:
            raise ConfigError("command 'dispersion' needs [dispersion] k_values")
        # the solvers' own checks: a rate variant, finite k*k (and 1/gamma, k*k/gamma)
        with _refused(f"[dispersion] k_values rejected for the {unit.variant.value} variant: "):
            dispersion._accepted(unit, k_values)
    else:  # twave
        if front is None:
            raise ConfigError("command 'twave' needs a [twave] section")
        with _refused("[twave] "):  # the end-state algebra, the rate variant and the window
            problem = twave.make_problem(response, front["t_minus"], front["t_plus"], unit)
            window = twave._window(front["xi_span"], front["n_samples"])

    return RunConfig(command=command, scales=scales, unit=unit, solver=solver, initial=initial,
                     k_values=k_values, twave=problem, window=window,
                     out_dir=output["directory"], fmt=output["format"])


def _stepping_inputs(
    command: Command,
    unit: core.ModelParams,
    response: con.ConstitutiveFunction,
    grid: Optional[core.Grid1D],
    steps: dict,
    shape: Optional[dict],
) -> Tuple[pde.SolverConfig, pde.SimState]:
    """The unit-form solver config and the initial state a stepping command runs."""
    if grid is None:
        raise ConfigError(f"command '{command.value}' needs a [grid] section")
    if steps["dt"] is None or steps["t_final"] is None:
        raise ConfigError(f"command '{command.value}' needs [solver] dt and t_final")
    if shape is None:
        raise ConfigError(f"command '{command.value}' needs an [initial] section")
    if shape["type"] == "single_mode" and shape["k"] is None:
        raise ConfigError("[initial] type single_mode needs a wavenumber k")
    if command is Command.AUDIT and unit.variant is not core.Variant.STRESS_RATE:
        # the audited rate gamma*(T_t)**2 is identically 0 without a gamma
        raise ConfigError(
            f"audit checks the stress-rate dissipation gamma*(T_t)**2 and needs "
            f"the stress_rate variant, got {unit.variant.value}"
        )
    with _refused("[initial] rejected: "):
        if shape["type"] == "zero":
            initial = pde.zero_state(grid)
        elif shape["type"] == "gaussian_bump":
            center = 0.5 * grid.length if shape["center"] is None else shape["center"]
            initial = pde.gaussian_bump_state(
                grid, response, center, shape["width"], shape["amplitude"])
        else:
            initial = pde.single_mode_state(grid, response, shape["k"], shape["amplitude"])
    with _refused("[solver] rejected: "):
        solver = pde.SolverConfig(params=unit, constitutive=response, **steps)
        snapshots = pde.plan(initial, solver).snapshots
    if command is not Command.SIMULATE and snapshots < 3:
        raise ConfigError(
            f"{command.value} needs at least 3 output samples; lower output_stride or dt"
        )
    if command is Command.ENERGY and snapshots == 3:
        # energy_series' gap test on the samples at 0, output_stride*dt and t_final
        gap = solver.output_stride * solver.dt
        last = solver.t_final - gap
        if not core._even_gaps(gap, last):
            raise ConfigError(
                f"energy needs a uniformly spaced interior sample, but its 3 output samples "
                f"are {gap:.6g} and {last:.6g} apart; lower output_stride or dt"
            )
    return solver, initial


_CHUNK_ROWS = 1024  # rows formatted at a time: only their strings are alive at once


def _row_format(header: Sequence[str], specs: Sequence[str], fmt: str) -> Tuple[str, str]:
    """A table's head text and its row template, one % conversion per column.

    CSV rows are the converted cells joined by commas; JSONL rows are objects
    whose keys are the header names as json.dumps spells them.
    """
    if fmt == "csv":
        return ",".join(header) + "\n", ",".join(specs) + "\n"
    keys = (json.dumps(h).replace("%", "%%") for h in header)
    return "", "{" + ", ".join(f"{k}: {spec}" for k, spec in zip(keys, specs)) + "}\n"


def _floats(chunk: np.ndarray) -> list:
    return chunk.astype(float, copy=False).tolist()


def _write_table(path: Path, header: Sequence[str], columns: Sequence, fmt: str) -> None:
    """Write equal-length columns as CSV or JSONL, one line per row.

    Each column's % conversion is chosen once, from its dtype: floats go in
    as %.17g (in JSONL as %r, which json.dumps also gives, when the column is
    finite, else as json.dumps spells each cell), ints as %d, bools as
    true/false, strs as they are (in JSONL as json.dumps spells them).  None
    in place of a column marks one with no value in any row: the template
    holds its empty CSV cell or JSON null.  At least one column is an array.
    JSONL lines are what json.dumps gives for each row's dict.
    """
    csv = fmt == "csv"
    specs, arrays = [], []  # arrays: (column, chunk -> the values its spec takes)
    for c in columns:
        if c is None:
            specs.append("" if csv else "null")
            continue
        kind = c.dtype.kind
        if kind == "f" and (csv or np.isfinite(c).all()):
            spec, values = ("%.17g" if csv else "%r"), _floats
        elif kind == "f":
            spec, values = "%s", lambda x: list(map(json.dumps, _floats(x)))
        elif kind in "iu":
            spec, values = "%d", np.ndarray.tolist
        elif kind == "b":
            spec, values = "%s", lambda x: np.where(x, "true", "false").tolist()
        elif csv:
            spec, values = "%s", np.ndarray.tolist
        else:
            spec, values = "%s", lambda x: list(map(json.dumps, x.tolist()))
        specs.append(spec)
        arrays.append((c, values))
    head, line = _row_format(header, specs, fmt)
    with path.open("w") as fh:
        fh.write(head)
        for lo in range(0, len(arrays[0][0]), _CHUNK_ROWS):
            chunk = [values(c[lo:lo + _CHUNK_ROWS]) for c, values in arrays]
            fh.writelines(map(line.__mod__, zip(*chunk)))


def _write_trajectory(out_dir: Path, traj: pde.Trajectory, fmt: str) -> str:
    """Write one row (t, x, v, eps, stress) per snapshot and node; return the name.

    Each time is formatted once per snapshot and each node once per run; the
    field values go into the row template as numbers.  A Trajectory is
    finite, so repr spells each JSONL float as json.dumps does.
    """
    number = "%.17g" if fmt == "csv" else "%r"
    head, line = _row_format(["t", "x", "v", "eps", "stress"], ["%s", "%s"] + [number] * 3, fmt)
    xs = list(map(number.__mod__, traj.grid.nodes().tolist()))
    name = f"trajectory.{fmt}"
    with (out_dir / name).open("w") as fh:
        fh.write(head)
        for t, rows in zip(traj.t.tolist(), traj.fields):
            fh.writelines(map(line.__mod__, zip(repeat(number % t), xs, *rows.tolist())))
    return name


def _run_simulate(config: RunConfig, out_dir: Path) -> Tuple[Tuple[str, ...], dict]:
    traj = pde.simulate(config.initial, config.solver)
    name = _write_trajectory(out_dir, traj, config.fmt)
    extra = {
        "n_samples": len(traj),
        "t_final": float(traj.t[-1]),
        "max_abs_stress": float(np.max(np.abs(traj.stress[-1]))),
    }
    return (name,), extra


def _run_energy(config: RunConfig, out_dir: Path) -> Tuple[Tuple[str, ...], dict]:
    traj = pde.simulate(config.initial, config.solver)
    reports = pde.energy_series(traj, config.unit, config.solver.constitutive)
    header = [field.name for field in fields(pde.EnergyReport)]
    columns = [np.array([getattr(r, h) for r in reports], dtype=float) for h in header]
    name = f"energy.{config.fmt}"
    _write_table(out_dir / name, header, columns, config.fmt)
    extra = {
        "n_samples": len(traj),
        "max_balance_residual": max(r.balance_residual for r in reports),
        "total_initial": reports[0].total,
        "total_final": reports[-1].total,
    }
    return (name,), extra


def _run_audit(config: RunConfig, out_dir: Path) -> Tuple[Tuple[str, ...], dict]:
    traj = pde.simulate(config.initial, config.solver)
    # one history per node, audited in place in one call
    audit = con.audit_dissipation(config.unit.gamma, traj.t, traj.stress)
    name = f"audit.{config.fmt}"
    _write_table(
        out_dir / name,
        ["node", "x", "min_rate", "total_dissipation", "passed"],
        [np.arange(traj.grid.n_nodes), traj.grid.nodes(),
         audit.min_rate, audit.total_dissipation, audit.passed],
        config.fmt,
    )
    worst = float(audit.min_rate.min())
    extra = {
        "min_rate": worst,
        "passed": bool(audit.passed.all()),
        # summed node by node, in order, as the per-node loop did
        "summed_dissipation": float(np.cumsum(audit.total_dissipation)[-1]),
    }
    return (name,), extra


def _run_dispersion(config: RunConfig, out_dir: Path) -> Tuple[Tuple[str, ...], dict]:
    res = solve_dispersion(config.unit, config.k_values)
    k_critical = res.k_critical
    n_modes, n_roots = res.roots.shape
    header = ["k", "classification", "max_real_part", "positive_real_root",
              "k_critical", "discriminant", "max_residual"]
    columns = [
        res.k,
        np.array([c.value for c in res.classification]),
        res.max_real_part,
        res.positive_real_root,  # None for the strain-rate law
        None if k_critical is None else np.full(n_modes, k_critical),
        res.discriminant,
        np.max(res.residuals(), axis=-1),
    ]
    for i in range(n_roots):
        header += [f"re_r{i}", f"im_r{i}"]
        columns += [res.roots[:, i].real.astype(float), res.roots[:, i].imag.astype(float)]
    classes = set(res.classification)
    worst = next((c for c in (Classification.UNSTABLE, Classification.MARGINALLY_STABLE)
                  if c in classes), Classification.STABLE)
    del res  # the columns hold every value; free the roots before formatting
    name = f"dispersion.{config.fmt}"
    _write_table(out_dir / name, header, columns, config.fmt)
    extra = {
        "model": config.unit.variant.value,
        "coefficient": config.unit.coefficient,
        "n_modes": n_modes,
        "worst_classification": worst.value,
    }
    if k_critical is not None:  # the strain-rate law's
        extra["k_critical"] = k_critical
    return (name,), extra


def _run_twave(config: RunConfig, out_dir: Path) -> Tuple[Tuple[str, ...], dict]:
    problem = config.twave
    try:
        profile = twave.kink_profile(problem, *config.window)
    except NoKinkError as exc:
        if exc.diagnostic is None:  # the front exists; its integration failed
            raise
        profile, diag = None, exc.diagnostic
    else:
        diag = profile.diagnostic
    extra = {
        "c_squared": problem.c_squared,
        "c": problem.c,
        "kappa": problem.kappa,
        "a2": problem.a2,
        "exists": diag.exists,
        "degenerate": diag.degenerate,
        "interior_zeros": [float(z) for z in diag.interior_zeros],
        "message": diag.message,
    }
    if profile is None:
        return (), extra
    extra["signed_speed"] = profile.signed_speed
    columns = (profile.xi, profile.T, profile.strain(profile.xi), profile.velocity(profile.xi))
    name = f"twave.{config.fmt}"
    _write_table(out_dir / name, ["xi", "stress", "eps", "v"], columns, config.fmt)
    return (name,), extra


def run(config: RunConfig) -> RunResult:
    """Execute a validated config; writes tables and status.json."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = {
        "command": config.command.value,
        "variant": config.unit.variant.value,
        "scales": asdict(config.scales),
    }
    runners = {
        Command.SIMULATE: _run_simulate,
        Command.ENERGY: _run_energy,
        Command.AUDIT: _run_audit,
        Command.DISPERSION: _run_dispersion,
        Command.TWAVE: _run_twave,
    }
    try:
        files, extra = runners[config.command](config, out_dir)
        status, exit_code = "ok", 0
    except (BlowUpError, StrainLimitExceededError) as exc:
        # the snapshots recorded before the failure are the evidence
        partial = getattr(exc, "partial", None)
        files = (_write_trajectory(out_dir, partial, config.fmt),) if partial else ()
        if isinstance(exc, BlowUpError):
            status, exit_code = "blow_up", 3
            extra = {"t": exc.t, "max_abs_stress": exc.max_abs_stress,
                     "field": exc.field, "node": exc.node}
        else:
            status, exit_code = "strain_limit", 4
            extra = {"node": exc.node, "value": exc.value}
    record = {**base, "status": status, **extra, "files": list(files)}
    (out_dir / "status.json").write_text(json.dumps(record, indent=2) + "\n")
    return RunResult(status=status, exit_code=exit_code, files=tuple(files), record=record)


# the numeric flags: flag, help text, and the (section, key) pairs it overrides
_FLAGS = (
    ("--nu", "override [model] nu", [("model", "nu")]),
    ("--gamma", "override [model] gamma", [("model", "gamma")]),
    ("--k", "override the wavenumber ([initial] k and [dispersion] k_values)",
     [("initial", "k"), ("dispersion", "k_values")]),
    ("--t-final", "override [solver] t_final", [("solver", "t_final")]),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="slve",
        description="Strain-limiting viscoelasticity: simulate, analyze modes, "
        "trace traveling fronts, audit dissipation.",
    )
    parser.add_argument("command", choices=[c.value for c in Command])
    parser.add_argument("--config", required=True, help="path to an INI config file")
    for flag, help_text, _ in _FLAGS:
        parser.add_argument(flag, type=float, help=help_text)
    parser.add_argument("--out", help="override [output] directory")
    args = parser.parse_args(argv)

    overrides: Dict[Tuple[str, str], str] = {("run", "command"): args.command}
    for flag, _, targets in _FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            overrides.update(dict.fromkeys(targets, repr(value)))
    if args.out is not None:
        overrides[("output", "directory")] = args.out

    try:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:  # an unreadable file is a config error too
            raise ConfigError(str(exc)) from exc
        result = run(parse_config(text, overrides))
    except SlveError as exc:
        bad_config = isinstance(exc, ConfigError)
        category = "config" if bad_config else type(exc).__name__
        print(json.dumps({"status": "error", "category": category, "message": str(exc)}))
        return 2 if bad_config else 1

    print(json.dumps(result.record))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
