"""Config parsing, command dispatch, output tables, and exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slve
from slve import (
    BlowUpError,
    ConfigError,
    audit_dissipation,
    core,
    pde,
    solve_dispersion,
    stress_rate_dispersion,
    twave,
)
from slve.cli import (
    _SCHEMA,
    Command,
    _numbers,
    _write_table,
    main,
    parse_config,
    run,
)


def _reference_cell(x) -> str:
    """One CSV cell from a Python value, formatted on its own."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    assert isinstance(x, str)
    return x


def _reference_table(header, rows, fmt) -> bytes:
    """A table's bytes built one row and cell at a time from Python values."""
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(map(_reference_cell, row)) for row in rows]
    else:
        lines = [json.dumps(dict(zip(header, row))) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


def _reference_trajectory_table(traj, fmt) -> bytes:
    """A trajectory table's bytes, one snapshot and node at a time."""
    rows = [
        [float(t), float(x), float(v), float(eps), float(stress)]
        for t, (vs, epss, stresses) in zip(traj.t, traj.fields)
        for x, v, eps, stress in zip(traj.grid.nodes(), vs, epss, stresses)
    ]
    return _reference_table(["t", "x", "v", "eps", "stress"], rows, fmt)


_SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                   2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 0.1, 1 / 3]
_FLOATS = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
# cell strategy and the column type the writer is handed
_COLUMN_KINDS = {
    "float": (_FLOATS, lambda cells: np.array(cells, dtype=float)),
    # cells a float32 holds exactly; every double is a long double
    "float32": (st.floats(width=32) | st.sampled_from(_SPECIAL_FLOATS[:5]),
                lambda cells: np.array(cells, dtype=np.float32)),
    "longdouble": (_FLOATS, lambda cells: np.array(cells, dtype=np.longdouble)),
    "int": (st.integers(-2**63, 2**63 - 1), lambda cells: np.array(cells, dtype=np.int64)),
    "bool": (st.booleans(), lambda cells: np.array(cells, dtype=bool)),
    "none": (st.none(), lambda cells: None),
    "str": (st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
            lambda cells: np.array(cells, dtype=str)),
}


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 20))
    arrays = sorted(set(_COLUMN_KINDS) - {"none"})
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), max_size=5))
    kinds.insert(draw(st.integers(0, len(kinds))), draw(st.sampled_from(arrays)))
    cells = [draw(st.lists(_COLUMN_KINDS[kind][0], min_size=n_rows, max_size=n_rows))
             for kind in kinds]
    header = [f"{kind}%s{i}" for i, kind in enumerate(kinds)]  # a '%' must stay literal
    columns = [_COLUMN_KINDS[kind][1](col) for kind, col in zip(kinds, cells)]
    return header, columns, list(zip(*cells))

DISP_INI = """
[run]
command = dispersion

[model]
variant = strain_rate
nu = 1.0

[dispersion]
k_values = 0.0 0.5 1.0 2.0 4.0

[output]
directory = {out}
"""

SIM_INI = """
[run]
command = simulate

[model]
variant = stress_rate
gamma = 1.0

[constitutive]
kind = saturating
beta = 1.0
a = 2.0

[grid]
length = 6.283185307179586
n_cells = 64

[solver]
dt = 0.04
t_final = 0.4
output_stride = 5

[initial]
type = gaussian_bump
center = 3.141592653589793
width = 0.5
amplitude = 0.4

[output]
directory = {out}
"""

# a steep bump on a small nu: the first RK4 stage pushes eps + nu*v_x past
# the strain limit 1 of the saturating response
STRAIN_LIMIT_INI = """
[run]
command = simulate

[model]
variant = strain_rate
nu = 0.05

[constitutive]
kind = saturating
beta = 1.0
a = 2.0

[grid]
length = 6.283185307179586
n_cells = 64

[solver]
dt = 0.002
t_final = 2.0
output_stride = 10

[initial]
type = gaussian_bump
width = 0.3
amplitude = 30.0

[output]
directory = {out}
"""

TWAVE_INI = """
[run]
command = twave

[model]
variant = stress_rate
gamma = 1.0

[constitutive]
kind = saturating
beta = 1.0
a = 1.0

[twave]
t_minus = 0.0
t_plus = 1.0

[output]
directory = {out}
"""


# the fewest keys a stepping run and a front take; every other key is left to its default
MINIMAL_SIM_INI = """
[run]
command = simulate

[model]
variant = elastic

[grid]
length = 8.0
n_cells = 16

[solver]
dt = 0.1
t_final = 1.0

[initial]
"""

MINIMAL_TWAVE_INI = """
[run]
command = twave

[model]
variant = stress_rate
gamma = 1.0

[constitutive]
kind = saturating

[twave]
t_minus = 0.0
t_plus = 1.0
"""


class TestParse:
    def test_minimal_dispersion_config(self):
        cfg = parse_config(DISP_INI.format(out="."))
        assert cfg.command is Command.DISPERSION
        assert cfg.unit.nu == 1.0
        assert cfg.k_values.tolist() == [0.0, 0.5, 1.0, 2.0, 4.0]
        assert cfg.fmt == "csv"

    def test_negative_gamma_cites_dissipation(self):
        text = DISP_INI.format(out=".").replace(
            "variant = strain_rate\nnu = 1.0", "variant = stress_rate\ngamma = -0.1"
        )
        with pytest.raises(ConfigError, match="dissipation"):
            parse_config(text)

    def test_unknown_key_named(self):
        text = DISP_INI.format(out=".").replace("nu = 1.0", "nu = 1.0\nbogus = 2")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(text)

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(DISP_INI.format(out=".") + "\n[mystery]\nx = 1\n")

    def test_missing_required_key_named(self):
        text = SIM_INI.format(out=".").replace("n_cells = 64\n", "")
        with pytest.raises(ConfigError, match="n_cells"):
            parse_config(text)

    def test_non_numeric_value_rejected(self):
        text = SIM_INI.format(out=".").replace("dt = 0.04", "dt = fast")
        with pytest.raises(ConfigError, match="dt"):
            parse_config(text)

    def test_single_mode_needs_k(self):
        text = SIM_INI.format(out=".").replace("type = gaussian_bump", "type = single_mode")
        with pytest.raises(ConfigError, match="single_mode"):
            parse_config(text)

    def test_step_over_ceiling_rejected_at_parse(self):
        text = SIM_INI.format(out=".").replace("dt = 0.04", "dt = 0.2")
        with pytest.raises(ConfigError, match="ceiling"):
            parse_config(text)

    def test_dispersion_needs_rate_variant(self):
        text = DISP_INI.format(out=".").replace("variant = strain_rate\nnu = 1.0", "variant = elastic")
        with pytest.raises(ConfigError, match="variant"):
            parse_config(text)

    def test_overrides_reach_the_model(self):
        cfg = parse_config(DISP_INI.format(out="."), {("model", "nu"): "2.5"})
        assert cfg.unit.nu == 2.5

    @pytest.mark.parametrize(
        "text,read,expected",
        [
            # rho = mu = length_scale = 1 leave every scale at 1; the elastic
            # variant refuses a nonzero nu or gamma
            pytest.param(MINIMAL_SIM_INI, lambda c: (
                c.scales.x_scale, c.scales.t_scale, c.scales.stress_scale, c.unit.nu,
                c.unit.gamma), (1.0, 1.0, 1.0, 0.0, 0.0), id="model"),
            # kind = linear with beta = 1 is h(T) = T, unbounded
            pytest.param(MINIMAL_SIM_INI, lambda c: (
                c.solver.constitutive.value(3.0), c.solver.constitutive.bound), (3.0, math.inf),
                id="constitutive"),
            # a = 1 is the saturating T/(1 + |T|)
            pytest.param(MINIMAL_TWAVE_INI, lambda c: c.twave.f.value(1.0), 0.5,
                         id="constitutive-a"),
            pytest.param(MINIMAL_SIM_INI, lambda c: c.initial.grid.boundary,
                         core.Boundary.PERIODIC, id="grid"),
            pytest.param(MINIMAL_SIM_INI, lambda c: (
                c.solver.output_stride, c.solver.blowup_threshold), (1, 1e6), id="solver"),
            pytest.param(MINIMAL_SIM_INI, lambda c: [
                f.values.tolist() for f in (c.initial.v, c.initial.eps, c.initial.stress)],
                [[0.0] * 16] * 3, id="initial"),
            # a bump's center is the grid's middle, its width and amplitude 1
            pytest.param(MINIMAL_SIM_INI + "type = gaussian_bump\n",
                         lambda c: c.initial.stress.values.tolist(),
                         [math.exp(-(x - 4.0) ** 2) for x in np.arange(16) * 0.5],
                         id="initial-bump"),
            pytest.param(MINIMAL_SIM_INI, lambda c: c.k_values, None, id="dispersion"),
            pytest.param(MINIMAL_TWAVE_INI, lambda c: c.window, (200.0, 2001), id="twave"),
            pytest.param(MINIMAL_SIM_INI, lambda c: (c.out_dir, c.fmt), (".", "csv"),
                         id="output"),
        ],
    )
    def test_defaults(self, text, read, expected):
        assert read(parse_config(text)) == expected

    @pytest.mark.parametrize(
        "text,message",
        [
            (MINIMAL_SIM_INI.replace("command = simulate", ""),
             "missing [run] command (or pass the command on the CLI)"),
            (MINIMAL_SIM_INI.replace("command = simulate", "command = fly"),
             "unknown command 'fly'"),
            (MINIMAL_SIM_INI.replace("variant = elastic", ""), "missing [model] variant"),
            (MINIMAL_SIM_INI.replace("n_cells = 16", ""),
             "missing required key 'n_cells' in section [grid]"),
            (MINIMAL_TWAVE_INI.replace("t_plus = 1.0", ""),
             "missing required key 't_plus' in section [twave]"),
            (MINIMAL_SIM_INI + "type = bogus\n", "[initial] type = 'bogus' is not a known shape"),
            (MINIMAL_SIM_INI + "[output]\nformat = xml\n",
             "[output] format must be csv or jsonl, got 'xml'"),
            (MINIMAL_SIM_INI + "[dispersion]\nk_values = ,\n", "[dispersion] k_values is empty"),
            (MINIMAL_SIM_INI.replace("command = simulate", "command = dispersion"),
             "command 'dispersion' needs [dispersion] k_values"),
            (MINIMAL_SIM_INI.replace("command = simulate", "command = twave"),
             "command 'twave' needs a [twave] section"),
            (MINIMAL_SIM_INI.replace("length = 8.0\nn_cells = 16", "").replace("[grid]", ""),
             "command 'simulate' needs a [grid] section"),
            (MINIMAL_SIM_INI.replace("t_final = 1.0", ""),
             "command 'simulate' needs [solver] dt and t_final"),
            (MINIMAL_SIM_INI.replace("[initial]", ""), "command 'simulate' needs an [initial] section"),
        ],
        ids=["run-command", "run-command-unknown", "model-variant", "grid-required",
             "twave-required", "initial-type", "output-format", "dispersion-empty",
             "dispersion-needed", "twave-needed", "grid-needed", "solver-needed", "initial-needed"],
    )
    def test_refusal_message(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    def test_override_of_an_unknown_key_refused(self):
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL_SIM_INI, {("model", "bogus"): "1"})
        assert str(info.value) == "override targets unknown key [model] bogus"

    def test_readme_lists_every_key_with_its_type_and_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        rows = {(section, key): rest for section, key, *rest in re.findall(
            r"^\| `\[(\w+)\]` \| `(\w+)` \| ([\w ]+) \| (.+?) \| (.+?) \|$", readme, re.M)}
        assert set(rows) == {(section, key) for section in _SCHEMA for key in _SCHEMA[section]}
        names = {str: "text", float: "number", int: "integer", _numbers: "number list"}
        for (section, key), (type_name, default_cell, required) in rows.items():
            kind, default = _SCHEMA[section][key]
            assert type_name == names[kind], (section, key)
            if default is None or default is ...:
                assert default_cell == "none", (section, key)
            else:
                assert default_cell == f"`{default_cell.strip('`')}`", (section, key)
                cell = kind(default_cell.strip("`"))
                assert (cell, type(cell)) == (default, type(default)), (section, key)
            # ... marks the keys required whenever their section is present
            assert (required == "if the section is present") == (default is ...), (section, key)


class TestRunDispersion:
    def test_csv_table_and_status(self, tmp_path):
        cfg = parse_config(DISP_INI.format(out=tmp_path))
        result = run(cfg)
        assert result.exit_code == 0 and result.status == "ok"
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["k", "classification"]
        assert len(lines) == 6
        k0 = lines[1].split(",")
        assert k0[1] == "marginally_stable"
        status = json.loads((tmp_path / "status.json").read_text())
        assert status["k_critical"] == 2.0
        assert status["worst_classification"] == "marginally_stable"

    def test_floats_roundtrip_through_csv(self, tmp_path):
        text = DISP_INI.format(out=tmp_path).replace(
            "variant = strain_rate\nnu = 1.0", "variant = stress_rate\ngamma = 1.0"
        )
        run(parse_config(text))
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[3].split(",")))  # k = 1.0
        ref = stress_rate_dispersion(1.0, 1.0)
        assert float(row["positive_real_root"]) == ref.positive_real_root
        assert float(row["discriminant"]) == ref.discriminant

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(parse_config(DISP_INI.format(out=a)))
        run(parse_config(DISP_INI.format(out=b)))
        assert (a / "dispersion.csv").read_bytes() == (b / "dispersion.csv").read_bytes()
        assert (a / "status.json").read_bytes() == (b / "status.json").read_bytes()

    def test_jsonl_format(self, tmp_path):
        text = DISP_INI.format(out=tmp_path) + "format = jsonl\n"
        run(parse_config(text))
        lines = (tmp_path / "dispersion.jsonl").read_text().splitlines()
        assert len(lines) == 5
        rec = json.loads(lines[2])
        assert rec["k"] == 1.0 and rec["classification"] == "stable"
        assert rec["positive_real_root"] is None


    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "model",
        ["variant = strain_rate\nnu = 1.0", "variant = stress_rate\ngamma = 0.5"],
        ids=["strain_rate", "stress_rate"],
    )
    def test_table_equals_per_mode_rows(self, tmp_path, model, fmt):
        # the same table built one scalar solve per wavenumber, as rows
        ks = [0.0, 2.0, 1.9999999999999998, 1e-3, 0.5, 7.25, 1e-160, 1e150]
        text = (
            DISP_INI.format(out=tmp_path / "out")
            .replace("variant = strain_rate\nnu = 1.0", model)
            .replace("0.0 0.5 1.0 2.0 4.0", " ".join(map(repr, ks)))
            + f"format = {fmt}\n"
        )
        config = parse_config(text)
        assert run(config).exit_code == 0
        unit = config.unit
        header = ["k", "classification", "max_real_part", "positive_real_root",
                  "k_critical", "discriminant", "max_residual"]
        rows = []
        for k in config.k_values:
            res = solve_dispersion(unit, float(k))
            root = res.positive_real_root
            row = [float(k), res.classification.value, float(res.max_real_part),
                   None if root is None else float(root), res.k_critical,
                   float(res.discriminant), float(np.max(res.residuals()))]
            for r in res.roots:
                row += [float(r.real), float(r.imag)]
            rows.append(row)
        header += [f"{part}_r{i}" for i in range(len(res.roots)) for part in ("re", "im")]
        written = (tmp_path / "out" / f"dispersion.{fmt}").read_bytes()
        assert written == _reference_table(header, rows, fmt)


class TestRunSimulate:
    def test_trajectory_table(self, tmp_path):
        result = run(parse_config(SIM_INI.format(out=tmp_path)))
        assert result.exit_code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x,v,eps,stress"
        # 3 samples (t = 0, 0.2, 0.4) x 64 nodes
        assert len(lines) == 1 + 3 * 64
        status = json.loads((tmp_path / "status.json").read_text())
        assert status["t_final"] == 0.4

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_table_equals_per_snapshot_rows(self, tmp_path, fmt):
        # the same table formatted one snapshot and node at a time
        config = parse_config(SIM_INI.format(out=tmp_path / "out") + f"format = {fmt}\n")
        assert run(config).exit_code == 0
        traj = pde.simulate(config.initial, config.solver)
        written = (tmp_path / "out" / f"trajectory.{fmt}").read_bytes()
        assert written == _reference_trajectory_table(traj, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("case", ["pinned", "blow_up"])
    def test_pinned_and_partial_tables_equal_per_snapshot_rows(self, tmp_path, case, fmt):
        # a pinned grid stores N = n_cells + 1 nodes; after exit 3 the table
        # is the partial trajectory the blow-up carries
        text = SIM_INI.format(out=tmp_path / "out") + f"format = {fmt}\n"
        if case == "pinned":
            text = text.replace("n_cells = 64\n", "n_cells = 64\nboundary = dirichlet_zero\n")
        else:
            text = text.replace("t_final = 0.4", "t_final = 30.0")
            text = text.replace("kind = saturating", "kind = linear")
        config = parse_config(text)
        result = run(config)
        if case == "pinned":
            assert result.exit_code == 0
            traj = pde.simulate(config.initial, config.solver)
            assert traj.fields.shape[-1] == 65
        else:
            assert result.exit_code == 3
            with pytest.raises(BlowUpError) as ei:
                pde.simulate(config.initial, config.solver)
            traj = ei.value.partial
            assert 1 < len(traj) < 150
        written = (tmp_path / "out" / f"trajectory.{fmt}").read_bytes()
        assert written == _reference_trajectory_table(traj, fmt)

    def test_blow_up_reported_with_time(self, tmp_path):
        text = SIM_INI.format(out=tmp_path).replace("t_final = 0.4", "t_final = 30.0")
        text = text.replace("kind = saturating", "kind = linear")
        config = parse_config(text)
        result = run(config)
        assert result.exit_code == 3 and result.status == "blow_up"
        assert 0.0 < result.record["t"] < 30.0
        assert result.record["max_abs_stress"] > 0.0
        # partial trajectory still written
        assert (tmp_path / "trajectory.csv").exists()
        status = json.loads((tmp_path / "status.json").read_text())
        assert status["status"] == "blow_up"
        # the field and node of the first bad entry of the failing state
        with pytest.raises(BlowUpError) as ei:
            pde.simulate(config.initial, config.solver)
        assert status["field"] == ei.value.field in ("v", "eps", "stress")
        assert status["node"] == ei.value.node and 0 <= status["node"] < 64
        assert status["t"] == ei.value.t

    def test_strain_limit_keeps_node_and_partial_trajectory(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(STRAIN_LIMIT_INI.format(out=tmp_path / "out"))
        assert main(["simulate", "--config", str(ini)]) == 4
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "strain_limit"
        assert record["node"] == 29 and record["value"] > 1.0
        assert record["files"] == ["trajectory.csv"]
        assert json.loads((tmp_path / "out" / "status.json").read_text()) == record
        # the initial snapshot, written before the failing step
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 64
        assert all(line.startswith("0,") for line in lines[1:])


class TestRunTwave:
    def test_front_table_and_speed(self, tmp_path):
        result = run(parse_config(TWAVE_INI.format(out=tmp_path)))
        assert result.exit_code == 0
        status = json.loads((tmp_path / "status.json").read_text())
        assert status["c"] == pytest.approx(np.sqrt(2.0), rel=1e-14)
        assert status["exists"] is True
        assert status["signed_speed"] == pytest.approx(-np.sqrt(2.0), rel=1e-14)
        lines = (tmp_path / "twave.csv").read_text().splitlines()
        assert lines[0] == "xi,stress,eps,v"
        assert len(lines) == 1 + 2001

    def test_no_kink_still_ok_with_diagnostic(self, tmp_path):
        text = TWAVE_INI.format(out=tmp_path).replace("kind = saturating", "kind = linear")
        result = run(parse_config(text))
        assert result.exit_code == 0
        assert result.record["exists"] is False
        assert result.record["degenerate"] is True
        assert not (tmp_path / "twave.csv").exists()


    @pytest.mark.parametrize(
        "model",
        ["variant = stress_rate\ngamma = 1.0", "variant = strain_rate\nnu = 0.5"],
        ids=["stress_rate", "strain_rate"],
    )
    def test_table_equals_per_sample_rows(self, tmp_path, model):
        # the same table built from one interpolant call per sample and column
        text = (
            TWAVE_INI.format(out=tmp_path / "out")
            .replace("variant = stress_rate\ngamma = 1.0", model)
            .replace("t_plus = 1.0\n", "t_plus = 1.0\nn_samples = 301\n")
        )
        config = parse_config(text)
        assert run(config).exit_code == 0
        unit = config.unit
        spec = config.twave
        problem = twave.make_problem(spec.f, spec.t_minus, spec.t_plus, unit)
        xi_span, n_samples = config.window
        profile = twave.kink_profile(problem, xi_span=xi_span, n_samples=n_samples)
        rows = [
            [float(xi), float(T), float(profile.strain(xi)), float(profile.velocity(xi))]
            for xi, T in zip(profile.xi, profile.T)
        ]
        written = (tmp_path / "out" / "twave.csv").read_bytes()
        assert written == _reference_table(["xi", "stress", "eps", "v"], rows, "csv")


class TestRunEnergyAudit:
    def test_energy_table(self, tmp_path):
        text = SIM_INI.format(out=tmp_path).replace("command = simulate", "command = energy")
        result = run(parse_config(text))
        assert result.exit_code == 0
        lines = (tmp_path / "energy.csv").read_text().splitlines()
        assert lines[0] == "t,kinetic,internal,total,dissipation_rate,balance_residual"
        assert len(lines) >= 2

    def test_dimensional_model_runs_its_unit_form(self, tmp_path):
        # the CLI hands the solvers the unit form: a dimensional [model] gives
        # the bytes of the same config written with its scaled coefficients
        text = SIM_INI.replace("command = simulate", "command = energy")
        model = "variant = stress_rate\ngamma = 1.0"
        scales = core.nondimensionalize(rho=4.0, mu=2.0, length_scale=0.5, gamma=1.0)
        cases = {
            "dimensional": model + "\nrho = 4\nmu = 2\nlength_scale = 0.5",
            "unit": f"variant = stress_rate\nnu = {scales.nu_bar!r}\ngamma = {scales.gamma_bar!r}",
        }
        written = {}
        for name, section in cases.items():
            ini = tmp_path / f"{name}.ini"
            ini.write_text(text.replace(model, section).format(out=tmp_path / name))
            assert main(["energy", "--config", str(ini)]) == 0
            written[name] = (tmp_path / name / "energy.csv").read_bytes()
        assert scales.gamma_bar != 1.0
        assert written["dimensional"] == written["unit"]
        status = json.loads((tmp_path / "dimensional" / "status.json").read_text())
        assert status["scales"] == asdict(scales)

    @pytest.mark.parametrize("command", ["energy", "audit"])
    def test_too_few_samples_refused_before_running(self, tmp_path, capsys, command):
        # t_final = 2*dt at stride 2 records 2 samples: no centered stencil
        ini = tmp_path / "run.ini"
        text = SIM_INI.format(out=tmp_path / "out").replace("t_final = 0.4", "t_final = 0.08")
        ini.write_text(text.replace("output_stride = 5", "output_stride = 2"))
        assert main([command, "--config", str(ini)]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "error" and record["category"] == "config"
        assert "at least 3 output samples" in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "t_final,stride,refused",
        [("0.015", "1", True), ("0.03", "2", True), ("0.02", "1", False), ("0.04", "2", False),
         ("0.025", "1", False)],
    )
    def test_energy_without_a_uniform_interior_sample_refused_before_running(
        self, tmp_path, capsys, t_final, stride, refused
    ):
        # 3 samples at 0, stride*dt and t_final have one interior sample, which
        # needs equal gaps; 4 or more always have one with equal gaps
        ini = tmp_path / "run.ini"
        text = (SIM_INI.format(out=tmp_path / "out")
                .replace("variant = stress_rate\ngamma = 1.0", "variant = strain_rate\nnu = 0.5")
                .replace("n_cells = 64", "n_cells = 16").replace("dt = 0.04", "dt = 0.01")
                .replace("t_final = 0.4", f"t_final = {t_final}")
                .replace("output_stride = 5", f"output_stride = {stride}"))
        ini.write_text(text)
        assert main(["energy", "--config", str(ini)]) == (2 if refused else 0)
        record = json.loads(capsys.readouterr().out)
        assert (record["status"], (tmp_path / "out").exists()) == (
            ("error", False) if refused else ("ok", True))
        if refused:
            assert record["category"] == "config"
            assert "energy needs a uniformly spaced interior sample" in record["message"]
        # the refusal is energy_series' own verdict on the run's snapshots
        config = parse_config(text)
        traj = pde.simulate(config.initial, config.solver)
        if refused:
            with pytest.raises(slve.InvalidParameterError, match="no uniformly spaced"):
                pde.energy_series(traj, config.unit, config.solver.constitutive)
        else:
            assert pde.energy_series(traj, config.unit, config.solver.constitutive)

    def test_audit_table_passes(self, tmp_path):
        text = SIM_INI.format(out=tmp_path).replace("command = simulate", "command = audit")
        result = run(parse_config(text))
        assert result.exit_code == 0
        assert result.record["passed"] is True
        lines = (tmp_path / "audit.csv").read_text().splitlines()
        assert lines[0] == "node,x,min_rate,total_dissipation,passed"
        assert len(lines) == 1 + 64
        assert lines[1].split(",")[-1] == "true"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_audit_table_equals_per_node_rows(self, tmp_path, fmt):
        # the same table from one single-history audit per node
        text = SIM_INI.replace("command = simulate", "command = audit")
        config = parse_config(text.format(out=tmp_path / "out") + f"format = {fmt}\n")
        result = run(config)
        assert result.exit_code == 0
        solver_config = config.solver
        traj = pde.simulate(config.initial, solver_config)
        rows = []
        summed = 0.0
        for j, x in enumerate(config.initial.grid.nodes().tolist()):
            audit = audit_dissipation(
                solver_config.params.gamma, traj.t, np.ascontiguousarray(traj.stress[:, j:j + 1]))
            total = float(audit.total_dissipation[0])
            rows.append([j, x, float(audit.min_rate[0]), total, bool(audit.passed[0])])
            summed += total
        header = ["node", "x", "min_rate", "total_dissipation", "passed"]
        written = (tmp_path / "out" / f"audit.{fmt}").read_bytes()
        assert written == _reference_table(header, rows, fmt)
        assert result.record["min_rate"] == min(row[2] for row in rows)
        assert result.record["summed_dissipation"] == summed

    @pytest.mark.parametrize(
        "variant,model",
        [("strain_rate", "variant = strain_rate\nnu = 1.0"), ("elastic", "variant = elastic")],
        ids=["strain_rate", "elastic"],
    )
    def test_audit_refused_without_stress_rate(self, tmp_path, capsys, variant, model):
        # without a gamma every audited rate gamma*(T_t)**2 is 0: a vacuous pass
        text = (
            SIM_INI.format(out=tmp_path / "out")
            .replace("variant = stress_rate\ngamma = 1.0", model)
            .replace("dt = 0.04", "dt = 0.002")
        )
        parse_config(text)  # the same run is a valid simulate config
        with pytest.raises(ConfigError, match=f"audit.*{variant}"):
            parse_config(text.replace("command = simulate", "command = audit"))
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        assert main(["audit", "--config", str(ini)]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "error" and record["category"] == "config"
        assert variant in record["message"]
        assert not (tmp_path / "out" / "audit.csv").exists()


class TestMain:
    def test_dispersion_end_to_end(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(DISP_INI.format(out=tmp_path / "out"))
        code = main(["dispersion", "--config", str(ini)])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "ok"

    def test_cli_command_overrides_config(self, tmp_path, capsys):
        # config says simulate; positional argument wins
        ini = tmp_path / "run.ini"
        ini.write_text(SIM_INI.format(out=tmp_path / "out") + "\n[dispersion]\nk_values = 1.0\n")
        code = main(["dispersion", "--config", str(ini)])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["command"] == "dispersion"

    def test_bad_config_exit_2(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[mystery]\nx = 1\n")
        assert main(["simulate", "--config", str(ini)]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "error" and record["category"] == "config"

    def test_malformed_ini_exit_2_before_the_output_directory(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("command = simulate\n[model\n")
        assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "error" and record["category"] == "config"
        assert "not valid INI" in record["message"]
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2
        assert json.loads(capsys.readouterr().out)["category"] == "config"

    def test_blow_up_exit_3(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        text = SIM_INI.format(out=tmp_path / "out").replace("kind = saturating", "kind = linear")
        ini.write_text(text)
        code = main(["simulate", "--config", str(ini), "--t-final", "30"])
        assert code == 3
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "blow_up" and record["t"] > 0.0

    def test_nu_and_out_overrides(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(DISP_INI.format(out=tmp_path / "ignored"))
        out2 = tmp_path / "elsewhere"
        code = main(["dispersion", "--config", str(ini), "--nu", "0.5", "--out", str(out2)])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["k_critical"] == 4.0
        assert (out2 / "dispersion.csv").exists()

    @pytest.mark.parametrize(
        "model,k,reason",
        [
            pytest.param(model, k, reason, id=f"{k}-{reason}-{name}")
            for name, model in (("strain_rate", "variant = strain_rate\nnu = 1.0"),
                                ("stress_rate", "variant = stress_rate\ngamma = 1.0"))
            for k, reason in (("1e160", "too large"), ("-1.0", "finite and >= 0"),
                              ("nan", "finite"))
        ]
        + [pytest.param("variant = stress_rate\ngamma = 1e-3", "1e154", "k*k/gamma overflows",
                        id="1e154-k*k over gamma-stress_rate")]
        + [pytest.param("variant = strain_rate\nnu = 1e150", "1e150", "nu*k*k overflows",
                        id="1e150-nu k*k-strain_rate")]
        + [pytest.param(f"variant = stress_rate\ngamma = {g}", "1.0", "1/gamma overflows",
                        id=f"{g}-1 over gamma-stress_rate") for g in ("5e-324", "1e-310")]
        + [pytest.param("variant = stress_rate\ngamma = 1e-225", "0.0", "1/gamma**2 overflows",
                        id="1e-225-1 over gamma squared-stress_rate")]
        + [pytest.param("variant = strain_rate\nnu = 1e-310", "0.5", "2/nu overflows",
                        id="1e-310-2 over nu-strain_rate")],
    )
    def test_bad_wavenumber_exit_2(self, tmp_path, capsys, model, k, reason):
        # at 1e160 k*k is inf: no finite root or residual to report; at 1e154
        # k*k is finite but k*k/gamma is not for gamma = 1e-3; below about
        # 5.6e-309 no k is solvable, since 1/gamma itself overflows, and below
        # about 7.5e-155 the cubic's terms 1/gamma**2 at that root do; at nu = 1e150,
        # k = 1e150 nu*k*k, the strain-rate law's fast decay rate, is inf; at
        # nu = 1e-310 the critical wavenumber 2/nu is
        ini = tmp_path / "run.ini"
        text = DISP_INI.format(out=tmp_path / "out")
        ini.write_text(text.replace("variant = strain_rate\nnu = 1.0", model))
        assert main(["dispersion", "--config", str(ini), "--k", k]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["category"] == "config" and "k_values" in record["message"]
        assert reason in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model,message",
        [
            ("variant = strain_rate\nnu = 1.0\nrho = 0", "rho must be positive, got 0.0"),
            ("variant = strain_rate\nnu = 1.0\nmu = -1", "mu must be positive, got -1.0"),
            ("variant = strain_rate\nnu = 1.0\nlength_scale = nan",
             "length_scale must be finite, got nan"),
            ("variant = strain_rate\nnu = -1",
             "nu must be nonnegative (dissipation requires it), got -1.0"),
            ("variant = stress_rate\ngamma = inf", "gamma must be finite, got inf"),
            ("variant = bogus\nnu = 1.0",
             "unknown variant 'bogus'; expected one of stress_rate, strain_rate, elastic"),
            ("variant = elastic\nnu = 1.0", "elastic variant requires nu = gamma = 0"),
            # materials whose wave speed or time scale leaves the double range
            ("variant = strain_rate\nnu = 1.0\nmu = 1e-320\nrho = 1e300",
             "the wave speed sqrt(mu/rho) must be positive and finite, got 0.0 "
             "for mu = 1e-320, rho = 1e+300"),
            ("variant = stress_rate\ngamma = 1.0\nmu = 1e300\nrho = 1e-300",
             "the wave speed sqrt(mu/rho) must be positive and finite, got inf "
             "for mu = 1e+300, rho = 1e-300"),
            ("variant = strain_rate\nnu = 1.0\nlength_scale = 1e300\nmu = 1e-20",
             "t_scale = inf leaves the double range"),
            # a nonzero nu is no elastic model, even where nu/L underflows to 0
            ("variant = elastic\nnu = 5e-324\nlength_scale = 10",
             "nu_bar = 0.0 leaves the double range"),
        ],
        ids=["rho-0", "mu--1", "length_scale-nan", "nu--1", "gamma-inf", "variant-bogus",
             "elastic-nu-1", "speed-0", "speed-inf", "t_scale-inf", "elastic-nu_bar-0"],
    )
    def test_bad_model_values_exit_2(self, tmp_path, capsys, model, message):
        # refused while parsing, before the output directory is made
        ini = tmp_path / "run.ini"
        text = DISP_INI.format(out=tmp_path / "out")
        ini.write_text(text.replace("variant = strain_rate\nnu = 1.0", model))
        assert main(["dispersion", "--config", str(ini)]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "error" and record["category"] == "config"
        assert record["message"] == f"[model] rejected: {message}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old,new,message",
        [("nu = 1.0", "nu = abc", "[model] nu = 'abc' is not a number"),
         ("beta = 1.0", "beta = x", "[constitutive] beta = 'x' is not a number"),
         ("length = 6.283185307179586", "length = y", "[grid] length = 'y' is not a number"),
         ("n_cells = 64", "n_cells = 6.5", "[grid] n_cells = '6.5' is not an integer"),
         ("length = 6.283185307179586\n", "",
          "missing required key 'length' in section [grid]"),
         ("output_stride = 5", "output_stride = 2.5",
          "[solver] output_stride = '2.5' is not an integer"),
         # [twave] and [dispersion] values are read for every command
         ("[output]", "[twave]\nt_minus = 0.0\nt_plus = 1.0\nn_samples = 9.5\n\n[output]",
          "[twave] n_samples = '9.5' is not an integer"),
         ("[output]", "[dispersion]\nk_values = 1 x\n\n[output]",
          "[dispersion] k_values = '1 x' is not a number list")],
        ids=["model", "constitutive", "grid", "grid-int", "grid-missing", "solver-int",
             "twave-int", "dispersion-list"],
    )
    def test_unreadable_value_names_its_block_once(self, tmp_path, capsys, old, new, message):
        ini = tmp_path / "run.ini"
        text = (SIM_INI.format(out=tmp_path / "out")
                .replace("variant = stress_rate\ngamma = 1.0", "variant = strain_rate\nnu = 1.0"))
        ini.write_text(text.replace(old, new))
        assert main(["simulate", "--config", str(ini)]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["category"] == "config" and record["message"] == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "template,old,new,prefix,library",
        [(SIM_INI, "beta = 1.0", "beta = -1", "[constitutive] rejected: ",
          "beta must be positive and finite, got -1.0"),
         (SIM_INI, "n_cells = 64", "n_cells = 2", "[grid] rejected: ",
          "n_cells must be an integer >= 4, got 2"),
         (SIM_INI, "width = 0.5", "width = 0", "[initial] rejected: ",
          "width must be positive, got 0.0"),
         (SIM_INI, "output_stride = 5", "output_stride = 0", "[solver] rejected: ",
          "output_stride must be an integer >= 1, got 0"),
         (DISP_INI, "k_values = 0.0 0.5 1.0 2.0 4.0", "k_values = -1",
          "[dispersion] k_values rejected for the strain_rate variant: ",
          "wavenumber must be finite and >= 0, got -1.0"),
         (TWAVE_INI, "t_minus = 0.0\nt_plus = 1.0", "t_minus = 0.5\nt_plus = 0.5", "[twave] ",
          "end states coincide: 0.5")],
        ids=["constitutive", "grid", "initial", "solver", "dispersion", "twave"],
    )
    def test_refusal_is_prefix_and_library_message(
        self, tmp_path, capsys, template, old, new, prefix, library
    ):
        # the library's own message, behind its block's prefix, named once
        text = template.format(out=tmp_path / "out")
        assert old in text
        ini = tmp_path / "run.ini"
        ini.write_text(text.replace(old, new))
        command = re.search(r"command = (\w+)", text).group(1)
        assert main([command, "--config", str(ini)]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "status": "error", "category": "config", "message": prefix + library}
        assert library.count(prefix.split()[0]) == 0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,value",
        [("n_samples", "5"), ("n_samples", "8"), ("xi_span", "0.0"), ("xi_span", "-200.0"),
         ("xi_span", "inf"), ("xi_span", "nan")],
    )
    def test_bad_twave_values_exit_2(self, tmp_path, capsys, key, value):
        # refused while parsing, before the existence scan runs
        ini = tmp_path / "run.ini"
        text = TWAVE_INI.format(out=tmp_path / "out")
        ini.write_text(text.replace("t_plus = 1.0\n", f"t_plus = 1.0\n{key} = {value}\n"))
        assert main(["twave", "--config", str(ini)]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["category"] == "config" and key in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["t_minus", "t_plus"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_end_state_exit_2(self, tmp_path, capsys, key, value):
        # refused while parsing, before the output directory is made
        ini = tmp_path / "run.ini"
        text = TWAVE_INI.format(out=tmp_path / "out")
        ini.write_text(re.sub(f"{key} = .*", f"{key} = {value}", text))
        assert main(["twave", "--config", str(ini)]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["category"] == "config"
        assert f"[twave] {key} must be finite" in record["message"]
        assert not (tmp_path / "out").exists()

    def test_coincident_end_states_exit_2(self, tmp_path, capsys):
        # no front joins a state to itself: refused while parsing
        ini = tmp_path / "run.ini"
        text = TWAVE_INI.format(out=tmp_path / "out")
        ini.write_text(text.replace("t_minus = 0.0", "t_minus = 0.5").replace(
            "t_plus = 1.0", "t_plus = 0.5"))
        assert main(["twave", "--config", str(ini)]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "error" and record["category"] == "config"
        assert "[twave]" in record["message"]
        assert not (tmp_path / "out").exists()

    def test_overflowing_kappa_exit_2(self, tmp_path, capsys):
        # the states 0 and 1e308 give c = 1e154, whose gamma * c**3 has no double value
        ini = tmp_path / "run.ini"
        text = TWAVE_INI.format(out=tmp_path / "out")
        ini.write_text(text.replace("t_plus = 1.0", "t_plus = 1e308"))
        assert main(["twave", "--config", str(ini)]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "status": "error", "category": "config",
            "message": "[twave] kappa overflows a double at speed c = 1e+154"}
        assert not (tmp_path / "out").exists()

    def test_underflowing_kappa_exit_2(self, tmp_path, capsys):
        # beta = 1e300 from 0 to 1e-310 gives c = 1e-150, whose gamma * c**3 rounds to 0
        ini = tmp_path / "run.ini"
        text = TWAVE_INI.format(out=tmp_path / "out")
        ini.write_text(text.replace("beta = 1.0", "beta = 1e300").replace(
            "t_plus = 1.0", "t_plus = 1e-310"))
        assert main(["twave", "--config", str(ini)]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "status": "error", "category": "config",
            "message": "[twave] kappa underflows to 0 at speed c = 1.00000000005e-150"}
        assert not (tmp_path / "out").exists()

    def test_interior_equilibrium_reported_without_a_table(self, tmp_path, capsys):
        # saturating a = 1 from -1 to 2: c**2 = 18/7, A2 = 2/7, and B vanishes
        # at -2/7, between two scan nodes
        ini = tmp_path / "run.ini"
        text = TWAVE_INI.format(out=tmp_path / "out")
        ini.write_text(text.replace("t_minus = 0.0", "t_minus = -1.0").replace(
            "t_plus = 1.0", "t_plus = 2.0"))
        assert main(["twave", "--config", str(ini)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "ok" and record["files"] == []
        assert record["exists"] is False and record["degenerate"] is False
        (zero,) = record["interior_zeros"]
        assert zero == pytest.approx(-2.0 / 7.0, abs=1e-12)
        assert not (tmp_path / "out" / "twave.csv").exists()

    def test_twave_scans_for_the_front_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        scan = twave.kink_exists

        def counted(problem):
            calls.append(problem)
            return scan(problem)

        monkeypatch.setattr(twave, "kink_exists", counted)
        ini = tmp_path / "run.ini"
        ini.write_text(TWAVE_INI.format(out=tmp_path / "out"))
        assert main(["twave", "--config", str(ini)]) == 0
        assert json.loads(capsys.readouterr().out)["exists"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "initial,reason",
        [
            ("type = single_mode\nk = 1.5", "does not fit the periodic length"),
            ("type = gaussian_bump\nwidth = -1", "width must be positive"),
            ("type = gaussian_bump\ncenter = nan", "center must be finite"),
            ("type = gaussian_bump\ncenter = inf", "center must be finite"),
        ],
        ids=["single_mode-k-1.5", "width--1", "center-nan", "center-inf"],
    )
    def test_bad_initial_values_exit_2(self, tmp_path, capsys, initial, reason):
        # the initial state is built while parsing, before the output directory
        ini = tmp_path / "run.ini"
        text = SIM_INI.format(out=tmp_path / "out")
        start = text.index("[initial]")
        end = text.index("[output]")
        ini.write_text(text[:start] + f"[initial]\n{initial}\n\n" + text[end:])
        assert main(["simulate", "--config", str(ini)]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "error" and record["category"] == "config"
        assert "[initial]" in record["message"] and reason in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section,value",
        [("[solver]", "dt = abc"), ("[initial]", "type = bogus")],
        ids=["solver-dt-abc", "initial-type-bogus"],
    )
    def test_solver_and_initial_values_checked_for_dispersion(
        self, tmp_path, capsys, section, value
    ):
        # dispersion runs neither, but their values are still refused when bad
        ini = tmp_path / "run.ini"
        ini.write_text(DISP_INI.format(out=tmp_path / "out") + f"\n{section}\n{value}\n")
        assert main(["dispersion", "--config", str(ini)]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "error" and record["category"] == "config"
        assert value.split()[-1] in record["message"]
        assert not (tmp_path / "out").exists()

    def test_k_override_narrows_mode_list(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(DISP_INI.format(out=tmp_path / "out"))
        code = main(["dispersion", "--config", str(ini), "--k", "3.0"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["n_modes"] == 1


class TestWriteTable:
    @given(_tables(), st.sampled_from(["csv", "jsonl"]))
    @settings(max_examples=200, deadline=None)
    def test_columns_match_per_cell_reference(self, tmp_path_factory, table, fmt):
        header, columns, rows = table
        path = tmp_path_factory.mktemp("table") / "t"
        _write_table(path, header, columns, fmt)
        assert path.read_bytes() == _reference_table(header, rows, fmt)

    @pytest.mark.parametrize("n_rows", [1023, 1024, 1025, 2500])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_rows_across_chunk_boundaries(self, tmp_path, n_rows, fmt):
        rng = np.random.default_rng(n_rows)
        floats = rng.normal(size=n_rows) * 10.0 ** rng.integers(-320, 308, n_rows)
        floats[::97] = math.nan
        labels = ["a", "b,c", "%d"]
        cells = [floats.tolist(), list(range(n_rows)),
                 [labels[i % 3] for i in range(n_rows)], [None] * n_rows]
        columns = [floats, np.arange(n_rows), np.array(cells[2]), None]
        header = ["x", "i", "label", "maybe"]
        _write_table(tmp_path / "t", header, columns, fmt)
        assert (tmp_path / "t").read_bytes() == _reference_table(header, list(zip(*cells)), fmt)


# the source tree of the slve under test, so a fresh interpreter loads the same one
_SRC = Path(slve.__file__).resolve().parents[1]

# runs each (command, config) pair through main in one fresh interpreter and
# reports, last on stdout, the exit codes and whether scipy was loaded after
# importing slve.cli and after the commands
_FRESH_RUN = """
import json, sys
from slve.cli import main
loaded = ["scipy" in sys.modules]
codes = [main([command, "--config", ini]) for command, ini in json.loads(sys.argv[1])]
loaded.append("scipy" in sys.modules)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """Run `python *args` in a new interpreter that imports slve from _SRC."""
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def _fresh_runs(tmp_path, configs) -> dict:
    """Run every command of configs ({command: INI text}) in one fresh
    interpreter, each writing into tmp_path/fresh/<command>."""
    runs = []
    for command, text in configs.items():
        ini = tmp_path / f"{command}.ini"
        ini.write_text(text.format(out=tmp_path / "fresh" / command))
        runs.append([command, str(ini)])
    proc = _fresh_python("-c", _FRESH_RUN, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _assert_tables_match_in_process_runs(tmp_path, configs):
    """Every file of each fresh run in tmp_path/fresh is byte-identical to
    the same command run in this process."""
    for command in configs:
        here = tmp_path / "here" / command
        ini = str(tmp_path / f"{command}.ini")
        assert main([command, "--config", ini, "--out", str(here)]) == 0
        fresh = tmp_path / "fresh" / command
        names = sorted(path.name for path in here.iterdir())
        assert names == sorted(path.name for path in fresh.iterdir())
        assert len(names) >= 2  # a table beside status.json
        for name in names:
            assert (fresh / name).read_bytes() == (here / name).read_bytes(), name


class TestFreshInterpreter:
    """Commands in a new interpreter, as the console script runs them: this
    suite's own process has scipy loaded already, for its oracles."""

    def test_closed_form_commands_never_load_scipy(self, tmp_path):
        # saturating a = 2 has closed forms for value, inverse and antiderivative
        configs = {"simulate": SIM_INI, "energy": SIM_INI, "audit": SIM_INI,
                   "dispersion": DISP_INI}
        assert _fresh_runs(tmp_path, configs) == {"codes": [0, 0, 0, 0],
                                                  "scipy": [False, False]}

    def test_import_loads_neither_scipy_nor_numpy_polynomial(self):
        # the quadrature's Gauss-Legendre nodes come from numpy.polynomial
        # on its first call, not at import
        proc = _fresh_python("-c", "import sys, slve.cli; "
                             "print([m in sys.modules for m in ('scipy', 'numpy.polynomial')])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[False, False]"

    def test_quadrature_never_loads_scipy(self, tmp_path):
        # a = 1.5 has no closed-form antiderivative: energy runs the numpy
        # quadrature
        energy = SIM_INI.replace("a = 2.0", "a = 1.5")
        assert energy != SIM_INI
        configs = {"energy": energy}
        assert _fresh_runs(tmp_path, configs) == {"codes": [0], "scipy": [False, False]}
        _assert_tables_match_in_process_runs(tmp_path, configs)

    def test_twave_never_loads_scipy_with_identical_tables(self, tmp_path):
        # twave computes the front by a numpy quadrature of its separable ODE
        configs = {"twave": TWAVE_INI}
        assert _fresh_runs(tmp_path, configs) == {"codes": [0], "scipy": [False, False]}
        _assert_tables_match_in_process_runs(tmp_path, configs)

    def test_module_entry_point(self, tmp_path):
        # python -m slve.cli runs main and exits with its code
        ini = tmp_path / "run.ini"
        ini.write_text(DISP_INI.format(out=tmp_path / "out"))
        proc = _fresh_python("-m", "slve.cli", "dispersion", "--config", str(ini))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["status"] == "ok"
        assert (tmp_path / "out" / "dispersion.csv").exists()

        ini.write_text(DISP_INI.format(out=tmp_path / "bad") + "bogus = 1\n")
        proc = _fresh_python("-m", "slve.cli", "dispersion", "--config", str(ini))
        assert proc.returncode == 2, proc.stderr
        record = json.loads(proc.stdout)
        assert record["status"] == "error" and record["category"] == "config"
        assert "bogus" in record["message"]
        assert not (tmp_path / "bad").exists()
