"""Spans around the public functions of each slve module, from the outside.

The traced run replaces module attributes with timing wrappers at the
places callers look them up: ``slve.pde.first_derivative`` (pde's own
binding, not ``slve.core``'s), ``slve.pde.invert_array``,
``slve.cli.solve_dispersion``, the submodule functions behind it, the
``Field.__post_init__`` and ``KinkProfile.strain``/``velocity`` methods, and
the callables of every response that ``make_constitutive`` or
``custom_constitutive`` returns.  Each call becomes one span (name, start,
end, parent) kept in flat arrays in memory; self time is a span's duration
minus the durations of its direct children.

``self_test`` fails a traced run when a function that should work on a
workload recorded no call there, so a layer that the wrappers stopped
reaching reads as a failure instead of as zero cost.
"""

from __future__ import annotations

import dataclasses
import functools
import types
from array import array
from pathlib import Path
from time import perf_counter
from typing import Dict, List

import numpy as np

from workloads import mod, rk4_steps

# (span name, submodule, attribute path): the owner is the module, or a class
# reached from it, that callers look the attribute up on
WRAPPED = (
    ("core.first_derivative", "pde", "first_derivative"),
    ("core.Field.init", "core", "Field.__post_init__"),
    ("core.integrate_field", "pde", "integrate_field"),
    ("constitutive.make_constitutive", "constitutive", "make_constitutive"),
    ("constitutive.custom_constitutive", "constitutive", "custom_constitutive"),
    ("constitutive.invert_array", "pde", "invert_array"),
    ("constitutive.invert", "constitutive", "invert"),
    ("constitutive.quad", "constitutive", "quad"),
    ("constitutive.audit_dissipation", "constitutive", "audit_dissipation"),
    ("pde.simulate", "pde", "simulate"),
    ("pde.energy_series", "pde", "energy_series"),
    ("pde.total_energy", "pde", "total_energy"),
    ("pde.stored_energy_density", "pde", "stored_energy_density"),
    ("dispersion.dispersion", "cli", "solve_dispersion"),
    ("dispersion.strain_rate_dispersion", "dispersion", "strain_rate_dispersion"),
    ("dispersion.stress_rate_dispersion", "dispersion", "stress_rate_dispersion"),
    ("twave.kink_exists", "twave", "kink_exists"),
    ("twave.kink_profile", "twave", "kink_profile"),
    ("twave.unified_reduction_check", "twave", "unified_reduction_check"),
    ("twave.balance_function", "twave", "balance_function"),
    ("twave.profile_eval", "twave", "KinkProfile.strain"),
    ("twave.profile_eval", "twave", "KinkProfile.velocity"),
    ("cli.parse_config", "cli", "parse_config"),
    ("cli.run", "cli", "run"),
)
# callables of each constructed response
RESPONSE_PARTS = ("value", "derivative", "antiderivative", "inverse")
SPAN_NAMES = sorted({w[0] for w in WRAPPED} | {f"constitutive.{p}" for p in RESPONSE_PARTS})

_PDE = ["core.first_derivative", "core.Field.init", "core.integrate_field",
        "constitutive.make_constitutive", "constitutive.value", "constitutive.antiderivative",
        "pde.simulate", "pde.energy_series", "pde.total_energy", "pde.stored_energy_density",
        "cli.parse_config", "cli.run"]
# functions that must record at least one call on each workload
EXPECTED_CALLS = {
    "strain_rate_bump": _PDE + ["constitutive.inverse", "constitutive.invert_array"],
    "stress_rate_dense": _PDE + ["constitutive.audit_dissipation"],
    "general_response": _PDE + [
        "constitutive.custom_constitutive", "constitutive.inverse", "constitutive.invert_array",
        "constitutive.invert", "constitutive.derivative", "constitutive.quad"],
    "mode_analysis": [
        "dispersion.dispersion", "dispersion.strain_rate_dispersion",
        "dispersion.stress_rate_dispersion", "twave.kink_exists", "twave.kink_profile",
        "twave.unified_reduction_check", "twave.balance_function", "twave.profile_eval",
        "constitutive.make_constitutive", "constitutive.value", "cli.parse_config", "cli.run"],
}

# per-layer metrics beyond <span>.calls and <span>.self_s: name -> unit
DERIVED = {
    "core.first_derivative.us_per_call": "us",
    "constitutive.invert.value_calls_per_node": "ratio",
    "pde.steps": "count",
    "pde.node_steps": "count",
    "pde.snapshots": "count",
    "pde.energy_reports": "count",
    "pde.energy_evals_per_report": "ratio",
    "cli.bytes_written": "B",
    "trace.spans": "count",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> Dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


class Tracer:
    """Installs the wrappers, records spans and boundary counts, restores."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # work counted at the pde boundaries; energy_node_evals is the number
        # of nodal stored-energy values computed, report_nodes sums reports x N
        self.counts = dict.fromkeys(("steps", "node_steps", "snapshots", "energy_reports",
                                     "report_nodes", "energy_node_evals"), 0)
        self._restore: List[tuple] = []

    def span(self, fn, name: str):
        nid = self.ids[name]
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return wrapper

    def _response(self, f):
        parts = {p: self.span(getattr(f, p), f"constitutive.{p}")
                 for p in RESPONSE_PARTS if getattr(f, p) is not None}
        return dataclasses.replace(f, **parts)

    def _hooked(self, name, fn):
        """Wrapper plus the counts this boundary records."""
        traced = self.span(fn, name)
        if name in ("constitutive.make_constitutive", "constitutive.custom_constitutive"):
            return lambda *a, **k: self._response(traced(*a, **k))
        counts = self.counts
        if name == "pde.simulate":
            def simulate(initial, config):
                states = traced(initial, config)
                steps = rk4_steps(config.t_final, config.dt)
                counts["steps"] += steps
                counts["node_steps"] += steps * initial.grid.n_nodes
                counts["snapshots"] += len(states)
                return states
            return simulate
        if name == "pde.stored_energy_density":
            def density(variant, f, T, eps):
                counts["energy_node_evals"] += np.size(T)
                return traced(variant, f, T, eps)
            return density
        if name == "pde.energy_series":
            def series(states, params, f):
                out = traced(states, params, f)
                counts["energy_reports"] += len(out)
                counts["report_nodes"] += len(out) * states[0].grid.n_nodes
                return out
            return series
        return traced

    def install(self) -> None:
        for span, module_name, path in WRAPPED:
            module = mod(module_name)
            if not isinstance(module, types.ModuleType):
                raise TypeError(f"slve.{module_name} is not a module")
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if not callable(original):
                raise TypeError(f"slve.{module_name}.{path} is not callable")
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._hooked(span, original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def mark(self) -> tuple:
        """Position to slice one pass's spans and counts from."""
        return len(self.start), dict(self.counts)

    def layer_metrics(self, lo: tuple, hi: tuple) -> Dict[str, float]:
        """Per-layer metrics of the spans and counts recorded between marks."""
        a, b = lo[0], hi[0]
        # slicing an array copies it, so no view pins the recording buffers
        name = np.frombuffer(self.name[a:b], dtype=np.int32)
        parent = np.frombuffer(self.parent[a:b], dtype=np.int32) - a
        dur = np.frombuffer(self.end[a:b]) - np.frombuffer(self.start[a:b])
        n_names = len(SPAN_NAMES)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=name.size)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=dur - child, minlength=n_names)
        out: Dict[str, float] = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_s[i])
        ids = self.ids
        fd_calls = out["core.first_derivative.calls"]
        fd_total = float(dur[name == ids["core.first_derivative"]].sum())
        out["core.first_derivative.us_per_call"] = 1e6 * fd_total / fd_calls if fd_calls else 0.0
        under_invert = nested & (name == ids["constitutive.value"])
        under_invert[under_invert] = name[parent[under_invert]] == ids["constitutive.invert"]
        inverts = out["constitutive.invert.calls"]
        out["constitutive.invert.value_calls_per_node"] = (
            int(under_invert.sum()) / inverts if inverts else 0.0)
        n = {k: hi[1][k] - lo[1][k] for k in self.counts}
        for k in ("steps", "node_steps", "snapshots", "energy_reports"):
            out[f"pde.{k}"] = n[k]
        out["pde.energy_evals_per_report"] = (
            n["energy_node_evals"] / n["report_nodes"] if n["report_nodes"] else 0.0)
        out["trace.spans"] = int(b - a)
        return out

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(SPAN_NAMES), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end))


def self_test(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Functions expected to work on this workload that recorded no call."""
    missing = [n for n in EXPECTED_CALLS[workload] if not metrics[f"{n}.calls"] >= 1]
    unused = set(SPAN_NAMES) - {n for names in EXPECTED_CALLS.values() for n in names}
    return missing + [f"{n} is expected on no workload" for n in sorted(unused)]
