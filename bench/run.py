"""The slve benchmark: one workload, seeded inputs, timed passes, checked outputs.

    python3 bench/run.py --workload strain_rate_bump --seed 1 --seconds 18 --trace 0

Run from a source checkout; the program is imported from ``src/``.  The
inputs are generated from the seed, then the workload's pass (its slve
commands, in-process, and its library calls) repeats until ``--seconds`` is
spent, at least twice.  Every pass must reproduce the first byte for byte,
and the first pass's outputs are checked against the physics (see
workloads.py).  Set-up is timed apart, as the median over fresh interpreters.
A calibration kernel timed around every step gives ``run_rel``, the pass
time in units of the calibration, which the speed drift of a shared machine
moves far less than the wall time.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` times one
untraced pass, then repeats the pass with spans around each module's public
functions and reports the per-layer metrics (see tracing.py).  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(inputs, environment, every pass time, every check) goes to
``.bench_out/<workload>/result-trace<0|1>.json``, the spans of a traced run
to ``.bench_out/<workload>/spans.npz``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads; probes inherit it
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
PASSES_MIN = 2
CALIBRATION_CHUNKS = 25
END_TO_END_UNITS = {"run_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def _setup_times(workload: str, seed: int) -> list:
    """Wall time of fresh interpreters that import slve and parse the inputs.

    The first probe also writes the bytecode caches and is not counted.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != "ok":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-500:]}")
        if i:
            times.append(elapsed)
    return times


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "slve").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in PINNED},
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
    }


def _commit() -> str:
    """HEAD of the checkout's own .git, when it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _bytes_written(out_root: Path) -> int:
    return sum(p.stat().st_size for p in out_root.rglob("*") if p.is_file())


def calibrate() -> float:
    """Median wall time of CALIBRATION_CHUNKS repeats of a short fixed mix of
    small-array numpy and interpreter work.

    A shared machine's speed drifts by 10-20% over minutes; dividing each
    step's time by the calibration timed just before and after it removes
    part of that drift (see README.md).  The kernel uses numpy only, so no
    change to slve moves it.
    """
    x = np.linspace(0.0, 1.0, 512)
    chunks = []
    for _ in range(CALIBRATION_CHUNKS):
        acc = 0.0
        t0 = perf_counter()
        for i in range(300):
            y = (np.roll(x, -1) - np.roll(x, 1)) * 0.5 + np.exp(-x * x)
            acc += float(y[i % 512])
        for i in range(25_000):
            acc += (i % 7) * 0.5
        chunks.append(perf_counter() - t0)
    return statistics.median(chunks)


def _run_passes(run_pass, seconds: float, minimum: int, calibrated: bool):
    """Repeat run_pass(after_step) while another pass fits in `seconds`, at
    least `minimum` times.  When calibrated, the calibration runs before the
    first step and after every step, and each pass also gets its time
    relative to the calibration: the sum over its steps of the step time
    divided by the mean of the calibrations on either side.  Returns (pass
    times, relative pass times, calibration times, results per pass)."""
    times, rels, walls, passes = [], [], [], []
    calibration = [calibrate()] if calibrated else []
    after_step = (lambda: calibration.append(calibrate())) if calibrated else None
    t0 = perf_counter()
    while len(times) < minimum or perf_counter() - t0 + statistics.median(walls) <= seconds:
        w0, first = perf_counter(), len(calibration) - 1
        secs, results = run_pass(after_step)
        walls.append(perf_counter() - w0)
        times.append(secs)
        passes.append(results)
        if calibrated:
            around = zip(calibration[first:], calibration[first + 1:])
            rels.append(sum(r.seconds / (0.5 * (a + b)) for r, (a, b) in zip(results, around)))
    return times, rels, calibration, passes


def _verdicts(workloads, inputs, passes) -> tuple:
    """Check the first pass, and that every later pass reproduces it."""
    checks = workloads.check_pass(inputs, passes[0])
    reference = {r.label: r.digest for r in passes[0]}
    failed = sum(1 for errs in checks.values() if errs)
    for results in passes[1:]:
        for r in results:
            if r.exit_code != 0 or r.digest != reference[r.label] or checks[r.label]:
                failed += 1
                if r.digest != reference[r.label]:
                    checks[r.label].append("output differs from the first pass with the same seed")
    return checks, len(passes) * len(inputs.steps), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slve" / "__init__.py").is_file():
        return _fail(f"no slve sources under {ROOT / 'src'}; run from a source checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(ROOT / "src"))
    import slve  # noqa: F401

    if not Path(slve.__file__).resolve().is_relative_to(ROOT / "src"):
        return _fail(f"imported slve from {slve.__file__}, not from this checkout")
    import tracing
    import workloads

    out_dir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_root = out_dir / "outputs"

    setup = [] if args.trace else _setup_times(args.workload, args.seed)
    inputs = workloads.make_inputs(args.workload, args.seed)
    workloads.parse_all(inputs)
    configs = workloads.write_configs(inputs, out_dir / "inputs")

    def run_pass(after_step=None):
        return workloads.run_pass(inputs, configs, out_root, after_step)

    tracer = None
    if args.trace:
        untraced = run_pass()
        tracer = tracing.Tracer()
        marks = [tracer.mark()]

        def traced_pass(after_step):
            out = run_pass(after_step)
            marks.append(tracer.mark())
            return out

        tracer.install()
        try:
            times, _, _, passes = _run_passes(traced_pass, args.seconds - untraced[0], 1, False)
        finally:
            tracer.restore()
        checks, attempted, failed = _verdicts(workloads, inputs, [untraced[1]] + passes)
        per_pass = [tracer.layer_metrics(a, b) for a, b in zip(marks, marks[1:])]
        # median_low keeps counts whole: every value is one pass's own
        values = {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
        values["cli.bytes_written"] = _bytes_written(out_root)
        values["trace.run_s"] = statistics.median(times)
        values["trace.untraced_run_s"] = untraced[0]
        values["trace.overhead_s"] = values["trace.run_s"] - untraced[0]
        missing = tracing.self_test(args.workload, values)
        if missing:
            checks["wrapper_self_test"] = [f"no call recorded: {n}" for n in missing]
            failed += 1
        units = tracing.per_layer_units()
    else:
        times, rel, calibration, passes = _run_passes(run_pass, args.seconds, PASSES_MIN, True)
        checks, attempted, failed = _verdicts(workloads, inputs, passes)
        values = {
            "run_rel": statistics.median(rel),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if {k: units[k] for k in values} != declared:
        return _fail("the metrics measured here and those BENCHMARK.json declares differ")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in declared}

    q1, med, q3 = _quartiles(times)
    env = _environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(times)}  commands {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.3g}")
    print(f"  run_s median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n {len(times)}"
          + ("  (traced)" if args.trace else ""))
    if not args.trace:
        rq1, rmed, rq3 = _quartiles(rel)
        print(f"  run_rel median {rmed:.4f} (step times / calibration around them)  "
              f"q1 {rq1:.4f}  q3 {rq3:.4f}  n {len(rel)}")
        sq1, smed, sq3 = _quartiles(setup)
        print(f"  setup_s median {smed:.4f} s  q1 {sq1:.4f}  q3 {sq3:.4f}  n {len(setup)}")
        if inputs.node_steps:
            print(f"  node_steps_per_s {inputs.node_steps / med:.6g} 1/s  "
                  f"({inputs.node_steps} node-steps per pass)")
        print(f"  peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    else:
        print(f"  tracing overhead {values['trace.overhead_s']:+.4f} s "
              f"(traced {values['trace.run_s']:.4f} s - untraced {untraced[0]:.4f} s)")
        for name in declared:
            print(f"  {name} {values[name]:.6g} {units[name]}")
    print(f"  env python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} cpu {env['cpu']!r} threads {env['threads']} "
          f"commit {env['commit']} source {env['source_sha256'][:12]}")
    for label, errs in checks.items():
        for err in errs:
            print(f"  FAILED {label}: {err}")

    record = {
        "inputs": inputs.describe(),
        "environment": env,
        "seconds": args.seconds,
        "pass_times_s": times,
        "step_times_s": {s.label: [r.seconds for p in passes for r in p if r.label == s.label]
                         for s in inputs.steps},
        "setup_times_s": setup,
        "calibration_times_s": [] if args.trace else calibration,
        "relative_pass_times": [] if args.trace else rel,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
    }
    if not args.trace:
        record["run_s"] = {"median": med, "q1": q1, "q3": q3, "n": len(times)}
        if inputs.node_steps:
            record["node_steps_per_s"] = inputs.node_steps / med
    if tracer is not None:
        record["untraced_pass_s"] = untraced[0]
        tracer.save(out_dir / "spans.npz")
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report, never print a result line
        traceback.print_exc()
        sys.exit(1)
