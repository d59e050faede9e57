"""structnorm benchmark: one workload per run, checked, with named metrics.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

``perfbench/steady.py`` checks the spread of the end-to-end metrics over
seeds and that the exact counts repeat.

Workloads, metric names, units and bounds are declared in ``BENCHMARK.json``;
the operations and their correctness gates are in ``workloads.py``.  The load
is a closed loop: one process, one client, each operation starts when the
previous one has returned.  A pass runs every operation of the workload once
on inputs generated from ``--seed``; passes repeat until ``--seconds`` have
elapsed, and every pass must reproduce the first pass's outputs bitwise.

Every operation's wall time is multiplied by the host factor that
``calibration.py`` measures just before it, which cancels most of the speed
changes a shared host imposes; the report prints wall times too.  ``run_s``
is the sum over one pass of each operation's median calibrated time,
``solve_s_p50`` (``check_s_p50``) the median over every repeat of every solve
(check) operation, and ``setup_s`` the import time plus the median of five
set-ups, both calibrated the same way.  Per-layer times are calibrated with
the traced phase's median host factor; counts are per pass.

``--trace 0`` reports the end-to-end metrics with the program untraced.
``--trace 1`` spends half the time untraced and half with the wrappers of
``tracer.py`` installed, and reports the per-layer metrics, the tracing
overhead, and self-checks: traced outputs bitwise equal to untraced ones,
calls recorded exactly on the layers each workload is predicted to use, and
pivots visited = applied + skipped by PHI_SKIP + skipped by the η rule =
sum of n^2 over sweeps.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
report with provenance.  Without ``src/structnorm`` next to this directory
the run exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def configure_blas() -> dict[str, str]:
    """One BLAS thread unless set otherwise; never more threads than CPUs."""
    settings = {}
    for var in BLAS_VARS:
        value = os.environ.setdefault(var, "1")
        if not value.isdigit() or not 1 <= int(value) <= _nproc():
            raise BenchError(f"{var}={value!r}: BLAS threads must be 1..{_nproc()}")
        settings[var] = value
    return settings


def import_structnorm():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import structnorm
    except ImportError as exc:
        raise BenchError(f"cannot import structnorm from {src}: {exc}") from exc
    if Path(structnorm.__file__).resolve().parent.parent != src.resolve():
        raise BenchError(f"structnorm was imported from {structnorm.__file__}, "
                         f"not from {src}")
    return structnorm


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


@dataclass
class Phase:
    """Timings and outcomes of the passes of one measured phase."""

    times: list[list[float]]   # per operation, calibrated seconds
    raw: list[list[float]]     # per operation, wall seconds
    factors: list[float] = field(default_factory=list)
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    totals: list[tuple[int, int]] = field(default_factory=list)  # (sweeps, pivots)
    marks: list = field(default_factory=list)


def measure(ops, seconds, reference, source, tracer=None) -> Phase:
    """Run whole passes of ``ops`` until ``seconds`` have elapsed (at least one).

    ``reference`` holds each operation's first output fingerprint; ``source``
    names where it came from, for the bitwise-mismatch message.
    """
    from calibration import host_factor

    phase = Phase(times=[[] for _ in ops], raw=[[] for _ in ops])

    def fail(message):
        phase.failed += 1
        phase.problems.append(message)

    deadline = time.perf_counter() + seconds
    while phase.passes == 0 or time.perf_counter() < deadline:
        if tracer is not None:
            phase.marks.append(tracer.mark())
        ctx: dict = {}
        sweeps = pivots = 0
        for i, op in enumerate(ops):
            phase.attempted += 1
            factor = host_factor()
            t0 = time.perf_counter()
            try:
                raw = op.execute()
            except (Exception, SystemExit) as exc:  # a failed operation, not a failed run
                fail(f"{op.label}: raised {exc!r}")
                continue
            wall = time.perf_counter() - t0
            phase.raw[i].append(wall)
            phase.times[i].append(wall * factor)
            phase.factors.append(factor)
            try:
                outcome = op.check(raw, ctx)
            except Exception as exc:
                fail(f"{op.label}: check raised {exc!r}")
                continue
            if reference[i] is None:
                reference[i] = outcome.fingerprint
            elif outcome.fingerprint != reference[i]:
                outcome.problems.append(
                    f"{op.label}: output differs bitwise from the {source}")
            if outcome.problems:
                fail("; ".join(outcome.problems))
            sweeps += outcome.sweeps
            pivots += outcome.pivots
        phase.totals.append((sweeps, pivots))
        phase.passes += 1
    if tracer is not None:
        phase.marks.append(tracer.mark())
    if len(set(phase.totals)) > 1:
        phase.problems.append(f"sweeps/pivots differ between passes: {phase.totals}")
    return phase


def _median(values):
    return statistics.median(values) if values else None


def describe_samples(label, samples):
    """Median, the highest percentile with >= 10 samples beyond it, and count."""
    if not samples:
        return f"{label}: no samples"
    line = f"{label}: p50 {statistics.median(samples):.6f} s"
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100)[pct - 1]
            line += f", p{pct} {cut:.6f} s"
            break
    return line + f", n={len(samples)}"


def phase_metrics(ops, phase) -> dict:
    """End-to-end timings of a phase, in calibrated seconds."""
    medians = [_median(ts) for ts in phase.times]
    run_s = sum(medians) if None not in medians else None
    sweeps, pivots = phase.totals[0]

    def samples(kind, per_op):
        return [t for op, ts in zip(ops, per_op) if op.kind == kind for t in ts]

    return {
        "run_s": run_s,
        "pivots_per_s": pivots / run_s if run_s else None,
        "solve_s_p50": _median(samples("solve", phase.times)),
        "check_s_p50": _median(samples("check", phase.times)),
        "sweeps_total": sweeps,
        "pivots": pivots,
        "solve_samples": samples("solve", phase.times),
        "check_samples": samples("check", phase.times),
        "raw_run_s": sum(_median(ts) or 0.0 for ts in phase.raw),
        "raw_solve_samples": samples("solve", phase.raw),
    }


def _per_call(agg, name, key, scale):
    calls = agg[name]["calls"]
    return agg[name][key] / calls * scale if calls else 0.0


def layer_metrics(tracer, phase, workload, wrapped_names) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced phase, and self-check problems.

    Counts are per pass; times are calibrated with the phase's median host
    factor.
    """
    problems = []
    f = statistics.median(phase.factors)
    marks = phase.marks
    first = tracer.aggregate(marks[0][0], marks[1][0])
    once = marks[1][1] - marks[0][1]
    for k in range(1, phase.passes):
        agg = tracer.aggregate(marks[k][0], marks[k + 1][0])
        counts = marks[k + 1][1] - marks[k][1]
        if ({n: a["calls"] for n, a in agg.items()}
                != {n: a["calls"] for n, a in first.items()} or counts != once):
            problems.append(f"traced pass {k + 1} counted other calls than pass 1")
    total = tracer.aggregate(marks[0][0], marks[-1][0])
    counts_all = marks[-1][1] - marks[0][1]

    m = {}
    for name in ("angles.solve_angles", "angles.solve_angles_fixed_alpha",
                 "rotations.apply_similarity", "rotations.apply_right",
                 "kernels.plane_similarity", "kernels.rotate_cols",
                 "structures.diag_norm_sq", "structures.offdiag_norm_sq",
                 "structures.check_structure", "gradient.tangent_gradient",
                 "gradient.pivot_gain"):
        m[f"{name}.calls"] = first[name]["calls"]
        m[f"{name}.us_per_call"] = _per_call(total, name, "total_s", 1e6 * f)
    for case in ("trivial", "phi_quarter", "alpha_half", "cubic", "fixed_1d"):
        m[f"angles.case.{case}"] = once[f"angles.case.{case}"]
    for name in ("kernels.plane_similarity", "kernels.rotate_cols"):
        m[f"{name}.bytes_computed"] = once[f"{name}.bytes_computed"]
    m["gradient.eta_skipped"] = once["gradient.eta_skipped"]

    angle_calls = (first["angles.solve_angles"]["calls"]
                   + first["angles.solve_angles_fixed_alpha"]["calls"])
    visited = angle_calls + once["gradient.eta_skipped"]
    applied = first["rotations.apply_similarity"]["calls"]
    m["jacobi.pivots_visited"] = visited
    m["jacobi.pivots_applied"] = applied
    m["jacobi.phi_skipped"] = once["jacobi.phi_skipped"]
    m["jacobi.applied_ratio"] = applied / visited if visited else 0.0
    swept = counts_all["jacobi.pivots_expected"]
    m["jacobi.sweep_once.self_us_per_pivot"] = (
        total["jacobi.sweep_once"]["self_s"] / swept * 1e6 * f if swept else 0.0)
    m["jacobi.solve.self_s"] = _per_call(total, "jacobi.solve", "self_s", f)

    for name in ("matrixio.read_matrix", "matrixio.write_matrix"):
        m[f"{name}.calls"] = first[name]["calls"]
        m[f"{name}.ms_per_call"] = _per_call(total, name, "total_s", 1e3 * f)
        busy = total[name]["total_s"] * f
        m[f"{name}.mb_per_s"] = counts_all[f"{name}.bytes"] / busy / 1e6 if busy else 0.0
    m["cli.cmd_solve.self_ms"] = _per_call(total, "cli.cmd_solve", "self_s", 1e3 * f)
    m["cli.cmd_experiment.self_ms"] = _per_call(total, "cli.cmd_experiment",
                                                "self_s", 1e3 * f)

    identity = (visited, applied + once["jacobi.phi_skipped"]
                + once["gradient.eta_skipped"], once["jacobi.pivots_expected"])
    if len(set(identity)) != 1:
        problems.append("count identity broken: visited, applied + phi_skipped + "
                        f"eta_skipped, sum n^2 per sweep = {identity}")
    roots = tracer.roots(marks[0][0], marks[1][0])
    if roots != len(phase.times):
        problems.append(f"pass 1 spans have {roots} root calls, expected one per "
                        f"operation ({len(phase.times)})")
    if once["jacobi.sweeps"] != phase.totals[0][0]:
        problems.append(f"sweep_once ran {once['jacobi.sweeps']} times in a pass, "
                        f"outputs report {phase.totals[0][0]} sweeps")
    for name in sorted(wrapped_names):
        calls = first[name]["calls"]
        if (calls > 0) != (name in workload.active):
            want = "calls" if name in workload.active else "no calls"
            problems.append(f"{name}: {calls} calls per pass, predicted {want}")
    return m, problems


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"BENCHMARK.json lists {sorted(whys)}")
    blas = configure_blas()
    t0 = time.perf_counter()
    sn = import_structnorm()
    import_s = time.perf_counter() - t0

    import numpy as np
    from calibration import host_factor
    from tracer import Tracer, targets
    from workloads import WORKLOADS

    import_s *= host_factor()
    workload = WORKLOADS[args.workload](sn, args.seed)
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            factor = host_factor()
            t0 = time.perf_counter()
            workload.setup(work / f"setup{rep}")
            setup_times.append((time.perf_counter() - t0) * factor)
        ops = workload.ops()
        reference = [None] * len(ops)
        if args.trace:
            plain = measure(ops, args.seconds / 2, reference, "first pass")
            tracer = Tracer()
            wrapped = targets(sn.jacobi.PHI_SKIP)
            tracer.install(wrapped)
            try:
                traced = measure(ops, args.seconds / 2, reference,
                                 "untraced run", tracer)
            finally:
                tracer.uninstall()
            phases = [plain, traced]
        else:
            phases = [measure(ops, args.seconds, reference, "first pass")]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    e2e = phase_metrics(ops, phases[0])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [msg for p in phases for msg in p.problems]
    extra = {"check_s_p50": e2e["check_s_p50"] or 0.0,
             "failed_frac": failed / attempted}
    if args.trace:
        section = "per_layer"
        values, self_problems = layer_metrics(
            tracer, traced, workload, {t[2] for t in wrapped})
        problems += self_problems
        on, off = phase_metrics(ops, traced)["run_s"], e2e["run_s"]
        values["trace_overhead_frac"] = on / off - 1.0 if on and off else None
        values.update(extra)
    else:
        section = "end_to_end"
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "run_s": e2e["run_s"],
            "pivots_per_s": e2e["pivots_per_s"],
            "solve_s_p50": e2e["solve_s_p50"],
            "sweeps_total": e2e["sweeps_total"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    declared = {m["name"]: m["unit"] for m in spec[section]}
    if set(declared) != set(values):
        raise BenchError(f"computed metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {section} {sorted(declared)}")

    print(f"workload {args.workload}: {whys[args.workload]}")
    print("provenance: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": whys[args.workload],
        "predictions (layer metric -> end-to-end metric moved here)":
            workload.predictions,
        "sizes": {k: getattr(workload, k) for k in
                  ("N", "FIXTURES", "TOL", "STRUCTURES") if hasattr(workload, k)},
        "load": "closed loop, 1 process, 1 client",
        "structnorm.BACKEND": sn.BACKEND, "structnorm": sn.__version__,
        "numpy": np.__version__, "python": platform.python_version(),
        "nproc": _nproc(), "cpu": cpu_model(), "blas_threads": blas,
    }, sort_keys=True))
    print(f"times below are calibrated seconds (see calibration.py) unless "
          f"marked wall; import {import_s:.6f} s, set-up reps "
          + ", ".join(f"{t:.6f}" for t in setup_times))
    for p, label in zip(phases, ("untraced", "traced")):
        print(f"{label}: {p.passes} passes, {p.attempted} operations, "
              f"{p.failed} failed, {e2e['pivots']} pivot visits per pass, "
              f"host speed {statistics.median(p.factors):.3f} of reference")
    print(describe_samples("solve calls", e2e["solve_samples"]))
    print(describe_samples("solve calls, wall", e2e["raw_solve_samples"]))
    if e2e["check_samples"]:
        print(describe_samples("check calls", e2e["check_samples"]))
    print(f"run_s, wall = {e2e['raw_run_s']!r} s")

    for name, value in values.items():
        print(f"{name} = {value!r} {declared[name]}")
    if not args.trace:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in extra.items():
            print(f"{name} = {value!r} {layer_units[name]}")
    for msg in problems[:20]:
        print(f"FAILED: {msg}", file=sys.stderr)
    correct = not problems and None not in values.values()
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]}
                    for name in values},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
    except Exception:  # set-up failed: report it, print no result
        traceback.print_exc()
    return 2


if __name__ == "__main__":
    sys.exit(main())
