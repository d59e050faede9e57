"""Check that the benchmark is steady and that its exact counts repeat.

Run from the repository root:

    python3 perfbench/steady.py                        # every workload, 10 seeds
    python3 perfbench/steady.py --workloads figures --runs 5 --no-exact

For each workload it runs ``run.py --trace 0`` once per seed and reports, per
end-to-end metric, the median and the spread: the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread above the metric's bound in ``BENCHMARK.json`` fails, except
for ``setup_s``; one above a third of the bound is flagged.

Unless ``--no-exact`` is given it also reruns the first seed: ``sweeps_total``
must repeat exactly untraced, and two traced runs must agree exactly on
``jacobi.pivots_applied`` and the ``angles.case.*`` histogram.  It then runs
the held-out seed, traced and untraced; keep that seed out of tuning so that
later claims can be checked on it.  Every run must be correct; an incorrect
run is reported, and its metrics still count towards the spread.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 90001
RUN_TIMEOUT_S = 180


def bench(workload, seed, seconds, trace, failures) -> dict:
    """Metrics of one run; an incorrect run is added to ``failures``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit "
                           f"{proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        failures.append(f"{workload} seed {seed} trace {trace}: incorrect, "
                        f"{result['failed']} of {result['attempted']} failed: "
                        + proc.stderr.strip().splitlines()[0])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def exact_keys(metrics) -> dict:
    return {k: v for k, v in metrics.items()
            if k == "jacobi.pivots_applied" or k.startswith("angles.case.")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--no-exact", action="store_true",
                        help="skip the exact-repeat and held-out-seed runs")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failures = []
    summary = {}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [bench(workload, s, args.seconds, 0, failures) for s in seeds]
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            s = spread(values)
            flag = "ok"
            if s > bound / 3:
                flag = "above bound/3"
            if s > bound and name != "setup_s":
                flag = "ABOVE BOUND"
                failures.append(f"{workload} {name}: spread {s:.4f} > {bound}")
            summary[workload][name] = {"median": statistics.median(values),
                                       "spread": s, "values": values}
            print(f"{workload:16s} {name:14s} median {statistics.median(values):<12.6g}"
                  f" spread {s:.4f} (bound {bound}) {flag}  "
                  + " ".join(f"{v:.6g}" for v in values), flush=True)
        if args.no_exact:
            continue
        known = len(failures)
        again = bench(workload, args.first_seed, args.seconds, 0, failures)
        if again["sweeps_total"] != runs[0]["sweeps_total"]:
            failures.append(f"{workload}: sweeps_total {runs[0]['sweeps_total']} "
                            f"then {again['sweeps_total']} on one seed")
        traced = [exact_keys(bench(workload, args.first_seed, args.seconds, 1,
                                   failures)) for _ in range(2)]
        if traced[0] != traced[1]:
            failures.append(f"{workload}: traced counts differ on one seed: {traced}")
        for trace in (0, 1):
            bench(workload, HELD_OUT_SEED, args.seconds, trace, failures)
        print(f"{workload:16s} exact repeats and held-out seed {HELD_OUT_SEED}: "
              f"{'ok' if len(failures) == known else 'FAILED'}",
              flush=True)

    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print(json.dumps({"ok": not failures, "failures": failures,
                      "summary": summary}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
