"""Paired benchmark runs of two trees, with a verdict on every end-to-end metric.

Run from the repository root:

    python3 tools/bench_pairs.py PARENT_TREE CHANGED_TREE --workload normal-converge \\
        --pairs 10 --seconds 30 --seed 1

Each tree is a checkout with ``perfbench/`` and ``src/structnorm``.  A pair is
one untraced run (``perfbench/run.py --trace 0``) of each tree's own
benchmark, in a fresh subprocess with the tree as its working directory;
the parent runs first in odd pairs and the change in even ones.  Both trees
must hold identical ``perfbench/`` directories and ``BENCHMARK.json``, or
nothing runs.  Each tree's runs write and read their byte code (numpy's and
the standard library's too) under a ``PYTHONPYCACHEPREFIX`` of that tree's
own, made empty for the session and removed after it, with
``PYTHONDONTWRITEBYTECODE`` unset so that the tree's first run fills it; so a
tree's stale or missing ``__pycache__/*.pyc`` does not move its
``setup_s``, and only each tree's first run imports from source.

Each run's JSON result line is printed as it completes.  For every
end-to-end metric in ``BENCHMARK.json`` the report then gives both
sides' median and quartiles over their runs and the pairs the change won
(ties count for neither side), then a verdict:

* ``gain``: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's interquartile range;
  with fewer than ten pairs, ``too few pairs`` stands in its place;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound, a fraction of the parent's median;
* ``unresolved``: the parent's interquartile range is wider than the bound,
  and not every run of the change is better than every run of the parent;
* ``within bound``: otherwise.

With ``--json PATH`` the run record is written to PATH as well: the run
command, the number of pairs and their order, every run's result on each
side, and per metric the medians, quartiles, the parent's interquartile
range, the change's wins, the relative change of the median and the
verdict.  With ``--held-out`` too, PATH must hold such a record already,
and the new one is put under its ``held_out`` key; so a record at seed 1
and one at a held-out seed make one file:

    python3 tools/bench_pairs.py PARENT CHANGE --workload figures --seed 1 \
        --json BENCH_figures.json
    python3 tools/bench_pairs.py PARENT CHANGE --workload figures --pairs 3 \
        --seed 90001 --json BENCH_figures.json --held-out

The exit status is 0 when every run was correct and no metric is ``worse``,
1 otherwise, and 2 when the trees cannot be compared or a run fails to start.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE = 0.9


class PairsError(Exception):
    """The trees cannot be compared; exit 2."""


def _bench_files(tree: Path) -> dict[str, Path]:
    files = {"BENCHMARK.json": tree / "BENCHMARK.json"}
    for path in sorted((tree / "perfbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            files[str(path.relative_to(tree))] = path
    return files


def check_same_benchmark(parent: Path, change: Path) -> None:
    """Raise PairsError unless both trees hold the same benchmark files."""
    a, b = _bench_files(parent), _bench_files(change)
    if not a["BENCHMARK.json"].is_file():
        raise PairsError(f"{parent} has no BENCHMARK.json")
    if a.keys() != b.keys():
        raise PairsError("the benchmark files differ: "
                         + ", ".join(sorted(a.keys() ^ b.keys())))
    differ = [name for name in a if not filecmp.cmp(a[name], b[name],
                                                    shallow=False)]
    if differ:
        raise PairsError("the benchmark files differ: " + ", ".join(differ))


def run_args(workload: str, seed: int, seconds: float) -> list[str]:
    """The arguments of one untraced run of a tree's benchmark."""
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             pycache: Path) -> dict:
    """The last JSON line of one untraced run of ``tree``'s benchmark, its
    byte code read from and written to ``pycache``."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run([sys.executable, *run_args(workload, seed, seconds)],
                          cwd=tree, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise PairsError(f"{tree}: perfbench/run.py exited {proc.returncode}\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[int, str]:
    """(pairs the change won, verdict) for one metric's paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p_med, p3 = quartiles(parent)
    c_med = quartiles(change)[1]
    gap = sign * (c_med - p_med)  # > 0: the change's median is better
    if wins >= WIN_SHARE * len(parent) and gap > p3 - p1:
        return wins, "gain" if len(parent) >= MIN_PAIRS_FOR_GAIN else "too few pairs"
    if -gap > bound * abs(p_med):
        return wins, "worse"
    every_run_better = (min(change) > max(parent) if sign > 0
                        else max(change) < min(parent))
    if p3 - p1 > bound * abs(p_med) and not every_run_better:
        return wins, "unresolved"
    return wins, "within bound"


def summarize(spec: dict, runs: dict[str, list[dict]]) -> dict[str, dict]:
    """Per end-to-end metric: both sides' quartiles, wins and the verdict."""
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results]
                  for side, results in runs.items()}
        wins, word = verdict(values["parent"], values["change"],
                             metric["better"], metric["bound"])
        p1, p_med, p3 = quartiles(values["parent"])
        c1, c_med, c3 = quartiles(values["change"])
        summary[name] = {
            "parent_median": p_med, "change_median": c_med,
            "parent_q1": p1, "parent_q3": p3, "change_q1": c1, "change_q3": c3,
            "parent_iqr": p3 - p1, "change_wins": wins,
            "relative_change": (c_med - p_med) / abs(p_med) if p_med else None,
            "verdict": word}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_TREE")
    parser.add_argument("change", type=Path, metavar="CHANGED_TREE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the run record to PATH")
    parser.add_argument("--held-out", action="store_true",
                        help="put the record under the held_out key of the "
                             "record already in PATH")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")
    if args.held_out and not (args.json and args.json.is_file()):
        parser.error("--held-out needs --json naming an existing record")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    try:
        check_same_benchmark(trees["parent"], trees["change"])
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text(
            encoding="utf-8"))
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as pycache:
            for k in range(args.pairs):
                order = (("parent", "change") if k % 2 == 0
                         else ("change", "parent"))
                for side in order:
                    result = run_once(trees[side], args.workload, args.seed,
                                      args.seconds, Path(pycache) / side)
                    runs[side].append(result)
                    print(f"pair {k + 1}/{args.pairs} {side}: "
                          f"{json.dumps(result)}", flush=True)
    except PairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    status = 0
    for side, results in runs.items():
        bad = [k + 1 for k, r in enumerate(results)
               if not r["correct"] or r["failed"]]
        if bad:
            status = 1
            print(f"{side}: runs {bad} were not correct")
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds} s runs; median [q1, q3] per side")
    summary = summarize(spec, runs)
    for metric in spec["end_to_end"]:
        row = summary[metric["name"]]
        status |= row["verdict"] == "worse"
        cells = [f"{side} {row[side + '_median']:.6g} "
                 f"[{row[side + '_q1']:.6g}, {row[side + '_q3']:.6g}]"
                 for side in ("parent", "change")]
        print(f"{metric['name']:<13} {metric['unit']:<5} " + "  ".join(cells)
              + f"  change won {row['change_wins']}/{args.pairs}  "
              + row["verdict"])
    if args.json:
        firsts = (f"{k + 1}={'parent' if k % 2 == 0 else 'change'}"
                  for k in range(args.pairs))
        record = {
            "command": " ".join(["python3", *run_args(
                args.workload, args.seed, args.seconds)]),
            "host": f"{os.cpu_count()}-CPU {platform.machine()}, Python "
                    f"{platform.python_version()}, numpy {metadata.version('numpy')}",
            "pairs": args.pairs,
            "order": "first side per pair: " + ", ".join(firsts),
            "parent_runs": runs["parent"], "change_runs": runs["change"],
            "summary": summary}
        if args.held_out:
            record = dict(json.loads(args.json.read_text(encoding="utf-8")),
                          held_out=record)
        args.json.write_text(json.dumps(record, indent=1) + "\n",
                             encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
