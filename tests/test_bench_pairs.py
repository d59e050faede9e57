"""tools/bench_pairs.py runs both trees' benchmarks in pairs and gives each
end-to-end metric a verdict; it refuses trees whose benchmarks differ."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402


def _pairs(parent, change, *extra):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change),
         "--workload", "figures", *extra],
        capture_output=True, text=True, timeout=120)


def test_repo_against_itself_one_short_pair():
    run = _pairs(ROOT, ROOT, "--pairs", "1", "--seconds", "0.1")
    # a timing may read worse by chance in one pair (status 1), never fail
    assert run.returncode in (0, 1), run.stdout + run.stderr
    assert "not correct" not in run.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in spec["end_to_end"]:
        line = next(line for line in run.stdout.splitlines()
                    if line.startswith(metric["name"] + " "))
        assert "parent " in line and "change " in line and "/1" in line
        assert not line.endswith(" gain")  # one pair claims no gain
    sweeps = next(line for line in run.stdout.splitlines()
                  if line.startswith("sweeps_total "))
    assert sweeps.endswith("within bound")


def test_refuses_trees_whose_benchmarks_differ(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench" / "run.py").write_text(
        (ROOT / "perfbench" / "run.py").read_text() + "\n# edited\n")
    run = _pairs(ROOT, tmp_path, "--pairs", "1", "--seconds", "0.1")
    assert run.returncode == 2
    assert "perfbench/run.py" in run.stderr
    assert "pair 1" not in run.stdout  # nothing ran


def test_verdicts():
    higher = dict(better="higher", bound=0.2)
    # ten pairs, every one won, by more than the parent's quartile spread
    assert bench_pairs.verdict([10.0] * 10, [12.0] * 10, **higher) == (10, "gain")
    assert bench_pairs.verdict([10.0] * 3, [12.0] * 3, **higher) == (
        3, "too few pairs")
    # 8 of 10 won: no gain, and no worse than the bound
    parent = [10.0] * 10
    change = [11.0] * 8 + [9.0] * 2
    assert bench_pairs.verdict(parent, change, **higher) == (8, "within bound")
    # lower is better: a median 30 % above the parent's breaks a 0.2 bound
    assert bench_pairs.verdict([1.0] * 4, [1.3] * 4, better="lower",
                               bound=0.2) == (0, "worse")
    # the parent spreads wider than the bound
    wide = [1.0, 2.0, 1.0, 2.0]
    assert bench_pairs.verdict(wide, [1.5] * 4, better="lower",
                               bound=0.1)[1] == "unresolved"


def _change_tree(tmp_path):
    tree = tmp_path / "change"
    shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    return tree


def test_json_record_and_held_out(monkeypatch, tmp_path, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    change = _change_tree(tmp_path)
    calls = []  # (side, seed, result) of each run, in order

    def run_once(tree, workload, seed, seconds):
        # the change is 20 % faster on solve_s_p50, the same elsewhere;
        # values rise with each call so every quartile differs
        side = "change" if tree == change else "parent"
        scale = 0.8 if side == "change" else 1.0
        result = {"correct": True, "attempted": 24, "failed": 0, "metrics": {
            m["name"]: {"value": (1.0 + len(calls) / 100) * (
                scale if m["name"] == "solve_s_p50" else 1.0),
                "unit": m["unit"]}
            for m in spec["end_to_end"]}}
        calls.append((side, seed, result))
        return result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_figures.json"
    argv = [str(ROOT), str(change), "--workload", "figures", "--seconds", "30"]
    assert bench_pairs.main(argv + ["--pairs", "10", "--json", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert list(record) == ["command", "host", "pairs", "order", "parent_runs",
                            "change_runs", "summary"]
    assert record["command"] == ("python3 perfbench/run.py --workload figures "
                                 "--seed 1 --seconds 30 --trace 0")
    assert record["pairs"] == 10
    assert record["order"].startswith(
        "first side per pair: 1=parent, 2=change, 3=parent")
    assert record["order"].endswith("10=change")
    # each side's runs, in the order they ran
    assert [side for side, _, _ in calls[:4]] == [
        "parent", "change", "change", "parent"]
    for side in ("parent", "change"):
        assert record[side + "_runs"] == [r for s, _, r in calls if s == side]
    assert set(record["summary"]) == {m["name"] for m in spec["end_to_end"]}
    solve = record["summary"]["solve_s_p50"]
    assert solve["verdict"] == "gain" and solve["change_wins"] == 10
    parent = [r["metrics"]["solve_s_p50"]["value"] for r in record["parent_runs"]]
    change_ = [r["metrics"]["solve_s_p50"]["value"] for r in record["change_runs"]]
    q1, med, q3 = bench_pairs.quartiles(parent)
    assert (solve["parent_q1"], solve["parent_median"], solve["parent_q3"]) == (
        q1, med, q3)
    assert solve["parent_iqr"] == q3 - q1
    assert solve["change_median"] == bench_pairs.quartiles(change_)[1]
    assert solve["relative_change"] == pytest.approx(
        solve["change_median"] / med - 1)
    assert record["summary"]["sweeps_total"]["verdict"] == "within bound"
    report = capsys.readouterr().out
    assert "solve_s_p50" in report and "change won 10/10  gain" in report

    # three pairs at a held-out seed go under held_out; the rest stays
    calls.clear()
    assert bench_pairs.main(argv + ["--pairs", "3", "--seed", "90001", "--json",
                                    str(out), "--held-out"]) == 0
    nested = json.loads(out.read_text(encoding="utf-8"))
    assert {k: v for k, v in nested.items() if k != "held_out"} == record
    held = nested["held_out"]
    assert "--seed 90001" in held["command"] and held["pairs"] == 3
    assert held["order"] == "first side per pair: 1=parent, 2=change, 3=parent"
    assert held["summary"]["solve_s_p50"]["verdict"] == "too few pairs"
    assert [seed for _, seed, _ in calls] == [90001] * 6


def test_held_out_needs_an_existing_record(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        bench_pairs.main([str(ROOT), str(ROOT), "--workload", "figures",
                          "--json", str(tmp_path / "missing.json"), "--held-out"])
    assert info.value.code == 2
    assert "--held-out needs --json" in capsys.readouterr().err
