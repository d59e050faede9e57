"""tools/bench_pairs.py runs both trees' benchmarks in pairs and gives each
end-to-end metric a verdict; it refuses trees whose benchmarks differ."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

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
