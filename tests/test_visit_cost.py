"""tools/visit_cost.py times a pivot visit and its parts; one tiny run."""
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import visit_cost  # noqa: E402

from structnorm import _sweep  # noqa: E402


def test_tiny_run_prints_every_n_and_every_part(capsys):
    assert visit_cost.main(["--n", "2,3", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("kernel backend ")
    assert lines[0].endswith("; each time raw / calibrated (x host_factor() of "
                             "perfbench/calibration.py)")
    paths = ["compiled", "python", "compiled traced", "python traced"]
    for line, (n, path) in zip(lines[1:9], [(n, path) for n in (2, 3)
                                            for path in paths], strict=True):
        cost = (r"\S+ / \S+ us per visit, \S+ / \S+ ms per sweep "
                r"\(best of 1, 3 sweeps\)"
                if _sweep.lib is not None or path.startswith("python")
                else "not available")
        assert re.fullmatch(rf"n={n} {path}: {cost}", line)
    parts = [line.split(":")[0] for line in lines[9:]]
    assert parts == ["n=16 solve_angles", "n=16 solve_angles_fixed_alpha",
                     "n=16 planes", "n=16 plane_similarity",
                     "n=16 pivot_set", "n=16 pivot_codes",
                     "n=48 read_matrix", "n=48 write_matrix"]
    for line in lines[1:]:
        if line.endswith("not available"):
            continue
        raw, calibrated = re.search(r": (\S+) / (\S+) [um]s", line).groups()
        assert float(raw) > 0 and float(calibrated) > 0
    for line in lines[-2:]:
        assert line.endswith(" ms per call")
