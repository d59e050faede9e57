"""tools/visit_cost.py times a pivot visit and its parts; one tiny run."""
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import visit_cost  # noqa: E402


def test_tiny_run_prints_every_n_and_every_part(capsys):
    assert visit_cost.main(["--n", "2,3", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("kernel backend ")
    for line, n in zip(lines[1:3], (2, 3)):
        assert re.fullmatch(rf"n={n}: \S+ us per visit, \S+ ms per sweep "
                            r"\(best of 1, 3 sweeps\)", line)
    parts = [line.split(":")[0] for line in lines[3:]]
    assert parts == ["n=16 solve_angles", "n=16 solve_angles_fixed_alpha",
                     "n=16 planes", "n=16 plane_similarity",
                     "n=48 read_matrix", "n=48 write_matrix"]
    for line in lines[1:]:
        assert float(re.search(r": (\S+) [um]s", line).group(1)) > 0
    for line in lines[-2:]:
        assert line.endswith(" ms per call")
