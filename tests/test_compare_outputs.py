"""tools/compare_outputs.py is the bitwise gate of output-preserving changes:
it must pass a tree against itself and catch a one-ulp change in a kernel."""
import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"

# appended to the copy's _kernels.py: every Z column pass runs with c one ulp
# larger
_PERTURB = '''

import numpy as np

_exact_rotate_cols = rotate_cols


def rotate_cols(a, planes):
    _exact_rotate_cols(a, [(p, q, np.nextafter(c, 2.0), s)
                           for p, q, c, s in planes])
'''


def _compare(tree_a, tree_b):
    return subprocess.run(
        [sys.executable, str(TOOL), str(tree_a), str(tree_b), "--seeds", "1"],
        capture_output=True, text=True, timeout=600)


def test_tree_against_itself_has_no_differences():
    run = _compare(ROOT, ROOT)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].endswith(
        " 0 differ, 0 failed on A, 0 failed on B")
    wc = subprocess.run(  # the last line is "<lines> total"
        ["wc", "-l", *map(str, (ROOT / "src" / "structnorm").rglob("*.py"))],
        capture_output=True, text=True, check=True)
    total = wc.stdout.splitlines()[-1].split()[0]
    assert re.fullmatch(rf"src/structnorm: {total} -> {total} lines, "
                        r"(\d+) -> \1 code lines", run.stdout.splitlines()[-2])


_EVERY_KIND_OF_LINE = b'''"""A module docstring
over two lines."""
import os  # a comment after code

# a comment alone


class Shape:
    """A class docstring."""

    def area(self):
        """A function docstring."""
        text = """a string that is
not a docstring"""
        return len(text) + len(
            os.sep)  # a statement over two lines


async def run():
    "A one-line docstring."
    return 1
'''


def test_code_lines_leave_out_blank_comment_and_docstring_lines():
    tool = _load_tool()
    # import, class, def area, text (two lines), return (two lines),
    # async def, return
    assert tool.count_code_lines(_EVERY_KIND_OF_LINE) == 9
    # C: include, x (two lines), y after a comment, url with its string,
    # f's first line, return
    assert tool.count_c_code_lines(_EVERY_KIND_OF_C_LINE) == 7
    assert tool.count_c_code_lines(
        _EVERY_KIND_OF_C_LINE.replace(b"\n", b"\r\n")) == 7


_EVERY_KIND_OF_C_LINE = b'''/* A block comment
 * over three lines. */
#include <math.h>  // a comment after code

// a comment alone
static const double x = 1.0 /* a comment inside */
    + 2.0;
/* a comment before code */ int y = '/';
   \t
static const char *url = "http://a/*b*/";
int f(void) { /* a comment
                 that ends with no code after it */
    return 0; }
'''


def test_one_ulp_in_rotate_cols_is_caught(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    kernels = tmp_path / "src" / "structnorm" / "_kernels.py"
    kernels.write_text(kernels.read_text() + _PERTURB)
    run = _compare(ROOT, tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "DIFF" in run.stdout
    # the one module whose size differs gets its own line, before the totals
    tool = _load_tool()
    a, b = ((source.count(b"\n"), tool.count_code_lines(source))
            for source in ((ROOT / "src" / "structnorm" / "_kernels.py").read_bytes(),
                           kernels.read_bytes()))
    assert [line for line in run.stdout.splitlines() if " code lines" in line][:-1] == [
        f"src/structnorm/_kernels.py: {a[0]} -> {b[0]} lines, "
        f"{a[1]} -> {b[1]} code lines"]


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _record(op, sha, problems=()):
    return {"workload": "w", "seed": 1, "op": op, "sha256": sha,
            "problems": list(problems)}


def test_summary_counts_the_failed_operations_of_each_tree(monkeypatch, capsys):
    # a change that moves bits on purpose is judged by the failure counts
    tool = _load_tool()
    runs = {"A": [_record("x", "1"), _record("y", "2", ["bad"]),
                  _record("z", "3")],
            "B": [_record("x", "4", ["bad", "worse"]), _record("y", "5", ["bad"]),
                  _record("z", "3", ["new"])]}
    monkeypatch.setattr(tool, "_spawn", lambda tree, seeds: None)
    monkeypatch.setattr(tool, "_collect", lambda tree, proc: runs[tree.name])
    counts = {"A": {"src/structnorm/a.py": (1000, 600),
                    "src/structnorm/b.py": (600, 380),
                    "src/structnorm/gone.py": (32, 10)},
              "B": {"src/structnorm/a.py": (1000, 600),
                    "src/structnorm/b.py": (590, 365),
                    "src/structnorm/new.py": (15, 7)}}
    monkeypatch.setattr(tool, "count_lines", lambda tree: counts[tree.name])
    assert tool.main(["A", "B"]) == 1
    out = capsys.readouterr().out.splitlines()
    # one line per module whose counts differ, 0 where a tree lacks it
    assert out[-5:-2] == [
        "src/structnorm/b.py: 600 -> 590 lines, 380 -> 365 code lines",
        "src/structnorm/gone.py: 32 -> 0 lines, 10 -> 0 code lines",
        "src/structnorm/new.py: 0 -> 15 lines, 0 -> 7 code lines"]
    assert out[-2] == "src/structnorm: 1632 -> 1605 lines, 990 -> 972 code lines"
    assert out[-1] == "3 operations, 3 differ, 1 failed on A, 3 failed on B"
    runs["B"] = runs["A"]
    assert tool.main(["A", "B"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "3 operations, 0 differ, 1 failed on A, 1 failed on B")
