"""Compare the outputs of two source trees on the benchmark's workloads.

Run from the repository root:

    python3 tools/compare_outputs.py PARENT_TREE CHANGED_TREE --seeds 1-10,90001

Each tree is a checkout with ``src/structnorm``.  For every seed, one pass of
each workload in ``perfbench/workloads.py`` (this repository's copy, so both
trees run the same benchmark code) is run against each tree, each tree in
its own subprocess, the two side by side.  Every operation's output fingerprint is hashed with
sha256 and printed with the checks it failed.  The last line sums this up as
``N operations, D differ, F_A failed on A, F_B failed on B``, where F_A and
F_B count the operations of each tree that failed at least one check: a
change that moves output bits on purpose is judged by those two counts, not
by D.  The line before it, ``src/structnorm: A -> B lines, C -> D code
lines``, gives each tree's count of lines in ``src/structnorm/**/*.py`` (as
``wc -l`` counts them) and of its code lines (neither blank nor only a
comment nor part of a docstring), the size that a change which simplifies
should bring down.  Before it comes one such line for each module whose
counts differ, named by its path in the tree (0 for a module that a tree
lacks); the C sources ``src/structnorm/**/*.c`` get such lines too, their
code lines holding more than whitespace and ``/* */`` or ``//`` comments,
but stay out of the total.  The exit status is 0 when both trees give the same
hashes and the same failed checks for every operation, 1 when any differ,
and 2 when a tree cannot be run.
"""
from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse_seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


# tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_code_lines(source: bytes) -> int:
    """Lines of ``source`` that hold code: not blank, not only a comment, and
    not part of a docstring."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)  # where each starts
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, owners) and ast.get_docstring(node) is not None}
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


# a C string or character literal, kept; or a comment, which is dropped
_C_TOKEN = re.compile(rb'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\''
                      rb'|//[^\n]*|/\*.*?\*/', re.DOTALL)


def count_c_code_lines(source: bytes) -> int:
    """Lines of C ``source`` that hold more than whitespace and ``/* */`` or
    ``//`` comments."""
    code = _C_TOKEN.sub(lambda m: m[0] if m[0][:1] in b"\"'"
                        else b"\n" * m[0].count(b"\n"), source)
    return sum(1 for line in code.split(b"\n") if line.strip())


def count_lines(tree: Path) -> dict[str, tuple[int, int]]:
    """Per module of the tree's ``src/structnorm/**/*.py`` and ``**/*.c``, by
    its path in the tree: its newlines, as ``wc -l`` counts, and its code
    lines."""
    sizes = {}
    for pattern, count in (("*.py", count_code_lines),
                           ("*.c", count_c_code_lines)):
        for path in (tree / "src" / "structnorm").rglob(pattern):
            source = path.read_bytes()
            sizes[path.relative_to(tree).as_posix()] = (source.count(b"\n"),
                                                        count(source))
    return sizes


def _size_line(name: str, a: tuple[int, int], b: tuple[int, int]) -> str:
    return f"{name}: {a[0]} -> {b[0]} lines, {a[1]} -> {b[1]} code lines"


def run_tree(tree: Path, seeds: list[int]) -> list[dict]:
    """One pass of every workload per seed against ``tree``, as records.

    Runs in the calling process, which must not have imported structnorm.
    """
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(PERFBENCH))
    import structnorm as sn
    import workloads

    if Path(sn.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"structnorm imported from {sn.__file__}, not {src}")
    records = []
    for seed in seeds:
        for name, cls in workloads.WORKLOADS.items():
            work = cls(sn, seed)
            with tempfile.TemporaryDirectory() as rep_dir:
                work.setup(Path(rep_dir))
                ctx: dict = {}
                for op in work.ops():
                    try:
                        outcome = op.check(op.execute(), ctx)
                        digest = hashlib.sha256(outcome.fingerprint).hexdigest()
                        problems = outcome.problems
                    except Exception as exc:  # a failed operation, not a failed run
                        digest, problems = "-", [f"raised {exc!r}"]
                    records.append({"workload": name, "seed": seed,
                                    "op": op.label, "sha256": digest,
                                    "problems": problems})
    return records


def _spawn(tree: Path, seeds: list[int]) -> subprocess.Popen:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return subprocess.Popen(
        [sys.executable, __file__, "--worker", str(tree),
         "--seeds", ",".join(map(str, seeds))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)


def _collect(tree: Path, proc: subprocess.Popen) -> list[dict]:
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: worker exited {proc.returncode}:\n{err}")
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="TREE")
    parser.add_argument("--seeds", type=parse_seeds, default=[1])
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(run_tree(args.worker, args.seeds)))
        return 0
    if len(args.trees) != 2:
        parser.error("give exactly two trees")
    procs = [_spawn(tree, args.seeds) for tree in args.trees]  # run side by side
    try:
        runs = [_collect(tree, proc) for tree, proc in zip(args.trees, procs)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    differ = 0
    for a, b in zip(*runs):
        same = a["sha256"] == b["sha256"] and a["problems"] == b["problems"]
        differ += not same
        print(f"{'same' if same else 'DIFF'}  {a['workload']:<15} seed {a['seed']:<6} "
              f"{a['op']:<40} {a['sha256'][:16]} {b['sha256'][:16]}")
        for side, rec in zip("AB", (a, b)):
            for problem in rec["problems"]:
                print(f"      {side} failed: {problem}")
    if len(runs[0]) != len(runs[1]):
        print(f"operation counts differ: {len(runs[0])} and {len(runs[1])}")
        differ += 1
    failed = [sum(bool(rec["problems"]) for rec in run) for run in runs]
    sizes = [count_lines(tree) for tree in args.trees]
    for path in sorted(sizes[0].keys() | sizes[1].keys()):
        a, b = (size.get(path, (0, 0)) for size in sizes)
        if a != b:
            print(_size_line(path, a, b))
    totals = [(sum(size[path][0] for path in size if path.endswith(".py")),
               sum(size[path][1] for path in size if path.endswith(".py")))
              for size in sizes]
    print(_size_line("src/structnorm", *totals))
    print(f"{len(runs[0])} operations, {differ} differ, "
          f"{failed[0]} failed on A, {failed[1]} failed on B")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
