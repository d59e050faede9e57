"""Building and loading the compiled sweep, ``_sweep.c``."""
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import structnorm as sn
from structnorm import _sweep, jacobi

SRC = Path(__file__).resolve().parent.parent / "src"
TAG = sn.StructureTag.PER_HERMITIAN


def _solve():
    """A trace-off solve, its output bytes, and the sweeps the Python body
    ran."""
    body, ran = jacobi._python_sweep, []

    def counted(*args):
        ran.append(1)
        return body(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jacobi, "_python_sweep", counted)
        res = sn.solve(sn.gen_structured(TAG, 3, 21), TAG,
                       sn.SolverConfig(max_sweeps=5, trace=False))
    return (res.x.tobytes(), res.z.tobytes(), res.distance), len(ran)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_the_source_compiles_without_warnings(tmp_path):
    out = tmp_path / "sweep.so"
    done = subprocess.run(
        ["gcc", *_sweep.FLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(out),
         str(_sweep.SOURCE), "-lm"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert out.stat().st_size > 0


def _libasan():
    """The path of gcc's libasan.so, or None without gcc or libasan."""
    if shutil.which("gcc") is None:
        return None
    path = subprocess.run(["gcc", "-print-file-name=libasan.so"],
                          capture_output=True, text=True, timeout=60).stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


# sweeps of every tag, both orderings and the trace off and on, each of
# which must run in C: the Python body is replaced by one that fails
_SWEEP_EVERY_TAG = """\
import sys
from pathlib import Path
import structnorm as sn
from structnorm import _sweep, jacobi
_sweep._build = lambda: Path(sys.argv[1])

def python_sweep(*args):
    raise AssertionError("a sweep ran in Python")

jacobi._python_sweep = python_sweep
sweeps = 0
for tag in sn.StructureTag:
    for n in (1, 2, 5, 16):
        for ordering in ("O1", "O2"):
            for trace in (False, True):
                config = sn.SolverConfig(ordering=ordering, max_sweeps=3,
                                         trace=trace)
                for state in sn.iterate(sn.gen_structured(tag, n, n), tag,
                                        config):
                    sweeps += 1
                assert len(state.trace) == (3 * n * n if trace else 0)
print(sweeps, "sweeps in C")
"""


@pytest.mark.skipif(_libasan() is None, reason="no gcc or no libasan")
def test_the_sweep_runs_clean_under_address_and_undefined_sanitizers(tmp_path):
    out = tmp_path / "sweep-asan.so"
    done = subprocess.run(
        ["gcc", *_sweep.FLAGS, "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", "-o", str(out), str(_sweep.SOURCE), "-lm"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    env = {**os.environ, "PYTHONPATH": str(SRC), "LD_PRELOAD": _libasan(),
           "ASAN_OPTIONS": "detect_leaks=0"}
    done = subprocess.run([sys.executable, "-c", _SWEEP_EVERY_TAG, str(out)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr[-4000:]
    assert done.stdout == f"{len(list(sn.StructureTag)) * 4 * 2 * 2 * 3} sweeps in C\n"


def _fail_run(error):
    def run(*args, **kwargs):
        raise error
    return run


FAILURES = {
    "no compiler": lambda mp, cache: mp.setattr(_sweep, "_compiler", lambda: None),
    "compiler error": lambda mp, cache: mp.setattr(
        subprocess, "run", _fail_run(subprocess.CalledProcessError(1, "gcc"))),
    "timeout": lambda mp, cache: mp.setattr(
        subprocess, "run", _fail_run(subprocess.TimeoutExpired("gcc", 1))),
    "cache is a file": lambda mp, cache: cache.write_bytes(b""),
}


@pytest.mark.parametrize("failure", FAILURES)
def test_a_failed_build_leaves_the_python_path_silently(monkeypatch, tmp_path,
                                                        failure):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_sweep, "lib", None)
        want, ran = _solve()
    assert ran == 5
    cache = tmp_path / "cache"
    monkeypatch.setattr(_sweep, "CACHE", cache)
    monkeypatch.setattr(_sweep, "lib", _sweep._UNBUILT)
    FAILURES[failure](monkeypatch, cache)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, ran = _solve()
    assert caught == []
    assert _sweep.lib is None and ran == 5
    assert got == want
    assert not cache.is_dir() or list(cache.iterdir()) == []  # no temporary left


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_a_build_is_cached_under_its_key_and_reused(monkeypatch, tmp_path):
    monkeypatch.setattr(_sweep, "CACHE", tmp_path)
    monkeypatch.setattr(_sweep, "lib", _sweep._UNBUILT)
    got, ran = _solve()
    assert ran == 0 and _sweep.lib is not None
    built = list(tmp_path.iterdir())
    assert [p.name[:7] for p in built] == ["_sweep-"] and built[0].suffix == ".so"
    # the next load finds it, with no compiler
    monkeypatch.setattr(_sweep, "lib", _sweep._UNBUILT)
    monkeypatch.setattr(_sweep, "_compiler", lambda: None)
    again, ran = _solve()
    assert ran == 0 and again == got
    assert list(tmp_path.iterdir()) == built


def test_import_and_eta_rule_solves_build_nothing():
    # the library is built at the first sweep that can use it: the eta rule
    # keeps a solve in Python, and the default solve, trace on, takes the C
    code = ("import structnorm as sn, structnorm._sweep as s\n"
            "assert s.lib is s._UNBUILT\n"
            "tag = sn.StructureTag.HAMILTONIAN\n"
            "for trace in (False, True):\n"
            "    sn.solve(sn.gen_structured(tag, 2, 0), tag,"
            " sn.SolverConfig(trace=trace, skip_rule=True))\n"
            "assert s.lib is s._UNBUILT\n"
            "sn.solve(sn.gen_structured(tag, 2, 0), tag)\n"
            "print(s.lib is not s._UNBUILT, s.lib is not None)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    sn.solve(sn.gen_structured(TAG, 2, 0), TAG)  # loads it here too
    assert done.stdout == f"True {_sweep.lib is not None}\n"
