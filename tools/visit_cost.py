"""Cost of one pivot visit of the Jacobi sweep, and of its parts.

Run from the repository root, against the tree on ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/visit_cost.py

For each half-dimension n (``--n``, default 4, 8, 16, 25, 48, 64) it runs
``jacobi.iterate`` on ``gen_structured(HAMILTONIAN, n, 0)`` over 3 sweeps (2
at n >= 48), and takes the best of ``--repeat`` runs (default 5).  It prints
the time per pivot visit (n^2 visits per sweep) and per sweep four times:
with the trace off, for the compiled sweep (``_sweep``; "not available"
where it cannot be built), then for the Python reference, with ``_sweep.lib``
set to None; then both again with the trace on ("compiled traced" and
"python traced").  Then, at n = 16, it prints the ``timeit`` minimum per call, over
``--repeat`` rounds of about 2000 calls, of:

* ``solve_angles`` and ``solve_angles_fixed_alpha`` (at alpha = 0), each
  over the entries of every pivot of the start matrix in turn;
* ``rotations.planes`` of every pivot, at phi = 0.3 and alpha = 0.2;
* ``_kernels.plane_similarity`` of the first double rotation of the sweep.

Last, at n = 48 (the size of the ``cli-pipeline`` benchmark's files), it
prints the ``timeit`` minimum per call, in ms, over ``--repeat`` rounds of
10 calls, of ``matrixio.read_matrix`` and ``matrixio.write_matrix`` on a
``gen_structured(HAMILTONIAN, 48, 0)`` file in a temporary directory.

Each time is printed raw, then calibrated: the best time multiplied by
``host_factor()`` of ``perfbench/calibration.py``, taken just before that
time was measured, which cancels most of the speed changes of a shared host
(the first line says so).  Still compare two trees only within one session on
one machine, alternating the runs.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
import time
import timeit
from pathlib import Path

import numpy as np

from structnorm import _kernels, _sweep, angles, jacobi, matrixio, rotations
from structnorm.structures import StructureTag, gen_structured

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from calibration import host_factor  # noqa: E402

PARTS_N = 16  # half-dimension at which the parts of a visit are timed
NUMBER = 2000  # calls per timeit round of each part
IO_N = 48  # half-dimension at which a matrix file is read and written
IO_NUMBER = 10  # calls per timeit round of each I/O function


def best_of(repeat: int, measure) -> tuple[float, float]:
    """(best seconds, calibrated) of ``repeat`` calls of ``measure``: the best
    time, and it multiplied by the host factor taken just before it."""
    runs = []
    for _ in range(repeat):
        factor = host_factor()
        runs.append((measure(), factor))
    best, factor = min(runs)
    return best, best * factor


def sweep_cost(n: int, repeat: int,
               trace: bool = False) -> tuple[int, tuple[float, float]]:
    """(sweeps, ``best_of`` seconds) of ``iterate`` from
    gen_structured(HAMILTONIAN, n, 0), the trace on or off."""
    a = gen_structured(StructureTag.HAMILTONIAN, n, 0)
    sweeps = 2 if n >= 48 else 3
    config = jacobi.SolverConfig(max_sweeps=sweeps, trace=trace)

    def measure():
        start = time.perf_counter()
        for _ in jacobi.iterate(a, StructureTag.HAMILTONIAN, config):
            pass
        return time.perf_counter() - start

    return sweeps, best_of(repeat, measure)


def python_sweep_cost(n: int, repeat: int,
                      trace: bool = False) -> tuple[int, tuple[float, float]]:
    """``sweep_cost`` of the Python reference: the library global set to None."""
    lib, _sweep.lib = _sweep.lib, None
    try:
        return sweep_cost(n, repeat, trace)
    finally:
        _sweep.lib = lib


def part_costs(n: int, repeat: int, number: int) -> dict[str, tuple[float, float]]:
    """Seconds per call of each part of a visit, raw and calibrated, best of
    ``repeat`` timeit rounds of about ``number`` calls (whole passes over the
    pivots)."""
    a = gen_structured(StructureTag.HAMILTONIAN, n, 0)
    pivots = rotations.pivot_set(StructureTag.HAMILTONIAN.family, n)
    entries = [(a.item(i - 1, i - 1), a.item(i - 1, j - 1),
                a.item(j - 1, i - 1), a.item(j - 1, j - 1))
               for _, i, j in pivots]
    double = next(pivot for pivot in pivots if pivot[0].fixed_alpha is None)
    names = {"entries": entries, "pivots": pivots, "n": n, "a": a,
             "rotation": rotations.planes(*double, 0.3, 0.2, n),
             "solve_angles": angles.solve_angles,
             "solve_angles_fixed_alpha": angles.solve_angles_fixed_alpha,
             "planes": rotations.planes,
             "plane_similarity": _kernels.plane_similarity}
    # each statement, and the calls it makes
    statements = {
        "solve_angles": ("for e in entries: solve_angles(e)", len(entries)),
        "solve_angles_fixed_alpha":
            ("for e in entries: solve_angles_fixed_alpha(e, 0.0)", len(entries)),
        "planes": ("for kind, i, j in pivots: planes(kind, i, j, 0.3, 0.2, n)",
                   len(pivots)),
        "plane_similarity": ("plane_similarity(a, rotation)", 1),
    }
    costs = {}
    for name, (statement, calls) in statements.items():
        passes = max(1, number // calls)
        timer = timeit.Timer(statement, globals=names)
        costs[name] = tuple(t / (passes * calls) for t in best_of(
            repeat, lambda: timer.timeit(passes)))
    return costs


def io_costs(n: int, repeat: int, number: int) -> dict[str, tuple[float, float]]:
    """Seconds per call of ``read_matrix`` and ``write_matrix`` on the file of
    gen_structured(HAMILTONIAN, n, 0), raw and calibrated, best of ``repeat``
    timeit rounds of ``number`` calls."""
    a = gen_structured(StructureTag.HAMILTONIAN, n, 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.mat"
        matrixio.write_matrix(path, a)
        calls = {"read_matrix": lambda: matrixio.read_matrix(path),
                 "write_matrix": lambda: matrixio.write_matrix(path, a)}
        return {name: tuple(t / number for t in best_of(
                    repeat, lambda: timeit.Timer(call).timeit(number)))
                for name, call in calls.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", default=[4, 8, 16, 25, 48, 64],
                        type=lambda text: [int(v) for v in text.split(",")],
                        help="comma-separated half-dimensions")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeat < 1 or min(args.n) < 1:
        parser.error("--n and --repeat must be >= 1")
    print(f"kernel backend {_kernels.BACKEND}; numpy {np.__version__}; each "
          f"time raw / calibrated (x host_factor() of perfbench/calibration.py)")
    sweep_cost(1, 1)  # builds the compiled sweep, if it can be, untimed
    for n in args.n:
        costs = {}
        for trace, label in ((False, ""), (True, " traced")):
            compiled = sweep_cost(n, args.repeat, trace)
            costs[f"compiled{label}"] = compiled if _sweep.lib is not None else None
            costs[f"python{label}"] = python_sweep_cost(n, args.repeat, trace)
        for path, cost in costs.items():
            if cost is None:
                print(f"n={n} {path}: not available")
                continue
            sweeps, (raw, calibrated) = cost
            visit, sweep = 1e6 / (sweeps * n * n), 1e3 / sweeps
            print(f"n={n} {path}: {raw * visit:.2f} / {calibrated * visit:.2f} "
                  f"us per visit, {raw * sweep:.3f} / {calibrated * sweep:.3f} "
                  f"ms per sweep (best of {args.repeat}, {sweeps} sweeps)")
    for name, (raw, calibrated) in part_costs(PARTS_N, args.repeat,
                                              NUMBER).items():
        print(f"n={PARTS_N} {name}: {raw * 1e6:.3f} / {calibrated * 1e6:.3f} "
              f"us per call")
    for name, (raw, calibrated) in io_costs(IO_N, args.repeat,
                                            IO_NUMBER).items():
        print(f"n={IO_N} {name}: {raw * 1e3:.3f} / {calibrated * 1e3:.3f} "
              f"ms per call")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
