"""Cost of one pivot visit of the Jacobi sweep, and of its parts.

Run from the repository root, against the tree on ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/visit_cost.py

For each half-dimension n (``--n``, default 4, 8, 16, 25, 48, 64) it runs
``jacobi.iterate`` on ``gen_structured(HAMILTONIAN, n, 0)`` with the trace
off, over 3 sweeps (2 at n >= 48), and takes the best of ``--repeat`` runs
(default 5).  It prints the time per pivot visit (n^2 visits per sweep) and
per sweep twice: for the compiled sweep (``_sweep``; "not available" where
it cannot be built), then for the Python reference, with ``_sweep.lib`` set
to None.  Then, at n = 16, it prints the ``timeit`` minimum per call, over
``--repeat`` rounds of about 2000 calls, of:

* ``solve_angles`` and ``solve_angles_fixed_alpha`` (at alpha = 0), each
  over the entries of every pivot of the start matrix in turn;
* ``rotations.planes`` of every pivot, at phi = 0.3 and alpha = 0.2;
* ``_kernels.plane_similarity`` of the first double rotation of the sweep.

Last, at n = 48 (the size of the ``cli-pipeline`` benchmark's files), it
prints the ``timeit`` minimum per call, in ms, over ``--repeat`` rounds of
10 calls, of ``matrixio.read_matrix`` and ``matrixio.write_matrix`` on a
``gen_structured(HAMILTONIAN, 48, 0)`` file in a temporary directory.

Nothing here is calibrated: compare two trees only within one session on one
machine, alternating the runs.
"""
from __future__ import annotations

import argparse
import tempfile
import time
import timeit
from pathlib import Path

import numpy as np

from structnorm import _kernels, _sweep, angles, jacobi, matrixio, rotations
from structnorm.structures import StructureTag, gen_structured

PARTS_N = 16  # half-dimension at which the parts of a visit are timed
NUMBER = 2000  # calls per timeit round of each part
IO_N = 48  # half-dimension at which a matrix file is read and written
IO_NUMBER = 10  # calls per timeit round of each I/O function


def sweep_cost(n: int, repeat: int) -> tuple[int, float]:
    """(sweeps, best seconds) of ``iterate`` from gen_structured(HAMILTONIAN,
    n, 0), trace off."""
    a = gen_structured(StructureTag.HAMILTONIAN, n, 0)
    sweeps = 2 if n >= 48 else 3
    config = jacobi.SolverConfig(max_sweeps=sweeps, trace=False)
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in jacobi.iterate(a, StructureTag.HAMILTONIAN, config):
            pass
        best = min(best, time.perf_counter() - start)
    return sweeps, best


def python_sweep_cost(n: int, repeat: int) -> tuple[int, float]:
    """``sweep_cost`` of the Python reference: the library global set to None."""
    lib, _sweep.lib = _sweep.lib, None
    try:
        return sweep_cost(n, repeat)
    finally:
        _sweep.lib = lib


def part_costs(n: int, repeat: int, number: int) -> dict[str, float]:
    """Seconds per call of each part of a visit, timeit minima over rounds of
    about ``number`` calls (whole passes over the pivots)."""
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
        best = min(timeit.repeat(statement, number=passes, repeat=repeat,
                                 globals=names))
        costs[name] = best / (passes * calls)
    return costs


def io_costs(n: int, repeat: int, number: int) -> dict[str, float]:
    """Seconds per call of ``read_matrix`` and ``write_matrix`` on the file of
    gen_structured(HAMILTONIAN, n, 0), timeit minima over rounds of
    ``number`` calls."""
    a = gen_structured(StructureTag.HAMILTONIAN, n, 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.mat"
        matrixio.write_matrix(path, a)
        calls = {"read_matrix": lambda: matrixio.read_matrix(path),
                 "write_matrix": lambda: matrixio.write_matrix(path, a)}
        return {name: min(timeit.repeat(call, number=number,
                                        repeat=repeat)) / number
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
    print(f"kernel backend {_kernels.BACKEND}; numpy {np.__version__}")
    sweep_cost(1, 1)  # builds the compiled sweep, if it can be, untimed
    for n in args.n:
        compiled = sweep_cost(n, args.repeat)
        costs = {"compiled": compiled if _sweep.lib is not None else None,
                 "python": python_sweep_cost(n, args.repeat)}
        for path, cost in costs.items():
            if cost is None:
                print(f"n={n} {path}: not available")
                continue
            sweeps, best = cost
            print(f"n={n} {path}: {best / (sweeps * n * n) * 1e6:.2f} us per "
                  f"visit, {best / sweeps * 1e3:.3f} ms per sweep "
                  f"(best of {args.repeat}, {sweeps} sweeps)")
    for name, seconds in part_costs(PARTS_N, args.repeat, NUMBER).items():
        print(f"n={PARTS_N} {name}: {seconds * 1e6:.3f} us per call")
    for name, seconds in io_costs(IO_N, args.repeat, IO_NUMBER).items():
        print(f"n={IO_N} {name}: {seconds * 1e3:.3f} ms per call")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
