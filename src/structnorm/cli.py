"""Command-line interface.

Subcommands:

* ``gen``        write a random structured fixture (optionally normal)
* ``solve``      run the Jacobi solver, write the nearest normal matrix
* ``verify``     structure residual of a matrix file, tolerance-gated exit
* ``distance``   Frobenius distance between two matrix files
* ``normality``  commutator residual ||X X^H - X^H X||_F
* ``experiment`` convergence-study CSV suites (figures 1-4)

Exit codes, all mapped by ``main``: 0 success (converged=0 from solve flags a
hit sweep limit), 1 verify residual above tolerance, 2 usage, file or numeric
errors, 3 solve input failing its structure check.  A solve that cannot write
all of its outputs leaves none of them: it removes every output it opened for
writing, and leaves a path it could not open as it was.  The seed defaults to
0, or to STRUCTNORM_SEED, which must be an integer (else exit 2 in gen and
experiment).
"""
from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import jacobi
from .matrixio import read_matrix, write_matrix
from .structures import (StructureTag, _normalized, check_structure, diag_norm_sq,
                         frob_norm, gen_normal_structured, gen_structured,
                         offdiag_norm_sq)

_TAG_NAMES = [t.value for t in StructureTag]
_FIGURE_N = {1: 25, 2: 50, 3: 25, 4: 25}  # default half-dimension per figure


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_gen(args) -> int:
    tag = StructureTag.from_name(args.structure)
    if args.normal:
        a, _, _ = gen_normal_structured(tag, args.n, args.seed,
                                        n_rot=args.rotations)
    else:
        a = gen_structured(tag, args.n, args.seed)
    try:
        write_matrix(args.out, a)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}") from exc
    return 0


def cmd_solve(args) -> int:
    tag = StructureTag.from_name(args.structure)
    a = read_matrix(args.infile)
    config = jacobi.SolverConfig(ordering=args.ordering.upper(), tol=args.tol,
                                 max_sweeps=args.max_sweeps,
                                 skip_rule=args.skip_rule,
                                 trace=args.trace is not None)
    result = jacobi.solve(a, tag, config)
    outputs = [(args.out_normal, write_matrix, result.x),
               (args.out_z, write_matrix, result.z)]
    if args.trace is not None:
        outputs.append((args.trace, _write_trace, result.trace))
    opened = []  # the outputs this run opened for writing
    try:
        for path, write, data in outputs:
            open(path, "w").close()  # a path it cannot open is left as it is
            opened.append(path)
            write(path, data)
    except OSError as exc:  # a write that failed part way leaves a prefix
        for path in filter(os.path.isfile, opened):  # not a device, /dev/null
            os.remove(path)
        raise ValueError(f"cannot write output: {exc}") from exc
    print(f"sweeps={result.sweeps} converged={int(result.converged)} "
          f"distance={_fmt(result.distance)} "
          f"offdiag_norm={_fmt(result.offdiag_norm_sq ** 0.5)} "
          f"diag_norm={_fmt(result.diag_norm_sq ** 0.5)} "
          f"structure_residual={_fmt(result.structure_residual)} "
          f"grad_norm={_fmt(result.grad_norm)}")
    return 0


def _write_trace(path, records) -> None:
    row = "%d,%d,%s,%d,%d,%.17g,%.17g,%.17g,%.17g,%d\n"  # one per field
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(jacobi.TraceRecord._fields) + "\n")
        for r in records:
            fh.write(row % r)


def cmd_verify(args) -> int:
    tag = StructureTag.from_name(args.structure)
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("tol must be non-negative and finite")
    resid = check_structure(read_matrix(args.infile), tag)
    print(_fmt(resid))
    return 0 if resid <= args.tol else 1


def cmd_distance(args) -> int:
    distance = jacobi.distance_to(read_matrix(args.a), read_matrix(args.b))
    if distance == math.inf:
        raise ValueError("the distance overflows")
    print(_fmt(distance))
    return 0


def cmd_normality(args) -> int:
    x = read_matrix(args.infile)
    if x.shape[0] != x.shape[1]:
        raise ValueError("matrix must be square")
    print(_fmt(_commutator_norm(x)))
    return 0


def _commutator_norm(x: np.ndarray) -> float:
    """||X X^H - X^H X||_F, taken on X normalized by ``_normalized`` and
    scaled back by 2**(2e)."""
    x, e = _normalized(x)
    try:
        return math.ldexp(frob_norm(x @ x.conj().T - x.conj().T @ x), 2 * e)
    except OverflowError:
        raise ValueError("the commutator residual overflows") from None


def _iterates(a, tag, sweeps, ordering="O1"):
    """The input as sweep 0, then the iterate after each of ``sweeps`` sweeps.

    Every iterate is the same array, updated in place by the next sweep.
    """
    config = jacobi.SolverConfig(ordering=ordering, max_sweeps=sweeps,
                                 trace=False)
    states = jacobi.iterate(a, tag, config)
    return itertools.chain([a], (state.a for state in states))


def _write_series(path, a, tag, header_comment, ordering="O1") -> None:
    """Per-sweep (diag, offdiag, frob) norms of 20 sweeps, sweep 0 = the input."""
    lines = [f"# {header_comment}", "sweep,diag_norm,offdiag_norm,frob_norm"]
    for sweep, m in enumerate(_iterates(a, tag, 20, ordering)):
        lines.append(f"{sweep},{_fmt(diag_norm_sq(m) ** 0.5)},"
                     f"{_fmt(offdiag_norm_sq(m) ** 0.5)},{_fmt(frob_norm(m))}")
    _write_lines(path, lines)


def _skew_hamiltonian_with_real_eigenpair(n, seed, lam=1.5):
    """Random skew-Hamiltonian matrix with a planted real eigenpair.

    Rows/columns 1 and n+1 are cleared except for the diagonal value lam, so
    e_1 and e_{n+1} are eigenvectors with the real eigenvalue lam; clearing a
    matching row/column pair keeps the block constraints intact.
    """
    w = gen_structured(StructureTag.SKEW_HAMILTONIAN, n, seed)
    for k in (0, n):
        w[k, :] = 0.0
        w[:, k] = 0.0
        w[k, k] = lam
    return w


def cmd_experiment(args) -> int:
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create {out}: {exc}") from exc
    seed = args.seed
    fig = args.figure
    n = _FIGURE_N[fig] if args.n is None else args.n

    if fig == 1:
        a = gen_structured(StructureTag.HAMILTONIAN, n, seed)
        for k, m in enumerate(_iterates(a, StructureTag.HAMILTONIAN, 3)):
            _write_abs_grid(out / f"fig1_sweep{k}.csv", m)
    elif fig == 2:
        generic = gen_structured(StructureTag.HAMILTONIAN, n, seed)
        diagable, _, _ = gen_normal_structured(StructureTag.HAMILTONIAN, n,
                                               seed + 1)
        _write_series(out / "fig2_generic.csv", generic, StructureTag.HAMILTONIAN,
                      "fixture: random hamiltonian")
        _write_series(out / "fig2_diagonalizable.csv", diagable, StructureTag.HAMILTONIAN,
                      "fixture: normal hamiltonian (diagonalizable by symplectic rotations)")
    elif fig == 3:
        generic = gen_structured(StructureTag.SKEW_HAMILTONIAN, n, seed)
        planted = _skew_hamiltonian_with_real_eigenpair(n, seed + 1)
        _write_series(out / "fig3_no_real_eigs.csv", generic, StructureTag.SKEW_HAMILTONIAN,
                      "fixture: random skew-hamiltonian (generic spectrum)")
        _write_series(out / "fig3_with_real_eigs.csv", planted, StructureTag.SKEW_HAMILTONIAN,
                      "fixture: random skew-hamiltonian with rows/cols 1 and n+1 "
                      "cleared and a planted real eigenpair of value 1.5")
    else:
        generic = gen_structured(StructureTag.HAMILTONIAN, n, seed)
        diagable, _, _ = gen_normal_structured(StructureTag.HAMILTONIAN, n,
                                               seed + 1)
        for name, a in (("generic", generic), ("diagonalizable", diagable)):
            for ordering in ("O1", "O2"):
                _write_series(
                    out / f"fig4_{name}_{ordering.lower()}.csv", a, StructureTag.HAMILTONIAN,
                    f"fixture: {name} hamiltonian, ordering {ordering}", ordering)
    return 0


def _write_abs_grid(path, a) -> None:
    lines = [",".join(_fmt(abs(v)) for v in row) for row in a]
    _write_lines(path, lines)


def _write_lines(path, lines) -> None:
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structnorm",
        description="Nearest structured normal matrix via Jacobi rotations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random structured fixture")
    p.add_argument("--structure", required=True, choices=_TAG_NAMES)
    p.add_argument("--n", type=int, required=True,
                   help="half-dimension; the matrix is 2n x 2n")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--normal", action="store_true",
                   help="generate a normal (diagonalizable) fixture")
    p.add_argument("--rotations", type=int, default=None,
                   help="rotation count for --normal (default 4 n^2)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve for the nearest structured normal matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--structure", required=True, choices=_TAG_NAMES)
    p.add_argument("--ordering", choices=["o1", "o2", "O1", "O2"], default="O1")
    p.add_argument("--tol", type=float, default=1e-14)
    p.add_argument("--max-sweeps", type=int, default=50)
    p.add_argument("--skip-rule", action="store_true")
    p.add_argument("--out-normal", required=True)
    p.add_argument("--out-z", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check the structure residual of a file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--structure", required=True, choices=_TAG_NAMES)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("distance", help="Frobenius distance between two files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("normality", help="commutator residual of a file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_normality)

    p = sub.add_parser("experiment", help="write convergence-study CSV files")
    p.add_argument("--figure", type=int, required=True, choices=[1, 2, 3, 4])
    p.add_argument("--n", type=int, default=None,
                   help="half-dimension (default per figure: 25, 50, 25, 25)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # "--tol V" as "--tol=V", and so for the abbreviations "--to" and "--t"
    # (argparse resolves them, or names them ambiguous): argparse takes a
    # value that starts with "-" and is not a plain number (-inf, -1e-3) for
    # an option; a next token that starts with "--" is an option, and the
    # value was left out
    for k in reversed(range(len(argv) - 1)):
        if argv[k] in ("--t", "--to", "--tol") and not argv[k + 1].startswith("--"):
            argv[k:k + 2] = [f"{argv[k]}={argv[k + 1]}"]
    args = parser.parse_args(argv)
    if getattr(args, "rotations", None) is not None and not args.normal:
        parser.error("argument --rotations: only valid with --normal")
    if getattr(args, "seed", 0) is None:  # read only where --seed is used
        seed = os.environ.get("STRUCTNORM_SEED", "0")
        try:
            args.seed = int(seed)
        except ValueError:
            parser.error(f"environment variable STRUCTNORM_SEED: invalid int "
                         f"value: {seed!r}")
    try:
        return args.func(args)
    except jacobi.StructureError as exc:  # a ValueError: caught first
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, ArithmeticError) as exc:  # NonFiniteError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
