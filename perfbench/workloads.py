"""The three benchmark workloads, their correctness gates and predictions.

A workload is a list of operations, each a user-visible call into
structnorm (``sn.solve`` or ``structnorm.cli.main``) plus a check of its
outputs.  One pass runs every operation once; the benchmark repeats passes on
the same inputs, so every pass must produce bitwise the same outputs.

Acceptance tolerances follow the paper's criteria: structure residual
<= 1e-10, commutator <= 1e-10 ||X||^2, |distance^2 - offdiag^2| <= 1e-10
||A||^2 and distance <= 1e-8 ||A|| for normal inputs (criterion 9), and a
diagonal weight that never decreases by more than 1e-12 ||A||^2 (criterion 3).
"""
from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

STRUCT_TOL = 1e-10
NORMAL_TOL = 1e-10
PYTHAGORAS_TOL = 1e-10
NORMAL_INPUT_DIST_TOL = 1e-8
MONOTONE_SLACK = 1e-12
DISTANCE_MATCH_TOL = 1e-12

TAGS = ("hamiltonian", "skew-hamiltonian", "per-hermitian", "perskew-hermitian")
_SIGN = {"hamiltonian": 1, "skew-hamiltonian": -1, "per-hermitian": 1,
         "perskew-hermitian": -1}


@dataclass
class Outcome:
    """What one operation produced, as the benchmark's checks saw it."""

    sweeps: int = 0
    pivots: int = 0
    fingerprint: bytes = b""
    problems: list[str] = field(default_factory=list)


@dataclass
class Op:
    kind: str                                # "solve" or "check"
    label: str
    execute: Callable[[], object]            # the timed call
    check: Callable[[object, dict], Outcome]  # untimed; ctx is shared in a pass


# --- independent checks (numpy only, no structnorm code) --------------------

def structure_residual(x: np.ndarray, tag: str) -> float:
    """||S X - sigma (S X)^H||_F / max(1, ||X||_F) with explicit J or F."""
    m = x.shape[0]
    if tag in ("hamiltonian", "skew-hamiltonian"):
        n = m // 2
        s = np.zeros((m, m))
        s[:n, n:] = np.eye(n)
        s[n:, :n] = -np.eye(n)
    else:
        s = np.fliplr(np.eye(m))
    sx = s @ x
    return float(np.linalg.norm(sx - _SIGN[tag] * sx.conj().T)
                 / max(1.0, np.linalg.norm(x)))


def commutator(x: np.ndarray) -> float:
    return float(np.linalg.norm(x @ x.conj().T - x.conj().T @ x))


def offdiag_sq(a: np.ndarray) -> float:
    b = a.copy()
    np.fill_diagonal(b, 0.0)
    return float(np.vdot(b, b).real)


def _non_decreasing(weights, scale_sq, label, problems):
    for k in range(1, len(weights)):
        if weights[k] < weights[k - 1] - MONOTONE_SLACK * scale_sq:
            problems.append(f"{label}: diagonal weight fell at sweep {k}")
            return


def _cli(argv):
    """cli.main with stdout and stderr captured; returns (code, stdout)."""
    from structnorm import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


# --- workloads ----------------------------------------------------------------

class Workload:
    name = ""
    #: span names that must record calls on this workload; every other
    #: wrapped name must record none
    active: frozenset = frozenset()
    #: layer metric -> end-to-end metric it should move here, and how
    predictions: dict = {}

    def __init__(self, sn, seed: int):
        self.sn = sn
        self.seed = seed

    def _seeds(self, count: int) -> list[int]:
        """Fixture seeds drawn from the workload seed, the same on every set-up."""
        rng = np.random.default_rng(self.seed)
        return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]

    def setup(self, rep_dir: Path) -> None:
        """Generate inputs and write files under rep_dir, then warm up."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError


_PIVOT_LAYERS = frozenset({
    "angles.solve_angles", "angles.solve_angles_fixed_alpha",
    "rotations.apply_similarity", "rotations.apply_right",
    "kernels.plane_similarity", "kernels.rotate_cols", "jacobi.sweep_once"})
_SOLVE_LAYERS = frozenset({
    "jacobi.solve", "structures.diag_norm_sq", "structures.offdiag_norm_sq",
    "structures.check_structure", "gradient.tangent_gradient"})


class Figures(Workload):
    """``structnorm experiment --figure k`` for k = 1..4 at a small n."""

    name = "figures"
    N = 8
    active = _PIVOT_LAYERS | {"cli.main", "cli.cmd_experiment"}
    predictions = {
        "angles.*": "pivots_per_s, largest share (per-pivot floor at small n)",
        "rotations.* / kernels.*": "pivots_per_s",
        "jacobi.sweep_once.self_us_per_pivot": "pivots_per_s (pivot-loop floor); "
                                               "merging the sweep loops must not slow it",
        "jacobi.pivots_applied / phi_skipped": "pivots_per_s against normal-converge",
        "cli.cmd_experiment.self_ms": "run_s (CSV writing, fixture generation)",
        "structures.diag_norm_sq / offdiag_norm_sq": "no change: trace is off",
        "structures.check_structure / matrixio.* / gradient.*": "no change: not called",
    }

    def setup(self, rep_dir):
        self.seeds = self._seeds(4)
        self.dirs = [rep_dir / f"fig{k}" for k in (1, 2, 3, 4)]
        for k, d in enumerate(self.dirs, start=1):
            _cli(["experiment", "--figure", str(k), "--n", "2", "--seed", "0",
                  "--out-dir", str(d)])

    def ops(self):
        return [self._op(k) for k in (1, 2, 3, 4)]

    def _op(self, k):
        out_dir = self.dirs[k - 1]
        argv = ["experiment", "--figure", str(k), "--n", str(self.N),
                "--seed", str(self.seeds[k - 1]), "--out-dir", str(out_dir)]

        def check(raw, ctx):
            code, text = raw
            o = Outcome()
            if code != 0:
                o.problems.append(f"figure {k}: exit {code}: {text.strip()}")
                return o
            files = sorted(out_dir.glob(f"fig{k}_*.csv"))
            o.fingerprint = b"".join(f.read_bytes() for f in files)
            if k == 1:
                grids = [np.loadtxt(out_dir / f"fig1_sweep{s}.csv", delimiter=",")
                         for s in range(4)]
                weights = [float(np.sum(np.diagonal(g) ** 2)) for g in grids]
                _non_decreasing(weights, float(np.sum(grids[0] ** 2)),
                                "fig1", o.problems)
                o.sweeps = 3
            else:
                expected = {2: 2, 3: 2, 4: 4}[k]
                if len(files) != expected:
                    o.problems.append(f"figure {k}: {len(files)} files, "
                                      f"expected {expected}")
                for f in files:
                    rows = np.loadtxt(f, delimiter=",", comments="#", skiprows=2)
                    if rows.shape != (21, 4):
                        o.problems.append(f"{f.name}: shape {rows.shape}")
                        continue
                    _non_decreasing(rows[:, 1] ** 2, rows[0, 3] ** 2, f.name,
                                    o.problems)
                    o.sweeps += 20
            o.pivots = o.sweeps * self.N * self.N
            return o

        return Op("solve", f"experiment --figure {k}", lambda: _cli(argv), check)


class NormalConverge(Workload):
    """``sn.solve`` to criterion 9's accuracy on normal structured fixtures.

    The config is the default one (O1, trace on) except tol = 1e-16, the
    tolerance criterion 9 is stated with: with the default tol = 1e-14 about
    one fixture in eight at n = 16 stops at a distance above 1e-8 ||A||.
    """

    name = "normal-converge"
    N = 16
    FIXTURES = 24
    TOL = 1e-16
    active = _PIVOT_LAYERS | _SOLVE_LAYERS
    predictions = {
        "angles.*": "pivots_per_s; trivial cases rise in late sweeps",
        "rotations.* / kernels.*": "pivots_per_s",
        "structures.diag_norm_sq / offdiag_norm_sq": "solve_s_p50 (per-pivot trace record, O(n^2))",
        "jacobi.solve.self_s": "solve_s_p50 (X = Z D Z^H assembly, distance, input checks)",
        "jacobi.pivots_applied / phi_skipped": "sweeps_total and pivots_per_s against figures",
        "structures.check_structure": "no end-to-end change",
        "gradient.pivot_gain / matrixio.* / cli.*": "no change: not called",
    }

    def setup(self, rep_dir):
        sn = self.sn
        self.fixtures = []
        for i, seed in enumerate(self._seeds(self.FIXTURES)):
            tag = sn.StructureTag.from_name(TAGS[i % len(TAGS)])
            a, _, _ = sn.gen_normal_structured(tag, self.N, seed)
            self.fixtures.append((tag, a))
        self.config = sn.SolverConfig(tol=self.TOL)
        warm, _, _ = sn.gen_normal_structured(sn.StructureTag.HAMILTONIAN, 2, 0)
        sn.solve(warm, sn.StructureTag.HAMILTONIAN, self.config)

    def ops(self):
        return [self._op(i, tag, a) for i, (tag, a) in enumerate(self.fixtures)]

    def _op(self, i, tag, a):
        sn = self.sn
        norm_a = float(np.linalg.norm(a))

        def check(res, ctx):
            o = Outcome(sweeps=res.sweeps, pivots=res.sweeps * self.N * self.N)
            o.fingerprint = res.x.tobytes() + repr(res.distance).encode()
            x = res.x
            dist = float(np.linalg.norm(a - x))
            checks = [
                ("structure residual", structure_residual(x, tag.value), STRUCT_TOL),
                ("commutator / ||X||^2", commutator(x) / np.linalg.norm(x) ** 2,
                 NORMAL_TOL),
                ("|dist^2 - offdiag^2| / ||A||^2",
                 abs(dist ** 2 - offdiag_sq(res.iterate)) / norm_a ** 2,
                 PYTHAGORAS_TOL),
                ("distance / ||A||", dist / norm_a, NORMAL_INPUT_DIST_TOL),
                ("reported distance mismatch",
                 abs(res.distance - dist) / max(dist, 1e-300),
                 DISTANCE_MATCH_TOL),
            ]
            for what, value, tol in checks:
                if not value <= tol:
                    o.problems.append(f"fixture {i} ({tag.value}): {what} "
                                      f"{value:.3e} > {tol:.0e}")
            if not res.converged:
                o.problems.append(f"fixture {i} ({tag.value}): not converged")
            return o

        return Op("solve", f"solve fixture {i} ({tag.value})",
                  lambda: sn.solve(a, tag, self.config), check)


class CliPipeline(Workload):
    """``structnorm solve`` with files, trace CSV and the η rule, then checks."""

    name = "cli-pipeline"
    N = 48
    STRUCTURES = ("skew-hamiltonian", "perskew-hermitian")
    active = (_PIVOT_LAYERS | _SOLVE_LAYERS
              | {"gradient.pivot_gain", "gradient.should_skip",
                 "matrixio.read_matrix", "matrixio.write_matrix", "cli.main",
                 "cli.cmd_solve", "cli.cmd_verify", "cli.cmd_distance",
                 "cli.cmd_normality"})
    predictions = {
        "kernels.* / rotations.*": "pivots_per_s, largest share of the three workloads",
        "structures.diag_norm_sq / offdiag_norm_sq": "solve_s_p50 (O(n^2) trace record per pivot)",
        "gradient.pivot_gain / tangent_gradient / eta_skipped": "solve_s_p50 (η rule on every pivot)",
        "matrixio.*": "solve_s_p50 and check_s_p50 (text I/O)",
        "cli.cmd_solve.self_ms": "solve_s_p50 (trace CSV, argument handling)",
        "angles.*": "pivots_per_s, smallest share of the three workloads",
        "structures.check_structure": "no end-to-end change",
    }

    def setup(self, rep_dir):
        sn = self.sn
        self.files = []
        for tag_name, seed in zip(self.STRUCTURES, self._seeds(2)):
            tag = sn.StructureTag.from_name(tag_name)
            a = sn.gen_structured(tag, self.N, seed)
            d = rep_dir / tag_name
            d.mkdir(parents=True, exist_ok=True)
            sn.write_matrix(d / "A.mat", a)
            self.files.append((tag_name, d, float(np.linalg.norm(a))))
        warm = rep_dir / "warm"
        warm.mkdir(exist_ok=True)
        sn.write_matrix(warm / "A.mat", sn.gen_structured(
            sn.StructureTag.HAMILTONIAN, 2, 0))
        for argv in self._argvs("hamiltonian", warm):
            _cli(argv)

    @staticmethod
    def _argvs(tag_name, d):
        a, x, z, t = (str(d / f) for f in ("A.mat", "X.mat", "Z.mat", "trace.csv"))
        return [
            ["solve", "--in", a, "--structure", tag_name, "--skip-rule",
             "--max-sweeps", "1", "--trace", t, "--out-normal", x, "--out-z", z],
            ["verify", "--in", x, "--structure", tag_name],
            ["normality", "--in", x],
            ["distance", "--a", a, "--b", x],
        ]

    def ops(self):
        gates = (  # verify, normality, distance; s is solve's parsed summary
            lambda v, s: v <= STRUCT_TOL,
            lambda v, s: v <= NORMAL_TOL * s["x_norm"] ** 2,
            lambda v, s: abs(v - s["distance"]) <= DISTANCE_MATCH_TOL * s["distance"],
        )
        ops = []
        for tag_name, d, norm_a in self.files:
            solve, *checks = self._argvs(tag_name, d)
            ops.append(Op("solve", f"solve {tag_name}", lambda v=solve: _cli(v),
                          self._check_solve(tag_name, d, norm_a)))
            for argv, gate in zip(checks, gates):
                label = f"{argv[0]} {tag_name}"
                ops.append(Op("check", label, lambda v=argv: _cli(v),
                              self._check_printed(label, tag_name, gate)))
        return ops

    def _check_solve(self, tag_name, d, norm_a):
        n = self.N

        def check(raw, ctx):
            code, text = raw
            o = Outcome(fingerprint=text.encode())
            if code != 0:
                o.problems.append(f"solve {tag_name}: exit {code}: {text.strip()}")
                return o
            summary = dict(kv.split("=", 1) for kv in text.split())
            o.sweeps = int(summary["sweeps"])
            o.pivots = o.sweeps * n * n
            dist = float(summary["distance"])
            offdiag = float(summary["offdiag_norm"])
            ctx[tag_name] = {"distance": dist, "x_norm": float(summary["diag_norm"])}
            gap = abs(dist ** 2 - offdiag ** 2) / norm_a ** 2
            if not gap <= PYTHAGORAS_TOL:
                o.problems.append(f"solve {tag_name}: |dist^2 - offdiag^2| / "
                                  f"||A||^2 = {gap:.3e}")
            trace = (d / "trace.csv").read_bytes()
            rows = trace.count(b"\n") - 1
            if rows != o.pivots:
                o.problems.append(f"solve {tag_name}: trace has {rows} rows, "
                                  f"expected {o.pivots}")
            o.fingerprint += (trace + (d / "X.mat").read_bytes()
                              + (d / "Z.mat").read_bytes())
            return o

        return check

    @staticmethod
    def _check_printed(label, tag_name, gate):
        """Exit 0, and the number printed passes ``gate`` against solve's summary."""
        def check(raw, ctx):
            code, text = raw
            o = Outcome(fingerprint=text.encode())
            if code != 0 or not gate(float(text), ctx[tag_name]):
                o.problems.append(f"{label}: exit {code}, printed {text.strip()}")
            return o
        return check


WORKLOADS = {w.name: w for w in (Figures, NormalConverge, CliPipeline)}
