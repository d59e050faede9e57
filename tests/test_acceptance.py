"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criteria spanning several fixture runs share module-scoped caches so the
whole suite stays inside its runtime budgets.
"""
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import structnorm as sn

from helpers import random_problem, random_structured_unitary

SRC = str(Path(__file__).resolve().parent.parent / "src")
TAGS = list(sn.StructureTag)


def _report(capsys, num, ok, text):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# criteria 1-3 share one batch of traced runs: 4 tags x 20 fixtures, n = 10,
# 20 sweeps each
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def structure_runs():
    runs = []
    t0 = time.time()
    config = sn.SolverConfig(max_sweeps=20)
    for tag in TAGS:
        for k in range(20):
            a = sn.gen_structured(tag, 10, 1000 + k)
            residuals = []
            for state in sn.iterate(a, tag, config):
                residuals.append(sn.check_structure(state.a, tag))
            runs.append({
                "tag": tag,
                "norm": float(np.linalg.norm(a)),
                "residuals": residuals,
                "trace": state.trace,
                "final": state.a,
            })
    return {"runs": runs, "elapsed": time.time() - t0}


def test_criterion_01_structure_preservation(capsys, structure_runs):
    worst = 0.0
    for run in structure_runs["runs"]:
        worst = max(worst, max(run["residuals"]))
    elapsed = structure_runs["elapsed"]
    ok = worst <= 1e-12 and elapsed <= 60.0
    _report(capsys, 1, ok, f"structure residual after every sweep: worst {worst:.2e} "
                   f"(<= 1e-12 of ||A||), batch time {elapsed:.1f}s (<= 60s)")


def test_criterion_02_norm_conservation_and_pythagoras(capsys, structure_runs):
    worst_norm = 0.0
    worst_pyth = 0.0
    for run in structure_runs["runs"]:
        na = run["norm"]
        for rec in run["trace"]:
            total = rec.diag_norm_sq + rec.offdiag_norm_sq
            worst_norm = max(worst_norm, abs(math.sqrt(total) - na) / na)
            worst_pyth = max(worst_pyth, abs(total - na * na) / (na * na))
    ok = worst_norm <= 1e-12 and worst_pyth <= 1e-12
    _report(capsys, 2, ok, f"norm drift {worst_norm:.2e} and Pythagoras defect "
                   f"{worst_pyth:.2e} per step (<= 1e-12 relative)")


def test_criterion_03_monotonicity(capsys, structure_runs):
    worst = 0.0
    for run in structure_runs["runs"]:
        slack = 1e-12 * run["norm"] ** 2
        ds = [rec.diag_norm_sq for rec in run["trace"]]
        for a, b in zip(ds, ds[1:]):
            worst = max(worst, (a - b) / run["norm"] ** 2)
            assert b >= a - slack
    ok = worst <= 1e-12
    _report(capsys, 3, ok, f"diagonal weight non-decreasing per step, worst "
                   f"backslide {worst:.2e} (<= 1e-12 of ||A||^2)")


# ---------------------------------------------------------------------------
# criterion 4 (+9 reuses the outputs): diagonalizable fixtures at n = 25 for
# all tags under O1/O2, plus one n = 50 run
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def diagonalizable_runs():
    runs = []
    t0 = time.time()
    jobs = [(tag, 25, o) for tag in TAGS for o in ("O1", "O2")]
    jobs.append((sn.StructureTag.HAMILTONIAN, 50, "O1"))
    jobs.append((sn.StructureTag.HAMILTONIAN, 50, "O2"))
    for tag, n, ordering in jobs:
        a, _, _ = sn.gen_normal_structured(tag, n, 2000 + n)
        config = sn.SolverConfig(ordering=ordering, tol=1e-16, max_sweeps=20)
        res = sn.solve(a, tag, config)
        runs.append({"tag": tag, "n": n, "ordering": ordering, "a": a,
                     "norm": float(np.linalg.norm(a)), "result": res})
    return {"runs": runs, "elapsed": time.time() - t0}


def test_criterion_04_diagonalizable_reproduction(capsys, diagonalizable_runs):
    worst_off = 0.0
    worst_diag = 0.0
    max_sweeps = 0
    for run in diagonalizable_runs["runs"]:
        na = run["norm"]
        res = run["result"]
        worst_off = max(worst_off, math.sqrt(res.offdiag_norm_sq) / na)
        worst_diag = max(worst_diag, abs(math.sqrt(res.diag_norm_sq) - na) / na)
        max_sweeps = max(max_sweeps, res.sweeps)
    elapsed = diagonalizable_runs["elapsed"]
    ok = worst_off <= 1e-8 and worst_diag <= 1e-8 and max_sweeps <= 20 \
        and elapsed <= 120.0
    _report(capsys, 4, ok, f"normal fixtures diagonalize under O1/O2: worst offdiag "
                   f"{worst_off:.2e}, diag gap {worst_diag:.2e} (<= 1e-8 of "
                   f"||A||), sweeps <= {max_sweeps}, time {elapsed:.1f}s (<= 120s)")


# ---------------------------------------------------------------------------
# criterion 5: generic Hamiltonian behavior
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def generic_run():
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 25, 77)
    res = sn.solve(a, sn.StructureTag.HAMILTONIAN,
                   sn.SolverConfig(max_sweeps=20, tol=1e-30))
    return a, res


def test_criterion_05_generic_case(capsys, generic_run):
    a, res = generic_run
    na_sq = float(np.linalg.norm(a)) ** 2
    per_sweep = 25 * 25
    off0 = sn.offdiag_norm_sq(a)
    assert res.sweeps == 20
    sweep_ends = [res.trace[k * per_sweep - 1].diag_norm_sq
                  for k in range(1, res.sweeps + 1)]
    off1 = res.trace[per_sweep - 1].offdiag_norm_sq
    decreasing = off1 < off0
    monotone = all(b >= a_ - 1e-12 * na_sq
                   for a_, b in zip(sweep_ends, sweep_ends[1:]))
    last_gain = sweep_ends[-1] - sweep_ends[-2]
    # NOTE: the stagnation clause does not hold for this algorithm.  On
    # non-diagonalizable inputs the per-sweep objective gain decays linearly
    # at a rate of about 0.88 per sweep and first drops below 1e-10*||A||^2
    # around sweep 120; at sweep 20 it is still ~1e-4*||A||^2.  A brute-force
    # per-pivot maximizer reproduces the same trajectory, so the rate is
    # intrinsic, not a solver limitation.  The clause is asserted as stated.
    stagnated = last_gain < 1e-10 * na_sq
    ok = decreasing and monotone and stagnated
    _report(capsys, 5, ok, f"generic Hamiltonian: offdiag after sweep 1 "
                   f"{math.sqrt(off1):.3f} < {math.sqrt(off0):.3f} "
                   f"({decreasing}), monotone ({monotone}), sweep-20 gain "
                   f"{last_gain / na_sq:.2e} < 1e-10 of ||A||^2 ({stagnated}; "
                   f"unattainable for this algorithm, see ROADMAP.md, "
                   f"Known standing failure)")


# ---------------------------------------------------------------------------
# criterion 6: angle solver vs grid oracle, 10^4 problems per mode
# ---------------------------------------------------------------------------

def test_criterion_06_angle_solver_oracle(capsys):
    t0 = time.time()
    rng = np.random.default_rng(60)
    failures = 0
    fd_bad = 0
    interior = 0
    h = 1e-5
    for _ in range(10_000):
        pr = random_problem(rng)
        sol = sn.solve_angles(pr)
        _, _, g_grid = sn.grid_oracle(pr, 401)
        if sol.g_value < g_grid - 1e-6 * (1 + g_grid):
            failures += 1
        if (sol.phi != 0.0 and abs(sol.phi) < math.pi / 4 - 1e-3
                and abs(sol.alpha) < math.pi / 2 - 1e-3):
            interior += 1
            dphi = (sn.eval_g(pr, sol.phi + h, sol.alpha)
                    - sn.eval_g(pr, sol.phi - h, sol.alpha)) / (2 * h)
            dalpha = (sn.eval_g(pr, sol.phi, sol.alpha + h)
                      - sn.eval_g(pr, sol.phi, sol.alpha - h)) / (2 * h)
            if max(abs(dphi), abs(dalpha)) > 1e-6 * (1 + sol.g_value):
                fd_bad += 1
    for fixed in (0.0, -math.pi / 2):
        for _ in range(10_000):
            pr = random_problem(rng)
            sol = sn.solve_angles_fixed_alpha(pr, fixed)
            _, _, g_grid = sn.grid_oracle(pr, 401, fixed)
            if sol.g_value < g_grid - 1e-6 * (1 + g_grid):
                failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and fd_bad == 0 and elapsed <= 300.0
    _report(capsys, 6, ok, f"solver >= 401-grid oracle on 30000 problems "
                   f"({failures} misses), stationarity holds at {interior} "
                   f"interior optima ({fd_bad} bad), time {elapsed:.0f}s (<= 300s)")


# ---------------------------------------------------------------------------
# criterion 7: gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_07_gradient_correctness(capsys):
    rng = np.random.default_rng(70)
    worst_fd = 0.0
    worst_proj = 0.0
    h = 1e-6
    for family in (sn.SYMPLECTIC, sn.PERPLECTIC):
        tag = (sn.StructureTag.HAMILTONIAN if family == sn.SYMPLECTIC
               else sn.StructureTag.PER_HERMITIAN)
        for trial in range(100):
            n = 5
            a = sn.gen_structured(tag, n, 7000 + trial)
            z = random_structured_unitary(family, n, seed=7100 + trial)
            res = sn.grad_f(a, z, family)
            y = (rng.standard_normal((2 * n, 2 * n))
                 + 1j * rng.standard_normal((2 * n, 2 * n)))
            direction = sn.project_tangent(y, family)
            t = z @ direction

            def f_tilde(m):
                d = np.diagonal(m.conj().T @ a @ m)
                return float(np.real(np.vdot(d, d)))

            fd = (f_tilde(z + h * t) - f_tilde(z - h * t)) / (2 * h)
            ip = float(np.real(np.trace(res.x.conj().T @ direction)))
            worst_fd = max(worst_fd, abs(fd - ip) / max(abs(ip), abs(fd)))

            again = sn.project_tangent(res.x, family)
            worst_proj = max(worst_proj,
                             float(np.linalg.norm(again - res.x)))
            s = sn.project_tangent(
                rng.standard_normal((2 * n, 2 * n))
                + 1j * rng.standard_normal((2 * n, 2 * n)), family)
            inner = abs(float(np.real(np.trace((res.y - res.x).conj().T @ s))))
            scale = max(1.0, float(np.linalg.norm(res.y))
                        * float(np.linalg.norm(s)))
            worst_proj = max(worst_proj, inner / scale)
    ok = worst_fd <= 1e-5 and worst_proj <= 1e-12
    _report(capsys, 7, ok, f"directional derivative relative error {worst_fd:.2e} "
                   f"(<= 1e-5 at h = 1e-6), projection residuals "
                   f"{worst_proj:.2e} (<= 1e-12)")


# ---------------------------------------------------------------------------
# criterion 8: pivot-condition lower bound
# ---------------------------------------------------------------------------

def test_criterion_08_pivot_condition_bound(capsys):
    n = 10
    worst_margin = float("inf")
    for idx, tag in enumerate(TAGS):
        family = tag.family
        pivots = sn.pivot_set(family, n)
        for trial in range(25):
            a = sn.gen_structured(tag, n, 8000 + 100 * idx + trial)
            z = random_structured_unitary(family, n, rotations=80,
                                          seed=8500 + 100 * idx + trial)
            x, grad_norm = sn.tangent_gradient(z.conj().T @ a @ z, family)
            best = max(sn.pivot_gain(x, kind, i, j)
                       for kind, i, j in pivots)
            worst_margin = min(worst_margin,
                               best - sn.eta(n) * grad_norm + 1e-12)
    ok = worst_margin >= 0.0
    _report(capsys, 8, ok, f"max pivot gain >= eta * ||X||_F - 1e-12 over 100 runs, "
                   f"worst margin {worst_margin:.2e}")


# ---------------------------------------------------------------------------
# criterion 9: nearest-normal identities on every solve output
# ---------------------------------------------------------------------------

def test_criterion_09_nearest_normal_identities(capsys, diagonalizable_runs, generic_run):
    outputs = [(run["a"], run["tag"], run["result"], True)
               for run in diagonalizable_runs["runs"]]
    a_gen, res_gen = generic_run
    outputs.append((a_gen, sn.StructureTag.HAMILTONIAN, res_gen, False))
    for tag in TAGS:
        a = sn.gen_structured(tag, 10, 9000)
        outputs.append((a, tag, sn.solve(a, tag), False))

    worst_struct = 0.0
    worst_normal = 0.0
    worst_ident = 0.0
    worst_dist = 0.0
    for a, tag, res, is_normal_input in outputs:
        na = float(np.linalg.norm(a))
        nx_sq = float(np.linalg.norm(res.x)) ** 2
        worst_struct = max(worst_struct, sn.check_structure(res.x, tag))
        comm = res.x @ res.x.conj().T - res.x.conj().T @ res.x
        worst_normal = max(worst_normal, float(np.linalg.norm(comm)) / nx_sq)
        floor = 1e-12 * na * na
        ident = abs(res.distance ** 2 - res.offdiag_norm_sq) \
            / max(res.offdiag_norm_sq, floor)
        worst_ident = max(worst_ident, ident)
        if is_normal_input:
            worst_dist = max(worst_dist, res.distance / na)
    ok = (worst_struct <= 1e-10 and worst_normal <= 1e-10
          and worst_ident <= 1e-10 and worst_dist <= 1e-8)
    _report(capsys, 9, ok, f"X structured ({worst_struct:.2e}), normal "
                   f"({worst_normal:.2e}), dist^2 = offdiag ({worst_ident:.2e}), "
                   f"normal-input distance {worst_dist:.2e} (<= 1e-8 of ||A||)")


# ---------------------------------------------------------------------------
# criterion 10: CLI contract
# ---------------------------------------------------------------------------

def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "structnorm", *args],
                          capture_output=True, text=True, env=env)


def test_criterion_10_cli_contract(capsys, tmp_path):
    from structnorm.cli import main as cli_main

    # byte-exact round trip on 50 random fixtures + deterministic regeneration
    rng = np.random.default_rng(100)
    round_trip_ok = True
    for k in range(50):
        tag = TAGS[k % 4]
        a = sn.gen_structured(tag, int(rng.integers(1, 7)), 10_000 + k)
        path = tmp_path / f"m{k}.mat"
        sn.write_matrix(path, a)
        round_trip_ok &= bool(np.array_equal(sn.read_matrix(path), a))

    f1, f2 = tmp_path / "d1.mat", tmp_path / "d2.mat"
    for f in (f1, f2):
        cli_main(["gen", "--structure", "perskew-hermitian", "--n", "6",
                  "--seed", "3", "--out", str(f)])
    deterministic = f1.read_bytes() == f2.read_bytes()

    # exit codes: 2 bad tag, 1 verify failure, 3 solve structure mismatch, 0 ok
    ham = tmp_path / "h.mat"
    cli_main(["gen", "--structure", "hamiltonian", "--n", "4", "--seed", "1",
              "--out", str(ham)])
    codes = (
        _run_cli("gen", "--structure", "circulant", "--n", "2",
                 "--out", str(tmp_path / "x.mat")).returncode,
        _run_cli("verify", "--in", str(ham),
                 "--structure", "skew-hamiltonian").returncode,
        _run_cli("solve", "--in", str(ham), "--structure", "per-hermitian",
                 "--out-normal", str(tmp_path / "x.mat"),
                 "--out-z", str(tmp_path / "z.mat")).returncode,
        _run_cli("verify", "--in", str(ham),
                 "--structure", "hamiltonian").returncode,
    )
    exit_codes_ok = codes == (2, 1, 3, 0)

    # figure-2 CSV final row satisfies the criterion-4 bounds
    outdir = tmp_path / "fig2"
    cli_main(["experiment", "--figure", "2", "--seed", "4",
              "--out-dir", str(outdir)])
    last = (outdir / "fig2_diagonalizable.csv").read_text().splitlines()[-1]
    sweep, diag, off, frob = last.split(",")
    fig_ok = (int(sweep) == 20
              and abs(float(diag) - float(frob)) <= 1e-8 * float(frob)
              and float(off) <= 1e-8 * float(frob))

    ok = round_trip_ok and deterministic and exit_codes_ok and fig_ok
    _report(capsys, 10, ok, f"round-trip x50 ({round_trip_ok}), deterministic gen "
                    f"({deterministic}), exit codes {codes} == (2, 1, 3, 0), "
                    f"figure-2 final row within criterion-4 bounds ({fig_ok})")
