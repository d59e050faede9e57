import errno
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import structnorm as sn
from structnorm import cli
from structnorm.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "structnorm", *args],
                          capture_output=True, text=True, env=env, **kwargs)


def test_gen_writes_verifiable_file(tmp_path):
    out = tmp_path / "h.mat"
    assert main(["gen", "--structure", "hamiltonian", "--n", "5",
                 "--seed", "42", "--out", str(out)]) == 0
    a = sn.read_matrix(out)
    assert a.shape == (10, 10)
    assert sn.check_structure(a, sn.StructureTag.HAMILTONIAN) <= 1e-12


def test_gen_deterministic_bytes(tmp_path):
    f1, f2 = tmp_path / "a.mat", tmp_path / "b.mat"
    for f in (f1, f2):
        main(["gen", "--structure", "per-hermitian", "--n", "4",
              "--seed", "7", "--out", str(f)])
    assert f1.read_bytes() == f2.read_bytes()


def test_gen_invalid_structure_exits_2(tmp_path):
    proc = run_cli("gen", "--structure", "toeplitz", "--n", "3",
                   "--out", str(tmp_path / "x.mat"))
    assert proc.returncode == 2


def test_gen_unwritable_path_exits_2(tmp_path):
    proc = run_cli("gen", "--structure", "hamiltonian", "--n", "2",
                   "--out", str(tmp_path / "no" / "dir" / "x.mat"))
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_gen_rotations_without_normal_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.mat"
    gen = ["gen", "--structure", "hamiltonian", "--n", "2", "--rotations", "5",
           "--out", str(out)]
    with pytest.raises(SystemExit) as info:
        main(gen)
    assert info.value.code == 2
    assert "--normal" in capsys.readouterr().err
    assert not out.exists()
    assert main(gen + ["--normal"]) == 0


def test_verify_j_as_hamiltonian(tmp_path):
    path = tmp_path / "j.mat"
    sn.write_matrix(path, sn.make_J(3))
    proc = run_cli("verify", "--in", str(path), "--structure", "hamiltonian")
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == 0.0


def test_verify_failure_exits_1(tmp_path):
    path = tmp_path / "h.mat"
    sn.write_matrix(path, sn.gen_structured(sn.StructureTag.HAMILTONIAN, 3, 0))
    proc = run_cli("verify", "--in", str(path), "--structure", "per-hermitian")
    assert proc.returncode == 1
    assert float(proc.stdout.strip()) > 1e-10


def test_verify_tol_must_be_non_negative_and_finite(tmp_path, capsys):
    path = tmp_path / "j.mat"
    sn.write_matrix(path, sn.make_J(3))
    verify = ["verify", "--in", str(path), "--structure", "hamiltonian"]
    # joined to the option, and split from it: -inf and -1e-3 start with "-"
    # and are not plain numbers, which argparse would take for options.
    # "--to" and "--t" are abbreviations argparse resolves to --tol here.
    for tol in ("-1", "nan", "inf", "-inf", "-1e-3"):
        for given in ([f"--tol={tol}"], ["--tol", tol], [f"--to={tol}"],
                      ["--to", tol], ["--t", tol]):
            assert main([*verify, *given]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: tol must be non-negative and finite\n"
    assert main([*verify, "--tol", "0"]) == 0
    assert float(capsys.readouterr().out) == 0.0
    # a value left out is a usage error that names --tol, not a bad float
    with pytest.raises(SystemExit) as info:
        main(["verify", "--tol", *verify[1:]])
    assert info.value.code == 2
    assert ("argument --tol: expected one argument"
            in capsys.readouterr().err)


def test_non_finite_file_exits_2(tmp_path):
    path = tmp_path / "nan.mat"
    path.write_text("structnorm-matrix v1 2 1 complex\n0 0\nnan 0\n")
    assert main(["verify", "--in", str(path), "--structure", "hamiltonian"]) == 2


def test_non_ascii_file_exits_2_naming_the_file(tmp_path, capsys):
    # a no-break space (0xC2 0xA0) inside an entry
    path = tmp_path / "nbsp.mat"
    path.write_bytes(b"structnorm-matrix v1 2 1 complex\n0 0\n1\xc2\xa0 0\n")
    assert main(["verify", "--in", str(path), "--structure", "hamiltonian"]) == 2
    assert capsys.readouterr().err == f"error: {path}: bad entry on line 3\n"


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command", ["solve", "verify", "distance",
                                     "normality"])
def test_unreadable_input_exits_2_with_one_error_line(tmp_path, command, kind):
    good = tmp_path / "h.mat"
    sn.write_matrix(good, sn.gen_structured(sn.StructureTag.HAMILTONIAN, 2, 0))
    bad = tmp_path / "input"
    if kind == "directory":
        bad.mkdir()
    argv = {"solve": ["solve", "--in", str(bad), "--structure", "hamiltonian",
                      "--out-normal", str(tmp_path / "x.mat"),
                      "--out-z", str(tmp_path / "z.mat")],
            "verify": ["verify", "--in", str(bad), "--structure", "hamiltonian"],
            "distance": ["distance", "--a", str(good), "--b", str(bad)],
            "normality": ["normality", "--in", str(bad)]}[command]
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: [Errno ")
    assert str(bad) in lines[0]
    assert not (tmp_path / "x.mat").exists()


def test_arithmetic_error_exits_2(tmp_path, monkeypatch):
    path = tmp_path / "h.mat"
    sn.write_matrix(path, sn.gen_structured(sn.StructureTag.HAMILTONIAN, 2, 0))

    def overflow(*args, **kwargs):
        raise OverflowError("numerical result out of range")

    monkeypatch.setattr(sn.jacobi, "solve", overflow)
    assert main(["solve", "--in", str(path), "--structure", "hamiltonian",
                 "--out-normal", str(tmp_path / "x.mat"),
                 "--out-z", str(tmp_path / "z.mat")]) == 2


def test_solve_huge_entries_exits_0(tmp_path, capsys):
    # entries of 1e80 used to overflow the angle solve and exit 1
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 3, 2)
    summaries = []
    for scale in (1.0, 1e80):
        path = tmp_path / "a.mat"
        sn.write_matrix(path, scale * a)
        assert main(["solve", "--in", str(path), "--structure", "hamiltonian",
                     "--out-normal", str(tmp_path / "x.mat"),
                     "--out-z", str(tmp_path / "z.mat")]) == 0
        summaries.append(_parse_summary(capsys.readouterr().out))
    base, huge = summaries
    assert huge["converged"] == 1.0
    assert huge["distance"] == pytest.approx(1e80 * base["distance"], rel=1e-10)


def test_extreme_scales_keep_their_exit_codes(tmp_path, capsys):
    path, x, z = (str(tmp_path / f) for f in ("a.mat", "x.mat", "z.mat"))
    solve = ["solve", "--in", path, "--structure", "hamiltonian",
             "--out-normal", x, "--out-z", z]
    # not Hamiltonian: exit 3 at any scale, and verify prints the residual
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 2, 0)
    a[0, 1] += 1.0
    printed = []
    for scale in (1.0, 2.0 ** 600):
        sn.write_matrix(path, scale * a)
        assert main(solve) == 3
        assert main(["verify", "--in", path, "--structure", "hamiltonian"]) == 1
        printed.append(capsys.readouterr().out.splitlines()[-1])
    assert printed[0] == printed[1] != "nan"
    # Hamiltonian, but ||A||_F^2 overflows: exit 2, naming the overflow
    sn.write_matrix(path, 2.0 ** 510 * sn.gen_structured(
        sn.StructureTag.HAMILTONIAN, 3, 0))
    assert main(solve) == 2
    assert "squared Frobenius norm of the input overflows" in capsys.readouterr().err
    # Hamiltonian and tiny: solved at 2^-510, where ||A||_F^2 is still a
    # normal float; exit 2 at 2^-540, where it underflows
    for k, code in ((-510, 0), (-540, 2)):
        sn.write_matrix(path, 2.0 ** k * sn.gen_structured(
            sn.StructureTag.HAMILTONIAN, 3, 0))
        assert main(solve) == code
    assert "squared Frobenius norm of the input underflows" in capsys.readouterr().err


def test_small_non_structured_inputs_exit_3_at_every_scale(tmp_path, capsys):
    # the structure gate is relative: scaling the input down does not let a
    # non-Hamiltonian matrix through, and verify prints the same residual
    path, x, z = (str(tmp_path / f) for f in ("a.mat", "x.mat", "z.mat"))
    solve = ["solve", "--in", path, "--structure", "hamiltonian",
             "--out-normal", x, "--out-z", z]
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    printed = set()
    for k in (0, -20, -40, -100, -300, -505):
        sn.write_matrix(path, 2.0 ** k * a)
        assert main(solve) == 3
        assert "input is not hamiltonian" in capsys.readouterr().err
        assert main(["verify", "--in", path, "--structure", "hamiltonian"]) == 1
        printed.add(capsys.readouterr().out)
    assert len(printed) == 1


def test_solve_zero_matrix_converges_in_one_sweep(tmp_path, capsys):
    path = tmp_path / "zero.mat"
    sn.write_matrix(path, np.zeros((6, 6), dtype=complex))
    assert main(["solve", "--in", str(path), "--structure", "hamiltonian",
                 "--out-normal", str(tmp_path / "x.mat"),
                 "--out-z", str(tmp_path / "z.mat")]) == 0
    assert capsys.readouterr().out.startswith("sweeps=1 converged=1 ")


def test_solve_without_trace_records_none(tmp_path, monkeypatch):
    path = tmp_path / "h.mat"
    sn.write_matrix(path, sn.gen_structured(sn.StructureTag.HAMILTONIAN, 2, 0))

    def no_record(*args, **kwargs):
        raise AssertionError("trace recorded without --trace")

    monkeypatch.setattr(sn.jacobi, "_record", no_record)
    assert main(["solve", "--in", str(path), "--structure", "hamiltonian",
                 "--out-normal", str(tmp_path / "x.mat"),
                 "--out-z", str(tmp_path / "z.mat")]) == 0


def test_solve_empty_trace_path_exits_2(tmp_path, capsys):
    # an empty --trace turns the trace on, so it must be written or fail
    path = tmp_path / "h.mat"
    sn.write_matrix(path, sn.gen_structured(sn.StructureTag.HAMILTONIAN, 2, 0))
    assert main(["solve", "--in", str(path), "--structure", "hamiltonian",
                 "--out-normal", str(tmp_path / "x.mat"),
                 "--out-z", str(tmp_path / "z.mat"), "--trace", ""]) == 2
    assert "cannot write output" in capsys.readouterr().err


@pytest.mark.parametrize("failing", ["trace-dir", "trace-empty", "z-dir"])
def test_solve_that_cannot_write_an_output_leaves_none(tmp_path, capsys,
                                                       failing):
    path = tmp_path / "h.mat"
    sn.write_matrix(path, sn.gen_structured(sn.StructureTag.HAMILTONIAN, 2, 0))
    x, z, trace = tmp_path / "x.mat", tmp_path / "z.mat", tmp_path / "t.csv"
    if failing == "z-dir":
        z = tmp_path / "no" / "z.mat"
    elif failing == "trace-dir":
        trace = tmp_path / "no" / "t.csv"
    argv = ["solve", "--in", str(path), "--structure", "hamiltonian",
            "--out-normal", str(x), "--out-z", str(z),
            "--trace", "" if failing == "trace-empty" else str(trace)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: [Errno ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.mat"]


def _solve_argv(tmp_path, n=2):
    path = tmp_path / "h.mat"
    sn.write_matrix(path, sn.gen_structured(sn.StructureTag.HAMILTONIAN, n, 0))
    return ["solve", "--in", str(path), "--structure", "hamiltonian",
            "--out-normal", str(tmp_path / "x.mat"),
            "--out-z", str(tmp_path / "z.mat"), "--trace", str(tmp_path / "t.csv")]


@pytest.mark.parametrize("failing", ["x.mat", "z.mat", "t.csv"])
def test_solve_that_fails_part_way_through_a_write_leaves_no_output(
        tmp_path, capsys, monkeypatch, failing):
    # as a full disk does: the file is opened and gets a prefix, then the
    # write fails
    def failing_at(write):
        def wrapped(path, data):
            if Path(path).name == failing:
                Path(path).write_text("structnorm-matrix v1 4")
                raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))
            write(path, data)
        return wrapped

    for name in ("write_matrix", "_write_trace"):
        monkeypatch.setattr(cli, name, failing_at(getattr(cli, name)))
    assert main(_solve_argv(tmp_path)) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: [Errno {errno.EFBIG}] "
        f"{os.strerror(errno.EFBIG)}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.mat"]


@pytest.mark.parametrize("limit", [1024, 2048])
def test_solve_stopped_by_the_file_size_limit_leaves_no_output(tmp_path, limit):
    # at n = 3, X is cut at 1 KiB; at 2 KiB X and Z are written whole and the
    # trace is cut
    resource = pytest.importorskip("resource")
    proc = run_cli(*_solve_argv(tmp_path, n=3), preexec_fn=lambda: resource.setrlimit(
        resource.RLIMIT_FSIZE, (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert "File too large" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.mat"]


def test_solve_leaves_a_path_it_could_not_open_as_it_was(tmp_path, capsys):
    argv = _solve_argv(tmp_path)
    for option in ("--out-z", "--trace"):
        path = tmp_path / option.strip("-")
        (path / "kept").mkdir(parents=True)
        failing = list(argv)
        failing[argv.index(option) + 1] = str(path)
        assert main(failing) == 2
        assert "cannot write output" in capsys.readouterr().err
        assert (path / "kept").is_dir()
        assert not (tmp_path / "x.mat").exists()


def test_solve_that_cannot_write_an_output_removes_no_device(tmp_path, capsys,
                                                            monkeypatch):
    # X goes to the null device; a failed solve must not remove it (the guard
    # below stops the removal, so a failing run deletes nothing)
    remove = os.remove

    def guarded(path, *args, **kwargs):
        assert os.fspath(path) != os.devnull, f"{path} removed"
        remove(path, *args, **kwargs)

    monkeypatch.setattr(os, "remove", guarded)
    monkeypatch.setattr(os, "unlink", guarded)
    argv = _solve_argv(tmp_path)
    argv[argv.index("--out-normal") + 1] = os.devnull
    argv[-1] = str(tmp_path / "no" / "t.csv")
    assert main(argv) == 2
    assert "cannot write output" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.mat"]


def _efbig(path):
    # as a full disk does: the file gets a prefix, then the write fails
    Path(path).write_text("structnorm-matrix v1 4")
    raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))


_EFBIG = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"


@pytest.mark.parametrize("device", [False, True])
def test_gen_that_fails_part_way_through_a_write_leaves_no_output(
        tmp_path, capsys, monkeypatch, device):
    # the cut-off file is removed; the null device is not (the guard stops
    # the removal, so a failing run deletes nothing)
    remove = os.remove

    def guarded(path, *args, **kwargs):
        assert os.fspath(path) != os.devnull, f"{path} removed"
        remove(path, *args, **kwargs)

    monkeypatch.setattr(os, "remove", guarded)
    monkeypatch.setattr(os, "unlink", guarded)
    monkeypatch.setattr(cli, "write_matrix", lambda path, a: _efbig(path))
    out = os.devnull if device else str(tmp_path / "g.mat")
    assert main(["gen", "--structure", "hamiltonian", "--n", "2",
                 "--out", out]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {_EFBIG}\n"
    assert list(tmp_path.iterdir()) == []


def test_experiment_that_fails_part_way_through_a_write_removes_that_file(
        tmp_path, capsys, monkeypatch):
    # the grids written whole before it stay
    write_text = cli._write_text

    def failing(path, text):
        if Path(path).name == "fig1_sweep1.csv":
            _efbig(path)
        write_text(path, text)

    monkeypatch.setattr(cli, "_write_text", failing)
    out = tmp_path / "e"
    assert main(["experiment", "--figure", "1", "--n", "2",
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out / 'fig1_sweep1.csv'}: {_EFBIG}\n")
    assert sorted(p.name for p in out.iterdir()) == ["fig1_sweep0.csv"]


@pytest.mark.parametrize("command", ["gen", "experiment"])
def test_gen_and_experiment_stopped_by_the_file_size_limit_leave_no_cut_file(
        tmp_path, command):
    # the 12 x 12 matrix and the 16 x 16 grid are each more than 1 KiB
    resource = pytest.importorskip("resource")
    argv = {"gen": ["gen", "--structure", "hamiltonian", "--n", "6",
                    "--out", str(tmp_path / "g.mat")],
            "experiment": ["experiment", "--figure", "1", "--n", "8",
                           "--out-dir", str(tmp_path / "e")]}[command]
    proc = run_cli(*argv, preexec_fn=lambda: resource.setrlimit(
        resource.RLIMIT_FSIZE, (1024, 1024)))
    assert proc.returncode == 2, proc.stderr
    assert "File too large" in proc.stderr
    left = [p.name for p in tmp_path.rglob("*")]
    assert left == ([] if command == "gen" else ["e"])


def test_verify_parse_error_exits_2(tmp_path):
    path = tmp_path / "junk.mat"
    path.write_text("not a matrix\n")
    proc = run_cli("verify", "--in", str(path), "--structure", "hamiltonian")
    assert proc.returncode == 2


def test_distance_identical_files(tmp_path):
    path = tmp_path / "f.mat"
    sn.write_matrix(path, sn.make_F(4))
    proc = run_cli("distance", "--a", str(path), "--b", str(path))
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == 0.0


def test_distance_of_different_shapes_exits_2(tmp_path, capsys):
    a, b = tmp_path / "a.mat", tmp_path / "b.mat"
    sn.write_matrix(a, sn.make_F(2))
    sn.write_matrix(b, sn.make_F(3))
    assert main(["distance", "--a", str(a), "--b", str(b)]) == 2
    assert "shape mismatch" in capsys.readouterr().err


def test_normality_on_unitary(tmp_path):
    path = tmp_path / "j.mat"
    sn.write_matrix(path, sn.make_J(2))
    proc = run_cli("normality", "--in", str(path))
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == 0.0


@pytest.mark.parametrize("k", [600, -600, 201, -201, 199, -199])
def test_distance_is_exact_where_the_sum_of_squares_leaves_the_range(
        tmp_path, capsys, k):
    # the distance is representable; its square is not
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 3, 0)
    pa, pz = tmp_path / "a.mat", tmp_path / "z.mat"
    sn.write_matrix(pa, np.ldexp(a.view(float), k).view(complex))
    sn.write_matrix(pz, np.zeros_like(a))
    assert main(["distance", "--a", str(pa), "--b", str(pz)]) == 0
    assert float(capsys.readouterr().out) == math.ldexp(np.linalg.norm(a), k)


@pytest.mark.parametrize("k", [-400, -201, -199, 199, 201, 400])
def test_normality_of_a_scaled_matrix_is_the_scaled_residual(tmp_path, capsys, k):
    # the commutator residual is quadratic: at 2^k it is 2^(2k) times the
    # unscaled one, bit for bit, inside and outside the window of _normalized
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 3, 0)
    resid = []
    for scale in (0, k):
        path = tmp_path / f"x{scale}.mat"
        sn.write_matrix(path, np.ldexp(a.view(float), scale).view(complex))
        assert main(["normality", "--in", str(path)]) == 0
        resid.append(float(capsys.readouterr().out))
    assert resid[0] > 0.1
    assert resid[1] == math.ldexp(resid[0], 2 * k)


def test_normality_of_a_scaled_solve_is_the_scaled_residual(tmp_path, capsys):
    # X X^H overflows on the solver's own output for an input scaled by 2^500
    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 3, 0)
    resid = []
    for k in (0, 500):
        pa, px = tmp_path / f"a{k}.mat", tmp_path / f"x{k}.mat"
        sn.write_matrix(pa, np.ldexp(a.view(float), k).view(complex))
        assert main(["solve", "--in", str(pa), "--structure", "hamiltonian",
                     "--out-normal", str(px),
                     "--out-z", str(tmp_path / "z.mat")]) == 0
        capsys.readouterr()
        assert main(["normality", "--in", str(px)]) == 0
        resid.append(float(capsys.readouterr().out))
    assert 0.0 < resid[0] < 1e-12
    assert resid[1] == math.ldexp(resid[0], 1000)


@pytest.mark.parametrize("argv, files, message", [
    (["normality", "--in", "x.mat"], {"x.mat": [[0, 2.0 ** 1000], [0, 0]]},
     "the commutator residual overflows"),
    (["distance", "--a", "x.mat", "--b", "y.mat"],
     {"x.mat": [[1e308] * 2] * 2, "y.mat": [[-1e308] * 2] * 2},
     "the distance overflows")], ids=["normality", "distance"])
def test_normality_beyond_the_largest_double_exits_2(tmp_path, capsys, argv,
                                                     files, message):
    # finite files whose result no double can hold: one error line, no output
    for name, entries in files.items():
        sn.write_matrix(tmp_path / name, np.array(entries, dtype=complex))
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def _parse_summary(stdout):
    fields = dict(kv.split("=") for kv in stdout.strip().split())
    return {k: float(v) for k, v in fields.items()}


def test_huge_declared_size_exits_2(tmp_path, capsys):
    # 10^16 entries cannot be allocated: a file error, not exit 1 ("residual
    # above tolerance") from a MemoryError
    path = tmp_path / "huge.mat"
    path.write_text("structnorm-matrix v1 100000000 100000000 complex\n0 0\n")
    assert main(["verify", "--in", str(path), "--structure", "hamiltonian"]) == 2
    assert "truncated after 1 entries" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "experiment"])
def test_a_size_that_cannot_be_allocated_exits_2(tmp_path, capsys, command):
    # numpy refuses a 10^9 x 10^9 block before allocating any of it: exit 2
    # with one error line, not exit 1 ("residual above tolerance")
    argv = {"gen": ["gen", "--structure", "hamiltonian", "--n", "1000000000",
                    "--out", str(tmp_path / "x.mat")],
            "experiment": ["experiment", "--figure", "1", "--n", "1000000000",
                           "--out-dir", str(tmp_path / "d" / "sub")]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_trace_bytes_equal_the_f_string_writer(tmp_path):
    # the trace's one-f-string-per-row form; _write_trace must match it
    # byte for byte, for applied, eta-skipped and PHI_SKIP-skipped records
    def fmt(x):
        return f"{x:.17g}"

    tag = sn.StructureTag.HAMILTONIAN
    records = []
    for skip_rule in (True, False):
        a, _, _ = sn.gen_normal_structured(tag, 5, 75)
        records += sn.solve(a, tag, sn.SolverConfig(
            skip_rule=skip_rule, tol=1e-16, max_sweeps=30)).trace
    assert any(r.skipped for r in records)
    lines = ["sweep,step,kind,i,j,phi,alpha,diag_norm_sq,offdiag_norm_sq,skipped"]
    for r in records:
        lines.append(
            f"{r.sweep},{r.step},{r.kind},{r.i},{r.j},{fmt(r.phi)},"
            f"{fmt(r.alpha)},{fmt(r.diag_norm_sq)},{fmt(r.offdiag_norm_sq)},"
            f"{int(r.skipped)}")
    path = tmp_path / "trace.csv"
    cli._write_trace(path, records)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")


def test_solve_pipeline_normal_fixture(tmp_path):
    mat = tmp_path / "a.mat"
    main(["gen", "--structure", "skew-hamiltonian", "--n", "6", "--seed", "3",
          "--normal", "--out", str(mat)])
    out_x = tmp_path / "x.mat"
    out_z = tmp_path / "z.mat"
    trace = tmp_path / "trace.csv"
    proc = run_cli("solve", "--in", str(mat), "--structure", "skew-hamiltonian",
                   "--tol", "1e-16", "--max-sweeps", "20",
                   "--out-normal", str(out_x), "--out-z", str(out_z),
                   "--trace", str(trace))
    assert proc.returncode == 0
    summary = _parse_summary(proc.stdout)
    a = sn.read_matrix(mat)
    na = np.linalg.norm(a)
    assert summary["distance"] <= 1e-8 * na
    assert summary["converged"] == 1.0

    x = sn.read_matrix(out_x)
    z = sn.read_matrix(out_z)
    assert sn.check_structure(x, sn.StructureTag.SKEW_HAMILTONIAN) <= 1e-10
    comm = x @ x.conj().T - x.conj().T @ x
    assert np.linalg.norm(comm) <= 1e-10 * np.linalg.norm(x) ** 2
    assert np.linalg.norm(z.conj().T @ z - np.eye(12)) <= 1e-12 * 12

    lines = trace.read_text().splitlines()
    assert lines[0] == "sweep,step,kind,i,j,phi,alpha,diag_norm_sq,offdiag_norm_sq,skipped"
    assert tuple(lines[0].split(",")) == sn.TraceRecord._fields
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) % 36 == 0  # n^2 rows per sweep
    diag_col = [float(r[7]) for r in rows]
    assert all(b >= a - 1e-12 * na ** 2 for a, b in zip(diag_col, diag_col[1:]))


def test_solve_ordering_o2_row_count(tmp_path):
    mat = tmp_path / "a.mat"
    main(["gen", "--structure", "hamiltonian", "--n", "4", "--seed", "5",
          "--out", str(mat)])
    trace = tmp_path / "t.csv"
    proc = run_cli("solve", "--in", str(mat), "--structure", "hamiltonian",
                   "--ordering", "o2", "--max-sweeps", "3",
                   "--out-normal", str(tmp_path / "x.mat"),
                   "--out-z", str(tmp_path / "z.mat"), "--trace", str(trace))
    assert proc.returncode == 0
    rows = trace.read_text().splitlines()[1:]
    sweeps = _parse_summary(proc.stdout)["sweeps"]
    assert len(rows) == int(sweeps) * 16


def test_solve_skip_rule_flag(tmp_path):
    mat = tmp_path / "a.mat"
    main(["gen", "--structure", "hamiltonian", "--n", "4", "--seed", "6",
          "--normal", "--out", str(mat)])
    trace = tmp_path / "t.csv"
    proc = run_cli("solve", "--in", str(mat), "--structure", "hamiltonian",
                   "--skip-rule", "--max-sweeps", "20",
                   "--out-normal", str(tmp_path / "x.mat"),
                   "--out-z", str(tmp_path / "z.mat"), "--trace", str(trace))
    assert proc.returncode == 0
    skipped_col = [line.split(",")[9] for line in
                   trace.read_text().splitlines()[1:]]
    assert "1" in skipped_col


def test_solve_rejects_wrong_structure_exit_3(tmp_path):
    mat = tmp_path / "a.mat"
    main(["gen", "--structure", "hamiltonian", "--n", "3", "--seed", "1",
          "--out", str(mat)])
    proc = run_cli("solve", "--in", str(mat), "--structure", "per-hermitian",
                   "--out-normal", str(tmp_path / "x.mat"),
                   "--out-z", str(tmp_path / "z.mat"))
    assert proc.returncode == 3


def test_solve_non_finite_tol_exits_2(tmp_path, capsys):
    mat = tmp_path / "a.mat"
    sn.write_matrix(mat, sn.gen_structured(sn.StructureTag.HAMILTONIAN, 2, 0))
    outs = ["--out-normal", str(tmp_path / "x.mat"),
            "--out-z", str(tmp_path / "z.mat")]
    solve = ["solve", "--in", str(mat), "--structure", "hamiltonian"]
    # "--to" resolves to --tol; "--t" could be --tol or --trace here
    for tol in ("nan", "inf", "-inf", "-1e-3"):
        for given in (["--tol", tol], [f"--tol={tol}"], ["--to", tol]):
            assert main([*solve, *given, *outs]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: tol must be positive and finite\n"
    assert not (tmp_path / "x.mat").exists()
    with pytest.raises(SystemExit) as info:
        main([*solve, "--t", "-inf", *outs])
    assert info.value.code == 2
    assert "ambiguous option: --t=-inf could match --tol, --trace" in (
        capsys.readouterr().err)


def test_solve_nonconvergence_still_writes(tmp_path):
    mat = tmp_path / "a.mat"
    main(["gen", "--structure", "hamiltonian", "--n", "6", "--seed", "8",
          "--out", str(mat)])
    out_x = tmp_path / "x.mat"
    proc = run_cli("solve", "--in", str(mat), "--structure", "hamiltonian",
                   "--max-sweeps", "1",
                   "--out-normal", str(out_x), "--out-z", str(tmp_path / "z.mat"))
    assert proc.returncode == 0
    assert _parse_summary(proc.stdout)["converged"] == 0.0
    assert out_x.exists()


def test_seed_env_override(tmp_path):
    f1, f2, f3 = (tmp_path / n for n in ("a.mat", "b.mat", "c.mat"))
    run_cli("gen", "--structure", "hamiltonian", "--n", "3", "--out", str(f1),
            env_extra={"STRUCTNORM_SEED": "123"})
    run_cli("gen", "--structure", "hamiltonian", "--n", "3", "--out", str(f2),
            env_extra={"STRUCTNORM_SEED": "123"})
    run_cli("gen", "--structure", "hamiltonian", "--n", "3", "--out", str(f3),
            env_extra={"STRUCTNORM_SEED": "124"})
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_bytes() != f3.read_bytes()


def test_bad_seed_env_is_a_usage_error_where_seed_is_used(tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.setenv("STRUCTNORM_SEED", "abc")
    mat = tmp_path / "a.mat"
    gen = ["gen", "--structure", "hamiltonian", "--n", "2", "--out", str(mat)]
    for argv in (gen, ["experiment", "--figure", "1", "--n", "2",
                       "--out-dir", str(tmp_path / "fig")]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        # the message names the variable, not an option the user never gave
        err = capsys.readouterr().err
        assert "STRUCTNORM_SEED" in err and "'abc'" in err
        assert "--seed" not in err.splitlines()[-1]
    # an explicit --seed, or a subcommand without one, does not read it
    assert main(gen + ["--seed", "3"]) == 0
    assert main(["verify", "--in", str(mat), "--structure", "hamiltonian"]) == 0


def test_experiment_n_zero_exits_2(tmp_path, capsys):
    # the fixtures are made before --out-dir is created: nothing is left
    assert main(["experiment", "--figure", "2", "--n", "0",
                 "--out-dir", str(tmp_path / "exp" / "sub")]) == 2
    assert "n must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("figure, names", [
    (1, ["fig1_sweep0.csv", "fig1_sweep1.csv", "fig1_sweep2.csv",
         "fig1_sweep3.csv"]),
    (2, ["fig2_diagonalizable.csv", "fig2_generic.csv"]),
    (3, ["fig3_no_real_eigs.csv", "fig3_with_real_eigs.csv"]),
    (4, ["fig4_diagonalizable_o1.csv", "fig4_diagonalizable_o2.csv",
         "fig4_generic_o1.csv", "fig4_generic_o2.csv"])])
def test_experiment_writes_each_figures_files(tmp_path, figure, names):
    assert main(["experiment", "--figure", str(figure), "--n", "2",
                 "--out-dir", str(tmp_path / "e")]) == 0
    assert sorted(p.name for p in (tmp_path / "e").iterdir()) == names


@pytest.mark.parametrize("figure, name", [(1, "fig1_sweep0.csv"),
                                          (2, "fig2_generic.csv")])
def test_experiment_unwritable_figure_exits_2(tmp_path, figure, name):
    (tmp_path / name).mkdir()  # a directory where the CSV must go
    proc = run_cli("experiment", "--figure", str(figure), "--n", "2",
                   "--out-dir", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot write {tmp_path / name}: ")
    assert "Traceback" not in proc.stderr


def test_experiment_out_dir_under_a_file_exits_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out = blocker / "sub"
    proc = run_cli("experiment", "--figure", "2", "--n", "2",
                   "--out-dir", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot create {out}: ")
    assert len(proc.stderr.splitlines()) == 1


def test_experiment_figure_1(tmp_path):
    out = tmp_path / "fig1"
    assert main(["experiment", "--figure", "1", "--n", "6", "--seed", "2",
                 "--out-dir", str(out)]) == 0
    grids = [np.loadtxt(out / f"fig1_sweep{k}.csv", delimiter=",")
             for k in range(4)]
    assert grids[0].shape == (12, 12)

    def offmass(g):
        h = g.copy()
        np.fill_diagonal(h, 0.0)
        return float((h ** 2).sum())

    assert offmass(grids[1]) < offmass(grids[0])


def test_experiment_figure_2(tmp_path):
    out = tmp_path / "fig2"
    assert main(["experiment", "--figure", "2", "--n", "8", "--seed", "2",
                 "--out-dir", str(out)]) == 0
    for name in ("fig2_generic.csv", "fig2_diagonalizable.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[1] == "sweep,diag_norm,offdiag_norm,frob_norm"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 21
        diag = [float(r[1]) for r in rows]
        assert all(b >= a - 1e-10 for a, b in zip(diag, diag[1:]))
    last = (out / "fig2_diagonalizable.csv").read_text().splitlines()[-1].split(",")
    assert abs(float(last[1]) - float(last[3])) <= 1e-8 * float(last[3])


def test_experiment_figure_3_header_documents_fixture(tmp_path):
    out = tmp_path / "fig3"
    assert main(["experiment", "--figure", "3", "--n", "6", "--seed", "2",
                 "--out-dir", str(out)]) == 0
    text = (out / "fig3_with_real_eigs.csv").read_text()
    assert text.startswith("# fixture:")
    assert "real eigenpair" in text.splitlines()[0]


def test_experiment_figure_4_monotone_pairs(tmp_path):
    out = tmp_path / "fig4"
    assert main(["experiment", "--figure", "4", "--n", "6", "--seed", "2",
                 "--out-dir", str(out)]) == 0
    names = [f"fig4_{fix}_{o}.csv" for fix in ("generic", "diagonalizable")
             for o in ("o1", "o2")]
    for name in names:
        rows = [line.split(",") for line in
                (out / name).read_text().splitlines()[2:]]
        diag = [float(r[1]) for r in rows]
        assert all(b >= a - 1e-10 for a, b in zip(diag, diag[1:]))


def test_experiment_deterministic(tmp_path):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    for out in (out1, out2):
        main(["experiment", "--figure", "2", "--n", "6", "--seed", "9",
              "--out-dir", str(out)])
    for name in ("fig2_generic.csv", "fig2_diagonalizable.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
