"""The numpy rotation kernels must compute the one-line Givens updates, bit
for bit; the zrot kernels must stay within a few ulps of them, take their
fast path only where their raw pointers are safe, and never import scipy."""
import _ctypes
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structnorm as sn
from structnorm import _kernels

SRC = str(Path(__file__).resolve().parent.parent / "src")
needs_zrot = pytest.mark.skipif(_kernels.BACKEND == "numpy",
                                reason="numpy here has no ILP64 OpenBLAS zrot")


def _reference_rows(a, p, q, c, s):
    rp = c * a[p, :] + s * a[q, :]
    a[q, :] = -np.conj(s) * a[p, :] + c * a[q, :]
    a[p, :] = rp


def _reference_cols(a, p, q, c, s):
    cp = c * a[:, p] + np.conj(s) * a[:, q]
    a[:, q] = -s * a[:, p] + c * a[:, q]
    a[:, p] = cp


def test_numpy_kernels_bitwise_equal_to_one_line_expressions():
    # the kernels build each row and column in place; the arithmetic must
    # stay that of the one-line expressions above, bit for bit
    rng = np.random.default_rng(3)
    for dim in (2, 16, 96):
        for _ in range(20):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            p, q = sorted(int(k) for k in rng.choice(dim, 2, replace=False))
            phi, alpha = rng.uniform(-0.8, 0.8), rng.uniform(-1.6, 1.6)
            c = float(np.cos(phi))
            s = complex(np.cos(alpha), np.sin(alpha)) * float(np.sin(phi))
            got, want = a.copy(), a.copy()
            _kernels._rotate_cols(got.T, p, q, c, s.conjugate())  # the rows
            _reference_rows(want, p, q, c, s)
            assert got.tobytes() == want.tobytes()
            got, want = a.copy(), a.copy()
            _kernels.numpy_rotate_cols(got, [(p, q, c, s)])
            _reference_cols(want, p, q, c, s)
            assert got.tobytes() == want.tobytes()
            got, want = a.copy(), a.copy()
            _kernels.numpy_plane_similarity(got, [(p, q, c, s)])
            _reference_rows(want, p, q, c, s)
            _reference_cols(want, p, q, c, s)
            assert got.tobytes() == want.tobytes()


def _random_planes(rng, k):
    """c, s arrays of k random rotations."""
    phi = rng.uniform(-0.8, 0.8, k)
    alpha = rng.uniform(-1.6, 1.6, k)
    s = np.array([complex(np.cos(al), np.sin(al)) * np.sin(ph)
                  for ph, al in zip(phi, alpha)])
    return np.cos(phi), s


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(min_value=2, max_value=40),
       seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_rotate_cols_on_disjoint_planes_bitwise_equals_one_plane_at_a_time(
        dim, seed, data):
    # the numpy kernel rotates planes on pairwise disjoint columns at once;
    # a list of them, with numpy scalars, must give the bits of one call per
    # plane with Python scalars
    planes = data.draw(st.integers(min_value=1, max_value=dim // 2))
    rng = np.random.default_rng(seed)
    cols = rng.permutation(dim)
    p, q = cols[:planes], cols[planes:2 * planes]
    c, s = _random_planes(rng, planes)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a *= 2.0 ** rng.integers(-500, 500)
    want = a.copy()
    for k in range(planes):
        _kernels.rotate_cols(want, [(int(p[k]), int(q[k]), float(c[k]),
                                     complex(s[k]))])
    got = a.copy()
    _kernels.rotate_cols(got, list(zip(p, q, c, s)))
    assert got.tobytes() == want.tobytes()


_KERNELS = ["plane_similarity", "rotate_cols", "numpy_plane_similarity",
            "numpy_rotate_cols"]


@pytest.mark.parametrize("kernel", _KERNELS)
@settings(max_examples=100, deadline=None)
@given(dim=st.integers(min_value=2, max_value=12),
       seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_plane_list_bitwise_equals_one_call_per_plane(kernel, dim, seed, data):
    # planes that share rows and columns, or repeat, apply in the order given
    pairs = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=dim - 1),
                 min_size=2, max_size=2, unique=True), max_size=60))
    rng = np.random.default_rng(seed)
    c, s = _random_planes(rng, len(pairs))
    planes = [(p, q, float(cc), complex(ss))
              for (p, q), cc, ss in zip(pairs, c, s)]
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a *= 2.0 ** rng.integers(-500, 500)
    rotate = getattr(_kernels, kernel)
    want = a.copy()
    for plane in planes:
        rotate(want, [plane])
    got = a.copy()
    rotate(got, planes)
    assert got.tobytes() == want.tobytes()


@needs_zrot
@settings(max_examples=200, deadline=None)
@given(dim=st.integers(min_value=2, max_value=96),
       seed=st.integers(min_value=0, max_value=10_000),
       k=st.integers(min_value=-500, max_value=500),
       phi=st.floats(min_value=-math.pi / 4, max_value=math.pi / 4),
       alpha=st.floats(min_value=-math.pi, max_value=math.pi), data=st.data())
def test_zrot_similarity_is_within_a_few_ulps_of_the_one_line_expressions(
        dim, seed, k, phi, alpha, data):
    p, q = data.draw(st.lists(st.integers(min_value=0, max_value=dim - 1),
                              min_size=2, max_size=2, unique=True))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a *= 2.0 ** k
    c = math.cos(phi)
    s = complex(math.cos(alpha), math.sin(alpha)) * math.sin(phi)
    got, want = a.copy(), a.copy()
    _kernels.plane_similarity(got, [(p, q, c, s)])
    _reference_rows(want, p, q, c, s)
    _reference_cols(want, p, q, c, s)
    bound = 4 * np.finfo(float).eps * np.abs(a).max() * (abs(c) + abs(s)) ** 2
    assert np.abs(got - want).max() <= bound


@needs_zrot
@settings(max_examples=200, deadline=None)
@given(dim=st.integers(min_value=2, max_value=96),
       seed=st.integers(min_value=0, max_value=10_000),
       k=st.integers(min_value=-500, max_value=500),
       phi=st.floats(min_value=-math.pi / 4, max_value=math.pi / 4),
       alpha=st.floats(min_value=-math.pi, max_value=math.pi), data=st.data())
def test_zrot_rotate_cols_is_within_a_few_ulps_of_the_one_line_expression(
        dim, seed, k, phi, alpha, data):
    p, q = data.draw(st.lists(st.integers(min_value=0, max_value=dim - 1),
                              min_size=2, max_size=2, unique=True))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a *= 2.0 ** k
    c = math.cos(phi)
    s = complex(math.cos(alpha), math.sin(alpha)) * math.sin(phi)
    got, want = a.copy(), a.copy()
    _kernels.rotate_cols(got, [(p, q, c, s)])
    _reference_cols(want, p, q, c, s)
    bound = 4 * np.finfo(float).eps * np.abs(a).max() * (abs(c) + abs(s))
    assert np.abs(got - want).max() <= bound


def _routed_cases(rng):
    """(name, make) pairs; make() -> fresh (a, planes) for one kernel call,
    with one plane."""
    m = 6
    base = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    c, s = math.cos(0.3), complex(math.cos(1.1), math.sin(1.1)) * math.sin(0.3)

    def plain(a, p=1, q=4, cc=c):
        return lambda: (a(), [(p, q, cc, s)])

    def read_only():
        a = base.copy()
        a.flags.writeable = False
        return a

    def strided():
        big = np.zeros((2 * m, 2 * m), dtype=complex)
        big[::2, ::2] = base
        return big[::2, ::2]

    def transposed():
        return base.copy().T

    return [
        ("fortran order", plain(lambda: np.asfortranarray(base))),
        ("strided view", plain(strided)),
        ("transposed view", plain(transposed)),
        ("read-only", plain(read_only)),
        ("complex64", plain(lambda: base.astype(np.complex64))),
        ("float64", plain(lambda: base.real.copy())),
        ("byte-swapped", plain(lambda: base.astype(">c16"))),
        ("not square", plain(lambda: np.hstack([base, base[:, :1]]))),
        ("negative index", plain(base.copy, -1, 2)),
        ("index out of range", plain(base.copy, 1, m)),
        ("negative out of range", plain(base.copy, -m - 1, 2)),
        ("p == q", plain(base.copy, 3, 3)),
        ("float index", plain(base.copy, 2.0, 4)),
        ("complex c", plain(base.copy, 1, 4, complex(c, 0.1))),
        ("three items", lambda: (base.copy(), [(1, 4, c)])),
    ]


def _outcome(kernel, make):
    a, planes = make()
    owner = a if a.base is None else a.base
    try:
        kernel(a, planes)
    except Exception as exc:  # the exception is the outcome to compare
        return type(exc), str(exc)
    return owner.dtype, owner.tobytes()


def _as_third_plane(make):
    # two safe planes first: a kernel that wrote before checking every
    # plane would show them
    def planes():
        a, plane = make()
        return a, [(0, 5, 0.6, 0.8j), (2, 3, 0.8, -0.6), *plane]
    return planes


@pytest.mark.parametrize("kernel", ["plane_similarity", "rotate_cols"])
@pytest.mark.parametrize("name, make", _routed_cases(np.random.default_rng(7)))
def test_unsafe_inputs_get_the_numpy_kernel_bits_or_its_exception(
        kernel, name, make):
    for form in (make, _as_third_plane(make)):
        assert (_outcome(getattr(_kernels, kernel), form)
                == _outcome(getattr(_kernels, "numpy_" + kernel), form)), name


@needs_zrot
@pytest.mark.parametrize("kernel", ["plane_similarity", "rotate_cols"])
def test_numpy_integer_indices_take_the_zrot_path(kernel, monkeypatch):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    c, s = math.cos(0.3), complex(math.cos(1.1), math.sin(1.1)) * math.sin(0.3)
    want = a.copy()
    getattr(_kernels, kernel)(want, [(1, 4, c, s)])
    monkeypatch.setattr(_kernels, "numpy_" + kernel, None)  # not callable
    got = a.copy()
    getattr(_kernels, kernel)(got, [(np.int64(1), np.intp(4), np.float64(c),
                                     np.complex128(s))])
    assert got.tobytes() == want.tobytes()


@needs_zrot
def test_the_solver_always_takes_the_zrot_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sweep fell back to the numpy kernel")

    monkeypatch.setattr(_kernels, "numpy_plane_similarity", refuse)
    monkeypatch.setattr(_kernels, "numpy_rotate_cols", refuse)
    for tag in sn.StructureTag:
        for a in (sn.gen_structured(tag, 3, 1),
                  sn.gen_normal_structured(tag, 3, 1)[0]):
            sn.solve(a, tag, sn.SolverConfig(max_sweeps=3, skip_rule=True))


def test_lookup_without_the_symbol_returns_none(tmp_path):
    assert _kernels._lookup_zrot(_ctypes.__file__) is None
    assert _kernels._lookup_zrot(str(tmp_path / "missing.so")) is None


def test_backend_is_zrot_wherever_numpy_bundles_ilp64_openblas():
    # catches a lookup that silently stops finding the routine
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        pytest.skip("this numpy cannot report its build configuration")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if blas.get("name") != "scipy-openblas" or (
            "USE64BITINT" not in blas.get("openblas configuration", "")):
        pytest.skip("numpy here does not bundle scipy-openblas with 64-bit ints")
    assert _kernels.BACKEND == sn.BACKEND == "openblas-zrot"


def _solve_all(inputs):
    return [sn.solve(a, tag, sn.SolverConfig(trace=False)) for tag, a in inputs]


def _fixtures():
    return [(tag, make(tag, 3, seed)) for tag in sn.StructureTag
            for seed in (0, 1)
            for make in (sn.gen_structured,
                         lambda t, n, k: sn.gen_normal_structured(t, n, k)[0])]


def test_concurrent_solves_are_bitwise_equal_to_serial_ones():
    inputs = _fixtures()
    want = _solve_all(inputs)
    results = [None] * 4

    def worker(k):
        results[k] = _solve_all(inputs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the sweeps
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        for g, w in zip(got, want, strict=True):
            assert g.x.tobytes() == w.x.tobytes()
            assert g.z.tobytes() == w.z.tobytes()
            assert g.distance == w.distance


def test_import_and_solve_never_import_scipy():
    code = ("import sys, structnorm as sn\n"
            "t = sn.StructureTag.HAMILTONIAN\n"
            "sn.solve(sn.gen_structured(t, 3, 0), t)\n"
            "print(sn.BACKEND, sorted(m for m in sys.modules\n"
            "                         if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split(" ", 1)[1].strip() == "[]"


@needs_zrot
def test_zrot_and_numpy_solves_agree_in_distance(monkeypatch):
    inputs = _fixtures()
    fast = _solve_all(inputs)
    monkeypatch.setattr(_kernels, "_zrot", None)  # a build without zrot
    slow = _solve_all(inputs)
    for (_, a), f, s in zip(inputs, fast, slow, strict=True):
        assert abs(f.distance - s.distance) <= 1e-12 * np.linalg.norm(a)
