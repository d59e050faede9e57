"""Backend equivalence: the numba kernels and the numpy fallback must agree."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import structnorm as sn
from structnorm import _kernels

SRC = str(Path(__file__).resolve().parent.parent / "src")

_PROBE = r"""
import numpy as np
import structnorm as sn
from structnorm import _kernels

assert _kernels.BACKEND == "numpy", _kernels.BACKEND
rng = np.random.default_rng(5)
a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 4, 11)
res = sn.solve(a, sn.StructureTag.HAMILTONIAN, sn.SolverConfig(max_sweeps=5))
np.save("iterate_numpy.npy", res.iterate)
np.save("z_numpy.npy", res.z)
"""


def test_backend_flag_selects_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["STRUCTNORM_PURE_NUMPY"] = "1"
    proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=tmp_path,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr

    a = sn.gen_structured(sn.StructureTag.HAMILTONIAN, 4, 11)
    res = sn.solve(a, sn.StructureTag.HAMILTONIAN, sn.SolverConfig(max_sweeps=5))
    other_iter = np.load(tmp_path / "iterate_numpy.npy")
    other_z = np.load(tmp_path / "z_numpy.npy")
    np.testing.assert_allclose(res.iterate, other_iter, atol=1e-13)
    np.testing.assert_allclose(res.z, other_z, atol=1e-13)


def test_numpy_fallback_matches_active_backend_directly():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = a.copy()
    c, s = 0.8, complex(0.36, 0.48)
    _kernels.plane_similarity(a, 1, 5, c, s)
    _kernels._similarity_numpy(b, 1, 5, c, s)
    np.testing.assert_allclose(a, b, atol=1e-15)

    a2, b2 = a.copy(), a.copy()
    _kernels.rotate_cols(a2, 0, 3, c, s)
    _kernels._rotate_cols_numpy(b2, 0, 3, c, s)
    np.testing.assert_allclose(a2, b2, atol=1e-15)

    a3, b3 = a.copy(), a.copy()
    _kernels.rotate_rows(a3, 2, 6, c, s)
    _kernels._rotate_rows_numpy(b3, 2, 6, c, s)
    np.testing.assert_allclose(a3, b3, atol=1e-15)


def _reference_rows(a, p, q, c, s):
    rp = c * a[p, :] + s * a[q, :]
    a[q, :] = -np.conj(s) * a[p, :] + c * a[q, :]
    a[p, :] = rp


def _reference_cols(a, p, q, c, s):
    cp = c * a[:, p] + np.conj(s) * a[:, q]
    a[:, q] = -s * a[:, p] + c * a[:, q]
    a[:, p] = cp


def test_numpy_kernels_bitwise_equal_to_one_line_expressions():
    # the numpy kernels build each row and column in place; the arithmetic
    # must stay that of the one-line expressions above, bit for bit
    rng = np.random.default_rng(3)
    for dim in (2, 16, 96):
        for _ in range(20):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            p, q = sorted(int(k) for k in rng.choice(dim, 2, replace=False))
            phi, alpha = rng.uniform(-0.8, 0.8), rng.uniform(-1.6, 1.6)
            c = float(np.cos(phi))
            s = complex(np.cos(alpha), np.sin(alpha)) * float(np.sin(phi))
            for kernel, reference in (
                    (_kernels._rotate_rows_numpy, _reference_rows),
                    (_kernels._rotate_cols_numpy, _reference_cols)):
                got, want = a.copy(), a.copy()
                kernel(got, p, q, c, s)
                reference(want, p, q, c, s)
                assert got.tobytes() == want.tobytes()
            got, want = a.copy(), a.copy()
            _kernels._similarity_numpy(got, p, q, c, s)
            _reference_rows(want, p, q, c, s)
            _reference_cols(want, p, q, c, s)
            assert got.tobytes() == want.tobytes()
