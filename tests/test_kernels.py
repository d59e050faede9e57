"""The rotation kernels must compute the one-line Givens updates, bit for bit."""
import numpy as np

from structnorm import _kernels


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
            for kernel, reference in (
                    (_kernels.rotate_rows, _reference_rows),
                    (_kernels.rotate_cols, _reference_cols)):
                got, want = a.copy(), a.copy()
                kernel(got, p, q, c, s)
                reference(want, p, q, c, s)
                assert got.tobytes() == want.tobytes()
            got, want = a.copy(), a.copy()
            _kernels.plane_similarity(got, p, q, c, s)
            _reference_rows(want, p, q, c, s)
            _reference_cols(want, p, q, c, s)
            assert got.tobytes() == want.tobytes()
