"""The rotation kernels must compute the one-line Givens updates, bit for bit."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(min_value=2, max_value=40),
       seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_rotate_cols_on_disjoint_planes_bitwise_equals_one_plane_at_a_time(
        dim, seed, data):
    # the array form rotates planes on pairwise disjoint columns at once;
    # it must give the bits of one scalar call per plane
    planes = data.draw(st.integers(min_value=1, max_value=dim // 2))
    rng = np.random.default_rng(seed)
    cols = rng.permutation(dim)
    p, q = cols[:planes], cols[planes:2 * planes]
    phi = rng.uniform(-0.8, 0.8, planes)
    alpha = rng.uniform(-1.6, 1.6, planes)
    c = np.cos(phi)
    s = np.array([complex(np.cos(al), np.sin(al)) * np.sin(ph)
                  for ph, al in zip(phi, alpha)])
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a *= 2.0 ** rng.integers(-500, 500)
    want = a.copy()
    for k in range(planes):
        _kernels.rotate_cols(want, int(p[k]), int(q[k]), float(c[k]),
                             complex(s[k]))
    got = a.copy()
    _kernels.rotate_cols(got, p, q, c, s)
    assert got.tobytes() == want.tobytes()
