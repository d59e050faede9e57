"""Plane rotation kernels with a numba fast path and a pure-numpy fallback.

A plane rotation by the 2x2 Givens block

    G = [[c, -s], [conj(s), c]],   c = cos(phi),  s = exp(i*alpha)*sin(phi),

applied as a similarity G^H A G touches two rows and two columns of A.  These
updates run once per applied pivot inside the Jacobi sweep; at small n the
per-pivot angle solve costs more than they do.  The numba versions fuse the
row and column passes into tight loops; the numpy versions use vectorized
slicing.

Backend selection happens at import time:

* ``STRUCTNORM_PURE_NUMPY=1`` forces the numpy fallback,
* otherwise numba is used when importable, numpy when not.

``BACKEND`` records which path is active ("numba" or "numpy").
"""
from __future__ import annotations

import os

import numpy as np

_FORCE_NUMPY = os.environ.get("STRUCTNORM_PURE_NUMPY", "") == "1"


# Each new row or column is built in place as c*x_p + s*x_q (and its mate),
# with the scalar on the left: the same operands in the same order as the
# one-line expression, so the result is bitwise the same.

def _rotate_rows_numpy(a, p, q, c, s):
    xp, xq = a[p], a[q]
    rp = c * xp
    rp += s * xq
    rq = -s.conjugate() * xp
    rq += c * xq
    xp[...] = rp
    xq[...] = rq


def _rotate_cols_numpy(a, p, q, c, s):
    xp, xq = a[:, p], a[:, q]
    rp = c * xp
    rp += s.conjugate() * xq
    rq = -s * xp
    rq += c * xq
    xp[...] = rp
    xq[...] = rq


def _similarity_numpy(a, p, q, c, s):
    _rotate_rows_numpy(a, p, q, c, s)
    _rotate_cols_numpy(a, p, q, c, s)


if _FORCE_NUMPY:
    BACKEND = "numpy"
    rotate_rows = _rotate_rows_numpy
    rotate_cols = _rotate_cols_numpy
    plane_similarity = _similarity_numpy
else:
    try:
        from numba import njit

        @njit(cache=True)
        def _rotate_rows_numba(a, p, q, c, s):  # pragma: no cover - jitted
            sc = np.conj(s)
            for k in range(a.shape[1]):
                ap = a[p, k]
                aq = a[q, k]
                a[p, k] = c * ap + s * aq
                a[q, k] = -sc * ap + c * aq

        @njit(cache=True)
        def _rotate_cols_numba(a, p, q, c, s):  # pragma: no cover - jitted
            sc = np.conj(s)
            for k in range(a.shape[0]):
                ap = a[k, p]
                aq = a[k, q]
                a[k, p] = c * ap + sc * aq
                a[k, q] = -s * ap + c * aq

        @njit(cache=True)
        def _similarity_numba(a, p, q, c, s):  # pragma: no cover - jitted
            sc = np.conj(s)
            for k in range(a.shape[1]):
                ap = a[p, k]
                aq = a[q, k]
                a[p, k] = c * ap + s * aq
                a[q, k] = -sc * ap + c * aq
            for k in range(a.shape[0]):
                ap = a[k, p]
                aq = a[k, q]
                a[k, p] = c * ap + sc * aq
                a[k, q] = -s * ap + c * aq

        BACKEND = "numba"
        rotate_rows = _rotate_rows_numba
        rotate_cols = _rotate_cols_numba
        plane_similarity = _similarity_numba
    except ImportError:  # pragma: no cover - depends on environment
        BACKEND = "numpy"
        rotate_rows = _rotate_rows_numpy
        rotate_cols = _rotate_cols_numpy
        plane_similarity = _similarity_numpy
