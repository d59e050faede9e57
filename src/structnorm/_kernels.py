"""Plane rotation kernels: LAPACK ``zrot``, with numpy where it cannot serve.

A plane rotation by the 2x2 Givens block

    G = [[c, -s], [conj(s), c]],   c = cos(phi),  s = exp(i*alpha)*sin(phi),

applied as a similarity G^H A G touches two rows and two columns of A.  Both
kernels take a plane list, (p, q, c, s) applied in order.  The sweep calls
``plane_similarity(a, planes)`` once per applied pivot, and
``rotate_cols(a, planes)``, the column pass A <- A G_1 ... G_k that
accumulates Z, once as each sweep ends (also when it ends in an error).

Per plane, the similarity is two calls of LAPACK ``zrot`` (x <- c*x + s*y,
y <- c*y - conj(s)*x), on rows p, q with s and then on columns p, q with
conj(s); ``rotate_cols`` is the column call alone.  Both go through
``_zrot_planes``, which pins the matrix once for all the calls and checks
every plane before it writes.  The routine is
``scipy_zrot_64_`` of the ILP64 OpenBLAS that numpy bundles, found through
ctypes on the handle of ``numpy.linalg._umath_linalg`` (dlsym also searches
the libraries it loaded), so scipy is never imported.  Each call picks its
path when it runs: ``_zrot_planes`` serves it where ``_zrot`` was found
(``BACKEND`` is ``"openblas-zrot"``), and otherwise ``numpy_plane_similarity``
or ``numpy_rotate_cols`` does, on one numpy body, ``_rotate_cols``: rows p, q
of A with s are columns p, q of A^T with conj(s).  A list the raw pointers
cannot serve safely (not a writable, C-contiguous, square complex128 matrix,
or a plane whose p, q are not distinct in-range integers or whose c is not
real) takes the numpy kernel whole, with its results and errors.  Each call
builds its own arguments and holds the GIL, so threads may solve at once.
zrot rounds a few entries differently from numpy and OpenBLAS picks its code
per CPU, so bits are reproducible on one machine, not across CPU families.

``rotations`` reads ``plane_similarity`` and ``rotate_cols`` as module
attributes at call time; neither similarity kernel calls the attribute
``rotate_cols``, so it is only called for Z.

``zrot`` has a third caller: the compiled sweep (``_sweep.c``) takes the
address of ``_zrot`` and makes, from C, the same row and column calls per
plane as ``_zrot_planes``, for the iterate and for Z.  :func:`pin` is the one
test of which matrices a raw pointer may serve, for both; ``jacobi._OWN``
lists ``plane_similarity``, ``rotate_cols`` and ``_zrot`` among the bindings
that, once replaced, keep a sweep in Python.
"""
from __future__ import annotations

import ctypes
import struct
from operator import index

import numpy as np
from numpy.linalg import _umath_linalg


# Each new column is built in place as c*x_p + conj(s)*x_q (and its mate),
# with the scalar on the left: the same operands in the same order as the
# one-line expression, so the result is bitwise the same.

def _rotate_cols(a, p, q, c, s):
    # p, q, c, s are scalars for one plane, or equal-length arrays for planes
    # on pairwise disjoint columns, which then rotate at once: column k of
    # the gathered block pairs with c[k] and s[k]
    xp, xq = a[:, p], a[:, q]
    rp = c * xp
    rp += s.conjugate() * xq
    rq = -s * xp
    rq += c * xq
    a[:, p] = rp
    a[:, q] = rq


def numpy_rotate_cols(a, planes):
    """A <- A G_1 ... G_k for the planes (p, q, c, s) in order.

    Planes on disjoint columns commute exactly, so each plane is put one
    layer after the last plane that shares a column with it, and each layer
    is one column pass: every column meets the same planes in the same
    order, and the bits are those of one call per plane.
    """
    depth = [0] * a.shape[1]  # layers so far that touch each column
    layers = []
    for plane in planes:
        k = max(depth[plane[0]], depth[plane[1]])
        depth[plane[0]] = depth[plane[1]] = k + 1
        if k == len(layers):
            layers.append([])
        layers[k].append(plane)
    for layer in layers:
        _rotate_cols(a, *map(np.array, zip(*layer)))


def numpy_plane_similarity(a, planes):
    """A <- G_k^H ... G_1^H A G_1 ... G_k, rows then columns plane by plane;
    rows p, q with s are columns p, q of A^T with conj(s)."""
    for p, q, c, s in planes:
        _rotate_cols(a.T, p, q, c, s.conjugate())
        _rotate_cols(a, p, q, c, s)


def _lookup_zrot(path):
    """``zrot`` of numpy's ILP64 OpenBLAS, reached through the library at path, or None."""
    try:
        zrot = ctypes.PyDLL(path).scipy_zrot_64_
    except (OSError, AttributeError):
        return None
    # every argument is a pointer; the scalars are passed as immutable bytes
    zrot.argtypes = [ctypes.c_void_p] * 7
    zrot.restype = None
    return zrot


_zrot = _lookup_zrot(_umath_linalg.__file__)
_COMPLEX128 = np.dtype(np.complex128)
_int64 = struct.Struct("=q").pack
_double = struct.Struct("=d").pack
_complex = struct.Struct("=2d").pack
_ONE = _int64(1)


def pin(a):
    """The buffer that pins ``a`` for its raw pointer, where ``a`` is a
    writable, C-contiguous, square complex128 matrix; None otherwise."""
    if a.dtype != _COMPLEX128 or a.ndim != 2 or a.shape[0] != a.shape[1]:
        return None
    try:
        return ctypes.c_char.from_buffer(a)
    except (TypeError, ValueError):  # read-only, not C-contiguous, or empty
        return None


def _zrot_planes(a, planes, rows):
    """Apply the planes by zrot, the row call (if rows) then the column call
    of each in order; False, having written nothing, where the raw pointers
    cannot serve every plane, or zrot was not found."""
    buf = None if _zrot is None else pin(a)
    if buf is None:
        return False
    m = a.shape[0]
    args = []  # per plane: p, q, and packed c, s (if rows) and conj(s)
    try:  # every plane is checked before the first is applied
        for p, q, c, s in planes:  # ValueError: not four items
            p, q = index(p), index(q)  # TypeError: not an integer, like 2.0
            if not (0 <= p < m and 0 <= q < m and p != q):
                return False
            re, im = s.real, s.imag
            args.append((p, q, _double(c), _complex(re, im) if rows else None,
                         _complex(re, -im)))  # struct.error: c is not real
    except (TypeError, ValueError, struct.error):
        return False
    base, dim, row = ctypes.addressof(buf), _int64(m), 16 * m  # buf pins a
    for p, q, c, s, cs in args:
        if rows:
            _zrot(dim, base + row * p, _ONE, base + row * q, _ONE, c, s)
        _zrot(dim, base + 16 * p, dim, base + 16 * q, dim, c, cs)
    return True


def plane_similarity(a, planes):
    if not _zrot_planes(a, planes, rows=True):
        numpy_plane_similarity(a, planes)


def rotate_cols(a, planes):
    if not _zrot_planes(a, planes, rows=False):
        numpy_rotate_cols(a, planes)


BACKEND = "numpy" if _zrot is None else "openblas-zrot"
