"""The compiled sweep: ``_sweep.c``, built on first use and called by ctypes.

``jacobi.sweep_once`` hands a sweep to :func:`run` when the eta rule is off
and no binding of ``jacobi._OWN`` was replaced, with the solve's pivot list
as :func:`pivot_codes`.  The C follows the Python body statement for
statement and calls the same ``zrot`` as ``_kernels``, so it leaves the same
bits; with the trace on it fills one row per visit, its weights summed by
the OpenBLAS ``zdotc`` that ``numpy.vdot`` calls, on the operands that
``structures.diag_norm_sq`` and ``offdiag_norm_sq`` hand it, so they are the
Python body's bits too.  :func:`run` hands the C only an iterate with
||A||_F^2 < 2^1023: every rotation is unitary, so that holds for a whole
solve of an input below it, and there no angle solve can overflow, so the C
keeps none of the special cases of CPython's ``math``.  The Python body
stays the reference, and runs wherever :func:`run` returns None.

The library is built at the first sweep that can use it, never at import:
``gcc`` with ``FLAGS``, into ``__pycache__/`` next to this file, under a name
keyed by a hash of the source, the flags, the Python version and the machine
type.  No flag picks CPU features, so the library runs on any CPU of that
type.  The compiler writes a temporary name that is then renamed, so
processes that build at once do not clash, and a lock serializes threads.
Any failure (no ``gcc``, a failed or timed-out build, a cache that cannot be
written, a library that does not load, no ``zrot`` or ``zdotc``, or a Python
whose complex * float is not CPython 3.10-3.13's) sets ``lib`` to None, with
no error and no warning, and every sweep runs in Python.
"""
from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import shutil
import sys
import tempfile
from _thread import allocate_lock  # threading.Lock, without importing threading
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from . import _kernels
from .rotations import RotationKind, check_pivot

SOURCE = Path(__file__).with_name("_sweep.c")
CACHE = SOURCE.parent / "__pycache__"
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-builtin")
BUILD_TIMEOUT_S = 120

_UNBUILT = object()
lib = _UNBUILT  # the C sweep once loaded, None where it cannot be
_lock = allocate_lock()
_CODES = {kind: code for code, kind in enumerate(RotationKind)}  # as in the C


def _compiler() -> str | None:
    return shutil.which("gcc")


def _build() -> Path:
    """The cached library, compiled first if it is not there."""
    import hashlib  # here and in _load, as they cost import structnorm 10 ms
    import subprocess

    key = hashlib.sha256(SOURCE.read_bytes())
    for part in (*FLAGS, sys.version, platform.machine()):
        key.update(part.encode())
    path = CACHE / f"_sweep-{key.hexdigest()[:16]}.so"
    if not path.exists():
        gcc = _compiler()
        if gcc is None:
            raise FileNotFoundError("no gcc on PATH")
        CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_sweep-", suffix=".tmp", dir=CACHE)
        os.close(fd)
        try:
            # run kills and reaps the compiler when it times out
            subprocess.run([gcc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                           check=True, capture_output=True,
                           timeout=BUILD_TIMEOUT_S)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    return path


def _load():
    """The C sweep with its argument types, zrot and zdotc bound, or None."""
    import subprocess

    zrot = _kernels._zrot
    if (zrot is None or sys.implementation.name != "cpython"
            or sys.version_info >= (3, 14)):  # 3.14 changed complex * float
        return None
    try:
        # the zdotc of the OpenBLAS that holds zrot, and that numpy.vdot calls
        zdotc = ctypes.PyDLL(_umath_linalg.__file__).scipy_cblas_zdotc_sub64_
        sweep = ctypes.PyDLL(str(_build())).structnorm_sweep
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    sweep.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                      ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                      ctypes.c_int64, ctypes.c_double, ctypes.c_void_p,
                      ctypes.c_void_p, ctypes.c_void_p]
    sweep.restype = None
    blas = [ctypes.cast(f, ctypes.c_void_p).value for f in (zrot, zdotc)]
    return lambda *args: sweep(*blas, *args)


def pivot_codes(pivots, n: int) -> np.ndarray | None:
    """The pivots (kind, i, j) as rows (kind code, i, j) of int32; None unless
    they are n^2, each a pivot of its kind at half-dimension n."""
    try:
        codes = np.array([(_CODES[check_pivot(kind, i, j, n)], i, j)
                          for kind, i, j in pivots], dtype=np.int32)
    except ValueError:
        return None
    return codes if len(codes) == n * n else None


def run(a, z, codes, phi_skip, trace):
    """One sweep of ``a`` and ``z`` in C over the pivot codes of n^2 pivots
    at half-dimension n.

    Returns (sweep gain, rows), the rows, with the trace on, an array of one
    row per visit: phi, alpha, the diagonal and the off-diagonal weight of
    ``a`` after it, and 1.0 where it was skipped, else 0.0 (None with the
    trace off); or None, having touched nothing, where the C cannot serve:
    ``a`` and ``z`` are not writable, C-contiguous, square complex128 arrays
    of one shape, the codes are None or do not number n^2 for a 2n x 2n
    ``a`` (so the C never indexes past ``a`` or ``z``), ||a||_F^2 is not
    below 2^1023 (so every entry is finite and no angle solve overflows), or
    the library cannot be had.  The caller checks that no binding the sweep
    reaches was replaced.
    """
    global lib
    abuf, zbuf = _kernels.pin(a), _kernels.pin(z)  # the buffers pin a and z
    if (abuf is None or zbuf is None or z.shape != a.shape or codes is None
            or len(codes) != (a.shape[0] // 2) ** 2
            or not np.vdot(a, a).real < 2.0 ** 1023):
        return None
    if lib is _UNBUILT:
        with _lock:
            if lib is _UNBUILT:
                lib = _load()
    sweep = lib
    if sweep is None:
        return None
    m, count, gain = a.shape[0], len(codes), ctypes.c_double()
    # with the trace on, the rows, and room for a's diagonal while it is zeroed
    rows, diag = ((np.empty((count, 5)), np.empty(m, np.complex128)) if trace
                  else (None, None))
    sweep(m, ctypes.addressof(abuf), ctypes.addressof(zbuf), codes.ctypes.data,
          count, phi_skip, ctypes.byref(gain),
          rows.ctypes.data if trace else None,
          diag.ctypes.data if trace else None)
    return gain.value, rows
