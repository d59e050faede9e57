"""The compiled sweep: ``_sweep.c``, built on first use and called by ctypes.

``jacobi.sweep_once`` hands a sweep to :func:`run` when the trace and the eta
rule are off and every name its Python body reaches is still the library's
own.  The C follows that body statement for statement and calls the same
``zrot`` as ``_kernels``, so it leaves the same bits; the Python body stays
the reference, and runs wherever :func:`run` returns None.

The library is built at the first sweep that can use it, never at import:
``gcc`` with ``FLAGS``, into ``__pycache__/`` next to this file, under a name
keyed by a hash of the source, the flags, the Python version and the CPU's
flags.  The compiler writes a temporary name that is then renamed, so
processes that build at once do not clash, and a lock serializes threads.
Any failure (no ``gcc``, a failed or timed-out build, a cache that cannot be
written, a library that does not load, no ``zrot``, or a Python whose
complex * float is not CPython 3.10-3.13's) sets ``lib`` to None, with no
error and no warning, and every sweep runs in Python.
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

from . import _kernels
from .rotations import RotationKind, pivot_set

SOURCE = Path(__file__).with_name("_sweep.c")
CACHE = SOURCE.parent / "__pycache__"
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-builtin")
BUILD_TIMEOUT_S = 120

_UNBUILT = object()
lib = _UNBUILT  # the C sweep once loaded, None where it cannot be
_lock = allocate_lock()
_KERNELS = (_kernels.plane_similarity, _kernels.rotate_cols, _kernels._zrot)
_CODES = {kind: code for code, kind in enumerate(RotationKind)}  # as in the C
_COMPLEX128 = np.dtype(np.complex128)


def _compiler() -> str | None:
    return shutil.which("gcc")


def _cpu_flags() -> str:
    """The CPU's flags line of /proc/cpuinfo, or else the machine's name."""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", "rb") as fh:
        for line in fh:
            if line.startswith((b"flags", b"Features")):
                return line.decode("ascii", "replace")
    return platform.machine()


def _build() -> Path:
    """The cached library, compiled first if it is not there."""
    import hashlib  # here and in _load, as they cost import structnorm 10 ms
    import subprocess

    key = hashlib.sha256(SOURCE.read_bytes())
    for part in (*FLAGS, sys.version, _cpu_flags()):
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
    """The C sweep with its argument types and zrot bound, or None."""
    import subprocess

    zrot = _KERNELS[2]
    if (zrot is None or sys.implementation.name != "cpython"
            or sys.version_info >= (3, 14)):  # 3.14 changed complex * float
        return None
    try:
        sweep = ctypes.PyDLL(str(_build())).structnorm_sweep
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    sweep.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                      ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                      ctypes.c_double, ctypes.c_void_p]
    sweep.restype = ctypes.c_int64
    address = ctypes.cast(zrot, ctypes.c_void_p).value
    return lambda *args: sweep(address, *args)


def pivot_codes(family: str, n: int, ordering: str) -> np.ndarray:
    """``pivot_set(family, n, ordering)`` as rows (kind code, i, j) of int32."""
    return np.array([(_CODES[kind], i, j)
                     for kind, i, j in pivot_set(family, n, ordering)],
                    dtype=np.int32)


def run(a, z, codes, phi_skip):
    """One sweep of ``a`` and ``z`` in C over the pivot codes.

    Returns (visits, sweep gain), the gain None where the angle solve of the
    last visit overflowed; or None, having touched nothing, where the C
    cannot serve: a kernel name was replaced, ``a`` and ``z`` are not
    writable, C-contiguous, square complex128 arrays of one shape, or the
    library cannot be had.
    """
    global lib
    if (_kernels.plane_similarity is not _KERNELS[0]
            or _kernels.rotate_cols is not _KERNELS[1]
            or _kernels._zrot is not _KERNELS[2]
            or a.dtype != _COMPLEX128 or z.dtype != _COMPLEX128
            or a.ndim != 2 or a.shape[0] != a.shape[1] or z.shape != a.shape):
        return None
    try:  # the buffers pin a and z
        abuf, zbuf = ctypes.c_char.from_buffer(a), ctypes.c_char.from_buffer(z)
    except (TypeError, ValueError):  # read-only, not C-contiguous, or empty
        return None
    if lib is _UNBUILT:
        with _lock:
            if lib is _UNBUILT:
                lib = _load()
    sweep = lib
    if sweep is None:
        return None
    gain = ctypes.c_double()
    visits = sweep(a.shape[0], ctypes.addressof(abuf), ctypes.addressof(zbuf),
                   codes.ctypes.data, len(codes), phi_skip, ctypes.byref(gain))
    return (visits, gain.value) if visits >= 0 else (-visits, None)
