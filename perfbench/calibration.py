"""Host-speed calibration: a fixed loop timed next to every measured call.

The benchmark runs on shared virtual CPUs whose speed changes by up to 2x
over seconds to minutes as other tenants load the physical cores.  A wall
time divided by the time of this loop, run just before it, cancels most of
that: on a 2-vCPU Xeon host, over six 30 s runs of the same figures
workload, the median of raw times spread (interquartile range over median)
27% and the median of calibrated times 3%.

The loop mimics the solver's per-pivot mix with no structnorm code, so no
change to the program can change it: scalar angle arithmetic in Python, a
two-row and two-column plane rotation of a 32 x 32 complex array with
numpy, and a finite check.  ``REFERENCE_S`` is the loop's time on an
uncontended vCPU of that host, so calibrated times read as seconds at that
speed.
"""
from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.004
_A = np.random.default_rng(0).standard_normal((32, 32)) * (1 + 1j)


def _loop() -> float:
    a = _A.copy()
    acc = 0.0
    for k in range(300):
        p = k % 31
        q = p + 1
        phi = 1e-3 * (k % 17)
        c = math.cos(phi)
        s = complex(math.cos(k), math.sin(k)) * math.sin(phi)
        rp = c * a[p, :] + s * a[q, :]
        a[q, :] = -s.conjugate() * a[p, :] + c * a[q, :]
        a[p, :] = rp
        cp = c * a[:, p] + s.conjugate() * a[:, q]
        a[:, q] = -s * a[:, p] + c * a[:, q]
        a[:, p] = cp
        x, y = complex(a[p, p]), complex(a[q, q])
        for t in (0.1, 0.2, 0.3, 0.4):
            acc += (x.real * math.cos(t) + y.imag * math.sin(t)) ** 2
        acc += math.atan2(x.imag, x.real)
        if not np.isfinite(a[p, :]).all():
            raise FloatingPointError("calibration loop overflowed")
    return acc


def host_factor() -> float:
    """REFERENCE_S over the loop's time now: multiply a wall time by it."""
    t0 = time.perf_counter()
    _loop()
    return REFERENCE_S / (time.perf_counter() - t0)
