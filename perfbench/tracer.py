"""Spans and counters recorded from outside the program.

Each traced name is a public function replaced, for the duration of a traced
phase, at the binding its callers actually look it up through: the
``structnorm.jacobi`` globals for the per-pivot layers (``jacobi`` imported
them by name), ``structnorm._kernels`` attributes for the kernels
(``rotations`` reads them as module attributes), and the ``structnorm.cli``
globals for file I/O and the subcommands (``cli`` imported them by name and
``_build_parser`` reads the ``cmd_*`` globals on every call).  ``src/`` is not
modified.

A span is (name, start, end, parent, root).  All spans under one top-level
call (``cli.main`` or ``jacobi.solve``, one per benchmark operation) share
its root id.  Spans live in memory in flat ``array`` columns (28 bytes a
span) and are aggregated when the traced phase ends.  Self time is a span's
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import Counter

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    """Records spans and event counts from wrappers installed by :meth:`install`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.root = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._roots = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, hook=None):
        """``fn`` with a span per call; ``hook(counts, args, result)`` runs after it."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            if stack:
                parent = stack[-1]
                root = self.root[parent]
            else:
                parent = -1
                root = self._roots
                self._roots += 1
            self.name.append(nid)
            self.parent.append(parent)
            self.root.append(root)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self.counts, args, out)
            return out

        return traced

    def install(self, targets):
        """Replace each ``(module, attribute, span name, hook)`` binding."""
        wrapped: dict[tuple[int, str], object] = {}
        for module_name, attr, name, hook in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            key = (id(fn), name)
            if key not in wrapped:
                wrapped[key] = self.wrap(fn, name, hook)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapped[key])

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def mark(self) -> tuple[int, Counter]:
        """Position to slice spans and counts from, e.g. at a pass boundary."""
        return len(self.start), Counter(self.counts)

    def roots(self, lo: int, hi: int) -> int:
        """Number of distinct top-level calls among spans ``lo`` to ``hi``."""
        return len(set(self.root[lo:hi]))

    def aggregate(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per name: calls, total and self seconds of spans ``lo`` to ``hi``.

        ``lo`` and ``hi`` come from :meth:`mark` taken with no span open.
        """
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        dur = (np.frombuffer(self.end, dtype=np.int64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.int64)[lo:hi]) * 1e-9
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        self_time = dur - covered
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = {"calls": int(sel.sum()),
                          "total_s": float(dur[sel].sum()),
                          "self_s": float(self_time[sel].sum())}
        return out


# --- hooks: counts taken at the boundary where the work happens -------------

def _angle_hook(phi_skip):
    def hook(counts, args, sol):
        counts["angles.case." + sol.case] += 1
        if abs(sol.phi) < phi_skip:
            counts["jacobi.phi_skipped"] += 1
    return hook


def _similarity_bytes(counts, args, _):
    # rows p, q then columns p, q of a dim x dim complex128 matrix, each
    # element read once and written once
    counts["kernels.plane_similarity.bytes_computed"] += 4 * 2 * 16 * args[0].shape[0]


def _rotate_cols_bytes(counts, args, _):
    counts["kernels.rotate_cols.bytes_computed"] += 2 * 2 * 16 * args[0].shape[0]


def _eta_hook(counts, args, skip):
    if skip:
        counts["gradient.eta_skipped"] += 1


def _sweep_hook(counts, args, state):
    n = state.a.shape[0] // 2
    counts["jacobi.sweeps"] += 1
    counts["jacobi.pivots_expected"] += n * n


def _read_hook(counts, args, _):
    counts["matrixio.read_matrix.bytes"] += os.path.getsize(args[0])


def _write_hook(counts, args, _):
    counts["matrixio.write_matrix.bytes"] += os.path.getsize(args[0])


def targets(phi_skip: float):
    """Every wrapped binding as (module, attribute, span name, hook)."""
    angle = _angle_hook(phi_skip)
    j, c = "structnorm.jacobi", "structnorm.cli"
    return [
        (j, "solve_angles", "angles.solve_angles", angle),
        (j, "solve_angles_fixed_alpha", "angles.solve_angles_fixed_alpha", angle),
        (j, "apply_similarity", "rotations.apply_similarity", None),
        (j, "apply_right", "rotations.apply_right", None),
        ("structnorm._kernels", "plane_similarity", "kernels.plane_similarity",
         _similarity_bytes),
        ("structnorm._kernels", "rotate_cols", "kernels.rotate_cols",
         _rotate_cols_bytes),
        (j, "diag_norm_sq", "structures.diag_norm_sq", None),
        (j, "offdiag_norm_sq", "structures.offdiag_norm_sq", None),
        (j, "check_structure", "structures.check_structure", None),
        (c, "check_structure", "structures.check_structure", None),
        (j, "tangent_gradient", "gradient.tangent_gradient", None),
        (j, "pivot_gain", "gradient.pivot_gain", None),
        (j, "should_skip", "gradient.should_skip", _eta_hook),
        (j, "sweep_once", "jacobi.sweep_once", _sweep_hook),
        (j, "solve", "jacobi.solve", None),
        ("structnorm", "solve", "jacobi.solve", None),
        (c, "read_matrix", "matrixio.read_matrix", _read_hook),
        (c, "write_matrix", "matrixio.write_matrix", _write_hook),
        (c, "cmd_solve", "cli.cmd_solve", None),
        (c, "cmd_experiment", "cli.cmd_experiment", None),
        (c, "cmd_verify", "cli.cmd_verify", None),
        (c, "cmd_distance", "cli.cmd_distance", None),
        (c, "cmd_normality", "cli.cmd_normality", None),
        (c, "main", "cli.main", None),
    ]
