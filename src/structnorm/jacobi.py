"""Cyclic Jacobi driver for the nearest structured normal matrix.

Sweeps over the n^2 pivot positions, solves the per-pivot angle problem,
applies the structure-preserving rotation in place, and at the end of each
sweep accumulates the sweep's rotations into the transformation Z.  The
diagonal weight ||diag(A_k)||_F^2 never decreases because every pivot
solution is at least as good as the identity rotation.
Each sweep sums the exact gains of its applied rotations, counting a double
rotation twice since it gains in both of its planes.  Once that sum is at
most tol * ||A||_F^2 the iterate is declared converged and the nearest
structured normal matrix is assembled as

    X = Z diag(Z^H A Z) Z^H.

:func:`iterate` is the loop over sweeps; :func:`solve` adds the stop to it.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import count
from numbers import Integral, Real

import numpy as np

from . import _kernels, _sweep
from .angles import solve_angles, solve_angles_fixed_alpha
from .gradient import pivot_gain, should_skip, tangent_gradient
from .rotations import _ORDERINGS, apply_right, apply_similarity, pivot_set, planes
from .structures import (StructureTag, check_structure, diag_norm_sq,
                         frob_norm, offdiag_norm_sq)

PHI_SKIP = 1e-15  # rotations this small are recorded but not applied

class StructureError(ValueError):
    """Input matrix fails its structure check."""


class NonFiniteError(FloatingPointError):
    """Non-finite entries appeared during the iteration."""


@dataclass(frozen=True)
class SolverConfig:
    ordering: str = "O1"
    tol: float = 1e-14
    max_sweeps: int = 50
    skip_rule: bool = False
    trace: bool = True

    def __post_init__(self):
        if (isinstance(self.tol, bool) or not isinstance(self.tol, Real)
                or not (np.isfinite(self.tol) and self.tol > 0)):
            raise ValueError("tol must be positive and finite")
        if (isinstance(self.max_sweeps, bool)  # True is an Integral
                or not isinstance(self.max_sweeps, Integral) or self.max_sweeps < 1):
            raise ValueError("max_sweeps must be an integer >= 1")
        if str(self.ordering).upper() not in _ORDERINGS:
            raise ValueError(f"unknown ordering: {self.ordering!r}")
        for name in ("skip_rule", "trace"):  # "false" would be true
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool")


# one pivot visit: where it falls, its angles, the iterate's two weights
# after it, and whether its rotation was skipped
TraceRecord = namedtuple("TraceRecord", "sweep step kind i j phi alpha "
                         "diag_norm_sq offdiag_norm_sq skipped")


@dataclass
class JacobiState:
    """Current iterate A_k = Z_k^H A_0 Z_k and the accumulated Z_k, with the
    pivot list that every sweep walks, laid out once per solve."""

    a: np.ndarray
    z: np.ndarray
    pivots: list = field(repr=False)  # (kind, i, j) of each visit, in order
    sweep: int = 0
    step: int = 0
    sweep_gain: float = 0.0  # diagonal weight gained by the last sweep
    trace: list[TraceRecord] = field(default_factory=list)
    # the pivots as ``_sweep.pivot_codes``, made at the first compiled sweep
    codes: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass
class NearestNormalResult:
    x: np.ndarray          # nearest structured normal matrix
    z: np.ndarray          # structured unitary with X = Z D Z^H
    d: np.ndarray          # structured diagonal, diag(Z^H A Z)
    distance: float        # ||A - X||_F
    trace: list[TraceRecord]
    iterate: np.ndarray    # final A_k
    sweeps: int
    converged: bool
    diag_norm_sq: float
    offdiag_norm_sq: float
    structure_residual: float
    grad_norm: float


def distance_to(a: np.ndarray, x: np.ndarray) -> float:
    """Frobenius distance ||A - X||_F."""
    a = np.asarray(a)
    x = np.asarray(x)
    if a.shape != x.shape:
        raise ValueError("shape mismatch")
    with np.errstate(over="ignore"):  # inf: beyond the largest double
        return frob_norm(a - x)


def _check_tag(tag) -> None:
    """TypeError unless ``tag`` is a StructureTag."""
    if not isinstance(tag, StructureTag):
        raise TypeError(f"tag must be a StructureTag, not {type(tag).__name__} "
                        f"{tag!r} (StructureTag.from_name reads a name)")


def _check_input(a: np.ndarray, tag: StructureTag | None = None) -> float:
    """||A||_F^2, once A is found square, not empty, of even order, finite, of
    structure ``tag`` (if given) and with ||A||_F^2 normal or zero, checked in
    turn."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] == 0:
        raise ValueError("matrix must not be empty (0x0)")
    if a.shape[0] % 2 != 0:
        raise ValueError("even dimension required")
    if not np.isfinite(a).all():
        raise NonFiniteError("input matrix has non-finite entries")
    if tag is not None:
        resid = check_structure(a, tag)
        if not resid <= 1e-10:
            raise StructureError(
                f"input is not {tag.value} (residual {resid:.3e} > 1e-10)")
    norm_sq = float(np.real(np.vdot(a, a)))
    if not norm_sq < np.inf:  # inf, or nan from inf - inf
        raise NonFiniteError("the squared Frobenius norm of the input overflows")
    if norm_sq < 2.0 ** -1022 and a.any():
        raise NonFiniteError("the squared Frobenius norm of the input underflows")
    return norm_sq


def sweep_once(state: JacobiState, tag: StructureTag, config: SolverConfig) -> JacobiState:
    """One full pass over the pivot set, mutating the state in place.

    Each pivot visit takes one path to one trace record (with the trace on).
    The eta rule (``config.skip_rule``) may skip the pivot unsolved: it
    records phi = alpha = 0, skipped.  Otherwise the angles are solved, and a
    rotation with |phi| < PHI_SKIP is recorded with the solver's angles,
    skipped; any other (a NaN phi too) is applied and recorded, not skipped.
    The iterate ``state.a`` is rotated pivot by pivot.  ``state.z`` is brought
    up to date once, when the sweep ends: one ``apply_right`` call with the
    planes of every rotation the sweep applied, in order.  That call also
    runs when the loop raises, so Z always matches the iterate.  Then the
    whole iterate is proved finite once: by its finite sum of squares, or
    failing that entrywise; a non-finite entry raises NonFiniteError, naming
    the sweep.  An accepted input cannot trip this check: ||A||_F^2 is
    finite, every rotation is unitary and a NaN gain gives the identity.

    With the eta rule off, the sweep runs in C where it can
    (``_compiled_sweep``), to the same state and trace bit for bit;
    ``_python_sweep`` is the reference, and runs in every other case.
    """
    a = state.a
    sweep_gain = _compiled_sweep(state, config)
    if sweep_gain is None:
        sweep_gain = _python_sweep(state, tag, config)
    if not np.vdot(a, a).real < np.inf and not np.isfinite(a).all():
        raise NonFiniteError(f"non-finite entries at sweep {state.sweep + 1}")
    state.sweep += 1
    state.sweep_gain = sweep_gain
    return state


def _compiled_sweep(state, config):
    """The sweep run by ``_sweep`` over ``state.pivots``, its gain; None, with
    nothing done, where the eta rule is on, a binding of ``_OWN`` was
    replaced, or ``_sweep`` refuses the pivots or the arrays.  Z takes each
    applied rotation's planes as it is applied, in the order of
    ``_python_sweep``'s one call.  With the trace on, the C's rows become the
    records ``_record`` appends, up to the visit whose angle solve
    overflowed, if one did."""
    if (config.skip_rule
            or any(names[name] is not own for names, name, own in _OWN)):
        return None
    if state.codes is None:
        state.codes = _sweep.pivot_codes(state.pivots, state.a.shape[0] // 2)
    done = _sweep.run(state.a, state.z, state.codes, PHI_SKIP, config.trace)
    if done is None:
        return None
    visits, sweep_gain, rows = done
    if rows is not None:
        sweep = state.sweep + 1
        state.trace += [
            TraceRecord(sweep, step, kind.value, i, j, phi, alpha, diag,
                        offdiag, skipped != 0.0)
            for step, (kind, i, j), (phi, alpha, diag, offdiag, skipped)
            in zip(count(state.step + 1), state.pivots, rows.tolist())]
    state.step += visits
    if sweep_gain is None:  # where the Python angle solve raises
        raise OverflowError("math range error")
    return sweep_gain


def _python_sweep(state, tag, config):
    """The sweep in Python, visit by visit over ``state.pivots``; its gain."""
    a, z = state.a, state.z
    n = a.shape[0] // 2
    sweep_gain = 0.0
    weights = None  # (diag, offdiag) weight of ``a`` at the last record
    if config.skip_rule:
        x_sweep, grad_norm = tangent_gradient(a, tag.family)

    applied = []  # the applied planes, accumulated into Z as the sweep ends
    try:
        for kind, i, j in state.pivots:
            state.step += 1
            phi, alpha, skipped = 0.0, 0.0, True
            if not (config.skip_rule and should_skip(
                    pivot_gain(x_sweep, kind, i, j), grad_norm, n)):
                p, q = i - 1, j - 1
                entries = a.item(p, p), a.item(p, q), a.item(q, p), a.item(q, q)
                sol = (solve_angles(entries) if kind.fixed_alpha is None
                       else solve_angles_fixed_alpha(entries, kind.fixed_alpha))
                phi, alpha = sol.phi, sol.alpha
                skipped = abs(phi) < PHI_SKIP  # False for a NaN phi
                if not skipped:
                    rotation = planes(kind, i, j, phi, alpha, n)
                    apply_similarity(a, rotation)
                    applied += rotation
                    sweep_gain += sol.gain * len(rotation)  # a gain in each plane
                    weights = None  # ``a`` moved
            if config.trace:
                weights = _record(state, kind, i, j, phi, alpha, skipped,
                                  weights)
    finally:
        apply_right(z, applied)
    return sweep_gain


def _record(state, kind, i, j, phi, alpha, skipped, weights):
    """Append a trace record; return its (diag, offdiag) weights.

    ``weights`` is None when ``state.a`` moved since the last record, or
    none was taken this sweep, and the weights are taken here; otherwise
    they are the last record's, as ``state.a`` is unchanged since then.
    """
    if weights is None:
        weights = diag_norm_sq(state.a), offdiag_norm_sq(state.a)
    state.trace.append(TraceRecord(state.sweep + 1, state.step, kind.value, i,
                                   j, phi, alpha, weights[0], weights[1],
                                   skipped))
    return weights


# every binding the Python sweep reaches, as (namespace, name, the library's
# own), here as it lists ``_record``: the compiled sweep stands in for it
# only while each is still the library's own (the tracer replaces them)
_OWN = tuple((names, name, names[name]) for names, listed in (
    (globals(), ("solve_angles", "solve_angles_fixed_alpha", "planes",
                 "apply_similarity", "apply_right", "diag_norm_sq",
                 "offdiag_norm_sq", "_record")),
    (vars(_kernels), ("plane_similarity", "rotate_cols", "_zrot")))
    for name in listed)


def iterate(a: np.ndarray, tag: StructureTag,
            config: SolverConfig) -> Iterator[JacobiState]:
    """Sweep a copy of A from Z = I, yielding the state after each sweep.

    The tag and A are checked, and the pivot list laid out, at the call; at
    most ``config.max_sweeps`` sweeps run (leave the loop to stop early),
    each updating the one yielded state in place.
    """
    _check_tag(tag)
    a = np.array(a, dtype=np.complex128, order="C")
    _check_input(a)
    state = JacobiState(a=a, z=np.eye(len(a), dtype=np.complex128),
                        pivots=pivot_set(tag.family, len(a) // 2, config.ordering))
    return (sweep_once(state, tag, config) for _ in range(config.max_sweeps))


def solve(a: np.ndarray, tag: StructureTag,
          config: SolverConfig | None = None) -> NearestNormalResult:
    """Nearest structured normal matrix to A, with the transformation trace."""
    _check_tag(tag)
    if config is None:
        config = SolverConfig()
    a0 = np.asarray(a, dtype=np.complex128)
    stop = config.tol * _check_input(a0, tag)
    converged = False
    for state in iterate(a0, tag, config):  # checks a0 again, all but structure
        if state.sweep_gain <= stop:
            converged = True
            break

    d_vec = np.diagonal(state.a).copy()
    x = (state.z * d_vec[None, :]) @ state.z.conj().T
    _, grad_norm = tangent_gradient(state.a, tag.family)
    return NearestNormalResult(
        x=x, z=state.z, d=np.diag(d_vec), distance=distance_to(a0, x),
        trace=state.trace, iterate=state.a, sweeps=state.sweep,
        converged=converged, diag_norm_sq=diag_norm_sq(state.a),
        offdiag_norm_sq=offdiag_norm_sq(state.a),
        structure_residual=check_structure(x, tag), grad_norm=grad_norm)
