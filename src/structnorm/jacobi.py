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

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .angles import AngleProblem, solve_angles, solve_angles_fixed_alpha
from .gradient import pivot_gain, should_skip, tangent_gradient
from .rotations import (RotationKind, RotationSpec, apply_right,
                        apply_similarity, pivot_set, planes)
from .structures import (StructureTag, check_structure, diag_norm_sq,
                         offdiag_norm_sq)

PHI_SKIP = 1e-15  # rotations this small are recorded but not applied


class StructureError(ValueError):
    """Input matrix fails its structure check."""


class NonFiniteError(FloatingPointError):
    """Non-finite entries appeared during the iteration."""


@dataclass
class SolverConfig:
    ordering: str = "O1"
    tol: float = 1e-14
    max_sweeps: int = 50
    skip_rule: bool = False
    trace: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")


@dataclass
class TraceRecord:
    sweep: int
    step: int
    kind: str
    i: int
    j: int
    phi: float
    alpha: float
    diag_norm_sq: float
    offdiag_norm_sq: float
    skipped: bool


@dataclass
class JacobiState:
    """Current iterate A_k = Z_k^H A_0 Z_k and the accumulated Z_k."""

    a: np.ndarray
    z: np.ndarray
    sweep: int = 0
    step: int = 0
    sweep_gain: float = 0.0  # diagonal weight gained by the last sweep
    trace: list[TraceRecord] = field(default_factory=list)


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
    return float(np.linalg.norm(a - x))


def _total_norm_sq(a: np.ndarray) -> float:
    return float(np.real(np.vdot(a, a)))


def sweep_once(state: JacobiState, tag: StructureTag, config: SolverConfig) -> JacobiState:
    """One full pass over the pivot set, mutating the state in place.

    The iterate ``state.a`` is rotated pivot by pivot.  ``state.z`` is brought
    up to date once, when the sweep ends: one ``apply_right`` call with every
    rotation the sweep applied.  That call also runs when the sweep raises,
    so Z always matches the iterate (it then includes the failing rotation).
    """
    a, z = state.a, state.z
    n = a.shape[0] // 2
    pivots = pivot_set(tag.family, n, config.ordering)
    trace = config.trace
    # the fixed alpha of each kind; None for double embeddings
    fixed_alphas = {kind: kind.fixed_alpha for kind in RotationKind}

    x_sweep = None
    grad_norm = 0.0
    sweep_gain = 0.0
    weights = None  # (diag, offdiag) weight of ``a`` at the last record
    if config.skip_rule:
        x_sweep, grad_norm = tangent_gradient(a, tag.family)

    applied = []  # plane lists, accumulated into Z as the sweep ends
    try:
        for kind, i, j in pivots:
            state.step += 1
            if config.skip_rule:
                gain = pivot_gain(x_sweep, RotationSpec(kind, i, j, 0.0))
                if should_skip(gain, grad_norm, n):
                    if trace:
                        weights = _record(state, kind, i, j, 0.0, 0.0, True,
                                          weights)
                    continue
            fixed_alpha = fixed_alphas[kind]
            problem = AngleProblem.from_matrix(a, i, j, fixed_alpha)
            if fixed_alpha is None:
                sol = solve_angles(problem)
            else:
                sol = solve_angles_fixed_alpha(problem)
            if abs(sol.phi) < PHI_SKIP:
                if trace:
                    weights = _record(state, kind, i, j, sol.phi, sol.alpha,
                                      True, weights)
                continue
            rotation = planes(RotationSpec(kind, i, j, sol.phi, sol.alpha), n)
            apply_similarity(a, rotation)
            applied.append(rotation)
            rows = [r for p, q, _, _ in rotation for r in (p, q)]
            if not np.isfinite(a.take(rows, 0)).all():
                raise NonFiniteError(
                    f"non-finite entries at sweep {state.sweep + 1}, "
                    f"step {state.step}, pivot ({i}, {j})")
            sweep_gain += sol.gain * len(rotation)  # a gain in each plane
            if trace:
                weights = _record(state, kind, i, j, sol.phi, sol.alpha, False)
    finally:
        apply_right(z, *applied)
    state.sweep += 1
    state.sweep_gain = sweep_gain
    return state


def _record(state, kind, i, j, phi, alpha, skipped, weights=None):
    """Append a trace record; return its (diag, offdiag) weights, which are
    ``weights`` if given (``state.a`` unchanged since they were taken)."""
    if weights is None:
        weights = diag_norm_sq(state.a), offdiag_norm_sq(state.a)
    state.trace.append(TraceRecord(
        sweep=state.sweep + 1, step=state.step, kind=kind.value, i=i, j=j,
        phi=phi, alpha=alpha, diag_norm_sq=weights[0],
        offdiag_norm_sq=weights[1], skipped=skipped))
    return weights


def iterate(a: np.ndarray, tag: StructureTag,
            config: SolverConfig) -> Iterator[JacobiState]:
    """Sweep a copy of A from Z = I, yielding the state after each sweep.

    Runs at most ``config.max_sweeps`` sweeps; leave the loop to stop early.
    Every item is the same state, updated in place by the next sweep.
    """
    state = JacobiState(a=np.array(a, dtype=np.complex128, order="C"),
                        z=np.eye(len(a), dtype=np.complex128))
    for _ in range(config.max_sweeps):
        yield sweep_once(state, tag, config)


def solve(a: np.ndarray, tag: StructureTag,
          config: SolverConfig | None = None) -> NearestNormalResult:
    """Nearest structured normal matrix to A, with the transformation trace."""
    if config is None:
        config = SolverConfig()
    a0 = np.asarray(a, dtype=np.complex128)
    if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
        raise ValueError("matrix must be square")
    if a0.shape[0] % 2 != 0:
        raise ValueError("even dimension required")
    if not np.isfinite(a0).all():
        raise NonFiniteError("input matrix has non-finite entries")
    resid = check_structure(a0, tag)
    if not resid <= 1e-10:
        raise StructureError(
            f"input is not {tag.value} (residual {resid:.3e} > 1e-10)")
    norm_sq = _total_norm_sq(a0)
    if not norm_sq < np.inf:  # inf, or nan from inf - inf
        raise NonFiniteError("the squared Frobenius norm of the input overflows")
    if norm_sq < 2.0 ** -1022 and a0.any():
        raise NonFiniteError("the squared Frobenius norm of the input underflows")

    stop = config.tol * norm_sq
    converged = False
    for state in iterate(a0, tag, config):
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
