"""Riemannian gradient of the diagonal-weight objective and the pivot bound.

The objective f(Z) = ||diag(Z^H A Z)||_F^2 lives on the group of unitary
symplectic (resp. perplectic) matrices.  Its gradient at Z factors as Z X,
where X is the projection of Y = Z^H grad_euclidean onto the tangent space at
the identity: skew-Hermitian Hamiltonian matrices for the symplectic family,
skew-Hermitian perskew-Hermitian matrices for the perplectic family.  X has
zero diagonal.

The first-order gain of a pivot rotation is 4|x| for double embeddings and
2|x| for single ones, where x is the X entry at the pivot.  Some pivot always
achieves at least eta * ||X||_F with eta = 2 / sqrt(4 n^2 - 2 n), which is the
skip threshold used by the sweep driver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rotations import RotationSpec, check_pivot, planes
from .structures import SYMPLECTIC, make_F, make_J


@dataclass(frozen=True)
class GradientResult:
    grad: np.ndarray  # Z X, the Riemannian gradient at Z
    y: np.ndarray     # Z^H grad_euclidean
    x: np.ndarray     # tangent projection of y
    grad_norm: float  # ||X||_F


def project_tangent(y: np.ndarray, family: str) -> np.ndarray:
    """Orthogonal projection onto the family's tangent space at the identity.

    Symplectic: block averaging onto skew-Hermitian Hamiltonian form
    [[B, C], [-C, B]].  Perplectic: successive averaging onto skew-Hermitian,
    then perskew-Hermitian matrices; the two constraint maps commute, so the
    composition is the orthogonal projection onto the intersection.
    """
    m = y.shape[0]
    if m % 2 != 0:
        raise ValueError("even dimension required")
    if family == SYMPLECTIC:
        n = m // 2
        y11, y12 = y[:n, :n], y[:n, n:]
        y21, y22 = y[n:, :n], y[n:, n:]
        b = (y11 + y22 - y11.conj().T - y22.conj().T) / 4
        c = (y12 - y21 + y12.conj().T - y21.conj().T) / 4
        return np.block([[b, c], [-c, b]])
    w = (y - y.conj().T) / 2
    return (w - w.conj().T[::-1, ::-1]) / 2


def _ldexp(x: np.ndarray, e: int) -> np.ndarray:
    """X * 2**e, part by part: 2**e alone may overflow."""
    x = np.ascontiguousarray(x, dtype=np.complex128)
    return np.ldexp(x.view(np.float64), e).view(np.complex128)


def _norm(x: np.ndarray) -> float:
    """||X||_F, recomputed on X scaled by a power of two when the sum of
    squares overflows or leaves the normal range (np.linalg.norm does not
    scale); other values keep the bits of np.linalg.norm.
    """
    with np.errstate(over="ignore"):  # rescued below
        norm = float(np.linalg.norm(x))
    if not 2.0 ** -480 <= norm < math.inf and np.isfinite(x).all():
        _, e = math.frexp(float(np.abs(x).max()))
        norm = float(np.ldexp(np.linalg.norm(_ldexp(x, -e)), e))
    return norm


def _gradient(m: np.ndarray, family: str):
    """(Y, X, ||X||_F) at the similarity iterate M = Z^H A Z.

    Y is quadratic in M, so it can overflow where M does not; X is then
    recomputed from M * 2**-e and scaled back by 2**(2e), and Y keeps its
    overflow.  Other values keep their bits.
    """
    d = np.diagonal(m)
    with np.errstate(over="ignore", invalid="ignore"):  # rescued below
        y = 2.0 * m * d.conj()[None, :] + 2.0 * m.conj().T * d[None, :]
        x = project_tangent(y, family)
    if not np.isfinite(x).all() and np.isfinite(m).all():
        _, e = math.frexp(float(np.abs(m).max()))
        x = _ldexp(_gradient(_ldexp(m, -e), family)[1], 2 * e)
    return y, x, _norm(x)


def tangent_gradient(m: np.ndarray, family: str) -> tuple[np.ndarray, float]:
    """Gradient factor X and its norm, from the similarity iterate M = Z^H A Z.

    Because f depends on Z only through M, the gradient can be assembled
    without A or Z:  Y = 2 M diag(conj d) + 2 M^H diag(d) with d = diag(M),
    then X = project_tangent(Y).
    """
    _, x, grad_norm = _gradient(m, family)
    return x, grad_norm


def grad_f(a: np.ndarray, z: np.ndarray, family: str) -> GradientResult:
    """Riemannian gradient of f at the unitary family-preserving point Z."""
    dim = z.shape[0]
    unit_resid = np.linalg.norm(z.conj().T @ z - np.eye(dim)) / math.sqrt(dim)
    if unit_resid > 1e-10:
        raise ValueError(f"Z is not unitary (residual {unit_resid:.3e})")
    s = make_J(dim // 2) if family == SYMPLECTIC else make_F(dim)
    fam_resid = np.linalg.norm(z.conj().T @ s @ z - s) / np.linalg.norm(s)
    if fam_resid > 1e-10:
        raise ValueError(
            f"Z does not preserve the {family} form (residual {fam_resid:.3e})")
    y, x, grad_norm = _gradient(z.conj().T @ a @ z, family)
    return GradientResult(grad=z @ x, y=y, x=x, grad_norm=grad_norm)


def eta(n: int) -> float:
    """Pivot-condition constant 2 / sqrt(4 n^2 - 2 n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 / math.sqrt(4.0 * n * n - 2.0 * n)


def pivot_gain(x: np.ndarray, spec: RotationSpec) -> float:
    """First-order objective gain |Re tr(X^H dR/dphi|_0)| of the pivot.

    X is the tangent gradient factor (GradientResult.x).  For double
    embeddings alpha is chosen to align with the pivot entry of X, which
    makes the gain 4|x_ij|; single embeddings keep their forced alpha and
    yield 2|x_ij|.  sgn(0) is taken as 1 so a zero entry gives gain 0.
    """
    n = x.shape[0] // 2
    kind, i, j = spec.kind, spec.i, spec.j
    alpha = check_pivot(kind, i, j, n).fixed_alpha
    x_piv = x.item(i - 1, j - 1)
    if alpha is None:
        # e^{-i alpha} = conj(x)/|x|
        alpha = math.atan2(x_piv.imag, x_piv.real) if x_piv != 0 else 0.0
    total = 0.0
    # each plane's s = e^{i alpha'} sin(phi) at phi = pi/2, where sin is
    # exactly 1, is d s / d phi at phi = 0 (Python complex: numpy's bits)
    for p, q, _, ds in planes(RotationSpec(kind, i, j, math.pi / 2, alpha), n):
        total += (x.item(p, q).conjugate() * (-ds)
                  + x.item(q, p).conjugate() * ds.conjugate()).real
    return abs(total)


def should_skip(gain: float, grad_norm: float, n: int) -> bool:
    """True when the pivot's first-order gain is below eta * ||grad||_F."""
    return gain < eta(n) * grad_norm
