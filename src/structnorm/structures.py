"""Structured matrix classes, defining identities, and random generators.

Four structure classes are supported, each defined by one identity:

* Hamiltonian          (J A)^H =  J A
* skew-Hamiltonian     (J A)^H = -J A
* per-Hermitian        (F A)^H =  F A
* perskew-Hermitian    (F A)^H = -F A

with J = [[0, I], [-I, 0]] and F the flip (anti-identity) matrix.  The first
two are preserved under similarity by unitary symplectic matrices, the last
two by unitary perplectic matrices.  All matrices here are dense complex and
of even dimension 2n.
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

SYMPLECTIC = "symplectic"
PERPLECTIC = "perplectic"


class StructureTag(Enum):
    """The four supported structure classes."""

    HAMILTONIAN = "hamiltonian"
    SKEW_HAMILTONIAN = "skew-hamiltonian"
    PER_HERMITIAN = "per-hermitian"
    PERSKEW_HERMITIAN = "perskew-hermitian"

    @classmethod
    def from_name(cls, name: str) -> "StructureTag":
        key = name.strip().lower().replace("_", "-")
        for tag in cls:
            if tag.value == key:
                return tag
        raise ValueError(f"unknown structure tag: {name!r}")

    @property
    def family(self) -> str:
        """Transformation family that preserves this structure."""
        if self in (StructureTag.HAMILTONIAN, StructureTag.SKEW_HAMILTONIAN):
            return SYMPLECTIC
        return PERPLECTIC

    @property
    def sign(self) -> int:
        """Sign sigma in the defining identity (S A)^H = sigma * S A."""
        if self in (StructureTag.HAMILTONIAN, StructureTag.PER_HERMITIAN):
            return 1
        return -1


def make_J(n: int) -> np.ndarray:
    """The 2n x 2n matrix [[0, I_n], [-I_n, 0]]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    j = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def make_F(m: int) -> np.ndarray:
    """The m x m flip (anti-identity) matrix."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return np.fliplr(np.eye(m, dtype=np.complex128))


def _defining_product(a: np.ndarray, tag: StructureTag) -> np.ndarray:
    m = a.shape[0]
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if tag.family == SYMPLECTIC:
        if m % 2 != 0:
            raise ValueError("Hamiltonian-type structure needs even dimension")
        # J @ a without forming J: swap block rows, negate the lower one
        n = m // 2
        s = np.empty_like(a)
        s[:n, :] = a[n:, :]
        s[n:, :] = -a[:n, :]
        return s
    return a[::-1, :]  # F @ a


def check_structure(a: np.ndarray, tag: StructureTag) -> float:
    """Relative residual of the defining identity, ||S - sigma*S^H||_F / max(1, ||A||_F).

    Zero means the structure holds exactly; the caller picks the tolerance.
    When a norm overflows, A is scaled by a power of two that brings its
    largest part into [1, 2): then ||A||_F >= 1, and the quotient is the same.
    Other values keep the bits of the plain quotient.
    """
    a = np.asarray(a)
    s = _defining_product(a, tag)
    with np.errstate(over="ignore"):  # an overflow is handled below
        resid, norm = np.linalg.norm(s - tag.sign * s.conj().T), np.linalg.norm(a)
    if not (math.isfinite(resid) and math.isfinite(norm)) and np.isfinite(a).all():
        _, e = math.frexp(max(np.abs(a.real).max(), np.abs(a.imag).max()))
        return check_structure(a * math.ldexp(1.0, 1 - e), tag)
    return float(resid / max(1.0, norm))


def frob_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def diag_norm_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm of the diagonal."""
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    d = a.diagonal()
    return float(np.vdot(d, d).real)


def offdiag_norm_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm of the off-diagonal part.

    Summed over the off-diagonal entries themselves; subtracting the diagonal
    weight from the total would lose the result to cancellation once the
    matrix is nearly diagonal.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    b = np.array(a, dtype=np.complex128).ravel()  # row-major, as np.vdot sums
    b[::a.shape[0] + 1] = 0.0
    return float(np.vdot(b, b).real)


def _random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def gen_structured(tag: StructureTag, n: int, seed: int) -> np.ndarray:
    """Random 2n x 2n matrix with the requested structure, deterministic in seed.

    Blocks are drawn with independent standard-normal real and imaginary
    parts, then symmetrized so the defining identity holds to rounding.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    a11 = _random_complex(rng, n)
    g12 = _random_complex(rng, n)
    g21 = _random_complex(rng, n)
    a = np.empty((2 * n, 2 * n), dtype=np.complex128)
    a[:n, :n] = a11
    if tag is StructureTag.HAMILTONIAN:
        a[:n, n:] = (g12 + g12.conj().T) / 2
        a[n:, :n] = (g21 + g21.conj().T) / 2
        a[n:, n:] = -a11.conj().T
    elif tag is StructureTag.SKEW_HAMILTONIAN:
        a[:n, n:] = (g12 - g12.conj().T) / 2
        a[n:, :n] = (g21 - g21.conj().T) / 2
        a[n:, n:] = a11.conj().T
    elif tag is StructureTag.PER_HERMITIAN:
        # (F B)^H = F B forces real antidiagonal entries of the off blocks
        a[:n, n:] = (g12 + _flip_conj(g12)) / 2
        a[n:, :n] = (g21 + _flip_conj(g21)) / 2
        a[n:, n:] = _flip_conj(a11)
    else:
        a[:n, n:] = (g12 - _flip_conj(g12)) / 2
        a[n:, :n] = (g21 - _flip_conj(g21)) / 2
        a[n:, n:] = -_flip_conj(a11)
    return a


def _flip_conj(b: np.ndarray) -> np.ndarray:
    """F B^H F for the flip matrix F of matching size."""
    return b.conj().T[::-1, ::-1]


def structured_diagonal(tag: StructureTag, d0: np.ndarray) -> np.ndarray:
    """Diagonal matrix diag(d0, *) in the tag's diagonal form.

    The second half of the diagonal is -conj(d0), conj(d0), reversed conj(d0)
    or -reversed conj(d0) for Hamiltonian, skew-Hamiltonian, per-Hermitian and
    perskew-Hermitian structure, respectively.
    """
    d0 = np.asarray(d0, dtype=np.complex128)
    if tag is StructureTag.HAMILTONIAN:
        tail = -d0.conj()
    elif tag is StructureTag.SKEW_HAMILTONIAN:
        tail = d0.conj()
    elif tag is StructureTag.PER_HERMITIAN:
        tail = d0.conj()[::-1]
    else:
        tail = -d0.conj()[::-1]
    return np.diag(np.concatenate([d0, tail]))


def gen_normal_structured(
    tag: StructureTag, n: int, seed: int, n_rot: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random normal structured matrix A = U D U^H with known factors.

    D is a structured diagonal whose leading entries have real and imaginary
    parts bounded away from zero (so the eigenvalue conditions of every tag
    hold), and U is a product of ``n_rot`` random structure-preserving
    rotations of the matching family.  Returns (A, U, D).
    """
    from . import rotations

    if n < 1:
        raise ValueError("n must be >= 1")
    if n_rot is None:
        n_rot = 4 * n * n
    if n_rot < 1:
        raise ValueError("n_rot must be >= 1")
    rng = np.random.default_rng(seed)
    re = rng.choice([-1.0, 1.0], n) * (0.5 + np.abs(rng.standard_normal(n)))
    im = rng.choice([-1.0, 1.0], n) * (0.5 + np.abs(rng.standard_normal(n)))
    d = structured_diagonal(tag, re + 1j * im)

    positions = rotations.pivot_set(tag.family, n)
    specs = [rotations.random_spec(*positions[rng.integers(len(positions))], rng)
             for _ in range(n_rot)]
    u = rotations.apply_right(np.eye(2 * n, dtype=np.complex128),
                              *(rotations.planes(spec, n) for spec in specs))
    a = u @ d @ u.conj().T
    return a, u, d
