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
    """The four supported structure classes, each member with the family
    that preserves it and the sign sigma of its defining identity
    (S A)^H = sigma * S A."""

    def __new__(cls, value, family, sign):
        tag = object.__new__(cls)
        tag._value_, tag.family, tag.sign = value, family, sign
        return tag

    HAMILTONIAN = ("hamiltonian", SYMPLECTIC, 1)
    SKEW_HAMILTONIAN = ("skew-hamiltonian", SYMPLECTIC, -1)
    PER_HERMITIAN = ("per-hermitian", PERPLECTIC, 1)
    PERSKEW_HERMITIAN = ("perskew-hermitian", PERPLECTIC, -1)

    @classmethod
    def from_name(cls, name: str) -> "StructureTag":
        try:
            return cls(name.strip().lower().replace("_", "-"))
        except ValueError:
            raise ValueError(f"unknown structure tag: {name!r}") from None


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
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    m = a.shape[0]
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


def _ldexp(x: np.ndarray, e: int) -> np.ndarray:
    """X * 2**e, part by part: 2**e alone may overflow."""
    x = np.ascontiguousarray(x, dtype=np.complex128)
    return np.ldexp(x.view(np.float64), e).view(np.complex128)


def _normalized(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(A * 2**-e, e): the one rule for homogeneous quantities at extreme scales.

    e = 0 unless A is finite and nonzero with its largest real or imaginary
    part outside [2^-200, 2^200]; then 2**-e brings that part into [0.5, 1).
    A quantity of degree d in A is its value on the result times 2**(d*e).
    """
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    big = float(np.abs(parts).max(initial=0.0))
    if 2.0 ** -200 <= big <= 2.0 ** 200 or not 0.0 < big < math.inf:
        return a, 0
    e = math.frexp(big)[1]
    return _ldexp(a, -e), e


def check_structure(a: np.ndarray, tag: StructureTag) -> float:
    """Relative residual of the defining identity, ||S - sigma*S^H||_F / ||A||_F.

    Zero means the structure holds exactly (the zero matrix gives 0.0); the
    caller picks the tolerance.  Taken on A normalized by ``_normalized``, so
    it does not change when A is scaled by a power of two.
    """
    a, _ = _normalized(np.asarray(a))
    s = _defining_product(a, tag)
    norm = np.linalg.norm(a)
    return float(np.linalg.norm(s - tag.sign * s.conj().T) / norm) if norm else 0.0


def frob_norm(a: np.ndarray) -> float:
    """||A||_F on A normalized by ``_normalized``, or inf beyond the largest
    double; the bits of np.linalg.norm where its sum of squares is normal."""
    a, e = _normalized(a)
    with np.errstate(over="ignore"):  # inf: beyond the largest double
        return float(np.ldexp(np.linalg.norm(a), e))


def diag_norm_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm of the diagonal."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    d = a.diagonal()
    return float(np.vdot(d, d).real)


def offdiag_norm_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm of the off-diagonal part.

    Summed over the off-diagonal entries themselves; subtracting the diagonal
    weight from the total would lose the result to cancellation once the
    matrix is nearly diagonal.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
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
    a[:n, n:] = (g12 + _mirror(tag, g12)) / 2
    a[n:, :n] = (g21 + _mirror(tag, g21)) / 2
    a[n:, n:] = _mirror(tag, a11, diagonal=True)
    return a


def _mirror(tag: StructureTag, b: np.ndarray, diagonal: bool = False) -> np.ndarray:
    """The block that (S A)^H = sigma S A pairs with the block B.

    With T(B) = B^H for symplectic tags and F B^H F for perplectic ones
    (reversed conj(B) for a vector), that is sigma T(B) for A12 and A21, and
    for A22 in terms of A11 it is -sigma T(A11) (S = J) or sigma T(A11)
    (S = F).  Signs are applied by negation: a product with -1 or 1 can move
    the sign of a zero part.
    """
    t = b.conj().T
    if tag.family == PERPLECTIC:
        t = np.flip(t)
    negate = (tag.sign < 0) != (diagonal and tag.family == SYMPLECTIC)
    return -t if negate else t


def structured_diagonal(tag: StructureTag, d0: np.ndarray) -> np.ndarray:
    """Diagonal matrix diag(d0, *) in the tag's diagonal form.

    The second half of the diagonal is -conj(d0), conj(d0), reversed conj(d0)
    or -reversed conj(d0) for Hamiltonian, skew-Hamiltonian, per-Hermitian and
    perskew-Hermitian structure, respectively.
    """
    d0 = np.asarray(d0, dtype=np.complex128)
    return np.diag(np.concatenate([d0, _mirror(tag, d0, diagonal=True)]))


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
    product = []  # the planes of the n_rot rotations, in order
    for _ in range(n_rot):
        kind, i, j = positions[rng.integers(len(positions))]
        product += rotations.planes(kind, i, j, *rotations.random_angles(kind, rng), n)
    u = rotations.apply_right(np.eye(2 * n, dtype=np.complex128), product)
    a = u @ d @ u.conj().T
    return a, u, d
