"""Structure-preserving rotations built from embedded Givens blocks.

Each rotation embeds one or two copies of the 2x2 Givens block

    G = [[c, -s], [conj(s), c]],   c = cos(phi),  s = exp(i*alpha)*sin(phi)

into the identity.  Three embeddings are symplectic (preserve Hamiltonian and
skew-Hamiltonian structure) and three are perplectic (preserve per-Hermitian
and perskew-Hermitian structure).  Single embeddings have a forced alpha:
0 for the symplectic one, -pi/2 for the perplectic one.

Pivot indices (i, j) are 1-based plane labels, matching the usual Jacobi
pivot notation; they are translated to 0-based array indices internally.
A full cyclic sweep visits the n^2 positions returned by :func:`pivot_set`.

What each kind is (its family; its forced alpha, None for a double
embedding; the bounds cols(i, n) of its pivot columns in each row i; and the
layout(i, j, n, c, s) of its planes) is stated once, as the attributes of its
:class:`RotationKind` member.  :func:`pivot_set`, :func:`check_pivot` and
:func:`planes` read them.  Nothing is kept per pivot position: a one-shot
solve would not reuse such a cache.

A rotation is (kind, i, j, phi, alpha) until ``planes(kind, i, j, phi,
alpha, n)`` lays it out as its plane list: one 0-based (p, q, c, s) per
embedded block; a product of rotations is the concatenation of their lists.
:func:`planes` alone checks the pivot, forces a single kind's alpha,
evaluates the trig and lays out the planes; :func:`apply_similarity` and
:func:`apply_right` hand the lists to the kernels as they are.
"""
from __future__ import annotations

import math
from enum import Enum
from operator import index, itemgetter

import numpy as np

from . import _kernels
from .structures import PERPLECTIC, SYMPLECTIC, make_F, make_J


# the layouts two kinds share; perplectic doubles mirror into the flipped
# plane with -conj(s)
_single = lambda i, j, n, c, s: [(i - 1, j - 1, c, s)]
_perp_double = lambda i, j, n, c, s: [(i - 1, j - 1, c, s), (2 * n - j, 2 * n - i, c, -s.conjugate())]


class RotationKind(Enum):
    """The six embeddings, each member with its own row.

    ``family``; ``fixed_alpha``, the forced alpha of a single embedding and
    None for a double one; ``cols(i, n)``, the bounds lo <= j < hi of the
    pivot columns of row i, 1 <= i <= n; and ``layout(i, j, n, c, s)``, its
    plane list.  Each family's members are in O1 order: direct sum, single,
    the other double.
    """

    def __new__(cls, value, family, fixed_alpha, cols, layout):
        kind = object.__new__(cls)
        kind._value_, kind.family, kind.fixed_alpha, kind.cols, kind.layout = (
            value, family, fixed_alpha, cols, layout)
        return kind

    SYMP_DIRECT_SUM = ("symp-direct-sum", SYMPLECTIC, None, lambda i, n: (i + 1, n + 1),
                       lambda i, j, n, c, s: [(i - 1, j - 1, c, s), (n + i - 1, n + j - 1, c, s)])
    SYMP_SINGLE = ("symp-single", SYMPLECTIC, 0.0, lambda i, n: (n + i, n + i + 1), _single)
    SYMP_CONCENTRIC = (
        "symp-concentric", SYMPLECTIC, None, lambda i, n: (n + i + 1, 2 * n + 1),
        lambda i, j, n, c, s: [(i - 1, j - 1, c, s), (j - n - 1, n + i - 1, c, s.conjugate())])
    PERP_DIRECT_SUM = ("perp-direct-sum", PERPLECTIC, None, lambda i, n: (i + 1, n + 1),
                       _perp_double)
    PERP_SINGLE = ("perp-single", PERPLECTIC, -math.pi / 2,
                   lambda i, n: (2 * n - i + 1, 2 * n - i + 2), _single)
    PERP_INTERLEAVED = ("perp-interleaved", PERPLECTIC, None,
                        lambda i, n: (n + 1, 2 * n - i + 1), _perp_double)


def check_pivot(kind: RotationKind, i: int, j: int, n: int) -> RotationKind:
    """The kind; ValueError unless (i, j) is its pivot at half-dimension n."""
    try:
        lo, hi = kind.cols(index(i), n)
        if 1 <= i <= n and lo <= index(j) < hi:
            return kind
    except TypeError:  # i or j is not an integer, like 2.0 (numpy integers pass)
        pass
    raise ValueError(
        f"pivot ({i}, {j}) is outside the pivot set of {kind.value} for n={n}"
    )


def planes(kind: RotationKind, i: int, j: int, phi: float, alpha: float,
           n: int) -> list[tuple[int, int, float, complex]]:
    """Plane list of R(i, j, phi, alpha): Givens planes (p, q, c, s), 0-based p < q.

    Each plane carries the block [[c, -s], [conj(s), c]] at rows/columns
    (p, q); c = cos(phi) is the same in all planes of the rotation.  A single
    kind's forced alpha replaces ``alpha``.
    """
    check_pivot(kind, i, j, n)
    if kind.fixed_alpha is not None:
        alpha = kind.fixed_alpha
    s = complex(math.cos(alpha), math.sin(alpha)) * math.sin(phi)
    return kind.layout(i, j, n, math.cos(phi), s)


def build_rotation(kind: RotationKind, i: int, j: int, phi: float, alpha: float,
                   dim: int) -> np.ndarray:
    """Explicit dim x dim matrix of R(i, j, phi, alpha)."""
    if dim < 2 or dim % 2 != 0:
        raise ValueError("rotations need an even dimension >= 2")
    r = np.eye(dim, dtype=np.complex128)
    for p, q, c, s in planes(kind, i, j, phi, alpha, dim // 2):
        r[p, p] = c
        r[p, q] = -s
        r[q, p] = np.conj(s)
        r[q, q] = c
    return r


def apply_similarity(a: np.ndarray, rotation: list) -> np.ndarray:
    """In-place update A <- R^H A R for the plane list R, on its rows/columns."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    _kernels.plane_similarity(a, rotation)
    return a


def apply_right(z: np.ndarray, rotation: list) -> np.ndarray:
    """In-place update Z <- Z R for the plane list R (columns only).

    The planes go to one ``rotate_cols`` call, in order.  For a product
    R_1 R_2 ... R_k, pass the concatenation of their lists: Z is then bitwise
    the same as when the rotations are applied one at a time.
    """
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError("matrix must be square")
    if rotation:
        _kernels.rotate_cols(z, rotation)
    return z


def is_structure_preserving(kind: RotationKind, i: int, j: int, phi: float,
                            alpha: float, dim: int) -> float:
    """Residual ||R^H S R - S||_F with S = J (symplectic) or S = F (perplectic)."""
    r = build_rotation(kind, i, j, phi, alpha, dim)  # checks dim
    s = make_J(dim // 2) if kind.family == SYMPLECTIC else make_F(dim)
    return float(np.linalg.norm(r.conj().T @ s @ r - s))


# each ordering lists a family's positions from its kinds, in O1 order
_ORDERINGS = {
    "O1": lambda kinds, n: [(kind, i, j) for kind in kinds
                            for i in range(1, n + 1) for j in range(*kind.cols(i, n))],
    "O2": lambda kinds, n: [pos for i in range(1, n + 1) for pos in sorted(
        [(kind, i, j) for kind in kinds for j in range(*kind.cols(i, n))],
        key=itemgetter(2), reverse=True)],
}


def pivot_set(
    family: str, n: int, ordering: str = "O1"
) -> list[tuple[RotationKind, int, int]]:
    """The n^2 cyclic pivot positions of one sweep, in O1 or O2 order.

    O1 lists the double direct-sum positions row-wise, then the single
    positions, then the remaining double positions row-wise.  O2 walks each
    row right to left over the same positions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    kinds = [kind for kind in RotationKind if kind.family == family]
    if not kinds:
        raise ValueError(f"unknown family: {family!r}")
    if str(ordering).upper() not in _ORDERINGS:
        raise ValueError(f"unknown ordering: {ordering!r}")
    out = _ORDERINGS[str(ordering).upper()](kinds, n)
    if len(out) != n * n:
        raise AssertionError("pivot set size must be n^2")
    return out


def random_angles(kind: RotationKind, rng: np.random.Generator) -> tuple[float, float]:
    """Random angles in the solver domain: phi in (-pi/4, pi/4], free alpha in (-pi/2, pi/2]."""
    phi = (0.5 - rng.random()) * (math.pi / 2)
    alpha = kind.fixed_alpha
    if alpha is None:
        alpha = (0.5 - rng.random()) * math.pi
    return phi, alpha
