"""Optimal rotation angles for one pivot.

Given the 2x2 pivot submatrix [[a_ii, a_ij], [a_ji, a_jj]], find the angles
(phi, alpha) of the Givens block that maximize the post-rotation diagonal
weight

    g(phi, alpha) = |a'_ii|^2 + |a'_jj|^2,

over phi in [-pi/4, pi/4] and alpha in [-pi/2, pi/2].  Both maxima have a
closed form in the five invariants (s1, s2, s3, p, q) of the pivot.  At fixed
alpha the phi-derivative of g is pc cos(4 phi) + qc sin(4 phi), so the gain
g(phi, alpha) - g(0, 0) is largest at 4 phi = atan2(pc, -qc), where it equals
the largest eigenvalue of [[2 qc, pc], [pc, 0]] divided by 4.  Writing that
eigenvalue as a Rayleigh quotient in y = (x1 cos alpha, x1 sin alpha, x2)
turns the maximum over alpha as well into the largest eigenvalue F of the
symmetric 3x3 matrix

    K = [[2 (s3 + 2p), 4q,          2 s1],
         [4q,          2 (s3 - 2p), 2 s2],
         [2 s1,        2 s2,        0   ]],

so the best gain over both angles is F/4, and alpha is the polar angle of
the top eigenvector's first two components.  F is found by Newton's method
on det(xI - K) from K's Gershgorin bound, which decreases monotonically onto
the largest root because every root is real.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_QUARTER_PI = math.pi / 4
_HALF_PI = math.pi / 2
# pivots whose largest part lies in this range are solved unscaled
_SCALE_LO, _SCALE_HI = 2.0 ** -32, 2.0 ** 32


@dataclass(frozen=True)
class AngleProblem:
    """Pivot submatrix entries; fixed_alpha pins alpha for single embeddings."""

    a_ii: complex
    a_ij: complex
    a_ji: complex
    a_jj: complex
    fixed_alpha: float | None = None

    @classmethod
    def from_matrix(cls, a: np.ndarray, i: int, j: int,
                    fixed_alpha: float | None = None) -> "AngleProblem":
        """Extract the pivot submatrix at 1-based plane labels (i, j)."""
        p, q = i - 1, j - 1
        return cls(a.item(p, p), a.item(p, q), a.item(q, p), a.item(q, q),
                   fixed_alpha)


@dataclass(frozen=True)
class AngleSolution:
    phi: float
    alpha: float
    g_value: float
    gain: float  # g_value - g(0, 0), at full relative accuracy
    case: str  # trivial | cubic | fixed_1d


def _parts(problem: AngleProblem):
    return (problem.a_ii.real, problem.a_ii.imag,
            problem.a_jj.real, problem.a_jj.imag,
            problem.a_ij.real, problem.a_ij.imag,
            problem.a_ji.real, problem.a_ji.imag)


def _invariants(parts):
    """The five entry combinations the stationarity conditions are built from."""
    x_ii, y_ii, x_jj, y_jj, x_ij, y_ij, x_ji, y_ji = parts
    s1 = (x_ij + x_ji) * (x_ii - x_jj) + (y_ij + y_ji) * (y_ii - y_jj)
    s2 = (x_ii - x_jj) * (y_ij - y_ji) + (x_ji - x_ij) * (y_ii - y_jj)
    s3 = (x_ij * x_ij + x_ji * x_ji + y_ij * y_ij + y_ji * y_ji
          - (x_ii - x_jj) ** 2 - (y_ii - y_jj) ** 2)
    p = x_ij * x_ji + y_ij * y_ji
    q = x_ji * y_ij - x_ij * y_ji
    return s1, s2, s3, p, q


def _g_formula(parts, phi, alpha, m):
    x_ii, y_ii, x_jj, y_jj, x_ij, y_ij, x_ji, y_ji = parts
    cph = m.cos(phi)
    sph = m.sin(phi)
    ca = m.cos(alpha)
    sa = m.sin(alpha)
    u = (x_ij + x_ji) * ca + (y_ij - y_ji) * sa
    v = (y_ij + y_ji) * ca + (x_ji - x_ij) * sa
    c2 = cph * cph
    s2 = sph * sph
    sc = sph * cph
    xii_p = x_ii * c2 + x_jj * s2 + u * sc
    yii_p = y_ii * c2 + y_jj * s2 + v * sc
    xjj_p = x_ii * s2 + x_jj * c2 - u * sc
    yjj_p = y_ii * s2 + y_jj * c2 - v * sc
    return xii_p ** 2 + yii_p ** 2 + xjj_p ** 2 + yjj_p ** 2


def eval_g(problem: AngleProblem, phi, alpha):
    """Post-rotation diagonal weight |a'_ii|^2 + |a'_jj|^2.

    Accepts scalars or broadcasting numpy arrays for phi and alpha.
    """
    if isinstance(phi, np.ndarray) or isinstance(alpha, np.ndarray):
        return _g_formula(_parts(problem), phi, alpha, np)
    return _g_formula(_parts(problem), float(phi), float(alpha), math)


def _phi_slope_coeffs(s1, s2, s3, p, q, alpha):
    """(pc, qc) with d g / d phi = pc cos(4 phi) + qc sin(4 phi) at fixed alpha."""
    return (2.0 * (s1 * math.cos(alpha) + s2 * math.sin(alpha)),
            s3 + 2.0 * (p * math.cos(2 * alpha) + q * math.sin(2 * alpha)))


def _gain(pc, qc, phi):
    """Exact gain g(phi, alpha) - g(0, 0), stable for tiny phi.

    Integrating the phi-derivative gives g(phi, alpha) - g(0, alpha) =
    (pc sin(4 phi) + qc (1 - cos(4 phi))) / 4, and g(0, alpha) = g(0, 0)
    because phi = 0 is the identity rotation.  Evaluating the gain this way
    keeps full relative accuracy when the gain is far below 1 ulp of g, which
    is what drives the final sweeps of the Jacobi iteration; subtracting two
    direct evaluations of g would drown the gain in rounding noise.
    """
    s2p = math.sin(2 * phi)
    return (pc * math.sin(4 * phi) + qc * 2.0 * s2p * s2p) / 4.0


def _top_eigenvalue(s1, s2, s3, p, q):
    """F = lambda_max(K), by Newton's method on det(xI - K) from above.

    All roots are real, so from an upper bound the iterates fall
    monotonically onto the largest root; the first one that fails to fall
    ends the loop.
    """
    t = s1 * s1 + s2 * s2
    c2 = -4.0 * s3
    c1 = 4.0 * s3 * s3 - 4.0 * t - 16.0 * (p * p + q * q)
    c0 = 8.0 * s3 * t - 16.0 * p * (s1 * s1 - s2 * s2) - 32.0 * q * s1 * s2
    # Gershgorin: no eigenvalue exceeds a row's diagonal plus its off-diagonals
    x = max(2.0 * (s3 + 2.0 * p + abs(s1)) + 4.0 * abs(q),
            2.0 * (s3 - 2.0 * p + abs(s2)) + 4.0 * abs(q),
            2.0 * (abs(s1) + abs(s2)))
    while True:
        df = (3.0 * x + 2.0 * c2) * x + c1
        if not df > 0.0:  # at a multiple root
            return x
        nxt = x - (((x + c2) * x + c1) * x + c0) / df
        if not nxt < x:
            return x
        x = nxt


def _rescaled(problem: AngleProblem) -> tuple[tuple[float, ...], int]:
    """The problem's 8 real parts times 2**-e, and e; e != 0 only at extreme scales.

    det(xI - K) has coefficients of degree 6 in the entries, so they overflow
    or underflow far inside the float range.  When the largest real or
    imaginary part lies outside [2**-32, 2**32], the entries are divided by
    the power of two that brings it into [0.5, 1), which is exact and leaves
    the angles unchanged.  Pivots inside that range are left as they are:
    ``**`` is libm ``pow``, which is not exactly homogeneous, so rescaling
    every pivot would move the last bits of ordinary solutions.
    """
    parts = _parts(problem)
    big = max(map(abs, parts))
    if _SCALE_LO <= big <= _SCALE_HI:
        return parts, 0
    e = math.frexp(big)[1]
    return tuple(math.ldexp(x, -e) for x in parts), e


def _best_phi(parts, scale_exp: int, inv, alpha: float,
              case: str) -> AngleSolution:
    """The best rotation at alpha, or the identity when it gains nothing.

    g_value and gain are scaled back by 4**scale_exp to the caller's problem.
    """
    pc, qc = _phi_slope_coeffs(*inv, alpha)
    phi = 0.25 * math.atan2(pc, -qc)
    gain = _gain(pc, qc, phi)
    if not gain > 0.0:  # pc = qc = 0 gives atan2(0.0, -0.0) = pi
        phi, gain, case = 0.0, 0.0, "trivial"
    x_ii, y_ii, x_jj, y_jj = parts[:4]
    g0 = x_ii ** 2 + y_ii ** 2 + x_jj ** 2 + y_jj ** 2
    return AngleSolution(phi, alpha, math.ldexp(g0 + gain, 2 * scale_exp),
                         math.ldexp(gain, 2 * scale_exp), case)


def solve_angles(problem: AngleProblem) -> AngleSolution:
    """Maximize g over both angles (free-alpha mode, double embeddings)."""
    if problem.fixed_alpha is not None:
        raise ValueError("problem has fixed alpha; use solve_angles_fixed_alpha")
    parts, scale_exp = _rescaled(problem)
    inv = _invariants(parts)
    s1, s2, s3, p, q = inv
    f = _top_eigenvalue(*inv)
    # eliminating y3 from (K - F I) y = 0 leaves a 2x2 system in (y1, y2)
    # whose null vector lies at this polar angle
    alpha = 0.5 * math.atan2(4.0 * f * q + 4.0 * s1 * s2,
                             4.0 * f * p + 2.0 * (s1 * s1 - s2 * s2))
    return _best_phi(parts, scale_exp, inv, alpha, "cubic")


def solve_angles_fixed_alpha(problem: AngleProblem) -> AngleSolution:
    """Maximize g over phi alone, at the problem's fixed alpha."""
    alpha = problem.fixed_alpha
    if alpha is None:
        raise ValueError("problem has free alpha; use solve_angles")
    parts, scale_exp = _rescaled(problem)
    return _best_phi(parts, scale_exp, _invariants(parts), alpha, "fixed_1d")


def grid_oracle(problem: AngleProblem, grid: int) -> tuple[float, float, float]:
    """Exhaustive lattice search over the angle domain; verification oracle.

    Returns (phi, alpha, g) of the best lattice point.  Under fixed alpha the
    lattice is one-dimensional in phi.
    """
    if grid < 3:
        raise ValueError("grid must be >= 3")
    phis = np.linspace(-_QUARTER_PI, _QUARTER_PI, grid)
    if problem.fixed_alpha is not None:
        g = eval_g(problem, phis, problem.fixed_alpha)
        k = int(np.argmax(g))
        return float(phis[k]), problem.fixed_alpha, float(g[k])
    alphas = np.linspace(-_HALF_PI, _HALF_PI, grid)
    g = eval_g(problem, phis[:, None], alphas[None, :])
    k0, k1 = np.unravel_index(int(np.argmax(g)), g.shape)
    return float(phis[k0]), float(alphas[k1]), float(g[k0, k1])
