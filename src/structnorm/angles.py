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

Every function here reads the pivot as the tuple
``entries = (a_ii, a_ij, a_ji, a_jj)`` of Python complex numbers; a forced
alpha is passed next to it.
"""
from __future__ import annotations

import math
from collections import namedtuple
from math import atan2, cos, frexp, ldexp, sin

import numpy as np

_QUARTER_PI = math.pi / 4
_HALF_PI = math.pi / 2
# pivots whose largest part lies in this range are solved unscaled
_SCALE_LO, _SCALE_HI = 2.0 ** -32, 2.0 ** 32


# gain is g_value - g(0, 0), at full relative accuracy; case is one of
# trivial, cubic and fixed_1d
AngleSolution = namedtuple("AngleSolution", "phi alpha g_value gain case")


def _parts(entries):
    a_ii, a_ij, a_ji, a_jj = entries
    return (a_ii.real, a_ii.imag, a_jj.real, a_jj.imag,
            a_ij.real, a_ij.imag, a_ji.real, a_ji.imag)


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


def eval_g(entries, phi, alpha):
    """Post-rotation diagonal weight |a'_ii|^2 + |a'_jj|^2.

    Accepts scalars or broadcasting numpy arrays for phi and alpha.
    """
    if isinstance(phi, np.ndarray) or isinstance(alpha, np.ndarray):
        return _g_formula(_parts(entries), phi, alpha, np)
    return _g_formula(_parts(entries), float(phi), float(alpha), math)


def solve_angles(entries, alpha: float | None = None) -> AngleSolution:
    """Maximize g over both angles (double embeddings), or over phi alone at
    the given alpha (single embeddings, as ``solve_angles_fixed_alpha``).

    One straight-line body, with no helper calls: it runs at every pivot
    visit of every sweep.
    """
    a_ii, a_ij, a_ji, a_jj = entries
    x_ii, y_ii, x_jj, y_jj = a_ii.real, a_ii.imag, a_jj.real, a_jj.imag
    x_ij, y_ij, x_ji, y_ji = a_ij.real, a_ij.imag, a_ji.real, a_ji.imag
    # det(xI - K) has coefficients of degree 6 in the entries, so they
    # overflow or underflow far inside the float range.  When the largest
    # real or imaginary part lies outside [_SCALE_LO, _SCALE_HI], the entries
    # are divided by the power of two that brings it into [0.5, 1), which is
    # exact and leaves the angles unchanged.  Pivots inside that range are
    # left as they are: ``**`` is libm ``pow``, which is not exactly
    # homogeneous, so rescaling every pivot would move the last bits of
    # ordinary solutions.
    e = 0
    big = max(abs(x_ii), abs(y_ii), abs(x_jj), abs(y_jj),
              abs(x_ij), abs(y_ij), abs(x_ji), abs(y_ji))
    if not _SCALE_LO <= big <= _SCALE_HI:
        e = frexp(big)[1]
        x_ii, y_ii, x_jj, y_jj = (ldexp(x_ii, -e), ldexp(y_ii, -e),
                                  ldexp(x_jj, -e), ldexp(y_jj, -e))
        x_ij, y_ij, x_ji, y_ji = (ldexp(x_ij, -e), ldexp(y_ij, -e),
                                  ldexp(x_ji, -e), ldexp(y_ji, -e))
    # the five invariants
    dx, dy = x_ii - x_jj, y_ii - y_jj
    s1 = (x_ij + x_ji) * dx + (y_ij + y_ji) * dy
    s2 = dx * (y_ij - y_ji) + (x_ji - x_ij) * dy
    s3 = (x_ij * x_ij + x_ji * x_ji + y_ij * y_ij + y_ji * y_ji
          - dx ** 2 - dy ** 2)
    p = x_ij * x_ji + y_ij * y_ji
    q = x_ji * y_ij - x_ij * y_ji
    case = "fixed_1d"
    if alpha is None:
        case = "cubic"
        # F = lambda_max(K), by Newton's method on det(xI - K) =
        # x^3 + c2 x^2 + c1 x + c0 from K's Gershgorin bound (no eigenvalue
        # exceeds a row's diagonal plus its off-diagonals).  All roots are
        # real, so the iterates fall monotonically onto the largest root;
        # the first one that fails to fall ends the loop.
        t = s1 * s1 + s2 * s2
        d12 = s1 * s1 - s2 * s2
        c2 = -4.0 * s3
        c1 = 4.0 * s3 * s3 - 4.0 * t - 16.0 * (p * p + q * q)
        c0 = 8.0 * s3 * t - 16.0 * p * d12 - 32.0 * q * s1 * s2
        f = max(2.0 * (s3 + 2.0 * p + abs(s1)) + 4.0 * abs(q),
                2.0 * (s3 - 2.0 * p + abs(s2)) + 4.0 * abs(q),
                2.0 * (abs(s1) + abs(s2)))
        while True:
            df = (3.0 * f + 2.0 * c2) * f + c1
            if not df > 0.0:  # at a multiple root
                break
            nxt = f - (((f + c2) * f + c1) * f + c0) / df
            if not nxt < f:
                break
            f = nxt
        # eliminating y3 from (K - F I) y = 0 leaves a 2x2 system in (y1, y2)
        # whose null vector lies at this polar angle
        alpha = 0.5 * atan2(4.0 * f * q + 4.0 * s1 * s2,
                            4.0 * f * p + 2.0 * d12)
    # the best phi at alpha: d g / d phi = pc cos(4 phi) + qc sin(4 phi)
    pc = 2.0 * (s1 * cos(alpha) + s2 * sin(alpha))
    qc = s3 + 2.0 * (p * cos(2 * alpha) + q * sin(2 * alpha))
    phi = 0.25 * atan2(pc, -qc)
    # The gain g(phi, alpha) - g(0, 0), by integrating the phi-derivative:
    # g(phi, alpha) - g(0, alpha) = (pc sin(4 phi) + qc (1 - cos(4 phi))) / 4,
    # and g(0, alpha) = g(0, 0) because phi = 0 is the identity rotation.
    # This keeps full relative accuracy when the gain is far below 1 ulp of
    # g, which is what drives the final sweeps of the Jacobi iteration;
    # subtracting two direct evaluations of g would drown it in rounding.
    s2p = sin(2 * phi)
    gain = (pc * sin(4 * phi) + qc * 2.0 * s2p * s2p) / 4.0
    if not gain > 0.0:  # pc = qc = 0 gives atan2(0.0, -0.0) = pi
        phi, gain, case = 0.0, 0.0, "trivial"
    # g_value and gain are scaled back by 4**e to the caller's entries
    g0 = x_ii ** 2 + y_ii ** 2 + x_jj ** 2 + y_jj ** 2
    return AngleSolution(phi, alpha, ldexp(g0 + gain, 2 * e),
                         ldexp(gain, 2 * e), case)


# the sweep calls this name for the single embeddings, with their fixed
# alpha, so that perfbench's tracer times the two solves apart
solve_angles_fixed_alpha = solve_angles


def grid_oracle(entries, grid: int,
                fixed_alpha: float | None = None) -> tuple[float, float, float]:
    """Exhaustive lattice search over the angle domain; verification oracle.

    Returns (phi, alpha, g) of the best lattice point.  Under a fixed alpha
    the lattice is one-dimensional in phi.
    """
    if grid < 3:
        raise ValueError("grid must be >= 3")
    phis = np.linspace(-_QUARTER_PI, _QUARTER_PI, grid)
    if fixed_alpha is not None:
        g = eval_g(entries, phis, fixed_alpha)
        k = int(np.argmax(g))
        return float(phis[k]), fixed_alpha, float(g[k])
    alphas = np.linspace(-_HALF_PI, _HALF_PI, grid)
    g = eval_g(entries, phis[:, None], alphas[None, :])
    k0, k1 = np.unravel_index(int(np.argmax(g)), g.shape)
    return float(phis[k0]), float(alphas[k1]), float(g[k0, k1])
