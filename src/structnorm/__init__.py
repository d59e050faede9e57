"""Nearest normal structured matrix via structure-preserving Jacobi rotations.

Supported structures: Hamiltonian, skew-Hamiltonian, per-Hermitian and
perskew-Hermitian.  The central entry point is :func:`structnorm.solve`.
"""
from ._kernels import BACKEND
from .angles import (AngleSolution, eval_g, grid_oracle, solve_angles,
                     solve_angles_fixed_alpha)
from .gradient import (GradientResult, eta, grad_f, pivot_gain,
                       project_tangent, should_skip, tangent_gradient)
from .jacobi import (NearestNormalResult, NonFiniteError, SolverConfig,
                     StructureError, TraceRecord, distance_to, iterate, solve)
from .matrixio import MatrixFileError, read_matrix, write_matrix
from .rotations import (RotationKind, apply_right, apply_similarity,
                        build_rotation, is_structure_preserving, pivot_set,
                        planes, random_angles)
from .structures import (PERPLECTIC, SYMPLECTIC, StructureTag,
                         check_structure, diag_norm_sq, frob_norm,
                         gen_normal_structured, gen_structured, make_F,
                         make_J, offdiag_norm_sq, structured_diagonal)

__version__ = "0.1.0"

__all__ = [
    "AngleSolution", "BACKEND", "GradientResult",
    "MatrixFileError", "NearestNormalResult", "NonFiniteError", "PERPLECTIC",
    "RotationKind", "SYMPLECTIC", "SolverConfig",
    "StructureError", "StructureTag", "TraceRecord", "apply_right",
    "apply_similarity", "build_rotation", "check_structure", "diag_norm_sq",
    "distance_to", "eta", "eval_g", "frob_norm", "gen_normal_structured",
    "gen_structured", "grad_f", "grid_oracle", "is_structure_preserving",
    "iterate", "make_F", "make_J", "offdiag_norm_sq", "pivot_gain",
    "pivot_set", "planes", "project_tangent", "random_angles", "read_matrix",
    "should_skip", "solve", "solve_angles", "solve_angles_fixed_alpha",
    "structured_diagonal", "tangent_gradient", "write_matrix",
]
