"""Riemann-Hilbert solver for directional and Neumann boundary value
problems on the unit disk and star-like Jordan domains.

Entry points: build_boundary_function / DirectionField for data,
solve_directional / solve_neumann / transplant_solve for solutions,
verify_solution for the boundary certificate, theodorsen_map for
domains, dimension_certificate for solution-family rank.  The Neumann
problem is the inner-normal case: solve_neumann on the disk, and
transplant_solve with nu omitted on a mapped domain.
"""

from .boundary_data import (BoundaryFunction, DirectionField,
                            build_boundary_function, measurable_arg)
from .direction_solver import (HarmonicSolution, antiderivative,
                               solve_directional)
from .disk_harmonic import (SeriesEvaluator, StolzPath, conjugate_boundary,
                            schwarz_integral)
from .errors import (ConfigurationError, ConvergenceDomainError,
                     ConvergenceError, DataError, DomainError,
                     InvariantViolation, NumericalRangeError, PointQueryError,
                     RepresentationError, RHBVPError)
from .jordan_domain import ConformalMap, theodorsen_map, transplant_solve
from .neumann import disk_inner_normal, solve_neumann
from .rh_solver import (AnalyticSolution, SolverParams, homogeneous_family,
                        solve_rh)
from .verify import (VerificationReport, dimension_certificate,
                     laplacian_residual, radial_u_table, chord_recovery,
                     verify_solution)

__version__ = "0.1.0"

__all__ = [
    "AnalyticSolution", "BoundaryFunction", "ConfigurationError",
    "ConformalMap", "ConvergenceDomainError", "ConvergenceError", "DataError",
    "DirectionField", "DomainError", "HarmonicSolution", "InvariantViolation",
    "NumericalRangeError", "PointQueryError", "RHBVPError",
    "RepresentationError", "SeriesEvaluator", "SolverParams", "StolzPath",
    "VerificationReport", "antiderivative", "build_boundary_function",
    "conjugate_boundary", "dimension_certificate", "disk_inner_normal",
    "homogeneous_family", "laplacian_residual",
    "measurable_arg", "radial_u_table", "chord_recovery", "schwarz_integral",
    "solve_directional", "solve_neumann", "solve_rh", "theodorsen_map",
    "transplant_solve", "verify_solution",
]
