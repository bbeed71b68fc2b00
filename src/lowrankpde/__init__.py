"""Rank-constrained implicit time stepping for anisotropic diffusion.

The problem lives on the unit square with homogeneous Dirichlet walls and a
(possibly rotating) 2x2 diffusion tensor.  States are kept as rank-r matrices
of sine-mode coefficients; each backward step is the minimisation of the
implicit-Euler quadratic over that rank-r set, realised either by alternating
factor solves or by a splitting pass through the tangent space.
"""

from .analysis import (ConvergenceRow, ConvergenceTable, EnergyReport, PropertyReport,
                       convergence_study, curvature_suite, energy_audit,
                       equivalence_test, interpolant_gap,
                       projection_regularity_suite, sample_nearby_state, sample_state,
                       tangency_suite)
from .galerkin import (DiffusionModel, GalerkinOperator, SourceSpec, TimeProfile,
                       apply_operator, build_operator, constant_diffusion,
                       constant_profile, cosine_profile, exact_diagonal_solution,
                       h_norm, linear_profile, operator_matrix, rhs_mean,
                       rhs_mean_factors, rotating_diffusion, separable_source,
                       v_dual_norm, v_norm, zero_source)
from .manifold import (LowRankState, RankDeficiencyError, factorize, reorthonormalize,
                       singular_values, smallest_singular, tangent_project, to_dense)
from .stepping import (HaltRecord, InnerSolveError, StepDiagnostics, StepOptions,
                       Trajectory, als_variational_step, galerkin_residual, integrate,
                       reference_step, splitting_euler_step, step_objective)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceRow", "ConvergenceTable", "DiffusionModel", "EnergyReport",
    "GalerkinOperator", "HaltRecord", "InnerSolveError", "LowRankState",
    "PropertyReport", "RankDeficiencyError", "SourceSpec", "StepDiagnostics",
    "StepOptions", "TimeProfile", "Trajectory",
    "als_variational_step", "apply_operator", "build_operator",
    "constant_diffusion", "constant_profile", "convergence_study", "cosine_profile",
    "curvature_suite", "energy_audit", "equivalence_test", "exact_diagonal_solution",
    "factorize", "galerkin_residual", "h_norm", "integrate",
    "interpolant_gap", "linear_profile", "operator_matrix",
    "projection_regularity_suite", "reference_step", "reorthonormalize", "rhs_mean",
    "rhs_mean_factors", "rotating_diffusion", "sample_nearby_state", "sample_state",
    "separable_source",
    "singular_values", "smallest_singular", "splitting_euler_step", "step_objective",
    "tangency_suite", "tangent_project", "to_dense", "v_dual_norm", "v_norm",
    "zero_source",
]
