"""Numerical laboratory for the planar Neumann problem for Poisson's equation.

Solves lap u = f with du/dn = g on intervals and smooth star-shaped
planar domains, and empirically verifies the classical solvability and
a priori estimate theory: the compatibility condition, uniqueness up to
additive constants, the maximum-principle bound of the shifted problem,
energy/L2 estimates, local interior sup bounds, and the Holder-scale
(Schauder) estimate, including a constructive compact-operator
iteration route to the solution.
"""

__version__ = "0.1.0"

from .domain import DomainSpec, Mesh, build_mesh, distance_to_boundary
from .errors import (BallNotContained, ConfigError, DegenerateData,
                     DegenerateInput, EvalDomainError, ExprSyntaxError,
                     IncompatibleData, LinearSolveFailure, MeshMismatch,
                     NeumannLabError, NonConvergence, NonPositiveRadius,
                     ResolutionTooSmall, UnknownIdentifier)
from .field import (BoundaryFunction, GridFunction, boundary_trace, gradient,
                    integrate_boundary, integrate_volume, mean, subtract_mean)
from .norms import HolderReport, c_k_alpha_norm, l2_norm, pairwise_holder_max
from .solver import (SolveReport, check_compatibility, solve_1d_oracle,
                     solve_bordered, solve_neumann, solve_neumann_pinned,
                     solve_regularized)
from .verify import (EstimateReport, ManufacturedCase, ProblemFamily,
                     VerifyConfig, convergence_study, incompatibility_probe,
                     run_family_study, schauder_ratio)

__all__ = [name for name in dir() if not name.startswith("_")]
