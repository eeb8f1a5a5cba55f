"""Numerical laboratory for the Neumann Ornstein-Uhlenbeck semigroup on
convex domains under the standard Gaussian measure."""

from . import domains, expr, gauss, engines, inequalities, cylapprox, config

from .domains import (ConvexDomain, WholeSpace, HalfspaceIntersection, Ball,
                      Slab, Product, RegularPolygon, interval, half_line,
                      polygon_approximation, truncation_box, domain_from_config)
from .gauss import QuadratureRule, gauss_hermite, restricted_sample
from .expr import (CylFunction, parse_expr, format_expr, var, const, exp, tanh,
                   sin, coordinate, from_profile, function_from_config)
from .engines import (SemigroupEstimate, mehler_apply, mc_apply_many,
                      GridOperator, SpectrumResult, grid_build, grid_apply,
                      grid_spectrum)
from .inequalities import (InequalityReport, EntropyTrace, check_poincare,
                           check_logsob, check_gradient_bound,
                           check_invariance, check_decay,
                           check_positivity_and_contraction, entropy_trace)
from .cylapprox import (factorization_check, convergence_study,
                        ConvergenceStudy)

__version__ = "0.1.0"
