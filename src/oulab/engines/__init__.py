"""Three interchangeable computations of the Neumann OU semigroup.

- ``mehler_apply``: exact whole-space oracle via tensorized Gauss-Hermite
  quadrature of the Mehler integral.
- ``mc_apply`` / ``simulate_endpoints``: simulation of the normally
  reflected diffusion on any convex domain, by exact one-draw transitions
  where the law is known in closed form and projected Euler elsewhere.
- ``grid_build`` / ``grid_apply`` / ``grid_spectrum``: weighted
  finite-difference operator in 1D/2D with natural Neumann faces.
"""
from .types import SemigroupEstimate, OrderTooHigh, SolverError, ResolutionTooCoarse
from .mehler import mehler_apply
from .montecarlo import simulate_endpoints, mc_apply, mc_apply_many
from .grid import (GridOperator, SpectrumResult, grid_build, grid_apply,
                   grid_spectrum, weighted_mean, l2_norm, fd_gradient)

__all__ = [
    "SemigroupEstimate", "OrderTooHigh", "SolverError", "ResolutionTooCoarse",
    "mehler_apply", "simulate_endpoints", "mc_apply", "mc_apply_many",
    "GridOperator", "SpectrumResult", "grid_build", "grid_apply",
    "grid_spectrum", "weighted_mean", "l2_norm", "fd_gradient",
]
