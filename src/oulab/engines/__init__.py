"""Three interchangeable computations of the Neumann OU semigroup.

- ``mehler_apply``: exact whole-space oracle via tensorized Gauss-Hermite
  quadrature of the Mehler integral.
- ``mc_apply_many``: simulation of the normally reflected diffusion on
  any convex domain, by exact one-draw transitions where the law is known
  in closed form and projected Euler elsewhere; ``montecarlo.evolve_starts``
  runs the paths from a panel of start points.
- ``grid_build`` / ``grid_apply`` / ``grid_spectrum``: weighted
  finite-difference operator in 1D/2D with natural Neumann faces.
"""
from .types import SemigroupEstimate, OrderTooHigh, SolverError, ResolutionTooCoarse
from .mehler import mehler_apply
from .montecarlo import mc_apply_many
from .grid import (GridOperator, SpectrumResult, grid_build, grid_apply,
                   grid_spectrum)

__all__ = [
    "SemigroupEstimate", "OrderTooHigh", "SolverError", "ResolutionTooCoarse",
    "mehler_apply", "mc_apply_many",
    "GridOperator", "SpectrumResult", "grid_build", "grid_apply",
    "grid_spectrum",
]
