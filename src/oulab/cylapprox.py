"""Finite-dimensional product structure of the semigroup.

On a product ``base x R^k`` the semigroup of a lifted function factors
through the base: evolving the lift over the product and evaluating the
base semigroup at the projected point must agree. ``factorization_check``
tests this with independent engines on the two sides. ``convergence_study``
drives the approximation of a 2D ball by circumscribed polygons and
measures the L2 distance between the polygon and ball semigroups with
common random numbers, together with the excess Gaussian mass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import (Ball, ConvexDomain, Product, WholeSpace,
                      polygon_approximation)
from .gauss import _sample_blocks, mean_se, restricted_sample
from .engines.grid import GridOperator, grid_apply
from .engines.montecarlo import evolve_starts, path_details
from .inequalities import (BIAS_CONST, FACTOR_DISC, Z, InequalityReport,
                           _cells, _terms)


def factorization_check(v, base: ConvexDomain, free_dims: int, t: float,
                        op: GridOperator, n_points: int, n_paths: int,
                        h: float, seed: int) -> InequalityReport:
    """Monte Carlo on the product domain versus the grid on the base.

    The panel is drawn from the stationary law of the product; side A
    evolves the lifted function by reflected paths, side B interpolates the
    evolution of ``v`` on ``op``, the base's grid, at the projected panel
    points. The report's lhs is the worst excess of |A - B| over ``Z``
    standard errors; the rhs is the recorded sum of the explicit step-bias
    and grid allowances, and the tolerance is 0.
    """
    if base.dim != 1:
        raise ValueError("the grid reference needs a one dimensional base")
    product = Product(base=base, free_dims=free_dims)
    lifted = v.lift(product.dim)

    panel = restricted_sample(product, n_points, seed + 1).points
    u_t = grid_apply(op, op.sample(v), t)
    xs = op.nodes[:, 0]

    ends = evolve_starts([product], panel, n_paths, t, h, seed)[0]
    vals = np.asarray(lifted.eval(ends), dtype=float).reshape(n_points, n_paths)
    values = [(*mean_se(vals[i]), float(np.interp(x[0], xs, u_t)))
              for i, x in enumerate(panel)]
    excess = [abs(a - b) - Z * se for a, se, b in values]
    worst = int(np.argmax(excess))
    h_grid = float(op.spacing.max())
    allowance, terms = _terms(
        ("step_bias", BIAS_CONST * math.sqrt(h)),
        ("discretization", FACTOR_DISC * h_grid * h_grid))
    a, se, b = values[worst]
    return InequalityReport(
        name="factorization", lhs=max(max(excess), 0.0), rhs=allowance,
        tolerance=0.0,
        details={"t": t, "free_dims": free_dims, "n_points": n_points,
                 "n_paths": n_paths, "h": h, "resolution": _cells(op),
                 "seed": seed, **path_details([product]),
                 "worst_point": worst, "mc_value": a,
                 "grid_value": b, "mc_se": se, "bias_const": BIAS_CONST,
                 "disc_const": FACTOR_DISC, **terms})


@dataclass(frozen=True)
class ConvergenceRow:
    sides: int
    error: float
    std_error: float
    excess_mass: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """Distance of polygon semigroups from the ball semigroup, by side count."""

    rows: list
    details: dict = field(default_factory=dict)

    def errors(self) -> np.ndarray:
        return np.array([r.error for r in self.rows])

    def excess_masses(self) -> np.ndarray:
        return np.array([r.excess_mass for r in self.rows])

    def csv_rows(self):
        for r in self.rows:
            yield (r.sides, r.error, r.std_error, r.excess_mass)


def convergence_study(ball: Ball, f, t: float, n_list, n_points: int,
                      paths_per_point: int, h: float, seed: int,
                      mass_samples: int = 200_000) -> ConvergenceStudy:
    """Measure the polygon-to-ball semigroup distance for each side count.

    For every evaluation point (drawn from the ball's stationary law) all
    polygons and the ball are driven by one shared noise stream, so the
    per-point differences cancel most Monte Carlo variance and the decay
    of the distance is visible at desk-scale budgets. The excess mass
    column uses one shared proposal cloud for the same reason; its
    polygon-but-not-ball counts are taken block by block as the proposals
    are drawn.
    """
    n_list = list(n_list)
    domains = [polygon_approximation(ball, n) for n in n_list] + [ball]
    panel = restricted_sample(ball, n_points, seed + 1).points
    ends = evolve_starts(domains, panel, paths_per_point, t, h, seed)

    ball_vals = np.asarray(f.eval(ends[-1]), dtype=float) \
        .reshape(n_points, paths_per_point)
    diffs = np.empty((len(n_list), n_points))
    ses = np.empty((len(n_list), n_points))
    for i in range(len(n_list)):
        vals = np.asarray(f.eval(ends[i]), dtype=float) \
            .reshape(n_points, paths_per_point)
        for j, delta in enumerate(vals - ball_vals):
            diffs[i, j], ses[i, j] = mean_se(delta)

    excess = [0] * len(n_list)
    for pts, _, _ in _sample_blocks(WholeSpace(2), mass_samples, seed + 2):
        outside_ball = ~ball.contains(pts)
        for i, gon in enumerate(domains[:-1]):
            excess[i] += int(np.count_nonzero(gon.contains(pts)
                                              & outside_ball))
    rows = []
    for i, n in enumerate(n_list):
        err_sq = float(np.mean(diffs[i] ** 2))
        err = math.sqrt(err_sq)
        var_err_sq = float(np.sum((2.0 * diffs[i] * ses[i]) ** 2)) / n_points ** 2
        se_err = math.sqrt(var_err_sq) / (2.0 * err) if err > 0 else \
            float(np.sqrt(np.mean(ses[i] ** 2)))
        rows.append(ConvergenceRow(sides=n, error=err, std_error=se_err,
                                   excess_mass=excess[i] / mass_samples))
    return ConvergenceStudy(rows=rows, details={
        "t": t, "n_points": n_points, "paths_per_point": paths_per_point,
        "h": h, "seed": seed, "mass_samples": mass_samples,
        **path_details(domains)})
