"""Standard Gaussian measure utilities.

Gauss-Hermite quadrature against the standard normal density, seeded
sampling restricted to a convex domain (the whole space included), and
``mean_se``, the shared sample mean and standard error.
All stochastic routines take an explicit integer seed and are bit-stable.
``restricted_sample`` draws from one stream, in sequence; the path
engine's ``evolve_starts`` is what spawns one
``numpy.random.SeedSequence`` child per batch, so its batches may run in
parallel without changing results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import ConvexDomain, WholeSpace

MAX_QUAD_ORDER = 512
DEFAULT_MASS_FLOOR = 1e-3
PROBE_BATCH = 8192
_DRAW_BATCH = 65536


class MassTooSmall(RuntimeError):
    """Rejection sampling is impractical: acceptance fell below the mass floor."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and probability weights for 1D integrals against the standard Gaussian."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to one")

    def integrate(self, fn) -> float:
        return float(self.weights @ fn(self.nodes))


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule of the given order for the N(0,1) weight.

    Golub-Welsch: nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the probabilists' Hermite recurrence. Weights come from
    the Christoffel function, ``1 / sum_k p_k(x_i)^2`` over the orthonormal
    polynomials, evaluated in extended precision so the rule stays finite up
    to the order cap (extreme weights below the float64 range are floored at
    the smallest subnormal). Exact for polynomials of degree
    ``2 * order - 1``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > MAX_QUAD_ORDER:
        raise ValueError(f"order capped at {MAX_QUAD_ORDER}")
    if order == 1:
        return QuadratureRule(nodes=np.zeros(1), weights=np.ones(1))
    from scipy.linalg import eigh_tridiagonal
    off = np.sqrt(np.arange(1, order, dtype=float))
    nodes = eigh_tridiagonal(np.zeros(order), off, eigvals_only=True)
    # symmetrize: nodes of the N(0,1) rule come in +- pairs
    nodes = 0.5 * (nodes - nodes[::-1])

    x = nodes.astype(np.longdouble)
    p_prev = np.zeros(order, dtype=np.longdouble)
    p_cur = np.ones(order, dtype=np.longdouble)
    christoffel = np.ones(order, dtype=np.longdouble)
    for k in range(1, order):
        p_prev, p_cur = p_cur, (x * p_cur - math.sqrt(k - 1) * p_prev) \
            / math.sqrt(k)
        christoffel += p_cur * p_cur
    weights = (1.0 / christoffel).astype(float)
    weights = 0.5 * (weights + weights[::-1])
    weights = np.maximum(weights, np.finfo(float).smallest_subnormal)
    return QuadratureRule(nodes=nodes, weights=weights / weights.sum())


def mean_se(values: np.ndarray):
    """Sample mean and its standard error, two-pass so that a large common
    offset cannot cancel the variance away."""
    n = len(values)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, se


@dataclass(frozen=True)
class RestrictedSample:
    """Points of the Gaussian conditioned on a domain, with the sampler
    that drew them (``"whole_space"`` or ``"rejection"``)."""

    points: np.ndarray
    acceptance_rate: float
    proposed: int
    sampler: str


def restricted_sample(domain: ConvexDomain, count: int,
                      seed: int) -> RestrictedSample:
    """Draw ``count`` points of gamma conditioned on the domain by rejection.

    The first batch acts as a probe: if its acceptance rate is below
    ``DEFAULT_MASS_FLOOR`` the domain is numerically degenerate for rejection
    sampling and ``MassTooSmall`` is raised. On the whole space every
    proposal is kept, so one draw of ``count`` rows gives the points: they
    are the loop's first ``count`` rows, since consecutive draws continue
    one stream.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if isinstance(domain, WholeSpace):
        return RestrictedSample(
            points=rng.standard_normal((count, domain.dim)),
            acceptance_rate=1.0, proposed=count, sampler="whole_space")
    kept = []
    accepted = 0
    proposed = 0
    batch = PROBE_BATCH
    while accepted < count:
        draw = rng.standard_normal((batch, domain.dim))
        inside = domain.contains(draw)
        proposed += batch
        n_in = int(inside.sum())
        if proposed == batch and n_in / batch < DEFAULT_MASS_FLOOR:
            raise MassTooSmall(
                f"acceptance {n_in / batch:.2e} below floor "
                f"{DEFAULT_MASS_FLOOR:.2e} after a probe batch of {batch}"
            )
        if n_in:
            kept.append(draw[inside])
            accepted += n_in
        batch = _DRAW_BATCH
    points = np.concatenate(kept)[:count]
    return RestrictedSample(points=points, acceptance_rate=accepted / proposed,
                            proposed=proposed, sampler="rejection")
