"""Exact whole-space semigroup via the Mehler representation.

``T(t) f(x) = E_y[ f(e^{-t} x + sqrt(1 - e^{-2t}) y) ]`` with y standard
Gaussian. For a cylindrical f the expectation only sees the k projections
of y onto the directions, a centered Gaussian vector with covariance equal
to the Gram matrix of the directions; factoring the Gram matrix reduces
the integral to rank(directions) dimensions, evaluated by a tensorized
Gauss-Hermite rule.
"""
from __future__ import annotations

import math

import numpy as np

from ..expr import CylFunction, evaluate
from ..gauss import gauss_hermite
from .types import OrderTooHigh, SemigroupEstimate

DEFAULT_ORDER = 40
NODE_BUDGET = 2_000_000
_RANK_TOL = 1e-12


def mehler_apply(f: CylFunction, t: float, x,
                 quad_order: int = DEFAULT_ORDER) -> SemigroupEstimate:
    """Evaluate the whole-space semigroup at one point by quadrature.

    Exact (to quadrature accuracy) for any time ``t >= 0``; the result is
    deterministic, so the estimate carries no standard error.
    """
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        return SemigroupEstimate(value=f.eval(x), t=0.0, method="mehler")
    decay = math.exp(-t)
    sigma = math.sqrt(1.0 - decay * decay)
    center = decay * (f.directions @ x)

    gram = f.directions @ f.directions.T
    lam, vecs = np.linalg.eigh(gram)
    keep = lam > _RANK_TOL * max(lam.max(), 1.0)
    rank = int(keep.sum())
    if rank == 0:
        z = center[None, :]
        return SemigroupEstimate(value=float(evaluate(f.profile, z)[0]),
                                 t=t, method="mehler")
    if quad_order ** rank > NODE_BUDGET:
        raise OrderTooHigh(
            f"order {quad_order} over rank {rank} exceeds {NODE_BUDGET} nodes")
    factor = vecs[:, keep] * np.sqrt(lam[keep])  # (k, rank)

    rule = gauss_hermite(quad_order)
    grids = np.meshgrid(*([rule.nodes] * rank), indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=1)  # (order^rank, rank)
    w = np.ones(u.shape[0])
    for g in np.meshgrid(*([rule.weights] * rank), indexing="ij"):
        w *= g.ravel()
    z = center + sigma * (u @ factor.T)
    vals = evaluate(f.profile, z)
    return SemigroupEstimate(value=float(w @ vals), t=t, method="mehler")
