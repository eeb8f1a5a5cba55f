"""Reflected-path Monte Carlo for the semigroup on convex domains.

One projected Euler step is ``X <- project(X (1 - h) + sqrt(2 h) xi)``:
the projection realizes normal reflection at the boundary, so endpoints
never leave the closed domain. The weak bias is O(h) in the interior with
an O(sqrt(h)) contribution where paths press on the boundary; callers fold
an explicit bias allowance into their tolerances.

Determinism and coupling: paths are generated in fixed-size batches whose
generators come from spawned children of the root seed, and every batch
writes its own fixed rows of the endpoint array, so results do not depend
on the order batches are processed in. Two calls with the same seed, path
count, step size, and horizon consume identical noise, which is what the
common-random-number comparisons across domains and integrands rely on.
"""
from __future__ import annotations

import math

import numpy as np

from ..domains import ConvexDomain
from ..gauss import mean_se
from .types import SemigroupEstimate

DEFAULT_STEP = 1e-3
BATCH_SIZE = 16384


def _schedule(t: float, h: float):
    """Step sizes summing exactly to t, all h except a shortened last step."""
    if h <= 0 or t < 0:
        raise ValueError("need h > 0 and t >= 0")
    if t == 0.0:
        return []
    n = max(1, math.ceil(t / h))
    last = t - (n - 1) * h
    if last <= 1e-15:
        n -= 1
        last = t - (n - 1) * h
    return [h] * (n - 1) + [last]


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def evolve_starts(domains, starts: np.ndarray, t: float,
                  h: float = DEFAULT_STEP, seed: int = 0,
                  batch_size: int = BATCH_SIZE) -> list:
    """March one noise stream through several domains from per-path starts.

    ``starts`` has one row per path; every domain sees the same increments,
    so runs coupled by a shared seed differ only through the projections.
    Returns one endpoint array per domain.
    """
    starts = np.asarray(starts, dtype=float)
    n, dim = starts.shape
    for dom in domains:
        if dom.dim != dim:
            raise ValueError("coupled domains must share a dimension")
    steps = _schedule(t, h)
    n_batches = math.ceil(n / batch_size)
    seeds = _seed_sequence(seed).spawn(n_batches)
    outs = [np.empty((n, dim)) for _ in domains]
    for b in range(n_batches):
        sl = slice(b * batch_size, min((b + 1) * batch_size, n))
        rng = np.random.default_rng(seeds[b])
        states = [starts[sl].copy() for _ in domains]
        nb = states[0].shape[0]
        for dt in steps:
            noise = rng.standard_normal((nb, dim))
            scale = math.sqrt(2.0 * dt)
            for i, dom in enumerate(domains):
                states[i] = dom.project(states[i] * (1.0 - dt) + scale * noise)
        for i in range(len(domains)):
            outs[i][sl] = states[i]
    return outs


def simulate_endpoints(domain: ConvexDomain, x0, t: float, n_paths: int,
                       h: float = DEFAULT_STEP, seed: int = 0,
                       batch_size: int = BATCH_SIZE) -> np.ndarray:
    """Endpoints of ``n_paths`` reflected paths started at ``x0``."""
    x0 = np.asarray(x0, dtype=float)
    if not domain.contains(x0):
        raise ValueError("start point must lie in the domain")
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    starts = np.repeat(x0[None, :], n_paths, axis=0)
    return evolve_starts([domain], starts, t, h, seed, batch_size)[0]


def reflected_path(domain: ConvexDomain, x0, t: float, h: float = DEFAULT_STEP,
                   seed: int = 0) -> np.ndarray:
    """Endpoint of a single reflected path (lands exactly at time t)."""
    return simulate_endpoints(domain, x0, t, n_paths=1, h=h, seed=seed)[0]


def mc_apply(f, domain: ConvexDomain, t: float, x, n_paths: int,
             h: float = DEFAULT_STEP, seed: int = 0) -> SemigroupEstimate:
    """Monte Carlo semigroup value: sample mean of f over path endpoints."""
    endpoints = simulate_endpoints(domain, x, t, n_paths, h, seed)
    mean, se = mean_se(np.asarray(f.eval(endpoints), dtype=float))
    return SemigroupEstimate(value=mean, t=t, method="monte_carlo",
                             std_error=se)


def mc_apply_many(fs, domain: ConvexDomain, t: float, x, n_paths: int,
                  h: float = DEFAULT_STEP, seed: int = 0) -> list:
    """Apply several integrands over one shared set of endpoints."""
    endpoints = simulate_endpoints(domain, x, t, n_paths, h, seed)
    out = []
    for f in fs:
        mean, se = mean_se(np.asarray(f.eval(endpoints), dtype=float))
        out.append(SemigroupEstimate(value=mean, t=t, method="monte_carlo",
                                     std_error=se))
    return out
