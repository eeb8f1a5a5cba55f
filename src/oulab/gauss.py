"""Standard Gaussian measure utilities.

Gauss-Hermite quadrature against the standard normal density, seeded
sampling restricted to a convex domain (the whole space included), and
``Moments``, the one mean/variance reducer, with ``mean_se`` as its
one-block case.
All stochastic routines take an explicit integer seed and are bit-stable.

Sampling runs one rejection loop, ``_sample_blocks``. It draws from one
stream, in sequence, into one reused draw buffer, gathers the accepted
rows by index and yields them in blocks of at most ``BLOCK_ROWS`` rows,
with the running accepted and proposed counts. A yielded block is a view
of a reused buffer: it stays valid only until the next block is asked
for, so a consumer reduces or copies it at once. ``restricted_sample``
fills one array from these blocks; the sampled checks reduce them one by
one into ``Moments`` and never hold the whole sample. The path engine's
``evolve_starts`` is what spawns one ``numpy.random.SeedSequence`` child
per batch, so its batches may run in parallel without changing results.
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
# rows of one yielded sample block: its function values and gradients stay
# in cache while they are reduced
BLOCK_ROWS = 8192


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


class Moments:
    """Count, mean and central sums M2 (and, with ``fourth``, M3 and M4) of
    a stream of values.

    ``add`` reduces one block in two passes, its mean and then the powers
    of its deviations from it, so a large common offset cannot cancel the
    variance away, and merges it in by the pairwise updates of Chan, Golub
    & LeVeque (1983) and Pebay (2008). Only ``var_se`` reads M4, so only an
    accumulator made with ``fourth=True`` pays for it; M3 is kept because
    the M4 update needs it. Fed one block, ``mean_se`` and ``var_se`` give
    the two-pass values of that array bit for bit.
    """

    __slots__ = ("n", "mean", "m2", "m3", "m4")

    def __init__(self, fourth: bool):
        self.n = 0
        self.mean = self.m2 = 0.0
        self.m3 = self.m4 = 0.0 if fourth else None

    def add(self, values) -> "Moments":
        """Reduce one block of values and merge it in; returns self."""
        nb = len(values)
        if nb == 0:
            return self
        fourth = self.m4 is not None
        mean = float(values.sum()) / nb  # values.mean() without its wrapper
        dev = values - mean
        sq = dev * dev
        m2 = float(sq.sum())
        if fourth:
            dev *= sq
            m3 = float(dev.sum())
            sq *= sq  # numpy hands dev ** 4 to libm pow, 80 multiplies' cost
            m4 = float(sq.sum())
        na = self.n
        if na == 0:
            self.n, self.mean, self.m2 = nb, mean, m2
            if fourth:
                self.m3, self.m4 = m3, m4
            return self
        n = na + nb
        delta = mean - self.mean
        d_n = delta / n
        cross = delta * d_n * na * nb  # delta^2 na nb / n
        if fourth:
            d_n2 = d_n * d_n
            self.m4 += (m4 + cross * d_n2 * (na * na - na * nb + nb * nb)
                        + 6.0 * d_n2 * (na * na * m2 + nb * nb * self.m2)
                        + 4.0 * d_n * (na * m3 - nb * self.m3))
            self.m3 += (m3 + cross * d_n * (na - nb)
                        + 3.0 * d_n * (na * m2 - nb * self.m2))
        self.m2 += m2 + cross
        self.mean += nb * d_n
        self.n = n
        return self

    def mean_se(self):
        """Mean and its standard error (zero below two values)."""
        n = self.n
        se = math.sqrt(self.m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
        return self.mean, se

    def var_se(self):
        """Sample variance and its standard error by the fourth-moment
        formula (zero below four values); needs ``fourth``."""
        if self.m4 is None:
            raise ValueError("var_se needs a Moments made with fourth=True")
        n = self.n
        m2 = self.m2 / n
        var = m2 * n / (n - 1) if n > 1 else 0.0
        m4 = self.m4 / n
        se = math.sqrt(max(m4 - m2 * m2 * (n - 3) / (n - 1), 0.0) / n) \
            if n > 3 else 0.0
        return var, se


def mean_se(values: np.ndarray):
    """Sample mean and its standard error of one array: ``Moments`` fed it
    as one block, two-pass so a large offset cannot cancel the variance."""
    return Moments(fourth=False).add(values).mean_se()


@dataclass(frozen=True)
class RestrictedSample:
    """Points of the Gaussian conditioned on a domain, with the sampler
    that drew them (``"whole_space"`` or ``"rejection"``)."""

    points: np.ndarray
    acceptance_rate: float
    proposed: int
    sampler: str


def _sampler_details(domain: ConvexDomain, accepted: int,
                     proposed: int) -> dict:
    """How a sample was drawn, from ``_sample_blocks``' final counts: the
    fields of ``RestrictedSample`` other than the points."""
    return {"acceptance_rate": accepted / proposed, "proposed": proposed,
            "sampler": ("whole_space" if isinstance(domain, WholeSpace)
                        else "rejection")}


def _block_end(start: int, count: int) -> int:
    """End of the sample block that starts at row ``start``."""
    end = min(start + BLOCK_ROWS, count)
    return end - 1 if count - end == 1 else end


def _sample_blocks(domain: ConvexDomain, count: int, seed: int):
    """Yield the ``count`` rows of ``restricted_sample`` in order, in blocks,
    each as ``(rows, accepted, proposed)`` with the running counts.

    Blocks hold ``BLOCK_ROWS`` rows, except the last two: a lone last row
    joins the block before it (so no block of one row is yielded unless
    ``count`` is one; a matmul on one row goes through gemv and rounds
    differently). The rejection loop draws a probe batch of
    ``PROBE_BATCH`` rows, then batches of ``_DRAW_BATCH``, into one reused
    buffer, and gathers each draw's accepted rows by index, a slice at a
    time, into one block buffer of ``BLOCK_ROWS`` rows; if the probe's
    acceptance rate is below ``DEFAULT_MASS_FLOOR`` the domain is
    numerically degenerate for rejection sampling and ``MassTooSmall`` is
    raised. On the whole space
    every proposal is kept, so each block is drawn in place: consecutive
    draws continue one stream, and the rows are the loop's. Each yielded
    block is a view of the reused buffer, valid until the next one is
    asked for.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    whole = isinstance(domain, WholeSpace)
    kept = np.empty((BLOCK_ROWS, domain.dim))
    draw = None if whole else np.empty((_DRAW_BATCH, domain.dim))
    accepted = proposed = emitted = held = 0
    end = _block_end(0, count)
    batch = PROBE_BATCH
    while True:
        if whole:
            rows = kept[:end - emitted]
            rng.standard_normal(out=rows)
            inside = None
            found = len(rows)
        else:
            rows = draw[:batch]
            rng.standard_normal(out=rows)
            inside = np.flatnonzero(domain.contains(rows))
            found = len(inside)
            if proposed == 0 and found / batch < DEFAULT_MASS_FLOOR:
                raise MassTooSmall(
                    f"acceptance {found / batch:.2e} below floor "
                    f"{DEFAULT_MASS_FLOOR:.2e} after a probe batch of {batch}"
                )
            batch = _DRAW_BATCH
        accepted += found
        proposed += len(rows)
        used = 0
        while used < found:
            take = min(found - used, end - emitted - held)
            if inside is not None:
                rows.take(inside[used:used + take], axis=0,
                          out=kept[held:held + take], mode="clip")
            used += take
            held += take
            if held < end - emitted:
                break
            yield kept[:held], accepted, proposed
            emitted, held = end, 0
            if emitted == count:
                return
            end = _block_end(emitted, count)
        del inside  # not held while the next draw is tested


def restricted_sample(domain: ConvexDomain, count: int,
                      seed: int) -> RestrictedSample:
    """Draw ``count`` points of gamma conditioned on the domain by rejection:
    one array filled from the blocks of ``_sample_blocks``, which raises
    ``MassTooSmall`` when the domain holds too little Gaussian mass."""
    points = np.empty((count, domain.dim))
    filled = 0
    for rows, accepted, proposed in _sample_blocks(domain, count, seed):
        points[filled:filled + len(rows)] = rows
        filled += len(rows)
    return RestrictedSample(points=points,
                            **_sampler_details(domain, accepted, proposed))
