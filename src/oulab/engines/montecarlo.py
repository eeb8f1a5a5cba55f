"""Reflected-path Monte Carlo for the semigroup on convex domains.

``evolve_starts`` picks one of three transitions from the domain types
alone (``path_details`` names it and the increments its Euler steps
draw):

- ``"exact"``: where the reflected law is known in closed form, each
  endpoint is one draw ``Y = e^{-t} x + sqrt(1 - e^{-2t}) xi`` of the free
  OU transition, folded into the domain. The fold is the identity on
  ``WholeSpace`` and the mirror image on a single half-space whose face
  passes through the origin (OU is symmetric about every such hyperplane,
  so the reflected process is the free one mirrored, e.g. ``|Y|`` on
  ``half_line()``); a ``Product`` folds its base coordinates by its base's
  fold. There is no step bias.
- ``"split"``: on a ``Product`` whose base has no exact transition, the free
  coordinates take the one exact Gaussian draw and only the base
  coordinates march with projected Euler steps through ``base.project``;
  a 1D base steps with two-point increments as ``"euler"`` does.
- ``"euler"``: everywhere else, one projected Euler step is
  ``X <- project(X (1 - h) + sqrt(2 h) xi)``; the projection realizes
  normal reflection at the boundary, so endpoints never leave the closed
  domain. A march in one column draws ``xi = +-1`` with probability 1/2
  each from packed random bits, the simplified weak Euler scheme of
  Kloeden & Platen (1992, *Numerical Solution of Stochastic Differential
  Equations*, section 14.1): its first three moments are the Gaussian's,
  which is all a weak scheme needs. Marches in more columns draw standard
  Gaussian ``xi``, since a square lattice of increments is not
  rotation-invariant. Either way the weak bias is O(h) in the interior
  with an O(sqrt(h)) contribution where paths press on the boundary;
  callers fold an explicit bias allowance into their tolerances.

Coupled domains take the exact or split transition only when all of them
allow it; a call that mixes kinds runs Euler for all of them.

Determinism and coupling: paths are generated in fixed-size batches whose
generators come from spawned children of the root seed, and every batch
writes its own fixed rows of the endpoint array. Exact draws and marches
in two or more columns run their batches on a thread pool of the call's
own, with one thread per CPU in the process's affinity mask. numpy
releases the GIL while it fills noise and runs ufuncs, so batches of
Gaussian steps run at the same time: on a 2-core machine, 65,536 paths x
100 steps in the unit disc took 0.18 s on two threads against 0.33 s on
one. A one-column march (``"euler"`` in 1D, ``"split"`` on a 1D base)
runs its batches in batch order on the calling thread: each of its steps
is a handful of calls of a few microseconds each, so a second thread
gains nothing and its hand-offs cost time. On a 2-core machine the
bundled ``submultiplicative`` load (160,000 rows x 100 steps) took
0.056-0.074 s on two threads against 0.043-0.051 s on one. Neither where
batches run nor the order they finish in can change a result: a batch's
noise depends only on its own generator, and its rows only on its noise
and starts. There is deliberately no knob for the pool. Two calls with the
same seed, path count, step size, horizon and transition consume identical
noise, which is what the common-random-number comparisons across domains
and integrands rely on.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..domains import ConvexDomain, HalfspaceIntersection, Product, WholeSpace
from ..gauss import mean_se
from .types import SemigroupEstimate

DEFAULT_STEP = 1e-3
BATCH_SIZE = 16384


def _schedule(t: float, h: float):
    """Step sizes summing exactly to t, all h except a shortened last step."""
    if not (math.isfinite(t) and math.isfinite(h)) or h <= 0 or t < 0:
        raise ValueError("need finite h > 0 and t >= 0")
    if t == 0.0:
        return []
    n = max(1, math.ceil(t / h))
    last = t - (n - 1) * h
    # a tiny last step merges into the one before it, where there is one
    if last <= 1e-15 and n > 1:
        n -= 1
        last = t - (n - 1) * h
    return [h] * (n - 1) + [last]


def _fold(dom):
    """Map from free OU endpoints to reflected ones on ``dom``, or None
    where the reflected transition has no closed form."""
    if isinstance(dom, WholeSpace):
        return lambda y: y
    if (isinstance(dom, HalfspaceIntersection) and len(dom.offsets) == 1
            and dom.offsets[0] == 0.0):
        n = dom.normals[0]
        return lambda y: y - 2.0 * np.maximum(y @ n, 0.0)[:, None] * n
    if isinstance(dom, Product):
        fold_base, k = _fold(dom.base), dom.base.dim
        if fold_base is not None:
            return lambda y: np.concatenate([fold_base(y[:, :k]), y[:, k:]],
                                            axis=1)
    return None


def _plan(domains):
    """The transition on these coupled domains, each domain's fold, and how
    many leading columns march with Euler steps."""
    folds = [_fold(dom) for dom in domains]
    if all(fold is not None for fold in folds):
        return "exact", folds, 0
    if (all(isinstance(dom, Product) and dom.free_dims for dom in domains)
            and len({dom.base.dim for dom in domains}) == 1):
        return "split", folds, domains[0].base.dim
    return "euler", folds, domains[0].dim


def _increments(columns: int) -> str:
    """The increments of an Euler march in ``columns`` columns."""
    return "two_point" if columns == 1 else "gaussian"


def path_details(domains) -> dict:
    """``details`` entries naming what ``evolve_starts`` runs on these
    coupled domains: the ``transition`` and the ``increments`` of its Euler
    steps, ``"two_point"`` or ``"gaussian"`` (an exact transition's one
    draw is ``"gaussian"``); the module docstring describes each."""
    kind, _, columns = _plan(domains)
    return {"transition": kind, "increments": _increments(columns)}


def _march(domains, block, steps, rng):
    """Projected Euler paths from ``block``, one per domain, all driven by
    the same increments ``scale xi``, ``scale = sqrt(2 dt)``.

    In one column ``xi = +-1``, the simplified weak Euler scheme (Kloeden &
    Platen 1992, section 14.1): one bit per row, unpacked from the bit
    generator's raw 64-bit words read as little-endian bytes, whatever the
    platform; ``bit (2 scale) - scale`` is exactly ``+-scale``, as doubling
    is exact. In more columns ``xi`` is standard normal.

    The noise and the drifted state live in two buffers reused by every
    step; the noise is scaled once per step for all domains, and
    ``state (1 - dt) + noise`` is formed in the drift buffer with the same
    two roundings as the expression, so the paths are bit for bit those of
    the plain loop through ``project``. In one column every domain is its
    interval, read once per call, and the drift is clipped onto it straight
    into the domain's own state buffer, so no step allocates. In more
    columns ``project`` returns a new state, which frees the drift buffer
    for the next domain.
    """
    rows, columns = block.shape
    two_point = _increments(columns) == "two_point"
    bounds = [dom.axis_bounds() for dom in domains] if columns == 1 else None
    states = [block.copy() for _ in domains]
    noise = np.empty(block.shape)
    drift = np.empty(block.shape)
    for dt in steps:
        scale = math.sqrt(2.0 * dt)
        if two_point:
            words = rng.bit_generator.random_raw(-(-rows // 64))
            bits = np.unpackbits(words.astype("<u8", copy=False)
                                 .view(np.uint8), count=rows)
            np.multiply(bits.reshape(block.shape), 2.0 * scale, out=noise)
            noise -= scale
        else:
            rng.standard_normal(out=noise)
            noise *= scale
        for i, dom in enumerate(domains):
            np.multiply(states[i], 1.0 - dt, out=drift)
            drift += noise
            if bounds:
                np.clip(drift, *bounds[i], out=states[i])
            else:
                states[i] = dom.project(drift)
    return states


def _cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _run_batches(run, n_batches):
    """``run(b)`` for every batch b, on a pool of one thread per CPU.

    The first exception in batch order is re-raised as it was raised;
    batches not yet started are cancelled and the running ones finish
    before it propagates, so no batch outlives the call.
    """
    pool = ThreadPoolExecutor(_cpus(), thread_name_prefix="oulab-paths")
    try:
        for future in [pool.submit(run, b) for b in range(n_batches)]:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def evolve_starts(domains, panel: np.ndarray, repeats: int, t: float,
                  h: float, seed: int) -> list:
    """Evolve ``repeats`` paths from each row of ``panel`` through several
    coupled domains.

    Path ``r`` starts at ``panel[r // repeats]``, so the endpoints come in
    ``len(panel)`` consecutive groups of ``repeats`` rows. Every domain sees
    the same noise, so runs coupled by a shared seed differ only through
    the reflections. Paths run in batches of ``BATCH_SIZE`` rows, read at
    call time, and each batch gathers only its own starts. Returns one
    endpoint array per domain.
    """
    panel = np.asarray(panel, dtype=float)
    if repeats < 1:
        raise ValueError("need at least one path per start")
    n, dim = len(panel) * repeats, panel.shape[1]
    for dom in domains:
        if dom.dim != dim:
            raise ValueError("coupled domains must share a dimension")
    steps = _schedule(t, h)
    kind, folds, k = _plan(domains)
    decay, spread = math.exp(-t), math.sqrt(-math.expm1(-2.0 * t))
    batch_size = BATCH_SIZE
    n_batches = math.ceil(n / batch_size)
    seeds = np.random.SeedSequence(seed).spawn(n_batches)
    outs = [np.empty((n, dim)) for _ in domains]

    def run(b):
        sl = slice(b * batch_size, min((b + 1) * batch_size, n))
        rng = np.random.default_rng(seeds[b])
        block = panel[np.arange(sl.start, sl.stop) // repeats]
        if kind == "exact":
            y = decay * block + spread * rng.standard_normal(block.shape)
            for i, fold in enumerate(folds):
                outs[i][sl] = fold(y)
        elif kind == "split":
            free = block[:, k:]
            free = decay * free + spread * rng.standard_normal(free.shape)
            bases = _march([dom.base for dom in domains], block[:, :k],
                           steps, rng)
            for i in range(len(domains)):
                outs[i][sl, :k] = bases[i]
                outs[i][sl, k:] = free
        else:
            ends = _march(domains, block, steps, rng)
            for i in range(len(domains)):
                outs[i][sl] = ends[i]

    if k == 1:  # a one-column march
        for b in range(n_batches):
            run(b)
    else:
        _run_batches(run, n_batches)
    return outs


def mc_apply_many(fs, domain: ConvexDomain, t: float, x, n_paths: int,
                  h: float, seed: int) -> list:
    """Monte Carlo semigroup values of several integrands at ``x``: the
    sample means of each over one shared set of ``n_paths`` endpoints."""
    x = np.asarray(x, dtype=float)
    if not domain.contains(x):
        raise ValueError("start point must lie in the domain")
    endpoints = evolve_starts([domain], x[None, :], n_paths, t, h, seed)[0]
    out = []
    for f in fs:
        mean, se = mean_se(np.asarray(f.eval(endpoints), dtype=float))
        out.append(SemigroupEstimate(value=mean, t=t, method="monte_carlo",
                                     std_error=se))
    return out
