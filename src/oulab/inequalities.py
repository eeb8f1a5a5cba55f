"""Checkable reports for the functional inequalities of the semigroup.

Every check produces an ``InequalityReport`` whose pass flag is a pure
function of (lhs, rhs, tolerance): pass iff ``rhs - lhs >= -tolerance``.
Each tolerance is a sum of named terms (``Z`` standard errors, explicit
allowances, roundoff) that ``_terms`` adds and records in the report's
``details`` as ``tolerance_rule`` and ``tolerance_terms``, so a failure
points at a real violation rather than noise. Grid checks run on the grid
``op`` they are given; ``config.grid_operator`` builds the CLI's grids.

Sampled integrals are means against the Gaussian measure conditioned on
the domain (what rejection samples estimate); on the whole space these are
plain Gaussian integrals. The variance/energy comparison is invariant
under that normalization, and the entropy inequality is stated in the
normalized form, which is the version that is exact for constants on
domains of any mass.

The Poincare and log-Sobolev checks integrate on a domain of dimension 1
and on a disc (a 2D ``Ball``), and sample on the others; ``_rule`` is the
one predicate that decides, and ``config`` labels the ``engine`` column
by it. The conditional means are sums over a quadrature rule weighted by
the Gaussian density and normalized; ``n_samples`` and ``seed`` are not
read. In 1D every domain is an interval, and the rule is the composite
Gauss-Legendre rule (``QUAD_PANELS`` panels of ``QUAD_NODES`` nodes) on
``truncation_box(domain, QUAD_TAIL)``. On a disc it is the polar product
rule: the composite rule with half the nodes a panel in the radius on
[0, r], and the periodic trapezoid rule at as many equally spaced angles
as there are radii, each node weighted by its radius (8 x 8 radii times
64 angles: its two axes multiply, and this rule already sits at roundoff
on the bundled and acceptance discs). The tolerance holds two measured terms
besides roundoff: ``quadrature``, how far each side moves when every axis
of the rule takes twice the nodes, and ``truncation``, how far each side
moves when the 1D box widens to tail mass ``WIDE_TAIL``; the polar rule
covers the whole disc, so there it is exactly 0. On the other shapes
(polygons, half-plane systems, the whole plane, products and more
dimensions) the checks stream their sample: f, its gradient and the
integrands are evaluated on the blocks of at most ``gauss.BLOCK_ROWS``
rows that ``gauss._sample_blocks`` yields, and each block is reduced at
once into a ``gauss.Moments`` accumulator. No array of ``n_samples`` rows
is built, and the rows are those of ``restricted_sample``; only the order
of summation differs from a reduction of one whole array. Their tolerance
holds the ``sampling`` term, ``Z`` standard errors.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .domains import Ball, ConvexDomain, truncation_box
from .gauss import (Moments, _sample_blocks, _sampler_details, mean_se,
                    restricted_sample)
from .engines.grid import (grid_apply, fd_gradient, weighted_mean, l2_norm,
                           propagator_details, GridOperator, DEFAULT_CN_STEPS,
                           NotFinite)
from .engines.montecarlo import evolve_starts, path_details, DEFAULT_STEP

Z = 3.0  # standard errors a sampled estimate may stray by as noise
EPS_FLOOR = 1e-12
GRID_EXACT_TOL = 1e-9
MAXPRINCIPLE_TOL = 1e-10
LOG_CLIP = 1e-12  # |f| is clipped here inside the log-Sobolev logarithm
# the composite Gauss-Legendre rule of the Poincare and log-Sobolev checks
# (in 1D; a disc's radius takes half the nodes a panel), the Gaussian tail
# mass its 1D box leaves out, and the tail mass of the wider box that
# measures what that leaves out
QUAD_PANELS = 8
QUAD_NODES = 16
QUAD_TAIL = 1e-12
WIDE_TAIL = 1e-24
ENTROPY_FLOOR = 1e-6  # the least f an entropy trace takes on its mesh
# the roundoff an entropy trace may rise by between times and still count
# as nonincreasing
NONINCREASING_TOL = 1e-10
# C of the allowances C h^2 (``disc_const``) and C sqrt(h) (``bias_const``)
GRAD_DISC = 20.0
DECAY_DISC = 2.0
ENTROPY_DISC = 5.0
FACTOR_DISC = 5.0
BIAS_CONST = 1.0


class BelowFloor(ValueError):
    """The check needs a function bounded below on the mesh: nonnegative
    for positivity, above a floor > 0 for the entropy trace."""


@dataclass(frozen=True)
class InequalityReport:
    """One verified inequality instance: lhs <= rhs within tolerance."""

    name: str
    lhs: float
    rhs: float
    tolerance: float
    details: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tolerance

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: lhs={self.lhs:.6g} rhs={self.rhs:.6g} "
                f"margin={self.margin:.3g} tol={self.tolerance:.3g}")


def _scale_floor(*values) -> float:
    return EPS_FLOOR * max(1.0, *(abs(v) for v in values))


def _terms(*terms):
    """The sum of ``(name, value)`` terms, added left to right from 0.0,
    and the ``details`` entries that record it: ``tolerance_rule`` (the
    names joined by ``+``) and ``tolerance_terms`` (name -> value)."""
    total = 0.0
    for _, value in terms:
        total += value
    return total, dict(tolerance_rule="+".join(name for name, _ in terms),
                       tolerance_terms=dict(terms))


def _report(name, lhs, rhs, terms, details) -> InequalityReport:
    """A report whose tolerance is the recorded sum of ``terms``, or
    ``NotFinite`` when a side or the tolerance overflowed."""
    tolerance, recorded = _terms(*terms)
    if not all(map(math.isfinite, (lhs, rhs, tolerance))):
        raise NotFinite(f"{name}: a side or the tolerance is not finite")
    return InequalityReport(name=name, lhs=lhs, rhs=rhs, tolerance=tolerance,
                            details={**details, **recorded})


def _cells(op: GridOperator):
    """Cells per axis of the mesh, one number when all axes agree."""
    cells = [len(axis) for axis in op.axes]
    return cells[0] if len(set(cells)) == 1 else cells


@functools.cache
def _legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    from numpy.polynomial.legendre import leggauss
    rule = leggauss(nodes)
    for array in rule:
        array.flags.writeable = False
    return rule


def _composite(lo: float, hi: float, nodes: int):
    """Nodes and weights of the composite rule of ``QUAD_PANELS`` equal
    panels of ``nodes`` Gauss-Legendre nodes on [lo, hi]."""
    x, w = _legendre(nodes)
    edges = np.linspace(lo, hi, QUAD_PANELS + 1)
    half = 0.5 * np.diff(edges)[:, None]
    pts = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
    return pts, (half * w).ravel()


def _line_rule(lo: float, hi: float, nodes: int):
    """Nodes, one column, and probability weights of the composite rule on
    [lo, hi] for the Gaussian conditioned on it. The density is taken
    relative to its value at the box point nearest 0,
    exp(-(x^2 - x0^2)/2), so a box far out in the tail keeps weights of
    order one instead of underflowing to 0."""
    x, w = _composite(lo, hi, nodes)
    x0 = min(max(0.0, lo), hi)
    dens = w * np.exp(-0.5 * (x * x - x0 * x0))
    return x[:, None], dens / dens.sum()


def _disc_rule(disc: Ball, nodes: int):
    """Nodes and probability weights of the polar product rule on a disc
    of centre c: the composite rule with ``nodes`` nodes a panel in the
    radius rho and the trapezoid rule at as many equally spaced angles as
    there are radii, so x = c + rho u for unit vectors u. A node's weight is
    rho times its radial weight times exp(-(|x|^2 - d0^2)/2), with
    d0 = max(|c| - r, 0) the disc's distance from 0, which keeps a disc far
    out in the tail at weights of order one as in 1D."""
    rho, w = _composite(0.0, disc.radius, nodes)
    angle = np.linspace(0.0, 2.0 * math.pi, QUAD_PANELS * nodes,
                        endpoint=False)
    unit = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    # one row of (cos, sin) pairs per radius, shifted by c a pair at a time
    pts = np.multiply.outer(rho, unit.ravel())
    pts += np.tile(disc.center, len(angle))
    pts = pts.reshape(-1, 2)
    c2 = float(disc.center @ disc.center)
    d0 = max(math.sqrt(c2) - disc.radius, 0.0)
    # (|x|^2 - d0^2)/2 = (rho^2 + |c|^2 - d0^2)/2 + rho u.c
    exponent = (0.5 * (rho * rho + (c2 - d0 * d0)))[:, None] \
        + np.multiply.outer(rho, unit @ disc.center)
    dens = (rho * w)[:, None] * np.exp(-exponent)
    return pts, (dens / dens.sum()).ravel()


def _rule(domain: ConvexDomain):
    """How the Poincare and log-Sobolev checks integrate on ``domain``, as
    their reports name it: ``sampler`` and ``nodes`` of the quadrature
    rule, or None on the shapes they sample. The checks and the ``engine``
    and ``budget`` columns of ``reports.csv`` (``config._check``) read this
    one predicate."""
    if domain.dim == 1:
        return {"sampler": "gauss_legendre",
                "nodes": f"{QUAD_PANELS}x{QUAD_NODES}"}
    if isinstance(domain, Ball) and domain.dim == 2:
        return {"sampler": "polar_gauss_legendre",
                "nodes": f"{QUAD_PANELS}x{QUAD_NODES // 2}"
                         f"x{QUAD_PANELS * QUAD_NODES // 2}"}
    return None


def _finite(values) -> np.ndarray:
    """``values`` as floats, or ``NotFinite`` if one is not finite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NotFinite("the function or its gradient is not finite at "
                        "some of the check's points")
    return values


def _evaluated(f, pts):
    """f and its squared gradient norm at ``pts``, or ``NotFinite`` when
    one of them is not finite somewhere."""
    grad = f.gradient(pts)
    return _finite(f.eval(pts)), _finite(np.einsum("ij,ij->i", grad, grad))


def _integrated(name, f, domain: ConvexDomain, sides) -> InequalityReport:
    """The report of a check by the quadrature rule of ``_rule(domain)``.

    ``sides(values, grad_sq, p)`` returns (lhs, rhs, details) from f and
    its squared gradient norm at the nodes, with ``p`` the nodes'
    probability weights. It runs on the reported rule and the one with
    twice the nodes on every axis (the ``quadrature`` term is how far each
    side moves), and in 1D on the reported one on the box of tail mass
    ``WIDE_TAIL`` (the ``truncation`` term); a disc's rule covers the whole
    disc, so its ``truncation`` term is 0. f sees every node in one call.
    """
    if domain.dim == 1:
        (lo,), (hi,) = truncation_box(domain, QUAD_TAIL)
        (wide_lo,), (wide_hi,) = truncation_box(domain, WIDE_TAIL)
        rules = [_line_rule(lo, hi, QUAD_NODES),
                 _line_rule(lo, hi, 2 * QUAD_NODES),
                 _line_rule(wide_lo, wide_hi, QUAD_NODES)]
        box = {"box": (float(lo), float(hi))}
    else:
        rules = [_disc_rule(domain, QUAD_NODES // 2),
                 _disc_rule(domain, QUAD_NODES)]
        box = {}
    pts = np.concatenate([x for x, _ in rules])
    values, grad_sq = _evaluated(f, pts)
    ends = np.cumsum([len(x) for x, _ in rules])[:-1]
    (lhs, rhs, details), fine, *wide = [
        sides(v, g, p) for v, g, (_, p) in zip(
            np.split(values, ends), np.split(grad_sq, ends), rules)]
    # the wide box's rule in 1D; none on a disc
    truncation = sum(abs(w[0] - lhs) + abs(w[1] - rhs) for w in wide)
    return _report(
        name, lhs, rhs,
        [("quadrature", abs(fine[0] - lhs) + abs(fine[1] - rhs)),
         ("truncation", float(truncation)),
         ("eps", _scale_floor(lhs, rhs))],
        {**details, **_rule(domain), **box})


def _mean(p, x) -> float:
    """The mean of x under a rule's probability weights p: one BLAS dot on
    a 1D rule, and numpy's pairwise sum of p x on the longer rules of a
    disc, since BLAS may split a long dot's sum across threads and so make
    its bits hang on the thread count."""
    if len(p) <= 2 * QUAD_PANELS * QUAD_NODES:
        return float(p @ x)
    return float(np.sum(p * x))


def _poincare_sides(values, grad_sq, p):
    # centred on a node value first, so a constant's variance is exactly 0
    # although the weights sum to 1 only up to rounding
    dev = values - values[0]
    dev -= _mean(p, dev)
    return _mean(p, dev * dev), _mean(p, grad_sq), {}


def check_poincare(f, domain: ConvexDomain, n_samples: int = 100_000,
                   seed: int = 0) -> InequalityReport:
    """Variance of f bounded by the mean squared gradient norm (constant
    one); integrated in 1D and on a disc, where ``n_samples`` and ``seed``
    are not read, and sampled on the other domains (module docstring)."""
    if _rule(domain) is not None:
        return _integrated("poincare", f, domain, _poincare_sides)
    values, grad_sq = Moments(fourth=True), Moments(fourth=False)
    for pts, accepted, proposed in _sample_blocks(domain, n_samples, seed):
        block, block_sq = _evaluated(f, pts)
        values.add(block)
        grad_sq.add(block_sq)
    lhs, se_lhs = values.var_se()
    rhs, se_rhs = grad_sq.mean_se()
    return _report(
        "poincare", lhs, rhs,
        [("sampling", Z * (se_lhs + se_rhs)), ("eps", _scale_floor(lhs, rhs))],
        {"n_samples": n_samples, "seed": seed, "se_lhs": se_lhs,
         "se_rhs": se_rhs, **_sampler_details(domain, accepted, proposed)})


def _entropy_terms(values):
    """f^2, the entropy integrand f^2 log|f| (0 where f = 0, |f| clipped
    at ``LOG_CLIP`` in the logarithm) and how many values were clipped."""
    absv = np.abs(values)
    logs = np.log(np.maximum(absv, LOG_CLIP))
    sq = values * values
    return (sq, np.where(absv > 0.0, sq * logs, 0.0),
            int(np.count_nonzero(absv < LOG_CLIP)))


def _norm_term(nrm2: float) -> float:
    return 0.5 * nrm2 * math.log(nrm2) if nrm2 > 0 else 0.0


def _logsob_sides(values, grad_sq, p):
    sq, ent, clipped = _entropy_terms(values)
    energy, nrm2 = _mean(p, grad_sq), _mean(p, sq)
    return (_mean(p, ent), energy + _norm_term(nrm2),
            {"clipped": clipped, "energy": energy, "l2_sq": nrm2})


def check_logsob(f, domain: ConvexDomain, n_samples: int = 100_000,
                 seed: int = 0) -> InequalityReport:
    """Entropy of f^2 bounded by gradient energy plus the norm term.

    Stated with log|f| on both sides; all integrals are conditional means,
    so the constant case is an exact equality on every domain. Values of
    |f| below ``LOG_CLIP`` are clipped inside the logarithm (0 log 0 = 0)
    and the clip count (of samples, or of the reported rule's nodes) is
    reported. Integrated in 1D and on a disc, where ``n_samples`` and
    ``seed`` are not read, and sampled on the other domains (module
    docstring).
    """
    if _rule(domain) is not None:
        return _integrated("log_sobolev", f, domain, _logsob_sides)
    entropy, grad_sq, square = (Moments(fourth=False) for _ in range(3))
    clipped = 0
    for pts, accepted, proposed in _sample_blocks(domain, n_samples, seed):
        block, block_sq = _evaluated(f, pts)
        sq, ent, n_clipped = _entropy_terms(block)
        clipped += n_clipped
        entropy.add(ent)
        grad_sq.add(block_sq)
        square.add(sq)
    lhs, se_lhs = entropy.mean_se()
    energy, se_energy = grad_sq.mean_se()
    nrm2, se_nrm2 = square.mean_se()
    se_norm = abs(0.5 * (math.log(nrm2) + 1.0)) * se_nrm2 if nrm2 > 0 else 0.0
    rhs = energy + _norm_term(nrm2)
    return _report(
        "log_sobolev", lhs, rhs,
        [("sampling", Z * (se_lhs + se_energy + se_norm)),
         ("eps", _scale_floor(lhs, rhs))],
        {"n_samples": n_samples, "seed": seed, "clipped": clipped,
         "energy": energy, "l2_sq": nrm2,
         **_sampler_details(domain, accepted, proposed)})


def check_gradient_bound(f, domain: ConvexDomain, t: float, op: GridOperator,
                         n_steps: int = DEFAULT_CN_STEPS) -> InequalityReport:
    """Gradient of the evolved function versus the decayed evolved gradient.

    Both sides live on the grid ``op``: the left is the central-difference
    gradient norm of T(t)f, the right is e^{-t} T(t)|grad f| with the
    exact gradient sampled at the nodes. The worst margin over interior
    nodes is reported against a discretization allowance.
    """
    u0 = op.sample(f)
    g0 = np.asarray(f.gradient_norm(op.nodes), dtype=float)
    u_t = grid_apply(op, u0, t, n_steps=n_steps)
    g_t = grid_apply(op, g0, t, n_steps=n_steps)
    grad_u, interior = fd_gradient(op, u_t)
    lhs_nodes = np.linalg.norm(grad_u[interior], axis=1)
    rhs_nodes = math.exp(-t) * g_t[interior]
    worst = int(np.argmin(rhs_nodes - lhs_nodes))
    h = float(op.spacing.max())
    dt = t / n_steps if t > 0 else 0.0
    scale = max(1.0, float(g0.max()))
    return _report(
        "gradient_bound", float(lhs_nodes[worst]), float(rhs_nodes[worst]),
        [("discretization", GRAD_DISC * (h * h + dt * dt) * scale),
         ("eps", EPS_FLOOR)],
        {"t": t, "resolution": _cells(op), "h": h, "dt": dt,
         "n_interior": int(interior.sum()), "disc_const": GRAD_DISC,
         "scale": scale})


def submultiplicative_reports(pairs, domain: ConvexDomain, t: float,
                              n_panel: int, n_paths: int, h: float,
                              seed: int) -> list:
    """Squared mean of a product versus the product of squared means.

    One shared endpoint cloud per panel point serves every (f, g) pair and
    all three integrands, so the comparison is by common random numbers.
    The lhs a^2 and rhs b c are means of fg, f^2 and g^2 over one cloud, so
    a^2 <= b c holds by construction (Cauchy-Schwarz on the empirical
    measure, recorded as ``by_construction``) and the tolerance is the
    ``eps`` floor alone: a report fails only if the means are wrong. It
    raises ``NotFinite`` when f or g is not finite at an endpoint.
    """
    x_panel = restricted_sample(domain, n_panel, seed + 1).points
    ends = evolve_starts([domain], x_panel, n_paths, t, h, seed)[0]
    details = {"t": t, "n_panel": n_panel, "n_paths": n_paths, "h": h,
               "seed": seed, **path_details([domain]),
               "by_construction": "cauchy_schwarz"}
    reports = []
    for f, g in pairs:
        fv = _finite(f.eval(ends)).reshape(n_panel, n_paths)
        gv = _finite(g.eval(ends)).reshape(n_panel, n_paths)
        rows = []
        for i in range(n_panel):
            a, b, c = np.stack([fv[i] * gv[i], fv[i] * fv[i],
                                gv[i] * gv[i]]).mean(axis=1)
            lhs, rhs = a * a, b * c
            rows.append(_report("submultiplicative", lhs, rhs,
                                [("eps", _scale_floor(lhs, rhs))], details))
        worst = min(range(n_panel), key=lambda i: rows[i].margin)
        rows[worst].details.update(
            worst_point=worst, points_failing=sum(not r.passed for r in rows))
        reports.append(rows[worst])
    return reports


def check_invariance(f, domain: ConvexDomain, t: float, engine: str,
                     n_paths: int = 100_000, h: float = DEFAULT_STEP,
                     n_steps: int = DEFAULT_CN_STEPS, seed: int = 0,
                     op: GridOperator | None = None) -> InequalityReport:
    """Two-sided check that the mean of f is preserved by the evolution.

    The Monte Carlo form starts one path from each stationary sample and
    compares the per-path difference of f at the two ends (the differences
    share noise, so the tolerance is tight) and raises ``NotFinite`` when f
    is not finite at a path's ends. The grid form needs the grid ``op`` and
    holds to solver roundoff by the operator's weighted symmetry; the
    evolution is linear, so that roundoff scales with ``max |f|`` on the
    mesh (``scale``, at least 1).
    """
    if engine == "grid":
        if op is None:
            raise ValueError("the grid engine needs the grid op to run on")
        u0 = op.sample(f)
        u_t = grid_apply(op, u0, t, n_steps=n_steps)
        before = weighted_mean(op, u0)
        after = weighted_mean(op, u_t)
        scale = max(1.0, float(np.max(np.abs(u0))))
        return _report(
            "invariance_grid", abs(after - before), 0.0,
            [("roundoff", GRID_EXACT_TOL * scale)],
            {"t": t, "resolution": _cells(op), "n_steps": n_steps,
             "mean_before": before, "mean_after": after, "scale": scale})
    if engine != "monte_carlo":
        raise ValueError("engine must be 'grid' or 'monte_carlo'")
    starts = restricted_sample(domain, n_paths, seed + 1).points
    ends = evolve_starts([domain], starts, 1, t, h, seed)[0]
    diffs = _finite(f.eval(ends)) - _finite(f.eval(starts))
    mean_d, se_d = mean_se(diffs)
    # the step_bias term: projected Euler, two-point in 1D and Gaussian in
    # 2D, is weak order 1/2 where paths press on the boundary, so the
    # stationary mean drifts by O(sqrt(h)) times the gradient scale; the
    # term is kept (and loose) on exact transitions, which take no step
    scale = max(1.0, float(np.max(_finite(f.gradient_norm(starts)))))
    return _report(
        "invariance_mc", abs(mean_d), 0.0,
        [("sampling", Z * se_d),
         ("step_bias", BIAS_CONST * math.sqrt(h) * scale),
         ("eps", _scale_floor(mean_d))],
        {"t": t, "n_paths": n_paths, "h": h, "seed": seed,
         **path_details([domain]), "mean_shift": mean_d, "se": se_d,
         "bias_const": BIAS_CONST, "scale": scale})


def check_decay(f, domain: ConvexDomain, t_list, op: GridOperator) -> list:
    """Exponential L2 decay to the mean on ``op``, one report per time."""
    u0 = op.sample(f)
    m = weighted_mean(op, u0)
    nrm0 = l2_norm(op, u0)
    h = float(op.spacing.max())
    scale = max(1.0, nrm0)
    return [_report(
        "decay", l2_norm(op, grid_apply(op, u0, t) - m), math.exp(-t) * nrm0,
        [("discretization", DECAY_DISC * h * h * scale * max(t, 1.0)),
         ("eps", EPS_FLOOR)],
        {"t": t, "resolution": _cells(op),
         **propagator_details(op, t, "crank_nicolson"),
         "mean": m, "h": h, "disc_const": DECAY_DISC, "scale": scale})
        for t in t_list]


def check_positivity_and_contraction(f, domain: ConvexDomain, t: float,
                                     op: GridOperator) -> InequalityReport:
    """Positivity, range contraction, and L2 contraction on the grid ``op``.

    Uses the matrix-exponential scheme, for which the discrete evolution
    is a convex combination of node values up to roundoff; the reported
    lhs is the worst violation across the three legs. Raises
    ``BelowFloor`` when f < -MAXPRINCIPLE_TOL somewhere on the mesh.
    """
    u0 = op.sample(f)
    if float(u0.min()) < -MAXPRINCIPLE_TOL:
        raise BelowFloor(f"positivity leg needs a nonnegative function, "
                         f"min f = {u0.min():.3g}")
    u_t = grid_apply(op, u0, t, scheme="expm")
    pos_violation = max(0.0, -float(u_t.min()))
    upper_violation = max(0.0, float(u_t.max()) - float(u0.max()))
    lower_violation = max(0.0, float(u0.min()) - float(u_t.min()))
    l2_violation = max(0.0, l2_norm(op, u_t) - l2_norm(op, u0))
    return _report(
        "positivity_contraction",
        max(pos_violation, upper_violation, lower_violation, l2_violation),
        0.0, [("roundoff", MAXPRINCIPLE_TOL)],
        {"t": t, "resolution": _cells(op),
         **propagator_details(op, t, "expm"),
         "min_after": float(u_t.min()), "max_after": float(u_t.max()),
         "min_before": float(u0.min()), "max_before": float(u0.max()),
         "l2_before": l2_norm(op, u0), "l2_after": l2_norm(op, u_t)})


@dataclass(frozen=True)
class EntropyTrace:
    """Entropy of the evolved square along a time grid with its lower bound.

    ``entropy[i]`` is the conditional mean of T(t_i)(f^2) log T(t_i)(f^2);
    ``production[i]`` is the forward difference quotient over
    ``[t_i, t_i+1]``; ``bound[i]`` the decayed initial Fisher-type term.
    The terminal target is m log m for the conditional mean m of f^2.
    """

    times: np.ndarray
    entropy: np.ndarray
    production: np.ndarray
    bound: np.ndarray
    terminal_target: float
    details: dict = field(default_factory=dict)

    def production_margins(self) -> np.ndarray:
        return self.production - self.bound[:-1]

    def is_nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.entropy) <= NONINCREASING_TOL))


def check_entropy(f, domain: ConvexDomain, t_grid, op: GridOperator) -> list:
    """Entropy production bound and terminal limit on ``op``, two reports.

    The first report asks the discrete entropy derivative to stay above
    the decayed dissipation bound at every step; the second asks the
    terminal entropy to sit at m log m up to the grid allowance plus the
    explicitly computed residual of the exponential decay.
    """
    trace = entropy_trace(f, domain, t_grid, op)
    # the trace's mesh and its propagator, summed over its steps
    grid = {key: value for key, value in trace.details.items()
            if key not in ("fisher", "floor", "mean_phi")}
    h = grid["h"]
    scale = max(1.0, abs(trace.entropy[0]), trace.details["fisher"])
    grid.update(disc_const=ENTROPY_DISC, scale=scale)
    disc = ("discretization", ENTROPY_DISC * h * h * scale)
    worst = int(np.argmin(trace.production_margins()))
    t_end = float(trace.times[-1])
    residual = math.exp(-2.0 * t_end) * abs(trace.entropy[0]
                                            - trace.terminal_target)
    return [
        _report("entropy_production", float(trace.bound[worst]),
                float(trace.production[worst]), [disc, ("eps", EPS_FLOOR)],
                {**grid, "worst_step": worst,
                 "n_steps": len(trace.production),
                 "nonincreasing": trace.is_nonincreasing()}),
        _report("entropy_terminal",
                abs(float(trace.entropy[-1]) - trace.terminal_target), 0.0,
                [disc, ("decay_residual", residual), ("eps", EPS_FLOOR)],
                {**grid, "t_end": t_end,
                 "terminal_target": trace.terminal_target,
                 "terminal_entropy": float(trace.entropy[-1])})]


def entropy_trace(f, domain: ConvexDomain, t_grid,
                  op: GridOperator) -> EntropyTrace:
    """Track the entropy of T(t)(f^2) on ``op`` and its dissipation bound
    at the distinct times of ``t_grid``, in increasing order, each evolved
    from the one before: T(t_i - t_i-1) applied to the square at t_i-1.

    Requires f >= ENTROPY_FLOOR on the mesh (raises ``BelowFloor``
    otherwise); the evolved square then stays above ENTROPY_FLOOR^2 by the
    discrete maximum principle, keeping every logarithm finite. ``details``
    name the propagator and, for uniformization, its term counts and
    bounds summed over the steps of positive length.
    """
    times = np.unique(np.asarray(t_grid, dtype=float))
    if len(times) < 2:
        raise ValueError("need at least two distinct time points")
    u0 = op.sample(f)
    if float(u0.min()) < ENTROPY_FLOOR:
        raise BelowFloor(f"min f = {u0.min():.3g} is below the floor "
                         f"{ENTROPY_FLOOR:.3g}")
    phi = u0 * u0
    w = op.prob_weights
    grad_sq = np.asarray(f.gradient_norm(op.nodes)) ** 2
    fisher = 4.0 * float(np.sum(w * grad_sq))
    entropy = np.empty(len(times))
    phi_t, totals = phi, {}
    for i, step in enumerate(np.diff(times, prepend=0.0)):
        phi_t = grid_apply(op, phi_t, float(step), scheme="expm")
        if step > 0:
            for key, value in propagator_details(op, float(step),
                                                 "expm").items():
                totals[key] = (value if key == "propagator"
                               else totals.get(key, 0) + value)
        clipped = np.maximum(phi_t, 1e-300)
        entropy[i] = float(np.sum(w * (clipped * np.log(clipped))))
    production = np.diff(entropy) / np.diff(times)
    bound = -fisher * np.exp(-2.0 * times)
    m = float(np.sum(w * phi))
    return EntropyTrace(
        times=times, entropy=entropy, production=production, bound=bound,
        terminal_target=m * math.log(m),
        details={"resolution": _cells(op), "fisher": fisher,
                 "floor": ENTROPY_FLOOR, "mean_phi": m,
                 "h": float(op.spacing.max()), **totals})
