"""Checkable reports for the functional inequalities of the semigroup.

Every check produces an ``InequalityReport`` whose pass flag is a pure
function of (lhs, rhs, tolerance): pass iff ``rhs - lhs >= -tolerance``.
Tolerances are built from three times the propagated standard errors of
the Monte Carlo estimates plus explicit discretization allowances; the
construction is recorded in the report details so a failure points at a
real violation rather than noise. Grid checks run on the grid ``op`` they
are given; ``config.grid_operator`` builds the CLI's grids.

Sampled integrals are means against the Gaussian measure conditioned on
the domain (what rejection samples estimate); on the whole space these are
plain Gaussian integrals. The variance/energy comparison is invariant
under that normalization, and the entropy inequality is stated in the
normalized form, which is the version that is exact for constants on
domains of any mass.

The sampled checks (Poincare, log-Sobolev) stream their sample: f, its
gradient and the integrands are evaluated on the blocks of at most
``gauss.BLOCK_ROWS`` rows that ``gauss._sample_blocks`` yields, and each
block is reduced at once into a ``gauss.Moments`` accumulator. No array
of ``n_samples`` rows is built, and the rows are those of
``restricted_sample``; only the order of summation differs from a
reduction of one whole array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import ConvexDomain
from .gauss import (Moments, _sample_blocks, _sampler_details, mean_se,
                    restricted_sample)
from .engines.grid import (grid_apply, fd_gradient, weighted_mean, l2_norm,
                           propagator_details, GridOperator, DEFAULT_CN_STEPS)
from .engines.montecarlo import evolve_starts, path_details, DEFAULT_STEP

EPS_FLOOR = 1e-12
GRID_EXACT_TOL = 1e-9
MAXPRINCIPLE_TOL = 1e-10
LOG_CLIP = 1e-12  # |f| is clipped here inside the log-Sobolev logarithm
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


def _cells(op: GridOperator):
    """Cells per axis of the mesh, one number when all axes agree."""
    cells = [len(axis) for axis in op.axes]
    return cells[0] if len(set(cells)) == 1 else cells


def check_poincare(f, domain: ConvexDomain, n_samples: int = 100_000,
                   seed: int = 0) -> InequalityReport:
    """Variance of f bounded by the mean squared gradient norm (constant one)."""
    values, grad_sq = Moments(fourth=True), Moments(fourth=False)
    for pts, accepted, proposed in _sample_blocks(domain, n_samples, seed):
        values.add(np.asarray(f.eval(pts), dtype=float))
        grad = f.gradient(pts)
        grad_sq.add(np.einsum("ij,ij->i", grad, grad))
    lhs, se_lhs = values.var_se()
    rhs, se_rhs = grad_sq.mean_se()
    tol = 3.0 * (se_lhs + se_rhs) + _scale_floor(lhs, rhs)
    return InequalityReport(
        name="poincare", lhs=lhs, rhs=rhs, tolerance=tol,
        details={"n_samples": n_samples, "seed": seed, "se_lhs": se_lhs,
                 "se_rhs": se_rhs,
                 **_sampler_details(domain, accepted, proposed),
                 "tolerance_rule": "3*(se_lhs+se_rhs)+eps"})


def check_logsob(f, domain: ConvexDomain, n_samples: int = 100_000,
                 seed: int = 0) -> InequalityReport:
    """Entropy of f^2 bounded by gradient energy plus the norm term.

    Stated with log|f| on both sides; all integrals are conditional means,
    so the constant case is an exact equality on every domain. Values of
    |f| below ``LOG_CLIP`` are clipped inside the logarithm (0 log 0 = 0)
    and the clip count is reported.
    """
    entropy, grad_sq, square = (Moments(fourth=False) for _ in range(3))
    clipped = 0
    for pts, accepted, proposed in _sample_blocks(domain, n_samples, seed):
        vals = np.asarray(f.eval(pts), dtype=float)
        grad = f.gradient(pts)
        absv = np.abs(vals)
        clipped += int(np.count_nonzero(absv < LOG_CLIP))
        logs = np.log(np.maximum(absv, LOG_CLIP))
        sq = vals * vals
        entropy.add(np.where(absv > 0.0, sq * logs, 0.0))
        grad_sq.add(np.einsum("ij,ij->i", grad, grad))
        square.add(sq)
    lhs, se_lhs = entropy.mean_se()
    energy, se_energy = grad_sq.mean_se()
    nrm2, se_nrm2 = square.mean_se()
    norm_term = 0.5 * nrm2 * math.log(nrm2) if nrm2 > 0 else 0.0
    se_norm = abs(0.5 * (math.log(nrm2) + 1.0)) * se_nrm2 if nrm2 > 0 else 0.0
    rhs = energy + norm_term
    tol = 3.0 * (se_lhs + se_energy + se_norm) + _scale_floor(lhs, rhs)
    return InequalityReport(
        name="log_sobolev", lhs=lhs, rhs=rhs, tolerance=tol,
        details={"n_samples": n_samples, "seed": seed, "clipped": clipped,
                 "energy": energy, "l2_sq": nrm2,
                 **_sampler_details(domain, accepted, proposed),
                 "tolerance_rule": "3*(se_lhs+se_energy+se_norm)+eps"})


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
    tol = GRAD_DISC * (h * h + dt * dt) * scale + EPS_FLOOR
    return InequalityReport(
        name="gradient_bound", lhs=float(lhs_nodes[worst]),
        rhs=float(rhs_nodes[worst]), tolerance=tol,
        details={"t": t, "resolution": _cells(op), "h": h, "dt": dt,
                 "n_interior": int(interior.sum()), "disc_const": GRAD_DISC,
                 "tolerance_rule": "disc_const*(h^2+dt^2)*scale+eps"})


def submultiplicative_reports(pairs, domain: ConvexDomain, t: float,
                              x_panel=None, n_panel: int = 20,
                              n_paths: int = 100_000, h: float = DEFAULT_STEP,
                              seed: int = 0) -> list:
    """Squared mean of a product versus the product of squared means.

    One shared endpoint cloud per panel point serves every (f, g) pair and
    all three integrands, so the comparison is by common random numbers.
    Standard errors are propagated through the empirical covariance of the
    three payoffs.
    """
    if x_panel is None:
        x_panel = restricted_sample(domain, n_panel, seed + 1).points
    x_panel = np.atleast_2d(np.asarray(x_panel, dtype=float))
    n_points = len(x_panel)
    starts = np.repeat(x_panel, n_paths, axis=0)
    ends = evolve_starts([domain], starts, t, h, seed=seed)[0]
    per_pair = [[] for _ in pairs]
    for p, (f, g) in enumerate(pairs):
        fv = np.asarray(f.eval(ends), dtype=float).reshape(n_points, n_paths)
        gv = np.asarray(g.eval(ends), dtype=float).reshape(n_points, n_paths)
        for i in range(n_points):
            payoffs = np.stack([fv[i] * gv[i], fv[i] * fv[i], gv[i] * gv[i]])
            a, b, c = payoffs.mean(axis=1)
            cov = np.cov(payoffs)
            grad = np.array([-2.0 * a, c, b])
            var_s = float(grad @ cov @ grad) / n_paths
            lhs, rhs = a * a, b * c
            tol = 3.0 * math.sqrt(max(var_s, 0.0)) + _scale_floor(lhs, rhs)
            per_pair[p].append((lhs, rhs, tol))
    reports = []
    for p, rows in enumerate(per_pair):
        worst = min(range(len(rows)), key=lambda i: rows[i][1] - rows[i][0] + rows[i][2])
        lhs, rhs, tol = rows[worst]
        n_fail = sum(1 for (l, r, tl) in rows if r - l < -tl)
        reports.append(InequalityReport(
            name="submultiplicative", lhs=lhs, rhs=rhs, tolerance=tol,
            details={"t": t, "n_panel": len(x_panel), "n_paths": n_paths,
                     "h": h, "seed": seed, **path_details([domain]),
                     "worst_point": worst, "points_failing": n_fail,
                     "tolerance_rule": "3*propagated_se+eps"}))
    return reports


def check_invariance(f, domain: ConvexDomain, t: float,
                     engine: str = "monte_carlo", n_paths: int = 100_000,
                     h: float = DEFAULT_STEP, n_steps: int = DEFAULT_CN_STEPS,
                     seed: int = 0,
                     op: GridOperator | None = None) -> InequalityReport:
    """Two-sided check that the mean of f is preserved by the evolution.

    The Monte Carlo form starts one path from each stationary sample and
    compares the per-path difference of f at the two ends (the differences
    share noise, so the tolerance is tight). The grid form needs the grid
    ``op`` and holds to solver roundoff by the operator's weighted symmetry.
    """
    if engine == "grid":
        if op is None:
            raise ValueError("the grid engine needs the grid op to run on")
        u0 = op.sample(f)
        u_t = grid_apply(op, u0, t, n_steps=n_steps)
        before = weighted_mean(op, u0)
        after = weighted_mean(op, u_t)
        lhs = abs(after - before)
        return InequalityReport(
            name="invariance_grid", lhs=lhs, rhs=0.0, tolerance=GRID_EXACT_TOL,
            details={"t": t, "resolution": _cells(op), "n_steps": n_steps,
                     "mean_before": before, "mean_after": after,
                     "tolerance_rule": "solver roundoff"})
    if engine != "monte_carlo":
        raise ValueError("engine must be 'grid' or 'monte_carlo'")
    starts = restricted_sample(domain, n_paths, seed + 1).points
    ends = evolve_starts([domain], starts, t, h, seed=seed)[0]
    diffs = (np.asarray(f.eval(ends), dtype=float)
             - np.asarray(f.eval(starts), dtype=float))
    mean_d, se_d = mean_se(diffs)
    # projected Euler, two-point in 1D and Gaussian in 2D, is weak order
    # 1/2 where paths press on the boundary, so the stationary mean drifts
    # by O(sqrt(h)) times the gradient scale; the allowance is kept (and
    # loose) on exact transitions, which take no step
    grad_scale = max(1.0, float(np.max(f.gradient_norm(starts))))
    allowance = BIAS_CONST * math.sqrt(h) * grad_scale
    tol = 3.0 * se_d + allowance + _scale_floor(mean_d)
    return InequalityReport(
        name="invariance_mc", lhs=abs(mean_d), rhs=0.0, tolerance=tol,
        details={"t": t, "n_paths": n_paths, "h": h, "seed": seed,
                 **path_details([domain]), "mean_shift": mean_d,
                 "se": se_d, "bias_const": BIAS_CONST,
                 "bias_allowance": allowance,
                 "tolerance_rule": "3*se(paired diff)+bias_const*sqrt(h)*scale+eps"})


def check_decay(f, domain: ConvexDomain, t_list, op: GridOperator) -> list:
    """Exponential L2 decay to the mean on ``op``, one report per time."""
    u0 = op.sample(f)
    m = weighted_mean(op, u0)
    nrm0 = l2_norm(op, u0)
    h = float(op.spacing.max())
    reports = []
    for t in t_list:
        u_t = grid_apply(op, u0, t)
        lhs = l2_norm(op, u_t - m)
        rhs = math.exp(-t) * nrm0
        tol = DECAY_DISC * h * h * max(1.0, nrm0) * max(t, 1.0) + EPS_FLOOR
        reports.append(InequalityReport(
            name="decay", lhs=lhs, rhs=rhs, tolerance=tol,
            details={"t": t, "resolution": _cells(op),
                     **propagator_details(op, t), "mean": m, "h": h,
                     "tolerance_rule": "disc_const*h^2*scale*max(t,1)+eps"}))
    return reports


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
    lhs = max(pos_violation, upper_violation, lower_violation, l2_violation)
    return InequalityReport(
        name="positivity_contraction", lhs=lhs, rhs=0.0,
        tolerance=MAXPRINCIPLE_TOL,
        details={"t": t, "resolution": _cells(op),
                 **propagator_details(op, t, "expm"),
                 "min_after": float(u_t.min()), "max_after": float(u_t.max()),
                 "min_before": float(u0.min()), "max_before": float(u0.max()),
                 "l2_before": l2_norm(op, u0), "l2_after": l2_norm(op, u_t),
                 "tolerance_rule": "fixed roundoff budget"})


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
    # the trace's mesh and its propagator at the largest time
    grid = {key: value for key, value in trace.details.items()
            if key not in ("fisher", "floor", "mean_phi")}
    h = grid["h"]
    scale = max(1.0, abs(trace.entropy[0]), trace.details["fisher"])
    worst = int(np.argmin(trace.production - trace.bound[:-1]))
    production_report = InequalityReport(
        name="entropy_production", lhs=float(trace.bound[worst]),
        rhs=float(trace.production[worst]),
        tolerance=ENTROPY_DISC * h * h * scale + EPS_FLOOR,
        details={**grid, "worst_step": worst, "n_steps": len(trace.production),
                 "nonincreasing": trace.is_nonincreasing(),
                 "tolerance_rule": "disc_const*h^2*scale+eps"})
    t_end = float(trace.times[-1])
    residual = math.exp(-2.0 * t_end) * abs(trace.entropy[0]
                                            - trace.terminal_target)
    terminal_report = InequalityReport(
        name="entropy_terminal",
        lhs=abs(float(trace.entropy[-1]) - trace.terminal_target), rhs=0.0,
        tolerance=ENTROPY_DISC * h * h * scale + residual + EPS_FLOOR,
        details={**grid, "t_end": t_end,
                 "terminal_target": trace.terminal_target,
                 "terminal_entropy": float(trace.entropy[-1]),
                 "decay_residual": residual,
                 "tolerance_rule": "disc_const*h^2*scale+residual+eps"})
    return [production_report, terminal_report]


def entropy_trace(f, domain: ConvexDomain, t_grid,
                  op: GridOperator) -> EntropyTrace:
    """Track the entropy of T(t)(f^2) on ``op`` and its dissipation bound.

    Requires f >= ENTROPY_FLOOR on the mesh (raises ``BelowFloor``
    otherwise); the evolved square then stays above ENTROPY_FLOOR^2 by the
    discrete maximum principle, keeping every logarithm finite. ``details``
    name the propagator, with its term count and bounds at the largest
    time.
    """
    times = np.asarray(sorted(t_grid), dtype=float)
    if len(times) < 2:
        raise ValueError("need at least two time points")
    u0 = op.sample(f)
    if float(u0.min()) < ENTROPY_FLOOR:
        raise BelowFloor(f"min f = {u0.min():.3g} is below the floor "
                         f"{ENTROPY_FLOOR:.3g}")
    phi = u0 * u0
    w = op.prob_weights
    fisher = 4.0 * float(w @ np.asarray(f.gradient_norm(op.nodes)) ** 2)
    entropy = np.empty(len(times))
    for i, t in enumerate(times):
        phi_t = grid_apply(op, phi, float(t), scheme="expm")
        phi_t = np.maximum(phi_t, 1e-300)
        entropy[i] = float(w @ (phi_t * np.log(phi_t)))
    production = np.diff(entropy) / np.diff(times)
    bound = -fisher * np.exp(-2.0 * times)
    m = float(w @ phi)
    return EntropyTrace(
        times=times, entropy=entropy, production=production, bound=bound,
        terminal_target=m * math.log(m),
        details={"resolution": _cells(op), "fisher": fisher,
                 "floor": ENTROPY_FLOOR, "mean_phi": m,
                 "h": float(op.spacing.max()),
                 **propagator_details(op, float(times[-1]), "expm")})
