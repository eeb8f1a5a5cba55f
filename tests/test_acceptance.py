"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and then asserts, so the suite both
documents and enforces the criteria.
"""
import math
import time

import numpy as np
import pytest

from oulab.cylapprox import convergence_study, factorization_check
from oulab.domains import (Ball, HalfspaceIntersection, WholeSpace, half_line,
                           interval, polygon_approximation)
from oulab.engines.grid import grid_apply, grid_build, grid_spectrum
from oulab.engines.mehler import mehler_apply
from oulab.engines.montecarlo import mc_apply_many
from oulab.inequalities import (check_decay, check_entropy,
                                check_gradient_bound, check_invariance,
                                check_logsob, check_poincare,
                                check_positivity_and_contraction,
                                entropy_trace, submultiplicative_reports)
from oulab.expr import const, coordinate, exp, from_profile, sin, tanh, var

SQRT2 = math.sqrt(2.0)

LINE = WholeSpace(1)
HALFLINE = half_line()
INTERVAL = interval(-1.0, 1.0)
QUADRANT = HalfspaceIntersection(normals=[[-1.0, 0.0], [0.0, -1.0]],
                                 offsets=[0.0, 0.0])
BALL = Ball(center=[0.0, 0.0], radius=1.0)

X1 = coordinate(1)
SQ = from_profile(var(1) ** 2, [[1.0]])
TANH1 = from_profile(tanh(var(1)), [[1.0]])
SIN1 = from_profile(sin(var(1)), [[1.0]])
BUMP = from_profile(exp(-(var(1) ** 2)), [[1.0]])
DIAG2 = from_profile(tanh(var(1)), [[1 / SQRT2, 1 / SQRT2]])
X1_2D = coordinate(2, axis=0)
SQ_2D = from_profile(var(1) ** 2, [[1.0, 0.0]])


def conclude(cid, name, ok, detail):
    print(f"ACCEPTANCE {cid:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {cid} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def grids():
    return {
        "line": grid_build(LINE, 800),
        "halfline": grid_build(HALFLINE, 800),
        "interval": grid_build(INTERVAL, 400),
        "quadrant": grid_build(QUADRANT, 40),
        "ball": grid_build(BALL, 40),
    }


def test_criterion_01_spectral_gap(grids):
    t0 = time.time()
    worst_zero = 0.0
    worst_gap = np.inf
    worst_kernel = 0.0
    for name, op in grids.items():
        spec = grid_spectrum(op, 4)
        worst_zero = max(worst_zero, abs(spec.eigenvalues[0]))
        worst_gap = min(worst_gap, spec.gap)
        kernel = spec.kernel_vector / np.mean(spec.kernel_vector)
        worst_kernel = max(worst_kernel, float(np.abs(kernel - 1.0).max()))
    hermite = grid_spectrum(grids["line"], 4).eigenvalues
    hermite_err = float(np.abs(hermite - np.array([0, -1, -2, -3])).max())
    elapsed = time.time() - t0
    ok = (worst_zero < 1e-6 and worst_kernel < 1e-6
          and worst_gap >= 1.0 - 0.02 and hermite_err < 1e-3
          and elapsed < 60.0)
    conclude(1, "spectral gap", ok,
             f"|lambda1|<= {worst_zero:.2e}, gap >= {worst_gap:.4f}, "
             f"kernel dev {worst_kernel:.2e}, whole-line err "
             f"{hermite_err:.2e}, {elapsed:.1f}s")


POINCARE_PANEL = [
    (X1, LINE), (SQ, LINE), (TANH1, LINE), (BUMP, LINE),
    (SIN1, HALFLINE), (X1, HALFLINE),
    (TANH1, INTERVAL), (BUMP, INTERVAL),
    (DIAG2, BALL), (X1_2D, BALL),
    (from_profile(var(1) * var(2), [[1.0, 0.0], [0.0, 1.0]]), QUADRANT),
]


def test_criterion_02_poincare():
    t0 = time.time()
    reports = [check_poincare(f, dom, n_samples=10 ** 6, seed=100 + i)
               for i, (f, dom) in enumerate(POINCARE_PANEL)]
    sharp = reports[0]
    elapsed = time.time() - t0
    ok = (len(reports) >= 10 and all(r.passed for r in reports)
          and abs(sharp.margin) <= 2.0 * sharp.tolerance
          and elapsed < 60.0)
    conclude(2, "poincare", ok,
             f"{len(reports)} pairs, worst margin "
             f"{min(r.margin for r in reports):+.2e}, sharp |margin| "
             f"{abs(sharp.margin):.2e} <= 2*{sharp.tolerance:.2e}, "
             f"{elapsed:.1f}s")


LOGSOB_PANEL = [
    (from_profile(const(2.5), [[1.0]]), INTERVAL),
    (from_profile(const(2.5), [[1.0]]), HALFLINE),
    (from_profile(2 + tanh(var(1)), [[1.0]]), LINE),
    (from_profile(2 + tanh(var(1)), [[1.0]]), HALFLINE),
    (from_profile(1.5 + sin(var(1)), [[1.0]]), INTERVAL),
    (from_profile(exp(0.5 * var(1)), [[1.0]]), LINE),
    (from_profile(0.5 + exp(-(var(1) ** 2)), [[1.0]]), LINE),
    (from_profile(2 + var(1), [[1.0]]), INTERVAL),
    (from_profile(exp(0.3 * var(1)), [[1.0]]), HALFLINE),
    (from_profile(2 + tanh(var(1)), [[1 / SQRT2, 1 / SQRT2]]), BALL),
    (from_profile(1.5 + sin(var(1)), [[1.0, 0.0]]), QUADRANT),
]


def test_criterion_03_log_sobolev():
    reports = [check_logsob(f, dom, n_samples=10 ** 6, seed=200 + i)
               for i, (f, dom) in enumerate(LOGSOB_PANEL)]
    const_margins = [abs(r.margin) for r in reports[:2]]
    ok = (len(reports) >= 10 and all(r.passed for r in reports)
          and max(const_margins) < 1e-9)
    conclude(3, "log-sobolev", ok,
             f"{len(reports)} pairs, worst margin "
             f"{min(r.margin for r in reports):+.2e}, constant equality "
             f"{max(const_margins):.2e} < 1e-9")


def test_criterion_04_gradient_bound(grids):
    reports = []
    for t in (0.1, 0.5, 1.0):
        reports.append(check_gradient_bound(SQ, INTERVAL, t,
                                            op=grids["interval"]))
        reports.append(check_gradient_bound(TANH1, INTERVAL, t,
                                            op=grids["interval"]))
        reports.append(check_gradient_bound(SQ_2D, BALL, t,
                                            op=grids["ball"]))
        reports.append(check_gradient_bound(DIAG2, BALL, t,
                                            op=grids["ball"]))
    line = grid_build(LINE, 400)
    sharp = [check_gradient_bound(X1, LINE, t, op=line)
             for t in (0.1, 0.5, 1.0)]
    sharp_dev = max(abs(r.margin) for r in sharp)
    ok = (all(r.passed for r in reports)
          and all(abs(r.margin) <= r.tolerance for r in sharp))
    conclude(4, "gradient bound", ok,
             f"worst interior margin {min(r.margin for r in reports):+.2e}, "
             f"linear sharp deviation {sharp_dev:.2e} within tolerance "
             f"{sharp[0].tolerance:.2e}")


def test_criterion_05_submultiplicative():
    t0 = time.time()
    pairs = [(X1, TANH1), (X1, X1), (X1, from_profile(const(1.0), [[1.0]])),
             (SQ, SIN1), (TANH1, BUMP)]
    reports = submultiplicative_reports(pairs, INTERVAL, 0.5, n_panel=20,
                                        n_paths=10 ** 5, h=5e-3, seed=300)
    equal_pair, jensen_pair = reports[1], reports[2]
    elapsed = time.time() - t0
    ok = (all(r.passed for r in reports)
          and equal_pair.margin == 0.0
          and jensen_pair.margin >= 0.0
          and all(r.details["points_failing"] == 0 for r in reports))
    conclude(5, "submultiplicative", ok,
             f"5 pairs x 20 points, 1e5 common paths, worst margin "
             f"{min(r.margin for r in reports):+.2e}, g=f margin "
             f"{equal_pair.margin:.1e}, jensen margin "
             f"{jensen_pair.margin:+.2e}, {elapsed:.1f}s")


INVARIANCE_DOMAINS = [("line", LINE, SQ), ("halfline", HALFLINE, SQ),
                      ("interval", INTERVAL, SQ), ("ball", BALL, SQ_2D),
                      ("quadrant", QUADRANT, DIAG2)]


def test_criterion_06_invariance(grids):
    grid_reports = [check_invariance(f, dom, 0.7, engine="grid",
                                     op=grids[name])
                    for name, dom, f in INVARIANCE_DOMAINS]
    mc_reports = [check_invariance(f, dom, 0.5, engine="monte_carlo",
                                   n_paths=10 ** 5, h=2e-3, seed=400 + i)
                  for i, (name, dom, f) in enumerate(INVARIANCE_DOMAINS)]
    worst_grid = max(r.lhs for r in grid_reports)
    ok = worst_grid <= 1e-9 and all(r.passed for r in mc_reports)
    conclude(6, "invariance", ok,
             f"grid drift {worst_grid:.2e} <= 1e-9 on 5 domains, MC drift "
             f"within 3se+bias on 5 domains (worst lhs "
             f"{max(r.lhs for r in mc_reports):.2e})")


def test_criterion_07_positivity_contraction(grids):
    cases = [(SQ, "interval"), (BUMP, "interval"),
             (from_profile(1.5 + sin(var(1)), [[1.0]]), "interval"),
             (from_profile((1 + tanh(var(1))) ** 2, [[1.0]]), "halfline"),
             (SQ_2D, "ball")]
    reports = [check_positivity_and_contraction(f, grids[name].domain, 0.5,
                                                op=grids[name])
               for f, name in cases]
    ok = all(r.passed for r in reports)
    conclude(7, "positivity and contraction", ok,
             f"5 nonnegative functions, worst violation "
             f"{max(r.lhs for r in reports):.2e} <= 1e-10")


def test_criterion_08_decay(grids):
    times = [0.25, 0.5, 1.0, 2.0]
    all_reports = []
    for name, op in grids.items():
        f = SQ if op.dim == 1 else SQ_2D
        all_reports.extend(check_decay(f, op.domain, times, op=op))
    sharp = check_decay(X1, LINE, times, op=grids["line"])
    sharp_dev = max(abs(r.margin) for r in sharp)
    ok = all(r.passed for r in all_reports) and sharp_dev < 1e-4
    conclude(8, "exponential decay", ok,
             f"{len(all_reports)} (domain, t) cases pass, eigenfunction "
             f"equality dev {sharp_dev:.2e} < 1e-4")


def test_criterion_09_factorization():
    t0 = time.time()
    reports = []
    for base in (LINE, INTERVAL):
        for free in (1, 2):
            reports.append(factorization_check(
                TANH1, base, free, 0.5, op=grid_build(base, 400),
                n_points=20, n_paths=15_000, h=5e-3, seed=500 + free))
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports)
    conclude(9, "factorization", ok,
             f"bases {{line, interval}} x free dims {{1, 2}}, 20-point "
             f"panels, worst excess {max(r.lhs for r in reports):.2e} vs "
             f"allowance {reports[0].tolerance:.2e}, {elapsed:.0f}s")


def test_criterion_10_convergence_study():
    t0 = time.time()
    study = convergence_study(BALL, DIAG2, 0.5, [4, 8, 16, 32, 64],
                              n_points=20, paths_per_point=5000, h=2e-3,
                              seed=600)
    errors = study.errors()
    masses = study.excess_masses()
    elapsed = time.time() - t0
    ok = (bool(np.all(np.diff(errors) < 0))
          and bool(np.all(np.diff(masses) < 0))
          and elapsed < 300.0)
    conclude(10, "polygon convergence", ok,
             f"errors {np.array2string(errors, precision=5)} decreasing, "
             f"excess masses strictly decreasing, {elapsed:.0f}s < 300s")


def test_criterion_11_entropy_production():
    t_grid = np.linspace(0.0, 6.0, 40)
    functions = [from_profile(2 + tanh(var(1)), [[1.0]]),
                 from_profile(1.5 + sin(var(1)), [[1.0]]),
                 from_profile(2 + var(1), [[1.0]])]
    worst_step = np.inf
    worst_terminal = 0.0
    ok = True
    for i, f in enumerate(functions):
        op = grid_build(INTERVAL, 400)
        production, terminal = check_entropy(f, INTERVAL, t_grid, op=op)
        trace = entropy_trace(f, INTERVAL, t_grid, op=op)
        step_margins = trace.production_margins()
        ok = ok and production.passed and terminal.passed \
            and bool(np.all(step_margins >= -production.tolerance))
        worst_step = min(worst_step, float(step_margins.min()))
        worst_terminal = max(worst_terminal, terminal.lhs)
    conclude(11, "entropy production", ok,
             f"3 functions x 39 steps, worst step margin {worst_step:+.2e}, "
             f"terminal gap {worst_terminal:.2e} within grid tolerance")


def test_criterion_12_oracle_triangle(grids):
    functions = [X1, SQ, TANH1, SIN1, BUMP]
    points = [0.0, 0.8]
    op = grid_build(LINE, 400)
    h_mc, n_paths = 1e-3, 40_000
    h_g = float(op.spacing[0])
    worst = -np.inf
    ok = True
    for t in (0.2, 1.0):
        dt = t / 200
        grid_vals = {}
        for f in functions:
            u = grid_apply(op, op.sample(f), t)
            grid_vals[id(f)] = [float(np.interp(x, op.nodes[:, 0], u))
                                for x in points]
        for j, x in enumerate(points):
            mcs = mc_apply_many(functions, LINE, t, [x], n_paths, h=h_mc,
                                seed=700 + j)
            for f, mc in zip(functions, mcs):
                me = mehler_apply(f, t, [x], quad_order=60).value
                gr = grid_vals[id(f)][j]
                scale = max(1.0, abs(me))
                checks = [
                    abs(me - gr) <= 20 * (h_g * h_g + dt * dt) * scale,
                    abs(mc.value - me) <= 3 * mc.std_error + 2 * h_mc * scale,
                    abs(mc.value - gr) <= 3 * mc.std_error
                    + (2 * h_mc + 20 * (h_g * h_g + dt * dt)) * scale,
                ]
                ok = ok and all(checks)
                worst = max(worst, abs(me - gr), abs(mc.value - me))
    conclude(12, "oracle triangle", ok,
             f"5 functions x 2 times x 2 points, all pairwise within "
             f"tolerances (worst abs deviation {worst:.2e})")
