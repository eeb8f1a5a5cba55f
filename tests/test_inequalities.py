import math
import os
import subprocess
import sys

import numpy as np
import pytest

from oulab import inequalities
from oulab.cli import run_checks
from oulab.config import load_default_config
from oulab.cylapprox import factorization_check
from oulab.domains import (Ball, HalfspaceIntersection, Product, WholeSpace,
                           half_line, interval, polygon_approximation)
from oulab.engines.grid import (NotFinite, grid_apply, grid_build,
                                propagator_details)
from oulab.engines.mehler import mehler_apply
from oulab.engines.montecarlo import mc_apply_many
from oulab.inequalities import (BelowFloor, InequalityReport, check_decay,
                                check_entropy, check_gradient_bound,
                                check_invariance, check_logsob,
                                check_poincare,
                                check_positivity_and_contraction,
                                entropy_trace, submultiplicative_reports)
from oulab.gauss import Moments, mean_se, restricted_sample
from oulab.expr import const, coordinate, exp, from_profile, sin, tanh, var

LIN = coordinate(1)
SQ = from_profile(var(1) ** 2, [[1.0]])
TANH = from_profile(tanh(var(1)), [[1.0]])
ONE = from_profile(const(1.0), [[1.0]])
IVAL = interval(-1.0, 1.0)
DISC = Ball(center=[0.0, 0.0], radius=1.0)
OFF_DISC = Ball(center=[0.5, -0.3], radius=0.8)
X1_2D = coordinate(2, axis=0)


REPORT_NAMES = {"poincare", "log_sobolev", "gradient_bound",
                "submultiplicative", "invariance_grid", "invariance_mc",
                "decay", "positivity_contraction", "entropy_production",
                "entropy_terminal", "factorization"}


def _assert_recorded_terms(rep):
    # the terms, added left to right from 0.0, are the tolerance, and the
    # rule names them
    terms = rep.details["tolerance_terms"]
    total = 0.0
    for value in terms.values():
        total += value
    assert np.array_equal(total, rep.tolerance)
    assert rep.details["tolerance_rule"] == "+".join(terms)


def test_reports_are_pure_data():
    op = grid_build(IVAL, 100)
    pos = from_profile(2 + tanh(var(1)), [[1.0]])
    reports = [
        check_poincare(LIN, WholeSpace(1), n_samples=5000, seed=1),
        check_logsob(pos, IVAL, n_samples=5000, seed=2),
        check_gradient_bound(TANH, IVAL, 0.5, op=op),
        *submultiplicative_reports([(LIN, TANH)], IVAL, 0.5, n_panel=3,
                                   n_paths=2000, h=5e-3, seed=3),
        check_invariance(SQ, IVAL, 0.5, engine="grid", op=op),
        check_invariance(SQ, IVAL, 0.5, engine="monte_carlo", n_paths=2000,
                         h=5e-3, seed=4),
        *check_decay(SQ, IVAL, [0.5], op=op),
        check_positivity_and_contraction(SQ, IVAL, 0.5, op=op),
        *check_entropy(pos, IVAL, [0.0, 0.5, 1.0], op=op),
        factorization_check(SQ, IVAL, 1, 0.5, op=op, n_points=3,
                            n_paths=2000, h=5e-3, seed=5),
    ]
    assert {rep.name for rep in reports} == REPORT_NAMES
    assert len(reports) == len(REPORT_NAMES)
    for rep in reports:
        assert rep.passed == (rep.rhs - rep.lhs >= -rep.tolerance)
        assert rep.margin == rep.rhs - rep.lhs
        _assert_recorded_terms(rep)


def test_bundled_reports_record_their_tolerance_terms():
    # every report kind but submultiplicative, which no config check runs
    _, reports = run_checks(load_default_config(), 1)
    assert {rep.name for _, rep in reports} == \
        REPORT_NAMES - {"submultiplicative"}
    for _, rep in reports:
        _assert_recorded_terms(rep)


def _var_se(values):
    """Variance and its standard error of one array, as the Poincare check
    reduces a block."""
    return Moments(fourth=True).add(values).var_se()


def _var_se_by_pow(values):
    """``_var_se`` with the fourth moment formed through ``** 4``."""
    n = len(values)
    centered = values - values.mean()
    m2 = float(np.mean(centered ** 2))
    m4 = float(np.mean(centered ** 4))
    se = math.sqrt(max(m4 - m2 * m2 * (n - 3) / (n - 1), 0.0) / n)
    return m2 * n / (n - 1), se


@pytest.mark.parametrize("n", [4, 5, 1000, 200_000])
def test_var_se_matches_the_pow_formula(n):
    rng = np.random.default_rng(n)
    values = 3.0 + rng.standard_normal(n) * np.exp(rng.uniform(-2, 2, n))
    var, se = _var_se(values)
    ref_var, ref_se = _var_se_by_pow(values)
    assert var == ref_var
    assert abs(se - ref_se) <= 1e-13 * ref_se


@pytest.mark.parametrize("n", [1, 2, 3])
def test_var_se_of_three_or_fewer_values_has_no_error(n):
    assert _var_se(np.arange(n, dtype=float) ** 2)[1] == 0.0


def test_sampled_reports_record_their_sampler():
    # in 1D and on a disc the checks integrate and name the rule; on the
    # other 2D shapes they sample
    tanh2 = from_profile(tanh(var(1)), [[1.0, 0.0]])
    for check in (check_poincare, check_logsob):
        for dom in (WholeSpace(1), IVAL):
            rep = check(TANH, dom, n_samples=3000, seed=6)
            assert rep.details["sampler"] == "gauss_legendre"
            assert rep.details["nodes"] == "8x16"
        rep = check(tanh2, DISC, n_samples=3000, seed=6)
        assert rep.details["sampler"] == "polar_gauss_legendre"
        assert rep.details["nodes"] == "8x8x64"
        for dom, sampler in [(WholeSpace(2), "whole_space"),
                             (polygon_approximation(DISC, 64), "rejection")]:
            rep = check(tanh2, dom, n_samples=3000, seed=6)
            sample = restricted_sample(dom, 3000, 6)
            assert rep.details["sampler"] == sampler == sample.sampler
            assert rep.details["acceptance_rate"] == sample.acceptance_rate
            assert rep.details["proposed"] == sample.proposed


ONE_D_DOMAINS = [WholeSpace(1), half_line(), half_line(3.5), IVAL,
                 interval(40.0, 41.0)]


@pytest.mark.parametrize("check", [check_poincare, check_logsob])
def test_one_dimensional_reports_carry_quadrature_and_truncation(check):
    pos = from_profile(2 + tanh(var(1)), [[1.0]])
    for dom in ONE_D_DOMAINS:
        rep = check(pos, dom, n_samples=3000, seed=6)
        assert rep.passed, (dom, rep)
        assert rep.details["tolerance_rule"] == "quadrature+truncation+eps"
        _assert_recorded_terms(rep)
        # a domain the box does not cut has nothing left to truncate
        lo, hi = dom.axis_bounds()
        if np.isfinite(lo).all() and np.isfinite(hi).all():
            assert rep.details["tolerance_terms"]["truncation"] == 0.0
        # the rule reads no seed
        assert check(pos, dom, n_samples=3000, seed=7) == rep


def test_poincare_far_interval_weights_do_not_underflow():
    # exp(-x^2 / 2) underflows to 0 on [40, 41]; relative to x0 = 40 the
    # weights stay of order one. x is nearly exponential there with rate
    # 40: its variance is about 1 / 40^2
    rep = check_poincare(LIN, interval(40.0, 41.0), n_samples=3000, seed=1)
    assert math.isfinite(rep.lhs) and math.isfinite(rep.tolerance)
    assert rep.passed
    assert abs(rep.lhs - 1.0 / 1600.0) < 1e-4
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)


def _assert_polar(rep):
    assert rep.details["sampler"] == "polar_gauss_legendre"
    assert rep.details["tolerance_rule"] == "quadrature+truncation+eps"
    assert rep.details["tolerance_terms"]["truncation"] == 0.0
    _assert_recorded_terms(rep)


def test_poincare_disc_linear_oracle_by_quadrature():
    # x1^2 averages to half of rho^2, whose law on the unit disc has a
    # density proportional to rho exp(-rho^2/2) on [0, 1]; x1 has mean 0
    rep = check_poincare(X1_2D, DISC)
    _assert_polar(rep)
    e = math.exp(-0.5)
    variance = (1.0 - 1.5 * e) / (1.0 - e)
    assert variance == pytest.approx(0.229252958731601, abs=1e-15)
    assert abs(rep.lhs - variance) < 1e-12
    assert abs(rep.rhs - 1.0) < 1e-12
    assert rep.details["tolerance_terms"]["quadrature"] <= 1e-12
    # the rule reads no seed
    assert check_poincare(X1_2D, DISC, n_samples=10, seed=3) == rep


@pytest.mark.parametrize("disc", [DISC, OFF_DISC], ids=["unit", "offcentre"])
def test_disc_constants_are_exact(disc):
    c = from_profile(const(2.5), [[1.0, 0.0]])
    rep = check_poincare(c, disc)
    _assert_polar(rep)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    rep = check_logsob(c, disc)
    _assert_polar(rep)
    assert abs(rep.margin) < 1e-9 and rep.passed


@pytest.mark.parametrize("check", [check_poincare, check_logsob])
def test_far_disc_weights_do_not_underflow(check):
    # exp(-|x|^2 / 2) underflows to 0 on this disc, which rejection cannot
    # sample; relative to its distance from 0 the weights stay of order one
    far = Ball(center=[40.0, 0.0], radius=0.5)
    for f in (X1_2D, from_profile(2 + tanh(var(1)), [[0.6, 0.8]])):
        rep = check(f, far)
        _assert_polar(rep)
        assert all(map(math.isfinite, (rep.lhs, rep.rhs, rep.tolerance)))
        assert rep.passed
        assert rep.details["tolerance_terms"]["quadrature"] \
            <= 1e-12 * max(1.0, abs(rep.lhs), abs(rep.rhs))


def test_offcentre_disc_agrees_with_a_rejection_sample():
    f = from_profile(2 + tanh(var(1)) * exp(0.3 * var(2)),
                     [[0.6, 0.8], [1.0, -1.0]])
    pts = restricted_sample(OFF_DISC, 10 ** 6, 21).points
    values = f.eval(pts)
    grad = f.gradient(pts)
    grad_sq = np.einsum("ij,ij->i", grad, grad)
    sq = values * values
    poincare, logsob = check_poincare(f, OFF_DISC), check_logsob(f, OFF_DISC)
    estimates = [(poincare.lhs, _var_se(values)),
                 (poincare.rhs, mean_se(grad_sq)),
                 (logsob.lhs, mean_se(sq * np.log(np.abs(values)))),
                 (logsob.details["l2_sq"], mean_se(sq))]
    for exact, (estimate, se) in estimates:
        assert abs(exact - estimate) <= 3.0 * se, (exact, estimate, se)


def test_disc_reports_do_not_hang_on_the_blas_thread_count():
    # a BLAS dot over the 16,384 nodes of the disc's doubled rule may split
    # its sum across threads; the reports must read the same bits on one
    # thread or two
    code = ("from oulab.domains import Ball\n"
            "from oulab.expr import from_profile, tanh, var\n"
            "from oulab.inequalities import check_logsob, check_poincare\n"
            "f = from_profile(2 + tanh(var(1)), [[0.6, 0.8]])\n"
            "disc = Ball(center=[0.5, -0.3], radius=0.8)\n"
            "for check in (check_poincare, check_logsob):\n"
            "    rep = check(f, disc)\n"
            "    print(repr(rep.lhs), repr(rep.rhs), repr(rep.tolerance))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = {subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=src,
                             OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n)
    ).stdout for n in ("1", "2")}
    assert len(outs) == 1, outs


# Poincare -------------------------------------------------------------------

def test_poincare_sharp_case_linear_whole_space():
    rep = check_poincare(LIN, WholeSpace(1), n_samples=200_000, seed=3)
    assert rep.passed
    assert abs(rep.margin) <= 2.0 * rep.tolerance  # sharpness witness
    assert abs(rep.rhs - 1.0) < 1e-12


def test_poincare_constant():
    rep = check_poincare(from_profile(const(4.0), [[1.0]]), IVAL,
                         n_samples=2000, seed=4)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


def test_poincare_linear_oracles_by_quadrature():
    # Var(Z) = 1 on the line and Var(|Z|) = 1 - 2/pi on the half-line; the
    # squared derivative is 1 everywhere
    for dom, variance in [(WholeSpace(1), 1.0),
                          (half_line(), 1.0 - 2.0 / math.pi)]:
        rep = check_poincare(LIN, dom)
        assert abs(rep.lhs - variance) < 1e-10
        assert abs(rep.rhs - 1.0) < 1e-10
        assert rep.passed


def test_poincare_half_line_against_half_normal_variance():
    # oracle: Var(|Z|) = 1 - 2/pi for the half-normal law
    rep = check_poincare(LIN, half_line(), n_samples=400_000, seed=5)
    assert rep.passed
    assert abs(rep.lhs - (1.0 - 2.0 / math.pi)) < 0.01
    assert abs(rep.rhs - 1.0) < 1e-12
    assert abs(rep.margin - 2.0 / math.pi) < 0.01


# log-Sobolev ------------------------------------------------------------------

def test_logsob_constant_equality_exact_on_submass_domain():
    rep = check_logsob(from_profile(const(2.5), [[1.0]]), half_line(),
                       n_samples=2000, seed=6)
    assert rep.passed
    assert abs(rep.margin) < 1e-9
    c = 2.5
    assert abs(rep.lhs - c * c * math.log(c)) < 1e-12


def test_logsob_exponential_sharp_case():
    # oracle: for f = e^{x/2}, E[e^{sx}] = e^{s^2/2} gives lhs = rhs = e^{1/2}/2
    f = from_profile(exp(0.5 * var(1)), [[1.0]])
    rep = check_logsob(f, WholeSpace(1), n_samples=500_000, seed=7)
    assert rep.passed
    target = math.exp(0.5) / 2.0
    assert abs(rep.lhs - target) < 0.02
    assert abs(rep.margin) <= 2.0 * rep.tolerance


def test_logsob_exponential_oracle_by_quadrature():
    # lhs = rhs = e^{1/2}/2 on the whole line. f^2 = e^x moves the mass
    # the box at tail 1e-12 leaves out from 1e-12 to about 3e-9, so each
    # side holds to 1e-10 beyond what the truncation term measured
    f = from_profile(exp(0.5 * var(1)), [[1.0]])
    rep = check_logsob(f, WholeSpace(1))
    target = math.exp(0.5) / 2.0
    truncation = rep.details["tolerance_terms"]["truncation"]
    assert abs(rep.lhs - target) + abs(rep.rhs - target) \
        < truncation + 1e-10
    assert truncation < 1e-8
    assert rep.passed


def test_logsob_positive_tanh_on_halfplane():
    halfplane = HalfspaceIntersection(normals=[[1.0, 0.0]], offsets=[0.0])
    f = from_profile(1 + tanh(var(1)), [[1.0, 0.0]])
    rep = check_logsob(f, halfplane, n_samples=200_000, seed=8)
    assert rep.passed
    assert rep.details["clipped"] == 0


# gradient bound ---------------------------------------------------------------

def test_gradient_bound_sharp_for_linear():
    rep = check_gradient_bound(LIN, WholeSpace(1), 0.5,
                               op=grid_build(WholeSpace(1), 400))
    assert rep.passed
    assert abs(rep.margin) <= rep.tolerance


def test_gradient_bound_time_zero_equality():
    rep = check_gradient_bound(SQ, IVAL, 0.0, op=grid_build(IVAL, 300))
    assert rep.passed
    assert abs(rep.margin) <= rep.tolerance


def test_gradient_bound_square_on_interval():
    rep = check_gradient_bound(SQ, IVAL, 0.3, op=grid_build(IVAL, 300))
    assert rep.passed and rep.margin > 0


# submultiplicativity ------------------------------------------------------------

def test_submultiplicative_equal_pair_is_exact():
    rep, = submultiplicative_reports([(LIN, LIN)], IVAL, 0.5, n_panel=4,
                                     n_paths=4000, h=5e-3, seed=9)
    assert rep.passed and rep.margin == 0.0


def test_submultiplicative_jensen_case():
    rep, = submultiplicative_reports([(LIN, ONE)], IVAL, 0.5, n_panel=4,
                                     n_paths=4000, h=5e-3, seed=10)
    assert rep.passed and rep.margin >= 0.0  # empirical variance >= 0


def test_submultiplicative_mixed_pair_with_grid_cross_check():
    rep, = submultiplicative_reports([(LIN, TANH)], IVAL, 0.5, n_panel=3,
                                     n_paths=40_000, h=2e-3, seed=11)
    assert rep.passed
    # cross-check one MC product estimate against the grid engine
    op = grid_build(IVAL, 300)
    prod = from_profile(var(1) * tanh(var(1)), [[1.0]])
    u = grid_apply(op, op.sample(prod), 0.5)
    est, = mc_apply_many([prod], IVAL, 0.5, [0.0], n_paths=40_000, h=2e-3,
                         seed=12)
    grid_val = float(np.interp(0.0, op.nodes[:, 0], u))
    assert abs(est.value - grid_val) <= 3 * est.std_error \
        + 1.0 * math.sqrt(2e-3)


def test_submultiplicative_reports_share_endpoints():
    pairs = [(LIN, TANH), (LIN, LIN), (SQ, ONE)]
    reports = submultiplicative_reports(pairs, IVAL, 0.5, n_panel=3,
                                        n_paths=3000, h=5e-3, seed=13)
    assert len(reports) == 3
    assert all(rep.passed for rep in reports)
    assert all(rep.details["transition"] == "euler"
               and rep.details["increments"] == "two_point"
               for rep in reports)


def test_monte_carlo_checks_refuse_non_finite_values():
    # exp(800 x) is inf for x >= 0.89, which paths on [-1, 1] reach: a
    # typed error, not a report of nan or inf
    steep = from_profile(exp(800 * var(1)), [[1.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(NotFinite):
            submultiplicative_reports([(LIN, steep)], IVAL, 0.5, n_panel=3,
                                      n_paths=2000, h=5e-3, seed=15)
        with pytest.raises(NotFinite):
            check_invariance(steep, IVAL, 0.5, engine="monte_carlo",
                             n_paths=2000, h=5e-3, seed=16)


# invariance ---------------------------------------------------------------------

def test_invariance_grid_exact():
    rep = check_invariance(SQ, IVAL, 1.0, engine="grid",
                           op=grid_build(IVAL, 300))
    assert rep.passed and rep.lhs < 1e-9
    with pytest.raises(ValueError, match="needs the grid"):
        check_invariance(SQ, IVAL, 1.0, engine="grid")


@pytest.mark.parametrize("c", [1e3, 1e6, 1e9])
def test_invariance_grid_roundoff_scales_with_the_function(c, monkeypatch):
    # the evolution is linear, so its mean drifts by roundoff times max |f|
    op = grid_build(IVAL, 200)
    f = from_profile(c * var(1) ** 2, [[1.0]])
    rep = check_invariance(f, IVAL, 1.0, engine="grid", op=op)
    scale = float(np.abs(op.sample(f)).max())
    assert rep.details["scale"] == scale
    assert rep.tolerance == inequalities.GRID_EXACT_TOL * scale
    assert rep.passed
    # a mean shifted by ten times the allowance still fails
    shift = 10.0 * rep.tolerance
    monkeypatch.setattr(inequalities, "grid_apply",
                        lambda *args, **kwargs:
                        grid_apply(*args, **kwargs) + shift)
    assert not check_invariance(f, IVAL, 1.0, engine="grid", op=op).passed


def test_invariance_mc_constant_is_exact():
    rep = check_invariance(ONE, IVAL, 0.5, engine="monte_carlo",
                           n_paths=2000, h=5e-3, seed=14)
    assert rep.passed and rep.lhs == 0.0


def test_invariance_mc_whole_space_square():
    # oracle: integral of T(t) x^2 over gamma is e^{-2t} + 1 - e^{-2t} = 1
    rep = check_invariance(SQ, WholeSpace(1), 0.7, engine="monte_carlo",
                           n_paths=100_000, h=1e-3, seed=15)
    assert rep.passed and rep.details["transition"] == "exact"
    assert rep.details["increments"] == "gaussian"
    val = mehler_apply(SQ, 0.7, [0.0]).value  # T(t)x^2 at 0
    assert abs(val - (1 - math.exp(-1.4))) < 1e-12


def test_invariance_symmetric_interval():
    rep = check_invariance(LIN, IVAL, 1.0, engine="monte_carlo",
                           n_paths=50_000, h=2e-3, seed=16)
    assert rep.passed and rep.details["transition"] == "euler"
    assert rep.details["increments"] == "two_point"
    grid_rep = check_invariance(LIN, IVAL, 1.0, engine="grid",
                                op=grid_build(IVAL, 300))
    assert grid_rep.lhs < 1e-9


# decay ---------------------------------------------------------------------------

def test_decay_sharp_eigenfunction():
    reports = check_decay(LIN, WholeSpace(1), [0.25, 1.0],
                          op=grid_build(WholeSpace(1), 800))
    for rep in reports:
        assert rep.passed
        assert abs(rep.margin) < 1e-4


def test_decay_constant_function():
    rep = check_decay(ONE, IVAL, [0.5], op=grid_build(IVAL, 200))[0]
    assert rep.lhs < 1e-10 and rep.passed


def test_decay_beats_the_bound_increasingly():
    reports = check_decay(SQ, half_line(), [0.5, 1.0, 2.0],
                          op=grid_build(half_line(), 400))
    assert all(rep.passed for rep in reports)
    # the spectral gap here is 2 > 1, so lhs/rhs shrinks like e^{-t}
    ratios = [rep.lhs / rep.rhs for rep in reports]
    assert ratios[0] > ratios[1] > ratios[2]


# positivity and contraction ------------------------------------------------------

def test_positivity_constant():
    rep = check_positivity_and_contraction(ONE, IVAL, 0.7,
                                           op=grid_build(IVAL, 200))
    assert rep.passed
    assert rep.details["min_after"] == pytest.approx(1.0, abs=1e-10)
    assert rep.details["max_after"] == pytest.approx(1.0, abs=1e-10)


def test_positivity_square_on_interval():
    rep = check_positivity_and_contraction(SQ, IVAL, 0.5,
                                           op=grid_build(IVAL, 300))
    assert rep.passed
    assert rep.details["min_after"] >= -1e-10


def test_positivity_rejects_signed_function():
    with pytest.raises(ValueError):
        check_positivity_and_contraction(LIN, IVAL, 0.5,
                                         op=grid_build(IVAL, 100))


def test_signed_function_is_below_the_floor():
    with pytest.raises(BelowFloor, match="nonnegative"):
        check_positivity_and_contraction(LIN, IVAL, 0.5,
                                         op=grid_build(IVAL, 100))


def test_grid_checks_record_their_propagator():
    bump = from_profile(exp(-(var(1) ** 2)), [[1.0]])
    line = grid_build(WholeSpace(1), 800)
    rep = check_positivity_and_contraction(bump, line.domain, 0.5, op=line)
    assert rep.passed and rep.details["propagator"] == "uniformized"
    assert rep.details["poisson_terms"] > 1000
    assert rep.details["roundoff_bound"] + rep.details["truncation_bound"] \
        < rep.tolerance
    rep = check_positivity_and_contraction(bump, IVAL, 0.5,
                                           op=grid_build(IVAL, 200))
    assert rep.details["propagator"] == "eigh"
    assert "poisson_terms" not in rep.details
    assert check_decay(SQ, IVAL, [0.5], op=grid_build(IVAL, 200))[0] \
        .details["propagator"] == "crank_nicolson"
    f = from_profile(2 + tanh(var(1)), [[1.0]])
    trace = entropy_trace(f, IVAL, [0.0, 1.0], op=grid_build(IVAL, 200))
    assert trace.details["propagator"] == "eigh"
    half = grid_build(half_line(), 400)
    trace = entropy_trace(f, half.domain, [0.0, 0.5, 1.0], op=half)
    assert trace.details["propagator"] == "uniformized"
    # the counts and the bounds are summed over the two steps of 0.5; the
    # step from 0 to the first time, 0, counts nothing
    step = propagator_details(half, 0.5, "expm")
    for key in ("poisson_terms", "truncation_bound", "roundoff_bound"):
        assert trace.details[key] == step[key] + step[key]
    for rep in check_entropy(f, half.domain, [0.0, 0.5, 1.0], op=half):
        assert rep.details["poisson_terms"] == 2 * step["poisson_terms"]
    # criterion 07's disc: a 2D expm always uniformizes
    disc = grid_build(DISC, 40)
    rep = check_positivity_and_contraction(
        from_profile(var(1) ** 2, [[1.0, 0.0]]), DISC, 0.5, op=disc)
    assert rep.passed and rep.details["propagator"] == "uniformized"



def test_grid_checks_record_the_grid_they_ran_on():
    disc = Ball(center=[0.0, 0.0], radius=1.0)
    sq2 = from_profile(var(1) ** 2, [[1.0, 0.0]])
    rep = check_invariance(sq2, disc, 0.5, engine="grid",
                           op=grid_build(disc, 60))
    assert rep.details["resolution"] == 60
    rep = check_invariance(sq2, disc, 0.5, engine="grid",
                           op=grid_build(disc, [40, 60]))
    assert rep.details["resolution"] == [40, 60]
    ival = grid_build(IVAL, 120)
    bump = from_profile(exp(-(var(1) ** 2)), [[1.0]])
    f = from_profile(2 + tanh(var(1)), [[1.0]])
    reports = [check_gradient_bound(SQ, IVAL, 0.3, op=ival),
               *check_decay(SQ, IVAL, [0.5], op=ival),
               check_positivity_and_contraction(bump, IVAL, 0.5, op=ival),
               *check_entropy(f, IVAL, [0.0, 0.5], op=ival),
               entropy_trace(f, IVAL, [0.0, 0.5], op=ival)]
    assert [rep.details["resolution"] for rep in reports] == [120] * 6

# entropy --------------------------------------------------------------------------

def test_entropy_trace_constant_function():
    trace = entropy_trace(from_profile(const(2.0), [[1.0]]), IVAL,
                          np.linspace(0, 2, 9), op=grid_build(IVAL, 100))
    phi_mean = 4.0
    assert np.abs(trace.entropy - phi_mean * math.log(phi_mean)).max() < 1e-9
    assert np.abs(trace.production).max() < 1e-8
    assert np.abs(trace.bound).max() < 1e-12
    assert trace.is_nonincreasing()


def test_entropy_trace_ignores_a_repeated_time():
    f = from_profile(2 + tanh(var(1)), [[1.0]])
    op = grid_build(IVAL, 100)
    once = entropy_trace(f, IVAL, [0.0, 1.0, 0.5], op=op)
    twice = entropy_trace(f, IVAL, [1.0, 0.0, 1.0, 0.5], op=op)
    for name in ("times", "entropy", "production", "bound"):
        assert np.array_equal(getattr(once, name), getattr(twice, name))
    assert once.terminal_target == twice.terminal_target
    assert once.details == twice.details
    assert np.all(np.isfinite(twice.production))


def test_entropy_trace_positive_affine():
    f = from_profile(2 + var(1), [[1.0]])  # values in (1, 3) on the interval
    trace = entropy_trace(f, IVAL, np.linspace(0, 6, 25),
                          op=grid_build(IVAL, 300))
    assert trace.is_nonincreasing()
    assert np.all(trace.production_margins() >= -1e-6)
    assert abs(trace.entropy[-1] - trace.terminal_target) < 1e-4


def test_chained_entropy_trace_matches_evolving_each_time_from_zero():
    cfg = load_default_config()
    times, = [c["times"] for c in cfg.checks if c["kind"] == "entropy"]
    f = from_profile(2 + tanh(var(1)), [[1.0]])
    op = grid_build(half_line(), 800)
    trace = entropy_trace(f, op.domain, times, op=op)
    assert trace.details["propagator"] == "uniformized"
    phi = op.sample(f) ** 2
    w = op.prob_weights
    # every evolved square lies in [min phi, max phi] = [1, 9], where
    # x log x moves by at most |1 + log x| <= 1 + log 9 per unit of x
    slope = 1.0 + math.log(float(phi.max()))
    chained, terms = 0.0, 0
    for i, (t, step) in enumerate(zip(times, np.diff(times, prepend=0.0))):
        own = 0.0
        if step > 0:
            info = propagator_details(op, step, "expm")
            chained += info["truncation_bound"] + info["roundoff_bound"]
            terms += info["poisson_terms"]
            info = propagator_details(op, t, "expm")
            own = info["truncation_bound"] + info["roundoff_bound"]
        ref = grid_apply(op, phi, t, scheme="expm")
        expected = float(np.sum(w * (ref * np.log(ref))))
        # both sums round each term and add n of them pairwise
        allowed = ((chained + own) * float(phi.max()) * slope
                   + 2.0 * math.log2(op.n_nodes) * 2.0 ** -53
                   * float(np.sum(w * np.abs(ref * np.log(ref)))))
        assert abs(trace.entropy[i] - expected) <= allowed
    assert trace.details["poisson_terms"] == terms


def test_entropy_reports():
    f = from_profile(2 + tanh(var(1)), [[1.0]])
    production, terminal = check_entropy(f, IVAL, np.linspace(0, 5, 26),
                                         op=grid_build(IVAL, 300))
    assert production.passed and terminal.passed
    assert production.details["nonincreasing"]


def test_entropy_floor_guard():
    with pytest.raises(BelowFloor):
        entropy_trace(LIN, IVAL, [0.0, 1.0], op=grid_build(IVAL, 100))


def test_entropy_consistent_with_logsob_margin():
    # integrating the dissipation bound reproduces the sampled margin
    f = from_profile(2 + tanh(var(1)), [[1.0]])
    trace = entropy_trace(f, IVAL, np.linspace(0, 8, 17),
                          op=grid_build(IVAL, 400))
    trace_margin = 0.5 * (0.5 * trace.details["fisher"]
                          - trace.entropy[0] + trace.terminal_target)
    rep = check_logsob(f, IVAL, n_samples=400_000, seed=17)
    assert abs(rep.margin - trace_margin) <= rep.tolerance + 1e-3


def test_report_str_readable():
    rep = InequalityReport(name="demo", lhs=1.0, rhs=2.0, tolerance=0.1)
    assert "demo" in str(rep) and "pass" in str(rep)
