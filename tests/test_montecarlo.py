import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import kstest, norm

from oulab.domains import (Ball, NoConvergence, Product, Slab, WholeSpace,
                           half_line, interval, polygon_approximation)
from oulab.engines import montecarlo
from oulab.engines.grid import grid_apply, grid_build
from oulab.engines.mehler import mehler_apply
from oulab.engines.montecarlo import (_schedule, evolve_starts,
                                      mc_apply_many, path_details)
from oulab.expr import const, coordinate, from_profile, var
from oulab.gauss import mean_se
from oulab.inequalities import BIAS_CONST


def test_time_zero_is_identity():
    x0 = np.array([0.3, -0.5])
    ends = evolve_starts([Ball(center=[0.0, 0.0], radius=1.0)], x0[None, :],
                         50, 0.0, 1e-3, 1)[0]
    assert np.array_equal(ends, np.tile(x0, (50, 1)))


def test_endpoints_stay_in_the_domain():
    for dom in (interval(-1.0, 1.0), half_line(),
                Ball(center=[0.0, 0.0], radius=1.0),
                Product(interval(-1.0, 1.0), 1), Product(half_line(), 1)):
        x0 = np.zeros((1, dom.dim)) + 0.25
        ends = evolve_starts([dom], x0, 5000, 1.0, 5e-3, 2)[0]
        assert dom.contains(ends).all()


def test_same_seed_reproduces():
    dom = interval(-1.0, 1.0)
    a = evolve_starts([dom], np.zeros((1, 1)), 1000, 0.5, 2e-3, 9)[0]
    b = evolve_starts([dom], np.zeros((1, 1)), 1000, 0.5, 2e-3, 9)[0]
    assert np.array_equal(a, b)
    c = evolve_starts([dom], np.zeros((1, 1)), 1000, 0.5, 2e-3, 10)[0]
    assert not np.array_equal(a, c)


def _free_law(x0, t):
    """Mean and standard deviation of the free OU transition."""
    return math.exp(-t) * x0, math.sqrt(1 - math.exp(-2 * t))


def test_whole_space_endpoint_law():
    # oracle: the exact transition is N(e^{-t} x0, 1 - e^{-2t}) per
    # coordinate, drawn in one step, so no step-bias allowance
    t, x0 = 0.5, 1.0
    ends = evolve_starts([WholeSpace(1)], np.array([[x0]]), 100_000, t,
                         1e-3, 3)[0][:, 0]
    mean, std = _free_law(x0, t)
    assert kstest(ends, "norm", args=(mean, std)).pvalue > 1e-3
    assert abs(ends.mean() - mean) < 3 * ends.std() / math.sqrt(len(ends))
    assert abs(ends.std() - std) < 0.01


def test_half_line_endpoint_law_is_folded_normal():
    # OU is symmetric about 0, so the reflected endpoint is |free endpoint|
    t, x0 = 0.5, 0.3
    dom = half_line()
    ends = evolve_starts([dom], np.array([[x0]]), 100_000, t, 1e-3, 4)[0]
    assert dom.contains(ends).all()
    mean, std = _free_law(x0, t)
    folded_cdf = lambda y: norm.cdf((y - mean) / std) \
        - norm.cdf((-y - mean) / std)
    assert kstest(ends[:, 0], folded_cdf).pvalue > 1e-3


def test_product_free_coordinate_is_exact():
    t, x0 = 0.5, np.array([0.5, 1.0])
    dom = Product(interval(-1.0, 1.0), 1)
    ends = evolve_starts([dom], x0[None, :], 50_000, t, 5e-3, 5)[0]
    assert dom.contains(ends).all()
    assert kstest(ends[:, 1], "norm", args=_free_law(x0[1], t)).pvalue > 1e-3


def test_transition_follows_the_domain_types():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    cases = [
        ([WholeSpace(1)], "exact", "gaussian"),
        ([half_line()], "exact", "gaussian"),
        ([Product(half_line(), 2)], "exact", "gaussian"),
        ([Product(WholeSpace(1), 1)], "exact", "gaussian"),
        ([WholeSpace(1), half_line()], "exact", "gaussian"),
        ([Product(interval(-1.0, 1.0), 1)], "split", "two_point"),
        ([Product(interval(-1.0, 1.0), 1), Product(half_line(), 1)], "split",
         "two_point"),
        ([Product(ball, 1)], "split", "gaussian"),
        ([half_line(0.5)], "euler", "two_point"),
        ([interval(-1.0, 1.0)], "euler", "two_point"),
        ([half_line(), interval(-4.0, 4.0)], "euler", "two_point"),
        ([Product(interval(-1.0, 1.0), 1), WholeSpace(2)], "euler",
         "gaussian"),
        ([ball, polygon_approximation(ball, 16)], "euler", "gaussian"),
    ]
    for domains, kind, increments in cases:
        assert path_details(domains) == {"transition": kind,
                                         "increments": increments}, domains


def euler_increments(rng, shape, dt, two_point):
    """One step's increments sqrt(2 dt) xi: xi = +-1 from one bit per row of
    the bit generator's raw 64-bit words, read as little-endian bytes, or
    standard normal."""
    scale = math.sqrt(2.0 * dt)
    if two_point:
        words = rng.bit_generator.random_raw(math.ceil(shape[0] / 64))
        packed = np.frombuffer(words.astype("<u8").tobytes(), np.uint8)
        bits = np.unpackbits(packed, count=shape[0]).reshape(shape)
        return np.where(bits == 1, scale, -scale)
    return scale * rng.standard_normal(shape)


def projected_euler(domains, starts, t, h, seed, batch_size, two_point=None):
    """Reference: the projected Euler loop with its noise consumption. On
    ``Product`` domains with free dimensions (the split transition), the
    free coordinates first take one exact OU draw and the loop runs on the
    base coordinates through ``base.project``. The increments are two-point
    when the loop runs in one column, as the engine's are, unless
    ``two_point`` says otherwise."""
    n, dim = starts.shape
    k = domains[0].base.dim \
        if path_details(domains)["transition"] == "split" else dim
    if two_point is None:
        two_point = k == 1
    projects = [dom.base.project if k < dim else dom.project
                for dom in domains]
    n_batches = math.ceil(n / batch_size)
    seeds = np.random.SeedSequence(seed).spawn(n_batches)
    outs = [np.empty((n, dim)) for _ in domains]
    for b in range(n_batches):
        sl = slice(b * batch_size, min((b + 1) * batch_size, n))
        rng = np.random.default_rng(seeds[b])
        free = starts[sl, k:]
        if k < dim:
            free = math.exp(-t) * free + math.sqrt(-math.expm1(-2.0 * t)) \
                * rng.standard_normal(free.shape)
        states = [starts[sl, :k].copy() for _ in domains]
        for dt in _schedule(t, h):
            noise = euler_increments(rng, states[0].shape, dt, two_point)
            for i, project in enumerate(projects):
                states[i] = project(states[i] * (1.0 - dt) + noise)
        for i in range(len(domains)):
            outs[i][sl, :k] = states[i]
            outs[i][sl, k:] = free
    return outs


@pytest.fixture(params=[1, 3], ids=["one-thread", "three-threads"])
def engine_cpus(request, monkeypatch):
    """Batches on a one- or three-thread pool whatever the CPUs."""
    monkeypatch.setattr(montecarlo, "_cpus", lambda: request.param)


DISC = Ball(center=[0.0, 0.0], radius=1.0)
POOLED_CASES = {
    "interval": [interval(-1.0, 1.0)],
    "disc-gon16-gon64": [DISC, polygon_approximation(DISC, 16),
                         polygon_approximation(DISC, 64)],
    "split": [Product(interval(-1.0, 1.0), 1)],
}


@pytest.mark.parametrize("name, repeats", [
    pytest.param(name, repeats, id=name if repeats == 1 else f"{name}-x3")
    for repeats in (1, 3) for name in POOLED_CASES])
def test_batches_match_the_serial_reference(name, repeats, engine_cpus,
                                            monkeypatch):
    # one path a start: 7 full batches of 128 and a ragged 37-row one;
    # three a start: 21 full batches and a ragged 111-row one, with the
    # groups of three straddling the batch edges
    monkeypatch.setattr(montecarlo, "BATCH_SIZE", 128)
    domains = POOLED_CASES[name]
    rng = np.random.default_rng(16)
    panel = np.clip(0.5 * rng.standard_normal((7 * 128 + 37,
                                                domains[0].dim)),
                    -0.6, 0.6)
    ours = evolve_starts(domains, panel, repeats, 0.3, 1e-2, 17)
    ref = projected_euler(domains, np.repeat(panel, repeats, axis=0), 0.3,
                          1e-2, seed=17, batch_size=128)
    assert all(np.array_equal(a, b) for a, b in zip(ours, ref))


ROUNDING_WALL_CASES = {
    "euler": [interval(0.05, 1.0), half_line(0.05),
              Slab(direction=[-1.0], lower=-1.0, upper=0.3)],
    "split": [Product(interval(0.05, 1.0), 1)],
}


@pytest.mark.parametrize("name", ROUNDING_WALL_CASES)
def test_one_column_marches_end_inside_walls_the_shift_rounded_past(
        name, engine_cpus, monkeypatch):
    # steps of h = 1/4 overshoot 0.05 and -0.3 by up to 0.7, where
    # pts + (clip(s) - s) d landed up to an ulp outside (121 to 157 of
    # these endpoints per domain); the in-place clip is the reference's
    # project and stays in the closed interval exactly
    monkeypatch.setattr(montecarlo, "BATCH_SIZE", 128)
    domains = ROUNDING_WALL_CASES[name]
    rng = np.random.default_rng(20)
    starts = rng.uniform(0.05, 0.3, (7 * 128 + 37, domains[0].dim))
    ours = evolve_starts(domains, starts, 1, 2.0, 0.25, 21)
    ref = projected_euler(domains, starts, 2.0, 0.25, seed=21,
                          batch_size=128)
    assert all(np.array_equal(a, b) for a, b in zip(ours, ref))
    for dom, ends in zip(domains, ours):
        (lo,), (hi,) = (dom.base if name == "split" else dom).axis_bounds()
        assert np.all((lo <= ends[:, 0]) & (ends[:, 0] <= hi))
        assert np.any(ends[:, 0] == lo)


def test_concurrent_callers_get_their_serial_results(monkeypatch):
    # as --jobs check threads do: four callers at once, each on its own
    # three-thread pool, switching threads every microsecond
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 3)
    monkeypatch.setattr(montecarlo, "BATCH_SIZE", 64)
    domains = POOLED_CASES["disc-gon16-gon64"]
    starts = np.zeros((5 * 64 + 9, 2))
    expected = [projected_euler(domains, starts, 0.1, 1e-2, seed, 64)
                for seed in range(4)]
    interval_s = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            runs = [callers.submit(evolve_starts, domains, starts, 1, 0.1,
                                   1e-2, seed) for seed in range(4)]
            got = [run.result(timeout=60) for run in runs]
    finally:
        sys.setswitchinterval(interval_s)
    for ours, ref in zip(got, expected):
        assert all(np.array_equal(a, b) for a, b in zip(ours, ref))


class _StallingDisc(Ball):
    """The unit disc, whose projection gives up on the 37-row batch (a
    march in one column clips onto the interval and calls no projection,
    so the stalling domain has two)."""

    def _project(self, pts):
        if len(pts) == 37:
            raise NoConvergence("stalled on the ragged batch")
        return super()._project(pts)


def test_a_failing_batch_raises_its_own_error(engine_cpus, monkeypatch):
    monkeypatch.setattr(montecarlo, "BATCH_SIZE", 128)
    dom = _StallingDisc(center=[0.0, 0.0], radius=1.0)
    starts = np.zeros((7 * 128 + 37, 2))
    with pytest.raises(NoConvergence, match="ragged batch") as err:
        evolve_starts([dom], starts, 1, 0.1, 1e-2, 18)
    assert err.type is NoConvergence
    # the running batches finished before the error propagated
    assert not [th for th in threading.enumerate()
                if th.name.startswith("oulab-paths")]
    # the engine still runs after a failed call
    ends = evolve_starts([dom], starts[:-37], 1, 0.1, 1e-2, 18)[0]
    assert dom.contains(ends).all()


def test_only_exact_draws_and_wider_marches_use_the_pool(monkeypatch):
    # a one-column march runs its batches on the calling thread
    pooled = []
    run_batches = montecarlo._run_batches
    monkeypatch.setattr(montecarlo, "_run_batches",
                        lambda run, n: pooled.append(n) or run_batches(run, n))
    monkeypatch.setattr(montecarlo, "BATCH_SIZE", 64)
    for domains, uses_pool in [
            ([interval(-1.0, 1.0)], False),
            ([Product(interval(-1.0, 1.0), 1)], False),
            ([half_line()], True),
            ([DISC], True)]:
        pooled.clear()
        starts = np.full((200, domains[0].dim), 0.5)
        ends = evolve_starts(domains, starts, 1, 0.05, 1e-2, 22)[0]
        assert domains[0].contains(ends).all()
        assert bool(pooled) == uses_pool, domains


def test_euler_fallback_is_unchanged(monkeypatch):
    monkeypatch.setattr(montecarlo, "BATCH_SIZE", 256)
    starts = 0.5 + np.abs(np.random.default_rng(14).standard_normal((700, 1)))
    for domains in ([interval(-1.0, 1.0)], [half_line(0.5)],
                    [half_line(), interval(-4.0, 4.0)]):
        ours = evolve_starts(domains, np.minimum(starts, 1.0), 1, 0.3, 1e-2,
                             15)
        ref = projected_euler(domains, np.minimum(starts, 1.0), 0.3, 1e-2,
                              seed=15, batch_size=256)
        assert all(np.array_equal(a, b) for a, b in zip(ours, ref))


def test_one_dimensional_step_is_two_point():
    # one step from 0, far from the walls, lands on +-sqrt(2h) with
    # probability 1/2 each; 100,003 rows leave a ragged last batch
    h, n = 1e-2, 100_003
    ends = evolve_starts([interval(-10.0, 10.0)], np.zeros((1, 1)), n, h, h,
                         19)[0][:, 0]
    scale = math.sqrt(2.0 * h)
    assert set(np.unique(ends).tolist()) == {-scale, scale}
    assert abs(np.mean(ends > 0) - 0.5) <= 3.0 * math.sqrt(0.25 / n)


WEAK_ORDER_CASES = {
    "interval": (interval(-1.0, 1.0), 0.9),
    "half-line": (half_line(-0.5), -0.4),
}


@pytest.mark.parametrize("name", WEAK_ORDER_CASES)
def test_weak_order_by_step_refinement(name):
    # E tanh(X_t) from a start near the wall, where the O(sqrt(h)) boundary
    # term of projected Euler shows, at three step sizes, for the engine's
    # two-point increments and for Gaussian ones, against a Crank-Nicolson
    # grid reference
    dom, x0 = WEAK_ORDER_CASES[name]
    assert path_details([dom])["increments"] == "two_point"
    t, hs, n = 0.5, (0.02, 0.01, 0.005), 1 << 17
    exact = {}
    for cells in (400, 800):
        op = grid_build(dom, cells)
        u = grid_apply(op, np.tanh(op.nodes[:, 0]), t, n_steps=5 * cells // 2)
        exact[cells] = float(np.interp(x0, op.nodes[:, 0], u))
    bias = {}
    for i, h in enumerate(hs):
        runs = {"two_point": evolve_starts([dom], np.array([[x0]]), n, t, h,
                                           40 + i),
                "gaussian": projected_euler([dom], np.full((n, 1), x0), t, h,
                                            50 + i, n, two_point=False)}
        for kind, (ends,) in runs.items():
            mean, se = mean_se(np.tanh(ends[:, 0]))
            bias[kind, h] = (mean - exact[800], se)
    # the reference moves by under a tenth of the smallest bias when its
    # cells are halved, and a second-order grid's own error is less still
    assert abs(exact[800] - exact[400]) \
        < 0.1 * min(abs(b) for b, _ in bias.values())
    for h in hs:
        (b2, se2), (bg, seg) = bias["two_point", h], bias["gaussian", h]
        assert abs(b2) <= abs(bg) + 3.0 * math.hypot(se2, seg)
        # the allowance the MC checks charge, with sup |tanh'| = 1
        assert abs(b2) <= BIAS_CONST * math.sqrt(h)
    # least-squares slope of log|bias| on log h, its SE by the delta method
    # from the independent runs' standard errors
    log_h = np.log(hs)
    weights = (log_h - log_h.mean()) / np.sum((log_h - log_h.mean()) ** 2)
    for kind in ("two_point", "gaussian"):
        b, se = np.array([bias[kind, h] for h in hs]).T
        order = float(weights @ np.log(np.abs(b)))
        order_se = float(np.sqrt(np.sum((weights * se / b) ** 2)))
        assert order >= 3.0 * order_se, (kind, order, order_se)


def test_reflected_path_single():
    dom = interval(-1.0, 1.0)
    end = evolve_starts([dom], np.array([[0.9]]), 1, 0.3, 1e-2, 5)[0][0]
    assert end.shape == (1,)
    assert dom.contains(end)


def test_mc_constant_has_zero_error():
    one = from_profile(const(1.0), [[1.0]])
    est, = mc_apply_many([one], interval(-1.0, 1.0), 0.4, [0.0],
                         n_paths=2000, seed=6)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_mc_matches_mehler_on_whole_space():
    f = coordinate(2, axis=0)
    t = 1.0
    est, = mc_apply_many([f], WholeSpace(2), t, [1.0, 0.0], n_paths=100_000,
                         h=1e-3, seed=7)
    oracle = mehler_apply(f.lift(2) if f.dim != 2 else f, t, [1.0, 0.0]).value
    assert abs(oracle - math.exp(-1.0)) < 1e-12
    assert abs(est.value - oracle) <= 3 * est.std_error + 2e-3


def test_symmetric_invariant_mean_on_interval():
    f = coordinate(1)
    est, = mc_apply_many([f], interval(-1.0, 1.0), 6.0, [0.5],
                         n_paths=50_000, h=5e-3, seed=8)
    # cross-check with the grid engine at the same horizon
    op = grid_build(interval(-1.0, 1.0), 200)
    u = grid_apply(op, op.sample(f), 6.0)
    node = int(np.argmin(np.abs(op.nodes[:, 0] - 0.5)))
    assert abs(est.value) <= 3 * est.std_error + 0.1 * math.sqrt(5e-3)
    assert abs(u[node]) < 1e-4


def test_reduction_survives_a_large_offset():
    # a one-pass sum of squares cancels away the variance of 1e-3 noise
    # on top of 1e6; the two-pass (centred) variance keeps it
    values = 1e6 + 1e-3 * np.random.default_rng(0).standard_normal(200_000)
    mean, se = mean_se(values)
    assert abs(mean - math.fsum(values.tolist()) / len(values)) < 1e-9
    assert math.isclose(se, 2.2388e-6, rel_tol=1e-4)


def test_mc_apply_many_shares_endpoints():
    f = coordinate(1)
    fsq = from_profile(var(1) ** 2, [[1.0]])
    a, b = mc_apply_many([f, fsq], WholeSpace(1), 0.5, [1.0], 20_000,
                         h=2e-3, seed=12)
    a_alone, = mc_apply_many([f], WholeSpace(1), 0.5, [1.0], 20_000,
                             h=2e-3, seed=12)
    assert a.value == a_alone.value and a.std_error == a_alone.std_error
    assert b.method == "monte_carlo"


def test_coupled_runs_share_noise():
    small = interval(-0.5, 0.5)
    big = interval(-4.0, 4.0)
    starts = np.zeros((400, 1))
    ends_small, ends_big = evolve_starts([small, big], starts, 1, 0.3, 5e-3,
                                         13)
    alone = evolve_starts([big], starts, 1, 0.3, 5e-3, 13)[0]
    assert np.array_equal(ends_big, alone)
    assert small.contains(ends_small).all()


@pytest.mark.parametrize("t, h", [(math.nan, 1e-2), (math.inf, 1e-2),
                                  (0.5, math.nan), (0.5, math.inf)])
def test_bad_time_or_step_raises_value_error(t, h):
    with pytest.raises(ValueError, match="finite"):
        evolve_starts([interval(-1.0, 1.0)], np.zeros((4, 1)), 1, t, h, 0)


@pytest.mark.parametrize("t, h", [(1e-16, 1e-3), (1e-16, 0.5), (1e-15, 0.5),
                                  (0.3, 0.1), (1.0 + 5e-16, 0.5)])
def test_schedule_sums_to_the_horizon(t, h):
    # a last step of at most 1e-15 merges into the one before it
    steps = _schedule(t, h)
    assert math.isclose(math.fsum(steps), t, rel_tol=1e-12)
    assert all(0.0 < dt <= h + 1e-15 for dt in steps)


def test_tiny_horizon_barely_moves_the_paths():
    # one step of t, not of t + h, which took 0.999 to -0.5005
    t = 1e-16
    assert _schedule(t, 0.5) == [t]
    ends = evolve_starts([interval(-1.0, 1.0)], np.array([[0.999]]), 1000,
                         t, 0.5, 0)[0]
    assert np.abs(ends - 0.999).max() <= 2.0 * math.sqrt(2.0 * t)


def test_start_validation():
    one = from_profile(const(1.0), [[1.0]])
    with pytest.raises(ValueError):
        mc_apply_many([one], interval(-1, 1), 0.5, [2.0], 10, seed=0)
    with pytest.raises(ValueError):
        mc_apply_many([one], interval(-1, 1), 0.5, [0.0], 0, seed=0)
    with pytest.raises(ValueError):
        evolve_starts([interval(-1, 1)], np.zeros((4, 1)), 0, 0.5, 1e-2, 0)
