import math

import numpy as np
import pytest
from scipy.stats import kstest

from oulab.domains import Ball, WholeSpace, half_line, interval
from oulab.engines.mehler import mehler_apply
from oulab.engines.montecarlo import (evolve_starts, mc_apply,
                                      mc_apply_many, reflected_path,
                                      simulate_endpoints)
from oulab.expr import const, coordinate, from_profile, var
from oulab.gauss import mean_se


def test_time_zero_is_identity():
    x0 = np.array([0.3, -0.5])
    ends = simulate_endpoints(Ball(center=[0.0, 0.0], radius=1.0), x0, 0.0,
                              n_paths=50, seed=1)
    assert np.array_equal(ends, np.tile(x0, (50, 1)))


def test_endpoints_stay_in_the_domain():
    for dom in (interval(-1.0, 1.0), half_line(),
                Ball(center=[0.0, 0.0], radius=1.0)):
        x0 = np.zeros(dom.dim) + 0.25
        ends = simulate_endpoints(dom, x0, 1.0, n_paths=5000, h=5e-3, seed=2)
        assert dom.contains(ends).all()


def test_same_seed_reproduces():
    dom = interval(-1.0, 1.0)
    a = simulate_endpoints(dom, np.array([0.0]), 0.5, 1000, h=2e-3, seed=9)
    b = simulate_endpoints(dom, np.array([0.0]), 0.5, 1000, h=2e-3, seed=9)
    assert np.array_equal(a, b)
    c = simulate_endpoints(dom, np.array([0.0]), 0.5, 1000, h=2e-3, seed=10)
    assert not np.array_equal(a, c)


def test_whole_space_endpoint_law():
    # oracle: the exact transition is N(e^{-t} x0, 1 - e^{-2t}) per coordinate
    t, h, x0 = 0.5, 1e-3, 1.0
    ends = simulate_endpoints(WholeSpace(1), np.array([x0]), t, 100_000,
                              h=h, seed=3)[:, 0]
    mean = math.exp(-t) * x0
    std = math.sqrt(1 - math.exp(-2 * t))
    stat = kstest(ends, "norm", args=(mean, std)).statistic
    assert stat < math.sqrt(h) * 1.0  # scheme bias allowance O(sqrt(h))
    assert abs(ends.mean() - mean) < 3 * ends.std() / math.sqrt(len(ends)) \
        + 2 * h * abs(x0)
    assert abs(ends.std() - std) < 0.01


def test_reflected_path_single():
    dom = interval(-1.0, 1.0)
    end = reflected_path(dom, np.array([0.9]), 0.3, h=1e-2, seed=5)
    assert end.shape == (1,)
    assert dom.contains(end)


def test_mc_constant_has_zero_error():
    one = from_profile(const(1.0), [[1.0]])
    est = mc_apply(one, interval(-1.0, 1.0), 0.4, [0.0], n_paths=2000, seed=6)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_mc_matches_mehler_on_whole_space():
    f = coordinate(2, axis=0)
    t = 1.0
    est = mc_apply(f, WholeSpace(2), t, [1.0, 0.0], n_paths=100_000,
                   h=1e-3, seed=7)
    oracle = mehler_apply(f.lift(2) if f.dim != 2 else f, t, [1.0, 0.0]).value
    assert abs(oracle - math.exp(-1.0)) < 1e-12
    assert abs(est.value - oracle) <= 3 * est.std_error + 2e-3


def test_symmetric_invariant_mean_on_interval():
    f = coordinate(1)
    est = mc_apply(f, interval(-1.0, 1.0), 6.0, [0.5], n_paths=50_000,
                   h=5e-3, seed=8)
    # cross-check with the grid engine at the same horizon
    from oulab.engines.grid import grid_apply, grid_build
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
    a_alone = mc_apply(f, WholeSpace(1), 0.5, [1.0], 20_000, h=2e-3, seed=12)
    assert a.value == a_alone.value and a.std_error == a_alone.std_error
    assert b.method == "monte_carlo"


def test_coupled_runs_share_noise():
    small = interval(-0.5, 0.5)
    big = interval(-4.0, 4.0)
    starts = np.zeros((400, 1))
    ends_small, ends_big = evolve_starts([small, big], starts, 0.3, 5e-3,
                                         seed=13)
    alone = evolve_starts([big], starts, 0.3, 5e-3, seed=13)[0]
    assert np.array_equal(ends_big, alone)
    assert small.contains(ends_small).all()


def test_start_validation():
    with pytest.raises(ValueError):
        simulate_endpoints(interval(-1, 1), np.array([2.0]), 0.5, 10, seed=0)
    with pytest.raises(ValueError):
        simulate_endpoints(interval(-1, 1), np.array([0.0]), 0.5, 0, seed=0)
