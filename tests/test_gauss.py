import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import quad
from scipy.special import erf

from oulab.domains import (Ball, HalfspaceIntersection, WholeSpace,
                           half_line, interval, polygon_approximation)
from oulab.expr import exp, from_profile, tanh, var
from oulab.gauss import (_DRAW_BATCH, BLOCK_ROWS, PROBE_BATCH, MassTooSmall,
                         Moments, _sample_blocks, gauss_hermite, mean_se,
                         restricted_sample)
from oulab.inequalities import check_logsob, check_poincare


def gaussian_moment(degree):
    """Closed-form standard normal moment: 0 for odd degree, (2m-1)!! for 2m."""
    if degree % 2 == 1:
        return 0.0
    return float(math.prod(range(1, degree, 2)))


def hermite_he(n, x):
    """Probabilists' Hermite polynomial He_n by its three-term recurrence."""
    x = np.asarray(x, dtype=float)
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        prev, cur = cur, x * cur - k * prev
    return cur


def whole_space_draw(dim, count, seed):
    """``count`` standard normal vectors in R^dim from the whole-space
    sampler."""
    return restricted_sample(WholeSpace(dim), count, seed).points


def gaussian_mass(domain, count, seed):
    """Monte Carlo Gaussian mass of the domain and its standard error."""
    draw = whole_space_draw(domain.dim, count, seed)
    return mean_se(domain.contains(draw).astype(float))


def test_order_one_is_the_mean():
    rule = gauss_hermite(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [1.0]


def test_second_moment_exact_at_order_two():
    rule = gauss_hermite(2)
    assert abs(rule.integrate(lambda x: x ** 2) - 1.0) < 1e-12


def test_fourth_moment_against_quadrature_oracle():
    # independent oracle: adaptive quadrature of x^4 exp(-x^2/2)/sqrt(2 pi)
    oracle, err = quad(lambda x: x ** 4 * math.exp(-x * x / 2.0)
                       / math.sqrt(2.0 * math.pi), -12, 12)
    assert err < 1e-10
    assert abs(oracle - 3.0) < 1e-10
    rule = gauss_hermite(3)
    assert abs(rule.integrate(lambda x: x ** 4) - oracle) < 1e-10


def test_polynomial_exactness_up_to_degree_2n_minus_1():
    for n in range(1, 65):
        rule = gauss_hermite(n)
        assert abs(rule.weights.sum() - 1.0) < 1e-12
        for degree in range(0, 2 * n):
            value = float(rule.weights @ rule.nodes ** degree)
            exact = gaussian_moment(degree)
            if exact == 0.0:
                assert abs(value) < 1e-9 * max(1.0, gaussian_moment(degree - 1))
            else:
                assert abs(value - exact) <= 1e-9 * exact


def test_matches_numpy_hermegauss():
    for order in (5, 20, 80):
        rule = gauss_hermite(order)
        x, w = hermegauss(order)
        assert np.allclose(rule.nodes, x, atol=1e-10)
        assert np.allclose(rule.weights, w / math.sqrt(2 * math.pi), atol=1e-12)


def test_order_validation():
    with pytest.raises(ValueError):
        gauss_hermite(0)
    with pytest.raises(ValueError):
        gauss_hermite(513)


def test_gaussian_moment_closed_form():
    assert gaussian_moment(0) == 1.0
    assert gaussian_moment(1) == 0.0
    assert gaussian_moment(2) == 1.0
    assert gaussian_moment(6) == 15.0
    assert gaussian_moment(8) == 105.0


def test_hermite_values_and_orthogonality():
    x = np.linspace(-2, 2, 9)
    assert np.allclose(hermite_he(2, x), x * x - 1.0)
    assert np.allclose(hermite_he(3, x), x ** 3 - 3 * x)
    rule = gauss_hermite(24)
    for m in range(6):
        for n in range(6):
            val = float(rule.weights @ (hermite_he(m, rule.nodes)
                                        * hermite_he(n, rule.nodes)))
            expected = math.factorial(n) if m == n else 0.0
            assert abs(val - expected) < 1e-9 * max(1.0, math.factorial(n))


def test_sampling_deterministic():
    a = whole_space_draw(3, 100, seed=7)
    b = whole_space_draw(3, 100, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, whole_space_draw(3, 100, seed=8))


def test_sample_mean_clt_bound():
    draws = whole_space_draw(1, 10 ** 6, seed=11)
    assert abs(draws.mean()) < 4.0 / math.sqrt(10 ** 6)


def test_sample_covariance_near_identity():
    draws = whole_space_draw(3, 10 ** 6, seed=12)
    cov = np.cov(draws.T)
    assert np.abs(cov - np.eye(3)).max() < 0.01


def test_restricted_whole_space_accepts_everything():
    out = restricted_sample(WholeSpace(2), 1000, seed=3)
    assert out.acceptance_rate == 1.0
    assert out.points.shape == (1000, 2)
    assert (out.sampler, out.proposed) == ("whole_space", 1000)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("count", [PROBE_BATCH - 1, PROBE_BATCH,
                                   PROBE_BATCH + _DRAW_BATCH + 1])
def test_whole_space_draw_is_the_rejection_loops_first_rows(dim, count):
    # the rejection loop's stream: one probe batch, then full batches
    rng = np.random.default_rng(np.random.SeedSequence(7))
    batches = [rng.standard_normal((PROBE_BATCH, dim))]
    while sum(map(len, batches)) < count:
        batches.append(rng.standard_normal((_DRAW_BATCH, dim)))
    expected = np.concatenate(batches)[:count]
    out = restricted_sample(WholeSpace(dim), count, seed=7)
    assert np.array_equal(out.points, expected)


def test_restricted_halfspace_acceptance_rate():
    dom = half_line()  # {x >= 0}, Gaussian mass 1/2 by symmetry
    out = restricted_sample(dom, 200_000, seed=4)
    assert abs(out.acceptance_rate - 0.5) < 0.01
    assert out.sampler == "rejection"
    assert (out.proposed - PROBE_BATCH) % _DRAW_BATCH == 0
    assert dom.contains(out.points).all()


def test_restricted_unit_interval_acceptance_rate():
    # oracle: gamma((-1,1)) = Phi(1) - Phi(-1) = erf(1/sqrt(2))
    target = float(erf(1.0 / math.sqrt(2.0)))
    out = restricted_sample(Ball(center=[0.0], radius=1.0), 200_000, seed=5)
    assert abs(out.acceptance_rate - target) < 0.01


def test_restricted_sampler_unbiased_half_normal_mean():
    out = restricted_sample(half_line(), 400_000, seed=6)
    vals = out.points[:, 0]
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - math.sqrt(2.0 / math.pi)) < 4.0 * se


def test_mass_floor_raises():
    far = HalfspaceIntersection(normals=[[-1.0]], offsets=[-6.0])  # {x >= 6}
    with pytest.raises(MassTooSmall):
        restricted_sample(far, 100, seed=1)


def test_gaussian_mass_whole_space_exact():
    assert gaussian_mass(WholeSpace(1), 10_000, seed=2) == (1.0, 0.0)


def test_gaussian_mass_halfspace_symmetry():
    dom = HalfspaceIntersection(normals=[[1.0]], offsets=[0.0])  # {x <= 0}
    mass, se = gaussian_mass(dom, 400_000, seed=9)
    assert abs(mass - 0.5) <= 3.0 * se


def test_gaussian_mass_quadrant_independence():
    dom = HalfspaceIntersection(normals=[[1.0, 0.0], [0.0, 1.0]],
                                offsets=[0.0, 0.0])
    mass, se = gaussian_mass(dom, 400_000, seed=10)
    assert abs(mass - 0.25) <= 3.0 * se


def _mask_sample(domain, count, seed):
    """The sampler as one whole-array rejection loop: boolean-mask gathers,
    kept batches joined at the end (one draw of ``count`` rows on the
    whole space). Returns (points, acceptance_rate, proposed)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if isinstance(domain, WholeSpace):
        return rng.standard_normal((count, domain.dim)), 1.0, count
    kept, accepted, proposed, batch = [], 0, 0, PROBE_BATCH
    while accepted < count:
        draw = rng.standard_normal((batch, domain.dim))
        inside = domain.contains(draw)
        proposed += batch
        accepted += int(inside.sum())
        kept.append(draw[inside])
        batch = _DRAW_BATCH
    return np.concatenate(kept)[:count], accepted / proposed, proposed


SAMPLED_DOMAINS = [WholeSpace(1), WholeSpace(2), half_line(),
                   interval(-1.0, 1.0), Ball(center=[0.0, 0.0], radius=1.0)]


@pytest.mark.parametrize("count", [1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                   BLOCK_ROWS + 1, 200_000])
@pytest.mark.parametrize("domain", SAMPLED_DOMAINS,
                         ids=["line", "plane", "halfline", "interval", "disc"])
def test_sample_blocks_are_the_sample(domain, count):
    points, rate, proposed = _mask_sample(domain, count, seed=13)
    out = restricted_sample(domain, count, seed=13)
    assert np.array_equal(out.points, points)
    assert (out.acceptance_rate, out.proposed) == (rate, proposed)
    blocks = []
    for rows, accepted, drawn in _sample_blocks(domain, count, seed=13):
        # a lone last row joins the block before it
        assert 1 < len(rows) <= BLOCK_ROWS or count == 1
        blocks.append(rows.copy())  # a block lives until the next draw
    assert np.array_equal(np.concatenate(blocks), points)
    assert (accepted / drawn, drawn) == (rate, proposed)


def _central_sums(values):
    """Exact-sum reference for M2, M3 and M4 about the exactly summed mean."""
    mean = math.fsum(values.tolist()) / len(values)
    dev = values - mean
    return mean, [math.fsum((dev ** k).tolist()) for k in (2, 3, 4)]


@pytest.mark.parametrize("offset", [0.0, 3.0])
def test_moments_merged_over_uneven_blocks(offset):
    rng = np.random.default_rng(17)
    values = offset + rng.standard_normal(60_000) * np.exp(
        rng.uniform(-2.0, 2.0, 60_000))
    cuts = np.cumsum([1, 1, 2, 3, BLOCK_ROWS - 1, 1, BLOCK_ROWS, 5000, 1])
    merged = Moments(fourth=True)
    for block in np.split(values, cuts):
        merged.add(block)
    whole = Moments(fourth=True).add(values)
    assert merged.n == whole.n == len(values)
    # merging moves only rounding: within 1e-12 of the spread on the mean,
    # relative 1e-12 on the variance and on each standard error
    spread = math.sqrt(whole.var_se()[0])
    assert abs(merged.mean - whole.mean) <= 1e-12 * spread
    for got, want in zip(merged.mean_se()[1:] + merged.var_se(),
                         whole.mean_se()[1:] + whole.var_se()):
        assert abs(got - want) <= 1e-12 * want
    # and the central sums (M3 feeds the M4 update) are the exact ones
    mean, sums = _central_sums(values)
    for got, want, k in zip((merged.m2, merged.m3, merged.m4), sums,
                            (2, 3, 4)):
        scale = math.fsum((np.abs(values - mean) ** k).tolist())
        assert abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("n", [2, 3, 199, BLOCK_ROWS + 1, 200_000])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_one_block_is_the_two_pass_reduction(n, offset):
    # bit for bit: numpy's mean and std(ddof=1) of the one array, and
    # Moments fed that array as one block
    values = offset + np.random.default_rng(n).standard_normal(n)
    mean, se = mean_se(values)
    assert mean == float(values.mean())
    assert se == float(values.std(ddof=1) / math.sqrt(len(values)))
    for fourth in (False, True):
        assert Moments(fourth).add(values).mean_se() == (mean, se)


def test_a_large_offset_survives_streaming():
    # the streamed reduction keeps the variance of 1e-3 noise on top of 1e6
    values = 1e6 + 1e-3 * np.random.default_rng(0).standard_normal(200_000)
    acc = Moments(fourth=False)
    for start in range(0, len(values), BLOCK_ROWS):
        acc.add(values[start:start + BLOCK_ROWS])
    mean, se = acc.mean_se()
    assert abs(mean - math.fsum(values.tolist()) / len(values)) < 1e-9
    assert math.isclose(se, 2.2388e-6, rel_tol=1e-4)


@pytest.mark.parametrize("check", [check_poincare, check_logsob])
@pytest.mark.parametrize("f, domain", [
    (from_profile(2 + tanh(var(1)), [[1.0]]), WholeSpace(1)),
    (from_profile(2 + tanh(var(1)), [[1.0]]), interval(-1.0, 1.0)),
    (from_profile(2 + tanh(var(1)) * exp(0.3 * var(2)),
                  [[0.6, 0.8], [1.0, -1.0]]),
     polygon_approximation(Ball(center=[0.0, 0.0], radius=1.0), 64)),
], ids=["line", "interval", "gon64"])
def test_sampled_check_memory_does_not_grow_with_the_sample(check, f, domain):
    # a whole-array check holds some 64 bytes per sample row (22 MB more at
    # 400,000 rows than at 50,000); a streamed one holds blocks. The run at
    # 50,000 makes its one full rejection draw before any block is
    # evaluated, while later draws also see the last block's values, so
    # the bound allows one block of 8 float64 values per row.
    peaks = []
    for n_samples in (50_000, 400_000):
        check(f, domain, n_samples=n_samples, seed=1)  # caches warm
        tracemalloc.start()
        try:
            check(f, domain, n_samples=n_samples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + BLOCK_ROWS * 8 * 8
