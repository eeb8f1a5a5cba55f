import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import quad
from scipy.special import erf

from oulab.domains import Ball, HalfspaceIntersection, WholeSpace, half_line
from oulab.gauss import (_DRAW_BATCH, PROBE_BATCH, MassTooSmall,
                         gauss_hermite, mean_se, restricted_sample)


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
