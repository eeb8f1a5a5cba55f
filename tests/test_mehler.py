import math

import numpy as np
import pytest
from scipy.integrate import quad

from oulab.engines.mehler import mehler_apply
from oulab.engines.types import OrderTooHigh, SemigroupEstimate
from oulab.expr import const, coordinate, from_profile, sin, tanh, var


def test_linear_decays_exponentially():
    # x is the first Hermite eigenfunction: T(t) x = e^{-t} x
    f = coordinate(1)
    for t in (0.1, 1.0, 3.0):
        for x in (-2.0, 0.5, 4.0):
            est = mehler_apply(f, t, [x])
            assert est.method == "mehler"
            assert est.std_error is None
            assert abs(est.value - math.exp(-t) * x) < 1e-12


def test_linear_against_direct_quadrature_oracle():
    t, x = 0.7, 1.3
    decay, sigma = math.exp(-t), math.sqrt(1 - math.exp(-2 * t))
    oracle, err = quad(
        lambda y: (decay * x + sigma * y)
        * math.exp(-y * y / 2) / math.sqrt(2 * math.pi), -12, 12)
    assert err < 1e-8
    est = mehler_apply(coordinate(1), t, [x])
    assert abs(est.value - oracle) < 1e-9


def test_constants_are_conserved():
    one = from_profile(const(1.0), [[1.0, 0.0]])
    for t in (0.0, 0.5, 2.0):
        assert abs(mehler_apply(one, t, [0.3, -0.7]).value - 1.0) < 1e-12


def test_square_closed_form():
    # Gaussian second moment inside the average of dilated arguments:
    # T(t) x^2 = e^{-2t} x^2 + (1 - e^{-2t})
    f = from_profile(var(1) ** 2, [[1.0]])
    for t in (0.2, 0.9):
        for x in (0.0, 1.5):
            expected = math.exp(-2 * t) * x * x + 1 - math.exp(-2 * t)
            assert abs(mehler_apply(f, t, [x]).value - expected) < 1e-12


def test_time_zero_returns_the_function():
    f = from_profile(tanh(var(1)), [[0.6, 0.8]])
    x = [0.4, -1.1]
    assert mehler_apply(f, 0.0, x).value == f.eval(x)


def test_rank_reduction_for_dependent_directions():
    # two parallel directions: the integral is one dimensional
    f2 = from_profile(tanh(var(1) + 2.0 * var(2)),
                      [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    f1 = from_profile(tanh(var(1) + 2.0 * var(1)), [[1.0, 0.0, 0.0]])
    x = [0.3, 5.0, -2.0]
    a = mehler_apply(f2, 0.8, x, quad_order=60)
    b = mehler_apply(f1, 0.8, x, quad_order=60)
    assert abs(a.value - b.value) < 1e-12


def test_two_dimensional_profile_against_product_oracle():
    # independent directions factorize: T(t)(x1 * x2) = e^{-2t} x1 x2
    f = from_profile(var(1) * var(2), [[1.0, 0.0], [0.0, 1.0]])
    t, x = 0.6, [1.2, -0.5]
    assert abs(mehler_apply(f, t, x).value
               - math.exp(-2 * t) * x[0] * x[1]) < 1e-12


def test_sup_contraction_for_bounded_function():
    f = from_profile(sin(3.0 * var(1)), [[1.0]])
    for x in np.linspace(-3, 3, 13):
        assert abs(mehler_apply(f, 1.0, [x], quad_order=60).value) <= 1.0 + 1e-12


def test_order_budget():
    f = from_profile(var(1) * var(2) * var(3),
                     [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    with pytest.raises(OrderTooHigh):
        mehler_apply(f, 0.5, [0.0, 0.0, 0.0], quad_order=200)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_bad_time_raises_value_error(t):
    with pytest.raises(ValueError, match="finite"):
        mehler_apply(coordinate(1), t, [0.5])


def test_estimate_invariant():
    with pytest.raises(ValueError):
        SemigroupEstimate(value=1.0, t=0.5, method="mehler", std_error=0.1)
    with pytest.raises(ValueError):
        SemigroupEstimate(value=1.0, t=0.5, method="monte_carlo")
