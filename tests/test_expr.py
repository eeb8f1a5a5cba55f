import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oulab.domains import DimensionMismatch
from oulab.expr import (CylFunction, DslError, Expr, const, coordinate,
                        differentiate, evaluate, exp, format_expr,
                        from_profile, function_from_config, parse_expr, sin,
                        tanh, var)

SQRT2 = math.sqrt(2.0)


def test_eval_examples():
    f = coordinate(2, axis=0)
    assert f.eval([3.0, 4.0]) == 3.0

    g = from_profile(exp(-(var(1) ** 2)), [[1 / SQRT2, 1 / SQRT2]])
    assert abs(g.eval([1.0, 1.0]) - math.exp(-2.0)) < 1e-14

    h = from_profile(var(1) * var(2), [[1.0, 0.0], [0.0, 1.0]])
    assert h.eval([2.0, 5.0]) == 10.0


def test_gradient_examples():
    f = coordinate(2, axis=0)
    pts = np.array([[0.0, 0.0], [3.0, -1.0], [5.0, 2.0]])
    assert np.array_equal(f.gradient(pts), np.tile([1.0, 0.0], (3, 1)))

    g = from_profile(var(1) ** 2, [[1.0, 0.0]])
    assert np.allclose(g.gradient([3.0, 0.0]), [6.0, 0.0])


PROFILE_PANEL = [
    var(1) + 2.0 * var(2),
    var(1) * var(2) + var(1) ** 3,
    exp(-(var(1) ** 2)) + tanh(var(2)),
    sin(var(1) * var(2)),
    tanh(var(1) + sin(var(2))) * (1.0 + var(1) ** 2),
    exp(0.25 * var(1)) - sin(3.0 * var(2)),
]


@pytest.mark.parametrize("profile", PROFILE_PANEL, ids=str)
def test_gradient_matches_central_differences(profile):
    f = from_profile(profile, [[0.8, 0.6, 0.0], [0.0, 1 / SQRT2, -1 / SQRT2]])
    rng = np.random.default_rng(42)
    pts = rng.uniform(-2, 2, size=(40, 3))
    grad = f.gradient(pts)
    h = 1e-5
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = h
        fd = (f.eval(pts + shift) - f.eval(pts - shift)) / (2 * h)
        assert np.abs(grad[:, axis] - fd).max() < 1e-6


@settings(max_examples=30, deadline=None)
@given(x=st.floats(-3, 3), y=st.floats(-3, 3))
def test_gradient_fd_pointwise(x, y):
    f = from_profile(tanh(var(1)) * sin(var(2)), [[1.0, 0.0], [0.0, 1.0]])
    g = f.gradient([x, y])
    h = 1e-5
    fdx = (f.eval([x + h, y]) - f.eval([x - h, y])) / (2 * h)
    fdy = (f.eval([x, y + h]) - f.eval([x, y - h])) / (2 * h)
    assert abs(g[0] - fdx) < 1e-6 and abs(g[1] - fdy) < 1e-6


def test_1d_projections_equal_the_matmul():
    rng = np.random.default_rng(9)
    pts = np.concatenate([rng.standard_normal((1000, 1)) * 3.0,
                          [[0.0], [-0.0]]])
    for directions in ([[1.0]], [[-0.7]], [[0.3], [-2.5]]):
        fn = from_profile(tanh(var(1)), directions)
        z, single = fn._projections(pts)
        assert not single
        assert np.array_equal(z, pts @ fn.directions.T)


def test_lift_pads_gradient_with_zeros():
    f = coordinate(1)
    lifted = f.lift(3)
    assert np.array_equal(lifted.gradient([1.0, 2.0, 3.0]), [1.0, 0.0, 0.0])


def test_lift_commutes_with_projection():
    f = from_profile(tanh(var(1)) + var(2) ** 2,
                     [[1.0, 0.0], [0.0, 1.0]])
    lifted = f.lift(5)
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((1000, 5))
    assert np.array_equal(lifted.eval(pts), f.eval(pts[:, :2]))
    grad = lifted.gradient(pts)
    assert np.array_equal(grad[:, :2], f.gradient(pts[:, :2]))
    assert np.array_equal(grad[:, 2:], np.zeros((1000, 3)))
    # gradient norms agree exactly through the projection
    assert np.array_equal(lifted.gradient_norm(pts),
                          f.gradient_norm(pts[:, :2]))


HEADS = {"const", "var", "sum", "prod", "pow", "neg", "exp", "tanh", "sin"}


def _walk(e):
    yield e
    for child in e.args:
        if isinstance(child, Expr):
            yield from _walk(child)


def _trees(depth=4):
    """Profiles of depth <= ``depth`` over all nine heads: finite
    constants, exponents 0-3 and up to 3 variables."""
    leaves = st.one_of(st.floats(allow_nan=False, allow_infinity=False)
                       .map(const), st.integers(1, 3).map(var))
    if depth == 0:
        return leaves
    sub = _trees(depth - 1)
    return st.one_of(
        leaves,
        st.builds(lambda head, args: Expr(head, *args),
                  st.sampled_from(["sum", "prod"]),
                  st.lists(sub, min_size=1, max_size=3)),
        st.builds(lambda base, k: base ** k, sub, st.integers(0, 3)),
        st.builds(Expr, st.sampled_from(["neg", "exp", "tanh", "sin"]), sub))


@settings(max_examples=20, deadline=None)
@given(tree=_trees())
@pytest.mark.parametrize("profile", PROFILE_PANEL, ids=str)
def test_differentiation_stays_inside_the_node_set(profile, tree):
    for e in (profile, tree):
        for index in range(3):
            d = differentiate(e, index)
            assert all(isinstance(node, Expr) and node.head in HEADS
                       for node in _walk(d))


@settings(max_examples=200, deadline=None)
@given(tree=_trees())
def test_parse_format_round_trip(tree):
    texts = [
        "(exp (neg (pow v1 2)))",
        "v1",
        "3",
        "-2.5",
        "(sum 2 (tanh v1))",
        "(prod v1 v2 (sin (sum v1 1.5707963267948966)))",
        "(pow (sum v1 (neg v2)) 3)",
    ]
    for text in texts:
        e = parse_expr(text)
        assert parse_expr(format_expr(e)) == e
    assert parse_expr(format_expr(tree)) == tree
    # formatting normalizes whitespace but preserves structure
    assert format_expr(parse_expr("( sum  1   v1 )")) == "(sum 1 v1)"


@pytest.mark.parametrize("bad, pos", [
    ("(exp v1", 1),
    ("(foo 1)", 2),
    (")", 1),
    ("(pow v1 x)", 9),
    ("", 1),
    ("(exp v1 v2)", 2),
    ("v0", 1),
    ("(sum nan v1)", 6),
    ("1e999", 1),
])
def test_parse_errors_carry_positions(bad, pos):
    with pytest.raises(DslError) as err:
        parse_expr(bad)
    assert err.value.pos == pos


def test_validation_errors():
    with pytest.raises(ValueError):
        from_profile(var(3), [[1.0, 0.0]])  # v3 has no direction
    with pytest.raises(DimensionMismatch):
        CylFunction(dim=3, directions=[[1.0, 0.0]], profile=var(1))
    with pytest.raises(ValueError):
        Expr("pow", Expr("var", 0), -1)
    with pytest.raises(ValueError):
        const(math.inf)
    with pytest.raises(DimensionMismatch):
        coordinate(2).eval([1.0, 2.0, 3.0])


def test_function_config_round_trip():
    f = from_profile(2.0 + tanh(var(1)) * sin(var(2)),
                     [[0.6, 0.8], [1.0, 0.0]])
    back = function_from_config(f.to_config())
    assert back.profile == f.profile
    assert np.array_equal(back.directions, f.directions)
    pts = np.random.default_rng(8).standard_normal((50, 2))
    assert np.array_equal(back.eval(pts), f.eval(pts))
    assert np.array_equal(back.gradient(pts), f.gradient(pts))
