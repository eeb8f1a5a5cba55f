import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.optimize
from scipy.special import ndtri
from scipy.stats import norm
from oulab import domains

from oulab.config import load_default_config
from oulab.domains import (CONTAINS_TOL, DYKSTRA_TOL, Ball, DimensionMismatch,
                           EmptyDomain, HalfspaceIntersection, NoConvergence,
                           Product, RegularPolygon, Slab,
                           UnsupportedDimension, WholeSpace,
                           _dist2, _dykstra, _polygon_vertices,
                           domain_from_config, half_line, interval,
                           polygon_approximation, truncation_box)
from oulab.engines.montecarlo import evolve_starts
from oulab.gauss import restricted_sample


def quadrant():
    return HalfspaceIntersection(normals=[[1.0, 0.0], [0.0, 1.0]],
                                 offsets=[0.0, 0.0])


DOMAIN_PANEL = [
    WholeSpace(2),
    Ball(center=[0.3, -0.2], radius=1.5),
    Slab(direction=[0.0, 1.0], lower=-1.0, upper=0.5),
    quadrant(),
    polygon_approximation(Ball(center=[0.0, 0.0], radius=1.0), 6),
    Product(base=interval(-1.0, 1.0), free_dims=1),
]


def test_contains_examples():
    assert Ball(center=[0.0, 0.0], radius=1.0).contains([0.0, 0.0])
    halfplane = HalfspaceIntersection(normals=[[1.0, 0.0]], offsets=[0.0])
    assert not halfplane.contains([0.1, 0.0])
    prod = Product(base=interval(-1.0, 1.0), free_dims=2)
    assert prod.contains([0.5, 7.0, -9.0])


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Ball(center=[0.0, 0.0], radius=1.0).contains([1.0, 2.0, 3.0])


def test_projection_examples():
    assert np.allclose(Ball(center=[0.0, 0.0], radius=1.0).project([2.0, 0.0]),
                       [1.0, 0.0])
    halfplane = HalfspaceIntersection(normals=[[1.0, 0.0]], offsets=[0.0])
    assert np.allclose(halfplane.project([3.0, 5.0]), [0.0, 5.0])


def test_quadrant_corner_against_grid_search_oracle():
    dom = HalfspaceIntersection(normals=[[1.0, 0.0], [0.0, 1.0]],
                                offsets=[0.0, 0.0])  # {x <= 0, y <= 0}
    x = np.array([1.0, 1.0])
    # brute force: minimize distance over a fine grid of the feasible corner
    grid = np.linspace(-2.0, 0.0, 401)
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    cand = np.column_stack([gx.ravel(), gy.ravel()])
    best = cand[np.argmin(((cand - x) ** 2).sum(axis=1))]
    assert np.allclose(best, [0.0, 0.0], atol=1e-12)
    assert np.allclose(dom.project(x), best, atol=1e-10)


@pytest.mark.parametrize("dom", DOMAIN_PANEL, ids=lambda d: type(d).__name__)
def test_projection_invariants(dom):
    rng = np.random.default_rng(123)
    pts = rng.standard_normal((1000, dom.dim)) * 2.0
    proj = dom.project(pts)
    assert dom.contains(proj).all()
    again = dom.project(proj)
    assert np.abs(again - proj).max() <= 1e-10
    # nonexpansive on random pairs
    other = rng.standard_normal((1000, dom.dim)) * 2.0
    proj_other = dom.project(other)
    d_before = np.linalg.norm(pts - other, axis=1)
    d_after = np.linalg.norm(proj - proj_other, axis=1)
    assert np.all(d_after <= d_before + 1e-10)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-50, 50), y=st.floats(-50, 50),
       r=st.floats(0.1, 5.0), cx=st.floats(-3, 3))
def test_ball_projection_properties(x, y, r, cx):
    dom = Ball(center=[cx, 0.0], radius=r)
    p = dom.project([x, y])
    assert dom.contains(p)
    assert np.allclose(dom.project(p), p, atol=1e-10)


def _slab_projection_reference(slab, pts):
    """Reference: in 1D one clip onto ``[lower, upper] / d``, and above the
    slab projection as one expression, temporaries and all."""
    if slab.dim == 1:
        ends = sorted((slab.lower / slab.direction[0],
                       slab.upper / slab.direction[0]))
        return np.clip(pts, ends[0] + 0.0, ends[1] + 0.0)
    s = pts @ slab.direction
    shift = np.clip(s, slab.lower, slab.upper) - s
    return pts + shift[:, None] * slab.direction


@st.composite
def _slabs_and_points(draw):
    dim = draw(st.integers(1, 3))
    finite = st.floats(-1.0, 1.0, allow_subnormal=False)
    raw = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))
    if np.linalg.norm(raw) < 1e-3:
        raw[0] = 1.0
    lower = draw(st.floats(-5.0, 4.0))
    upper = lower + draw(st.floats(1e-3, 10.0))
    # far points make clip(s) - s round, so its sum with pts is not clip(s)
    scale = draw(st.sampled_from([1.0, 1e3, 1e9, 1e17]))
    n = draw(st.integers(1, 12))
    coords = draw(st.lists(st.floats(-2.0, 2.0), min_size=n * dim,
                           max_size=n * dim))
    pts = scale * np.array(coords).reshape(n, dim)
    return Slab(direction=raw / np.linalg.norm(raw), lower=lower,
                upper=upper), pts


@settings(max_examples=300, deadline=None)
@given(case=_slabs_and_points())
def test_slab_projection_is_bitwise_the_reference(case):
    slab, pts = case
    got = slab.project(pts)
    assert got.tobytes() == _slab_projection_reference(slab, pts).tobytes()


def test_slab_reference_panel_has_inexact_shifts():
    # the property test above needs cases where the shift rounds; here is one
    slab = Slab(direction=[0.6, 0.8], lower=-1.0, upper=0.3)
    pts = np.array([[3e16, -7e15], [1.0, 2.0]])
    s = pts @ slab.direction
    shift = np.clip(s, slab.lower, slab.upper) - s
    assert shift[0] + s[0] != np.clip(s[0], slab.lower, slab.upper)
    assert slab.project(pts).tobytes() == \
        _slab_projection_reference(slab, pts).tobytes()


ONE_D_DOMAINS = {
    "interval": interval(0.05, 1.0),
    "reversed-slab": Slab(direction=[-1.0], lower=-1.0, upper=0.3),
    "off-unit-slab": Slab(direction=[-1.0 + 5e-13], lower=-1.0, upper=0.3),
    "half-line": half_line(0.05),
    "ball": Ball(center=[0.3], radius=0.7),
    "line": WholeSpace(1),
}


@pytest.mark.parametrize("name", ONE_D_DOMAINS)
def test_one_d_projection_is_one_clip(name):
    # a 1D domain is its interval axis_bounds(): the projection, of the
    # domain and of a product's base, is one clip onto it bit for bit, and
    # every foot lies in it exactly, however far the row (the shift
    # pts + (clip(s) - s) d could land an ulp outside)
    dom = ONE_D_DOMAINS[name]
    (lo,), (hi,) = dom.axis_bounds()
    dists = np.concatenate([[0.0], 10.0 ** np.arange(-17, 18)])
    rows = [np.random.default_rng(3).uniform(-3.0, 3.0, 1000)]
    for end in (lo, hi):
        if np.isfinite(end):
            rows += [end - dists, end + dists,
                     np.nextafter(end, [-np.inf, np.inf])]
    pts = np.concatenate(rows)[:, None]
    feet = dom.project(pts)
    assert feet.tobytes() == np.clip(pts, lo, hi).tobytes()
    assert np.all((lo <= feet) & (feet <= hi))
    assert dom.contains(feet).all()
    assert np.array_equal([dom.project(p) for p in pts], feet)
    prod = Product(base=dom, free_dims=1)
    both = prod.project(np.column_stack([pts, -pts]))
    assert both.tobytes() == np.column_stack([feet, -pts]).tobytes()
    if isinstance(dom, Slab):
        # a slab's membership reads the same interval, so its feet are in
        # even at tol = 0 with a direction 5e-13 off -1
        assert dom._contains(feet, 0.0).all()
        past = np.nextafter([lo, hi], [-np.inf, np.inf])[:, None]
        assert not dom._contains(past, 0.0).any()


def test_product_projection_splits_exactly():
    prod = Product(base=interval(-1.0, 1.0), free_dims=2)
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((200, 3)) * 3.0
    proj = prod.project(pts)
    assert np.array_equal(proj[:, 1:], pts[:, 1:])
    assert np.array_equal(proj[:, :1], prod.base.project(pts[:, :1]))


def test_polygon_square_case():
    gon = polygon_approximation(Ball(center=[0.0, 0.0], radius=1.0), 4)
    # circumscribed square: faces x<=1, y<=1, -x<=1, -y<=1 (area 4)
    assert np.allclose(np.sort(gon.offsets), [1.0, 1.0, 1.0, 1.0])
    assert np.allclose(np.abs(gon.normals).max(axis=1), 1.0)
    corners = gon.vertices
    assert sorted(map(tuple, np.round(corners, 12).tolist())) == [
        (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def test_polygon_contains_ball_and_nests_on_doubling():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    rng = np.random.default_rng(17)
    angles = rng.uniform(0, 2 * np.pi, 500)
    boundary = np.column_stack([np.cos(angles), np.sin(angles)])
    for n in (3, 4, 8, 16, 64):
        gon = polygon_approximation(ball, n)
        assert gon.contains(boundary).all()
    for n in (4, 8, 16, 32):
        outer = polygon_approximation(ball, n)
        inner = polygon_approximation(ball, 2 * n)
        pts = rng.standard_normal((2000, 2)) * 1.2
        inside_inner = inner.contains(pts)
        assert outer.contains(pts[inside_inner]).all()


def test_polygon_excess_mass_decreases():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    pts = np.random.default_rng(23).standard_normal((200_000, 2))
    in_ball = ball.contains(pts)
    last = np.inf
    for n in (4, 8, 16, 32):
        gon = polygon_approximation(ball, n)
        excess = float(np.mean(gon.contains(pts) & ~in_ball))
        assert excess < last
        last = excess


def test_polygon_rejects_wrong_dimension():
    with pytest.raises(UnsupportedDimension):
        polygon_approximation(Ball(center=[0.0], radius=1.0), 8)
    with pytest.raises(ValueError):
        polygon_approximation(Ball(center=[0.0, 0.0], radius=1.0), 2)


SHORTCUT_BALLS = [Ball(center=[0.0, 0.0], radius=1.0),
                  Ball(center=[0.3, -1.7], radius=1.3)]


def _shell_points(ball, n, radii, rng):
    """Points at relative distances 1e-16..1e-9 on both sides of each
    radius, along face normals, vertex directions and random angles."""
    angles = np.concatenate([np.pi * np.arange(2 * n) / n,
                             rng.uniform(0.0, 2.0 * np.pi, 64)])
    rel = np.array([1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9])
    scale = np.concatenate([1.0 - rel, [1.0], 1.0 + rel])
    dist = np.outer(np.asarray(radii, dtype=float), scale).ravel()
    rows = np.stack(np.meshgrid(dist, angles, indexing="ij"), -1).reshape(-1, 2)
    unit = np.column_stack([np.cos(rows[:, 1]), np.sin(rows[:, 1])])
    return ball.center + rows[:, :1] * unit


EPS = np.finfo(float).eps


def _scale(gon, pts):
    """|p| + |c| + R per row: the size of every quantity the closed form
    and the face path round."""
    return (np.linalg.norm(pts, axis=1) + np.linalg.norm(gon.center)
            + gon.circumradius)


def _assert_is_the_projection(gon, pts, out):
    """``out`` is the projection of ``pts`` onto ``gon`` up to rounding.

    The closed form c + r m_j + w t_j rounds each coordinate three times
    and the violations m_k . q - b_k round three more, each by at most
    eps times the size of their terms (|c|, R, |q|); the sector's u and v
    carry 2 eps |p - c|, which moves a row's answer by as much along its
    face or across the u <= r decision. So q is within E = 4 eps S of the
    projection onto the exact faces, S = |p| + |c| + R, and feasible to
    twice that. The obtuse-angle inequality (p - q) . (y - q) <= 0 for
    every vertex y (so for all of the polygon) then holds up to
    E (|p - q| + 2 R) for q's error and as much for the test's own
    products."""
    scale = _scale(gon, pts)
    assert np.all(gon._violations(out).max(axis=1) <= 8.0 * EPS * scale)
    away = pts - out
    corner_x, corner_y = gon.vertices.T
    obtuse = np.concatenate([
        ((corner_x - q[:, :1]) * a[:, :1]
         + (corner_y - q[:, 1:]) * a[:, 1:]).max(axis=1)
        for q, a in zip(np.array_split(out, len(out) // 2048 + 1),
                        np.array_split(away, len(out) // 2048 + 1))])
    gap = np.linalg.norm(away, axis=1)
    assert np.all(obtuse <= 8.0 * EPS * scale * (gap + 2.0 * gon.circumradius))


def _face_path_gap(gon, pts):
    """How far the face path may part from the closed form.

    The face path keeps a foot on face j while it violates a neighbour by
    at most DYKSTRA_TOL (plus the rounding of the foot and its violations,
    under 2 eps S each way), and a violation d of the neighbour is d /
    sin(2 pi / n) along face j past the vertex."""
    sin_b = math.sin(2.0 * math.pi / gon.sides)
    return (DYKSTRA_TOL + 4.0 * EPS * _scale(gon, pts)) / sin_b


def _assert_contains_within_rounding(gon, pts, tols):
    """``_contains(pts, tol)`` is "every violation <= tol" except within
    8 eps S of tol, where the closed form's u and the face violations may
    round to either side; at tol < -r nothing is contained."""
    worst = gon._violations(pts).max(axis=1)
    band = 8.0 * EPS * _scale(gon, pts)
    for tol in tols:
        got = gon._contains(pts, tol)
        if gon.radius + tol < 0.0:
            assert not got.any()
        sure = np.abs(worst - tol) > band
        assert np.array_equal(got[sure], worst[sure] <= tol)


def _mask_ball_project(ball, pts):
    """Ball projection gathering the rows outside by a boolean mask."""
    r = np.sqrt(_dist2(pts, ball.center))
    out = pts.copy()
    bad = r > ball.radius
    out[bad] = ball.center + (pts[bad] - ball.center) \
        * (ball.radius / r[bad])[:, None]
    return out


@pytest.mark.parametrize("ball", SHORTCUT_BALLS + [
    Ball(center=[0.5, -1.0, 2.0], radius=0.7)],
    ids=["unit", "offcentre", "3d"])
def test_ball_projection_gathers_by_index(ball):
    rng = np.random.default_rng(ball.dim)
    # rows exactly at the radius along each axis, and shells on both sides
    on_axes = ball.center + ball.radius * np.vstack([np.eye(ball.dim),
                                                     -np.eye(ball.dim)])
    pts = [on_axes, ball.center + rng.standard_normal((2000, ball.dim))]
    if ball.dim == 2:
        pts.append(_shell_points(ball, 8, [ball.radius], rng))
    pts = np.concatenate(pts)
    out = ball.project(pts)
    assert np.array_equal(out, _mask_ball_project(ball, pts))
    assert np.array_equal(out[:len(on_axes)], on_axes)


GENERIC_POLYGON = HalfspaceIntersection(
    normals=np.column_stack([np.cos([0.3, 1.4, 2.9, 4.0, 5.2]),
                             np.sin([0.3, 1.4, 2.9, 4.0, 5.2])]),
    offsets=[1.0, 0.8, 1.2, 0.9, 1.1])


def _past_the_corners(dom, dists):
    """Rows ``dists`` past each vertex, in directions well inside its
    normal cone (the bisector of its two face normals and 20% either
    side), with the vertex each one projects to."""
    rows, corners = [], []
    for vertex in dom.vertices:
        faces = np.flatnonzero(np.abs(dom._violations(vertex[None, :])[0])
                               <= 1e-12)
        n_a, n_b = dom.normals[faces[:2]]
        for w in (0.4, 0.5, 0.6):
            direction = w * n_a + (1.0 - w) * n_b
            direction /= np.linalg.norm(direction)
            for d in dists:
                rows.append(vertex + d * direction)
                corners.append(vertex)
    return np.array(rows), np.array(corners)


@pytest.mark.parametrize("dom", [
    HalfspaceIntersection(normals=[[-1.0, 0.0], [0.0, -1.0]],
                          offsets=[0.0, 0.0]),
    GENERIC_POLYGON], ids=["quadrant", "pentagon"])
def test_a_face_foot_past_a_neighbouring_face_gives_way_to_the_corner(dom):
    # the foot on the most violated face violates its neighbour by less
    # than DYKSTRA_TOL here, but it is outside: the corner is the answer
    pts, corners = _past_the_corners(dom, [1e-12, 1e-11, 1e-10])
    if len(dom.offsets) == 2:  # {x >= 0, y >= 0}
        pts = np.concatenate([pts, [[-0.5, -1e-11], [-1e-11, -0.5],
                                    [-3.0, -5e-11]]])
        corners = np.zeros((len(pts), 2))
    # the foot's violation of the neighbour is within DYKSTRA_TOL
    worst = np.argmax(dom._violations(pts), axis=1)
    viol = dom._violations(pts)[np.arange(len(pts)), worst]
    feet = pts - viol[:, None] * dom.normals[worst]
    assert np.all(dom._violations(feet).max(axis=1) <= DYKSTRA_TOL)
    for out in (dom.project(pts), dom._project_candidates(pts),
                np.array([dom.project(p) for p in pts])):
        assert np.all(dom._violations(out).max(axis=1)
                      <= dom._foot_tol(pts))
        assert np.array_equal(out, corners)


@pytest.mark.parametrize("scale", [1.0 - 5e-13, 1.0 + 5e-13],
                         ids=["short", "long"])
@pytest.mark.parametrize("normals", [
    [[1.0, 0.0], [0.0, 1.0]],
    [[1.0, 0.0]],
    [[1.0, 0.0], [-1.0, 0.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
], ids=["vertex", "one-face", "parallel", "3d"])
def test_a_foot_on_a_not_quite_unit_normal_is_kept(normals, scale,
                                                   monkeypatch):
    # a normal 5e-13 off unit leaves the foot off its own face by about
    # 1e-12 of its step, far above the foot's rounding bound; that face is
    # not a neighbour, so the foot stands (no vertex, no Dykstra)
    normals = np.array(normals)
    normals[0] *= scale
    dom = HalfspaceIntersection(normals=normals,
                                offsets=np.ones(len(normals)))

    def no_dykstra(*args, **kwargs):
        raise AssertionError("a face foot went to Dykstra")

    monkeypatch.setattr(domains, "_dykstra", no_dykstra)
    x = np.array([1.5, 3.0, 3.0, 1e3, 1e6])
    pts = np.zeros((len(x), dom.dim))
    pts[:, 0] = x
    pts[1:, 1:] = -0.5
    feet = pts - dom._violations(pts)[:, :1] * dom.normals[0]
    outs = [dom.project(pts), np.array([dom.project(p) for p in pts])]
    if dom.dim == 2:
        outs.append(dom._project_candidates(pts))
    for out in outs:
        assert np.array_equal(out, feet)
        assert np.all(np.abs(out[:, 0] - 1.0) <= 2e-12 * x)
        assert np.all(dom._violations(out)[:, 1:] <= 0.0)


@pytest.mark.parametrize("n", [3, 4, 16, 256])
@pytest.mark.parametrize("ball", SHORTCUT_BALLS, ids=["unit", "offcentre"])
def test_polygon_shortcut_is_exact(ball, n):
    # the disc tests and the sector step give the projection and the
    # membership up to rounding on both sides of every radius they test,
    # with the face path as a second opinion
    gon = polygon_approximation(ball, n)
    rebuilt = HalfspaceIntersection(normals=gon.normals, offsets=gon.offsets)
    rng = np.random.default_rng(n)
    cos_n = math.cos(math.pi / n)
    radii = [ball.radius, ball.radius / cos_n]
    for tol in (0.0, DYKSTRA_TOL, CONTAINS_TOL, -CONTAINS_TOL):
        radii += [ball.radius + tol, (ball.radius + tol) / cos_n]
    pts = np.concatenate([_shell_points(ball, n, radii, rng),
                          rng.standard_normal((1000, 2))])
    out = gon.project(pts)
    _assert_is_the_projection(gon, pts, out)
    assert np.all(np.abs(out - rebuilt.project(pts)).max(axis=1)
                  <= _face_path_gap(gon, pts))
    _assert_contains_within_rounding(
        gon, pts, (0.0, DYKSTRA_TOL, CONTAINS_TOL, 0.5, -CONTAINS_TOL,
                   -0.5 * ball.radius, -2.0 * ball.radius))
    # a row's answer does not depend on the rows beside it
    inside = gon.contains(pts)
    for i in range(0, len(pts), len(pts) // 300):
        pair = np.stack([ball.center, pts[i]])
        assert np.array_equal(gon.project(pts[i]), out[i])
        assert np.array_equal(gon.project(pair)[1], out[i])
        assert gon.contains(pts[i]) == inside[i]


def test_polygon_coupled_paths_follow_the_face_path():
    ball = SHORTCUT_BALLS[1]
    gon = polygon_approximation(ball, 256)
    rebuilt = HalfspaceIntersection(normals=gon.normals, offsets=gon.offsets)
    t, h = 0.5, 1e-2
    ends_gon, ends_rebuilt = evolve_starts([gon, rebuilt],
                                           ball.center[None, :], 2000, t, h, 4)
    # both projections are nonexpansive up to rounding, so the paths part
    # by at most one face-path gap per step
    steps = round(t / h)
    gap = steps * _face_path_gap(gon, np.concatenate([ends_gon,
                                                      ends_rebuilt])).max()
    assert np.abs(ends_gon - ends_rebuilt).max() <= gap
    # some paths end on the boundary, so the sector step did run
    assert not gon._contains(ends_gon, -1e-9).all()
    _assert_contains_within_rounding(gon, ends_gon, [-1e-9])


def _sector_panel(gon, ball, rng):
    """Points at |p - c| from just outside the inscribed ball to 1e12: on
    vertex rays (the sector edges) and 1 ulp either side in angle; on the
    edges of a vertex's normal cone (the rays along its two face normals)
    and 1 ulp either side; on the cone's bisector where the foot on either
    face violates the other by DYKSTRA_TOL, give or take a few hundred
    ulps; and at random angles."""
    n = len(gon.offsets)
    c, r = ball.center, ball.radius
    picked = np.unique(np.concatenate([np.arange(min(n, 4)),
                                       np.arange(n - 2, n),
                                       rng.choice(n, min(n, 10))]))
    mid = np.pi * (2.0 * picked + 1.0) / n
    angles = np.concatenate([mid, np.nextafter(mid, 0.0),
                             np.nextafter(mid, 7.0)])
    dist = r * np.array([1.0 + 1e-12, 1.0 + 1e-6, 1.001, 1.1, 1.5, 3.0,
                         1e3, 1e6, 1e12]) / math.cos(math.pi / n)
    rows = np.stack(np.meshgrid(dist, angles, indexing="ij"), -1).reshape(-1, 2)
    on_rays = c + rows[:, :1] * np.column_stack([np.cos(rows[:, 1]),
                                                 np.sin(rows[:, 1])])
    # the vertex of faces j and j + 1, with both normals
    n_a = gon.normals[picked]
    n_b = gon.normals[(picked + 1) % n]
    rhs = gon.offsets[np.stack([picked, (picked + 1) % n], axis=1)]
    verts = np.linalg.solve(np.stack([n_a, n_b], axis=1),
                            rhs[:, :, None])[:, :, 0]
    steps = r * np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 1e3])
    cone = []
    for normal in (n_a, n_b):
        phi = np.arctan2(normal[:, 1], normal[:, 0])
        for a in (phi, np.nextafter(phi, -7.0), np.nextafter(phi, 7.0)):
            unit = np.column_stack([np.cos(a), np.sin(a)])
            cone.append((verts[:, None, :] + steps[None, :, None]
                         * unit[:, None, :]).reshape(-1, 2))
    sin2 = math.sin(2.0 * math.pi / n) ** 2
    lam = DYKSTRA_TOL / sin2 * (1.0 + np.arange(-300, 301, 30) * 2.0 ** -52)
    skew = lam[:, None] * np.array([-1e-14, 0.0, 1e-14])
    bisector = (verts[:, None, None, :]
                + lam[None, :, None, None] * (n_a + n_b)[:, None, None, :]
                + skew[None, :, :, None] * (n_a - n_b)[:, None, None, :])
    radius = r * np.exp(rng.uniform(0.0, math.log(1e6), 200))
    phi = rng.uniform(-np.pi, np.pi, 200)
    scattered = c + radius[:, None] * np.column_stack([np.cos(phi),
                                                      np.sin(phi)])
    return np.concatenate([on_rays, *cone, bisector.reshape(-1, 2),
                           scattered, c + r * rng.standard_normal((500, 2))])


@pytest.mark.parametrize("n", [3, 4, 5, 1024])
@pytest.mark.parametrize("ball", SHORTCUT_BALLS, ids=["unit", "offcentre"])
def test_sector_path_is_the_face_path(ball, n):
    # the generic system on the same faces runs the face path
    gon = polygon_approximation(ball, n)
    rebuilt = HalfspaceIntersection(normals=gon.normals, offsets=gon.offsets)
    pts = _sector_panel(gon, ball, np.random.default_rng(n))
    out = gon.project(pts)
    _assert_is_the_projection(gon, pts, out)
    face = np.concatenate([rebuilt.project(chunk) for chunk in
                           np.array_split(pts, math.ceil(len(pts) / 2000))])
    # The face path ranks its candidates by |p - y|^2, rounded to 4 eps
    # |p - q|^2. Neighbouring vertices on a face differ by at least L^2
    # (L the edge), so it cannot confuse them while |p - q| < L / (2
    # sqrt(eps)); the 1024-gon's rows at 1e6 R and beyond are past that,
    # and the face path's own answer is off by whole edges there.
    edge = 2.0 * gon.radius * math.tan(math.pi / n)
    ranked = np.linalg.norm(pts - out, axis=1) < edge / (2.0 * math.sqrt(EPS))
    assert ranked.mean() > 0.95
    assert np.all(np.abs(out - face).max(axis=1)[ranked]
                  <= _face_path_gap(gon, pts)[ranked])
    # the panel has rows inside the polygon, on a face and at a vertex
    free = np.all(out == pts, axis=1)
    vertex = np.linalg.norm(out[:, None, :] - gon.vertices,
                            axis=2).min(axis=1) <= 8.0 * EPS * _scale(gon, pts)
    assert free.any() and vertex.any() and (~free & ~vertex).any()
    for i in range(0, len(pts), len(pts) // 50):
        assert np.array_equal(gon.project(pts[i]), out[i])


def test_sector_step_skips_rows_inside_the_disc(monkeypatch):
    # polygon_reflect's largest polygon: only rows outside the inscribed
    # disc reach the sector step, and every end is the projection
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    gon = polygon_approximation(ball, 256)
    counts = []
    sector = RegularPolygon._sector

    def spy(self, pts):
        counts.append((len(pts), int(np.count_nonzero(
            _dist2(pts, self.center) <= self.radius ** 2))))
        return sector(self, pts)

    monkeypatch.setattr(RegularPolygon, "_sector", spy)
    starts = restricted_sample(ball, 8000, 5).points
    ends = evolve_starts([gon], starts, 1, 0.5, 4e-3, 6)[0]
    outside, inside = np.sum(counts, axis=0)
    assert outside > 50_000
    assert inside == 0
    assert gon._contains(ends, 8.0 * EPS * _scale(gon, ends).max()).all()


def test_tiny_polygon_projects_feasibly():
    # at radius 1e-8 the 1e-9 vertex dedup of the face path merges
    # neighbouring vertices of the 256-gon; the closed form has them all
    ball = Ball(center=[0.0, 0.0], radius=1e-8)
    gon = polygon_approximation(ball, 256)
    assert len(gon.vertices) == 256
    assert len(_polygon_vertices(gon.normals, gon.offsets)) < 256
    rng = np.random.default_rng(8)
    pts = np.concatenate([s * 1e-8 * rng.standard_normal((500, 2))
                          for s in (0.5, 1.0, 1.02, 3.0, 1e3)])
    out = gon.project(pts)
    _assert_is_the_projection(gon, pts, out)
    # the face path on the closed-form vertices
    face = HalfspaceIntersection._project(gon, pts)
    assert np.all(np.abs(out - face).max(axis=1) <= _face_path_gap(gon, pts))


@pytest.mark.parametrize("rows", [1, 2, 1000])
def test_2d_violations_are_plain_float_arithmetic(rows):
    faces = polygon_approximation(Ball(center=[0.3, -1.7], radius=1.3), 7)
    gon = HalfspaceIntersection(normals=faces.normals, offsets=faces.offsets)
    rng = np.random.default_rng(rows)
    pts = rng.standard_normal((rows, 2)) * np.exp(rng.uniform(-20, 20,
                                                              (rows, 1)))
    got = gon._violations(pts)
    for i, (x, y) in enumerate(pts.tolist()):
        for j, ((nx, ny), b) in enumerate(zip(gon.normals.tolist(),
                                              gon.offsets.tolist())):
            assert got[i, j] == x * nx + y * ny - b


def test_1d_violations_equal_the_matmul():
    rng = np.random.default_rng(8)
    pts = np.concatenate([rng.standard_normal((1000, 1)) * 3.0,
                          [[0.0], [-0.0]]])
    for dom in (half_line(0.4), HalfspaceIntersection(
            normals=[[1.0], [-1.0]], offsets=[1.5, 0.25])):
        assert np.array_equal(dom._violations(pts),
                              pts @ dom.normals.T - dom.offsets)


def _reference_vertices(normals, offsets, tol=1e-9):
    """The pairwise loop the batched enumeration replaced."""
    m = len(offsets)
    verts = []
    for i in range(m):
        for j in range(i + 1, m):
            mat = np.array([normals[i], normals[j]])
            det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
            if abs(det) < 1e-12:
                continue
            v = np.linalg.solve(mat, np.array([offsets[i], offsets[j]]))
            if np.all(normals @ v - offsets <= tol):
                verts.append(v)
    if not verts:
        return np.empty((0, 2))
    verts = np.array(verts)
    rounded = np.round(verts / 1e-9) * 1e-9
    _, unique_idx = np.unique(rounded, axis=0, return_index=True)
    return verts[np.sort(unique_idx)]


def _vertex_panel():
    panel = [pytest.param(polygon_approximation(ball, n), id=f"gon{n}-{name}")
             for n in (3, 4, 5, 16, 64, 256)
             for name, ball in zip(("unit", "offcentre"), SHORTCUT_BALLS)]
    s = 1.0 / math.sqrt(2.0)
    panel += [
        # x <= 2 only touches the vertex (2, 0) of the triangle
        pytest.param(HalfspaceIntersection(
            normals=[[-1.0, 0.0], [0.0, -1.0], [s, s], [1.0, 0.0]],
            offsets=[0.0, 0.0, 2.0 * s, 2.0]), id="redundant"),
        pytest.param(HalfspaceIntersection(
            normals=[[1.0, 0.0], [-1.0, 0.0]], offsets=[1.0, 1.0]),
            id="parallel"),
        pytest.param(quadrant(), id="quadrant"),
    ]
    return panel


def _assert_same_vertices(gon, solved):
    """The closed-form corners of ``gon`` are the ``solved`` vertex set.

    A solved corner is where two face lines at angle beta = 2 pi / n
    cross. Each line is off by under 2 eps (|c| + R) (its normal's rounding
    at the corner and its offset's), the solve rounds as much again, and a
    line moved by d moves the crossing by up to d / sin(beta): under
    8 eps (|c| + R) / sin(beta) in all. The closed form's own rounding,
    2 eps (|c| + R), fits in what that overstates."""
    bound = (8.0 * EPS * (np.linalg.norm(gon.center) + gon.circumradius)
             / math.sin(2.0 * math.pi / gon.sides))
    dist = np.linalg.norm(solved[:, None, :] - gon.vertices[None, :, :],
                          axis=2)
    assert solved.shape == gon.vertices.shape
    assert np.array_equal(np.sort(dist.argmin(axis=1)),
                          np.arange(gon.sides))
    assert dist.min(axis=1).max() <= bound


@pytest.mark.parametrize("dom", _vertex_panel())
def test_polygon_vertices_match_pairwise_loop(dom):
    expected = _reference_vertices(dom.normals, dom.offsets)
    got = _polygon_vertices(dom.normals, dom.offsets)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    # a RegularPolygon has its corners in closed form
    if isinstance(dom, RegularPolygon):
        _assert_same_vertices(dom, expected)
    else:
        assert np.array_equal(dom.vertices, expected)


def test_polygon_vertices_memory_is_bounded():
    # all 523,776 face pairs of a 1024-gon against all faces would be a
    # 4 GB feasibility matrix; with row blocks the peak is the per-pair
    # arrays, about 50 MB. Only the generic system on the same faces
    # enumerates them all; the RegularPolygon has its 1,024 corners in
    # closed form, and they must be the same vertices.
    gon = polygon_approximation(Ball(center=[0.0, 0.0], radius=1.0), 1024)
    rebuilt = HalfspaceIntersection(normals=gon.normals, offsets=gon.offsets)
    tracemalloc.start()
    try:
        verts = rebuilt.vertices
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verts.shape == (1024, 2)
    assert np.allclose(np.linalg.norm(verts, axis=1),
                       1.0 / math.cos(math.pi / 1024))
    assert peak < 256e6
    _assert_same_vertices(gon, verts)


def _reference_project_candidates(self, pts):
    """The unblocked candidate enumeration: every candidate of every row
    checked against every face in one violation matrix, the nearest
    feasible face foot taken over any vertex, and the vertices ranked by
    |p - v|^2 - |p - c|^2 about their mean c."""
    n, m = len(pts), len(self.offsets)
    sviol = self._violations(pts)
    dist = np.full((n, m), np.inf)
    rows, faces = np.nonzero(sviol > 0.0)
    cand = pts[rows] - sviol[rows, faces][:, None] * self.normals[faces]
    ok = np.all(self._foot_violations(cand, faces)
                <= self._foot_tol(pts)[rows, None], axis=1)
    dist[rows[ok], faces[ok]] = sviol[rows[ok], faces[ok]]
    best = np.argmin(dist, axis=1)
    on_face = np.isfinite(dist[np.arange(n), best])
    verts = self.vertices
    if not (np.all(on_face) or len(verts)):
        raise NoConvergence("no feasible projection candidate found")
    c = verts.mean(axis=0)
    rel = verts - c
    out = np.empty_like(pts)
    for i in range(n):
        if on_face[i]:
            out[i] = pts[i] - sviol[i, best[i]] * self.normals[best[i]]
        else:
            rank = -2.0 * ((pts[i, 0] - c[0]) * rel[:, 0]
                           + (pts[i, 1] - c[1]) * rel[:, 1]) \
                + (rel ** 2).sum(axis=1)
            out[i] = verts[np.argmin(rank)]
    return out


def test_polygon_candidate_memory_is_bounded(monkeypatch):
    # the generic system on a 256-gon's faces has no fast path, so every
    # point outside it reaches the candidate enumeration; unblocked, its
    # feasibility test held rows x violated faces x faces values (about
    # 2.9 GB here)
    faces = polygon_approximation(Ball(center=[0.0, 0.0], radius=1.0), 256)
    gon = HalfspaceIntersection(normals=faces.normals, offsets=faces.offsets)
    pts = 1.5 * np.random.default_rng(0).standard_normal((20_000, 2))
    gon.vertices
    tracemalloc.start()
    try:
        got = gon.project(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256e6
    # the reference runs on 1,000-row slices, which keeps it near 140 MB
    monkeypatch.setattr(HalfspaceIntersection, "_project_candidates",
                        _reference_project_candidates)
    expected = np.concatenate([gon.project(pts[i:i + 1000])
                               for i in range(0, len(pts), 1000)])
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("center", [[0.0, 0.0], [0.4, -0.3]],
                         ids=["unit", "offcentre"])
def test_far_rows_find_their_corner(center):
    # |p - v|^2 rounds to about eps |p|^2, which swamped the differences
    # between neighbouring corners of a 1024-gon: of these 500 rows, 7-8 at
    # |p| = 1e10 and about 330 at 1e12 landed an edge or more away; ranked
    # without the |p - c|^2 all corners share, the generic system finds the
    # closed form's answer to the rounding of a foot's coordinates
    gon = polygon_approximation(Ball(center=center, radius=1.0), 1024)
    rebuilt = HalfspaceIntersection(normals=gon.normals, offsets=gon.offsets)
    angles = np.linspace(0.0, 2.0 * np.pi, 500, endpoint=False)
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    for radius in (1e10, 1e12):
        pts = gon.center + radius * ring
        gap = np.abs(rebuilt.project(pts) - gon.project(pts)).max(axis=1)
        assert np.all(gap <= np.maximum(1e-12,
                                        4.0 * EPS * np.abs(pts).max(axis=1)))


def test_truncation_box_matches_tail_formula():
    # oracle: 2(1 - Phi(1)) = 0.3173...; the box must cut exactly at 1
    tail = 2.0 * float(norm.sf(1.0))
    lo, hi = truncation_box(WholeSpace(1), tail)
    assert abs(hi[0] - 1.0) < 1e-9 and abs(lo[0] + 1.0) < 1e-9

    lo, hi = truncation_box(WholeSpace(1), 1e-12)
    assert abs(hi[0] - float(norm.isf(5e-13))) < 1e-9
    assert 7.0 < hi[0] < 7.2


def test_truncation_box_respects_domain_bounds():
    lo, hi = truncation_box(interval(-1.0, 1.0), 0.5)
    assert lo[0] == -1.0 and hi[0] == 1.0
    lo, hi = truncation_box(half_line(), 1e-12)
    assert lo[0] == 0.0 and hi[0] > 7.0
    lo, hi = truncation_box(Product(base=interval(-1.0, 1.0), free_dims=1),
                            1e-10)
    assert hi[1] == float(norm.isf(1e-10 / 4.0))


def test_truncation_box_quadrant_linprog_bounds():
    lo, hi = truncation_box(quadrant(), 1e-10)
    assert hi[0] == 0.0 and hi[1] == 0.0
    assert lo[0] < -6.0


def test_ndtri_is_bitwise_norm_isf():
    # truncation_box cuts at -ndtri(p) so that scipy.stats is not imported;
    # it must be the same float as norm.isf(p) over the whole tail range
    p = np.logspace(-300, math.log10(0.5), 10_000)
    assert np.array_equal(-ndtri(p), norm.isf(p))


def _linprog_bounds(dom):
    """The bounds by one linear program per side, as computed in every
    dimension before 1D got its closed form."""
    lo, hi = np.full(dom.dim, -np.inf), np.full(dom.dim, np.inf)
    for i in range(dom.dim):
        for sign, target in ((1.0, lo), (-1.0, hi)):
            c = np.zeros(dom.dim)
            c[i] = sign
            res = scipy.optimize.linprog(
                c, A_ub=dom.normals, b_ub=dom.offsets,
                bounds=[(None, None)] * dom.dim, method="highs")
            if res.status == 0:
                target[i] = sign * res.fun
    return lo, hi


ONE_D_SYSTEMS = [
    half_line(0.0), half_line(0.3), half_line(-1.5),
    load_default_config().domain("halfline"),
    HalfspaceIntersection(normals=[[1.0]], offsets=[2.0]),
    HalfspaceIntersection(normals=[[1.0], [-1.0]], offsets=[1.0, 1.0]),
    HalfspaceIntersection(normals=[[1.0], [-1.0]], offsets=[1.0 / 3.0, -0.1]),
    HalfspaceIntersection(normals=[[-1.0], [1.0], [-1.0]],
                          offsets=[-0.2, 2.0, 0.5]),
    HalfspaceIntersection(normals=[[1.0], [-1.0], [1.0], [-1.0]],
                          offsets=[0.7, 0.2, 0.5, -0.1]),
]


@pytest.mark.parametrize("dom", ONE_D_SYSTEMS, ids=[
    "halfline0", "halfline0.3", "halfline-1.5", "bundled", "upper", "interval",
    "skewed", "redundant", "doubled"])
def test_one_d_bounds_are_bitwise_linprog(dom):
    got, expected = dom.axis_bounds(), _linprog_bounds(dom)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def test_one_d_zero_bounds_are_positive_zero():
    # linprog gives x <= 0 the upper bound -0.0; the closed form gives +0.0,
    # as it does (like linprog) for the lower bound of half_line(0)
    _, hi = HalfspaceIntersection(normals=[[1.0]], offsets=[0.0]).axis_bounds()
    assert hi[0] == 0.0 and not np.signbit(hi[0])


EMPTY_SYSTEMS = [
    HalfspaceIntersection(normals=[[1.0], [-1.0]], offsets=[-1.0, -1.0]),
    HalfspaceIntersection(normals=[[1.0], [-1.0]], offsets=[0.5, -0.5]),
    HalfspaceIntersection(normals=[[1.0, 0.0], [-1.0, 0.0]],
                          offsets=[-1.0, -1.0]),
    HalfspaceIntersection(normals=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
                          offsets=[-1.0, -1.0, 3.0]),
]


@pytest.mark.parametrize("dom", EMPTY_SYSTEMS,
                         ids=["1d", "1d-point", "2d", "2d-redundant"])
def test_empty_halfspace_system_raises(dom):
    with pytest.raises(EmptyDomain):
        dom.axis_bounds()
    with pytest.raises(EmptyDomain):
        truncation_box(dom, 1e-12)


def _times_unit_interval(normals, offsets):
    """A 1D half-space system on x times [-1, 1] in y."""
    return HalfspaceIntersection(
        normals=[[n, 0.0] for n in normals] + [[0.0, 1.0], [0.0, -1.0]],
        offsets=list(offsets) + [1.0, 1.0])


def test_axis_faces_fix_linprog_near_its_tolerance():
    # linprog meets constraints to 1e-7: it gave this empty system the
    # x-bounds (5e-9, -5e-9), and the second the upper bound 1.6e-8
    with pytest.raises(EmptyDomain):
        _times_unit_interval([1.0, -1.0], [-5e-9, -5e-9]).axis_bounds()
    lo, hi = _times_unit_interval([1.0, 1.0], [1.6e-8, -1.4e-8]).axis_bounds()
    assert hi[0] == -1.4e-8 and lo[0] == -np.inf
    assert (lo[1], hi[1]) == (-1.0, 1.0)


def test_linprog_failure_is_no_convergence(monkeypatch):
    class Stalled:
        status, message = 4, "numerical difficulties"

    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: Stalled)
    with pytest.raises(NoConvergence):
        quadrant().axis_bounds()


def test_dykstra_agrees_with_exact_projection():
    gon = polygon_approximation(Ball(center=[0.0, 0.0], radius=1.0), 8)
    pts = np.random.default_rng(3).standard_normal((50, 2)) * 2.0
    outside = pts[~gon.contains(pts)]
    exact = gon.project(outside)
    iterated = _dykstra(outside, gon.normals, gon.offsets, tol=1e-12,
                        max_sweeps=100_000)
    assert np.abs(exact - iterated).max() < 1e-9


def test_dykstra_sweep_cap_raises():
    with pytest.raises(NoConvergence):
        _dykstra(np.array([[1.0, 1.0]]), quadrant().normals,
                 quadrant().offsets, max_sweeps=1)


def test_config_round_trip_exact():
    for dom in DOMAIN_PANEL:
        text = json.dumps(dom.to_config())
        back = domain_from_config(json.loads(text))
        assert type(back) is type(dom)
        assert back.dim == dom.dim
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((100, dom.dim))
        assert np.array_equal(back.project(pts), dom.project(pts))


@pytest.mark.parametrize("n", [3, 4, 16, 256, 1024])
@pytest.mark.parametrize("radius", [1.0, 1e-6, 1e-8])
def test_regular_polygon_round_trips_bit_for_bit(radius, n):
    # the rebuild is the same polygon, fast paths and vertices included
    gon = polygon_approximation(Ball(center=[0.3, -1.7], radius=radius), n)
    back = domain_from_config(json.loads(json.dumps(gon.to_config())))
    assert type(back) is RegularPolygon
    rng = np.random.default_rng(n)
    pts = np.concatenate([
        _shell_points(gon, min(n, 16), [radius, gon.circumradius], rng),
        gon.center + radius * np.concatenate([
            s * rng.standard_normal((400, 2)) for s in (0.5, 1.0, 3.0, 1e3)])])
    assert np.array_equal(back.vertices, gon.vertices)
    assert np.array_equal(back.project(pts), gon.project(pts))
    for tol in (0.0, DYKSTRA_TOL, CONTAINS_TOL):
        assert np.array_equal(back._contains(pts, tol),
                              gon._contains(pts, tol))


def test_config_errors():
    with pytest.raises(ValueError):
        domain_from_config({"shape": "moebius"})
    with pytest.raises(ValueError):
        domain_from_config({"dim": 2})


def test_validation_errors():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError):
        HalfspaceIntersection(normals=[[2.0, 0.0]], offsets=[1.0])
    for normals, offsets in (([[nan, 0.0]], [1.0]), ([[1.0, 0.0]], [nan])):
        with pytest.raises(ValueError):
            HalfspaceIntersection(normals=normals, offsets=offsets)
    with pytest.raises(ValueError):
        Slab(direction=[nan], lower=0.0, upper=1.0)
    for center, radius in (([0.0], 0.0), ([0.0], nan), ([0.0], inf),
                           ([nan], 1.0)):
        with pytest.raises(ValueError):
            Ball(center=center, radius=radius)
    for center, radius, sides in (([nan, 0.0], 1.0, 4), ([0.0, 0.0], nan, 4),
                                  ([0.0, 0.0], inf, 4), ([0.0, 0.0], -1.0, 4),
                                  ([0.0, 0.0], 1.0, 3.5), ([0.0, 0.0], 1.0, 2),
                                  ([0.0], 1.0, 4)):
        with pytest.raises(ValueError):
            RegularPolygon(center=center, radius=radius, sides=sides)
    with pytest.raises(ValueError):
        Slab(direction=[1.0], lower=1.0, upper=1.0)
    with pytest.raises(ValueError):
        Product(base=WholeSpace(1), free_dims=-1)
