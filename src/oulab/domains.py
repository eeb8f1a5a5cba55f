"""Open convex subsets of R^d.

Membership, Euclidean projection, product structure with free Gaussian
factors, and regular polygons circumscribed about discs. Only half-space
systems in 2D and above lack a closed-form projection. All point
operations accept a single point of shape ``(dim,)`` or a batch of shape
``(n, dim)``; batches are the fast path used by the reflected-path engine.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

UNIT_TOL = 1e-12
CONTAINS_TOL = 1e-9
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_SWEEPS = 10_000
# the rounding a face foot and its violations may take, per unit of
# |p|_1 + max |b| (a few roundings of terms of that size)
FOOT_ROUNDING = 16.0 * np.finfo(float).eps


class DimensionMismatch(ValueError):
    """Point dimension does not match the domain dimension."""


class NoConvergence(RuntimeError):
    """Iterative projection failed to reach tolerance within the sweep cap."""


class UnsupportedDimension(ValueError):
    """Operation is only defined for a specific ambient dimension."""


class EmptyDomain(ValueError):
    """The domain has no interior (its constraints exclude each other), or
    none inside the truncation box of a grid."""


def _as_batch(x, dim):
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DimensionMismatch(
            f"expected points in R^{dim}, got array of shape {np.asarray(x).shape}"
        )
    return pts, single


def _dist2(pts, center):
    """Squared distances of the rows from ``center``, column by column (an
    (n, dim) broadcast costs more), rounded as ``np.linalg.norm`` does."""
    out = pts[:, 0] - center[0]
    out *= out
    for k in range(1, len(center)):
        d = pts[:, k] - center[k]
        d *= d
        out += d
    return out


class ConvexDomain:
    """Base class for open convex sets with membership and projection."""

    dim: int

    def contains(self, x):
        """Closed-set membership test within ``CONTAINS_TOL``."""
        pts, single = _as_batch(x, self.dim)
        out = self._contains(pts, CONTAINS_TOL)
        return bool(out[0]) if single else out

    def project(self, x):
        """Euclidean projection onto the closed set. In 1D every domain is
        the closed interval ``axis_bounds()``, and its projection is one
        clip onto it: the foot is exact, however far the point."""
        pts, single = _as_batch(x, self.dim)
        if self.dim == 1:
            out = np.clip(pts, *self._interval)
        else:
            out = self._project(pts)
        return out[0] if single else out

    def axis_bounds(self):
        """Per-axis bounding interval ``(lo, hi)`` with +-inf where unbounded."""
        raise NotImplementedError

    @cached_property
    def _interval(self):
        return self.axis_bounds()

    def to_config(self) -> dict:
        """JSON-ready description; ``from_config`` round-trips it exactly."""
        raise NotImplementedError

    # subclasses implement the batch forms
    def _contains(self, pts, tol):
        raise NotImplementedError

    def _project(self, pts):
        raise NotImplementedError


@dataclass(frozen=True)
class WholeSpace(ConvexDomain):
    """All of R^d: projection is the identity and there is no boundary."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def _contains(self, pts, tol):
        return np.ones(len(pts), dtype=bool)

    def _project(self, pts):
        return pts.copy()

    def axis_bounds(self):
        return np.full(self.dim, -np.inf), np.full(self.dim, np.inf)

    def to_config(self):
        return {"shape": "whole_space", "dim": self.dim}


# violations held at once by the feasibility tests of the vertex and
# projection candidates of a half-space system (512 kB: a block stays in
# cache, which made the 1024-gon faster than larger blocks did)
VERTEX_BLOCK = 1 << 16


@dataclass(frozen=True)
class HalfspaceIntersection(ConvexDomain):
    """Intersection of half-spaces ``{x : a_i . x <= b_i}`` with unit normals."""

    normals: np.ndarray
    offsets: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        offsets = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if normals.shape[0] != offsets.shape[0]:
            raise ValueError("one offset per normal required")
        lengths = np.linalg.norm(normals, axis=1)
        if not np.all(np.abs(lengths - 1.0) <= UNIT_TOL):  # NaN fails too
            raise ValueError("half-space normals must have unit Euclidean norm")
        if not np.all(np.isfinite(offsets)):
            raise ValueError("half-space offsets must be finite")
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "dim", normals.shape[1])

    def _violations(self, pts):
        if self.dim > 2:
            return pts @ self.normals.T - self.offsets
        # elementwise, without BLAS: every entry is x nx + y ny - b rounded
        # three times (x nx - b in 1D, the one product a matmul would form
        # at a degenerate call's cost), whatever the batch (a gemm may fuse
        # or reorder, and a lone row goes through gemv), so a row's values
        # do not depend on the rows beside it
        out = pts[:, :1] * self.normals[:, 0]
        if self.dim == 2:
            out += pts[:, 1:] * self.normals[:, 1]
        out -= self.offsets
        return out

    def _contains(self, pts, tol):
        return np.all(self._violations(pts) <= tol, axis=1)

    @cached_property
    def vertices(self) -> np.ndarray:
        """Feasible pairwise face intersections (2D only)."""
        if self.dim != 2:
            raise UnsupportedDimension("vertices are enumerated in 2D only")
        return _polygon_vertices(self.normals, self.offsets)

    def _project(self, pts):
        viol = self._violations(pts)
        j = np.argmax(viol, axis=1)
        worst = viol[np.arange(len(pts)), j]
        out = pts.copy()
        bad = worst > 0.0
        if not np.any(bad):
            return out
        sub = pts[bad]
        # Projecting onto the most-violated half-space alone is exact
        # whenever the result is feasible (it attains the distance to a
        # superset of the intersection).
        j = j[bad]
        cand = sub - worst[bad][:, None] * self.normals[j]
        feasible = np.all(self._foot_violations(cand, j)
                          <= self._foot_tol(sub)[:, None], axis=1)
        if not np.all(feasible):
            rest = sub[~feasible]
            if self.dim == 2:
                cand[~feasible] = self._project_candidates(rest)
            else:
                cand[~feasible] = _dykstra(rest, self.normals, self.offsets)
        out[bad] = cand
        return out

    def _foot_violations(self, feet, faces):
        """Violations of each foot, with its own face left out: a normal
        may be ``UNIT_TOL`` off unit, which leaves the foot off its face by
        that much of its step, far above the rounding ``_foot_tol`` allows
        the other faces."""
        viol = self._violations(feet)
        viol[np.arange(len(feet)), faces] = -np.inf
        return viol

    def _foot_tol(self, pts):
        """The most a face foot of each row may violate another face by
        rounding alone; a foot past that is outside, and a vertex is
        nearer."""
        return FOOT_ROUNDING * (np.abs(pts).sum(axis=1)
                                + np.abs(self.offsets).max())

    def _project_candidates(self, pts):
        """Exact 2D projection by enumerating face and vertex candidates.

        If the projection foot lies on a face, that face's constraint is
        violated at the point, so only violated faces contribute face
        candidates. A face candidate that violates no other face by more
        than its rounding (``_foot_tol``) is the projection, as in
        ``_project``, so the nearest such foot wins outright; the other
        rows go to the nearest vertex. Vertices are ranked by
        ``|v - c|^2 - 2 (p - c).(v - c)`` about their mean c: that is
        ``|p - v|^2`` without the ``|p - c|^2`` they all share, whose
        rounding would swamp their differences on far rows. Closed form,
        unlike iterative projection, which stalls on nearly parallel
        adjacent faces. Face candidates are tested in blocks of at most
        ``VERTEX_BLOCK`` violations.
        """
        n, m = len(pts), len(self.offsets)
        sviol = self._violations(pts)
        rows, faces = np.nonzero(sviol > 0.0)
        cand = pts[rows] - sviol[rows, faces][:, None] * self.normals[faces]
        tol = self._foot_tol(pts)[rows]
        ok = np.empty(len(cand), dtype=bool)
        block = max(1, VERTEX_BLOCK // m)
        for start in range(0, len(cand), block):
            sl = slice(start, start + block)
            ok[sl] = np.all(self._foot_violations(cand[sl], faces[sl])
                            <= tol[sl, None], axis=1)
        dist = np.full((n, m), np.inf)
        dist[rows[ok], faces[ok]] = sviol[rows[ok], faces[ok]]
        face = np.argmin(dist, axis=1)
        on_face = np.isfinite(dist[np.arange(n), face])
        out = np.empty_like(pts)
        sel = np.flatnonzero(on_face)
        out[sel] = pts[sel] - sviol[sel, face[sel]][:, None] \
            * self.normals[face[sel]]
        rest = np.flatnonzero(~on_face)
        if len(rest):
            verts = self.vertices
            if not len(verts):
                raise NoConvergence("no feasible projection candidate found")
            c = verts.mean(axis=0)
            rel, far = verts - c, pts[rest] - c
            # elementwise, as in _violations: a row's ranks do not depend
            # on the rows beside it
            rank = np.einsum("ij,ij->i", rel, rel) - 2.0 * (
                np.multiply.outer(far[:, 0], rel[:, 0])
                + np.multiply.outer(far[:, 1], rel[:, 1]))
            out[rest] = verts[np.argmin(rank, axis=1)]
        return out

    def axis_bounds(self):
        """Per-axis bounding interval ``(lo, hi)`` with +-inf where unbounded.

        A face ``a x_i <= b`` whose normal is ``+-e_i`` bounds axis i
        exactly by ``b / a``: above when ``a > 0``, below when ``a < 0``
        (a zero bound is +0.0). In 1D every face is one of these, so the
        bounds are closed form. Above 1D each side is first a linear
        program, which such faces then tighten: ``linprog`` meets its
        constraints only to 1e-7, so it can misplace a bound or miss an
        empty system near 1e-8. ``linprog`` is imported here, so only a
        grid built on such a system loads ``scipy.optimize``. Raises
        ``EmptyDomain`` when the constraints leave no interior and
        ``NoConvergence`` when the solver gives up.
        """
        if self.dim == 1:
            lo, hi = np.full(1, -np.inf), np.full(1, np.inf)
        else:
            lo, hi = self._linprog_bounds()
        single = np.count_nonzero(self.normals, axis=1) == 1
        axis = np.argmax(np.abs(self.normals[single]), axis=1)
        a = self.normals[single, axis]
        bound = self.offsets[single] / a
        np.maximum.at(lo, axis[a < 0], bound[a < 0])
        np.minimum.at(hi, axis[a > 0], bound[a > 0])
        lo += 0.0
        hi += 0.0
        if np.any(lo >= hi):
            i = int(np.argmax(lo >= hi))
            raise EmptyDomain(f"half-spaces leave no interior: lower bound "
                              f"{lo[i]} >= upper bound {hi[i]} on axis {i}")
        return lo, hi

    def _linprog_bounds(self):
        """Each axis side by one linear program (``dim >= 2``)."""
        from scipy.optimize import linprog
        lo = np.full(self.dim, -np.inf)
        hi = np.full(self.dim, np.inf)
        free = [(None, None)] * self.dim
        for i in range(self.dim):
            c = np.zeros(self.dim)
            for sign, target in ((1.0, lo), (-1.0, hi)):
                c[i] = sign
                res = linprog(c, A_ub=self.normals, b_ub=self.offsets,
                              bounds=free, method="highs")
                if res.status == 0:
                    target[i] = sign * res.fun
                elif res.status == 2:
                    raise EmptyDomain("half-space system is infeasible")
                elif res.status != 3:  # 3: unbounded along this axis
                    raise NoConvergence(f"linprog: {res.message}")
                c[i] = 0.0
        return lo, hi

    def to_config(self):
        return {
            "shape": "halfspaces",
            "normals": self.normals.tolist(),
            "offsets": self.offsets.tolist(),
        }


@dataclass(frozen=True)
class Ball(ConvexDomain):
    """Open Euclidean ball of positive radius."""

    center: np.ndarray
    radius: float
    dim: int = field(init=False)

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if not np.all(np.isfinite(center)):
            raise ValueError("center must be finite")
        if not 0 < self.radius < math.inf:  # NaN fails too
            raise ValueError("radius must be finite and positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dim", center.shape[0])

    def _contains(self, pts, tol):
        return np.sqrt(_dist2(pts, self.center)) <= self.radius + tol

    def _project(self, pts):
        r = np.sqrt(_dist2(pts, self.center))
        out = pts.copy()
        far = np.flatnonzero(r > self.radius)
        out[far] = self.center + (pts[far] - self.center) \
            * (self.radius / r[far])[:, None]
        return out

    def axis_bounds(self):
        return self.center - self.radius, self.center + self.radius

    def to_config(self):
        return {"shape": "ball", "center": self.center.tolist(),
                "radius": float(self.radius)}


@dataclass(frozen=True)
class Slab(ConvexDomain):
    """``{x : lower <= d . x <= upper}`` for a unit direction ``d``."""

    direction: np.ndarray
    lower: float
    upper: float
    dim: int = field(init=False)

    def __post_init__(self):
        direction = np.atleast_1d(np.asarray(self.direction, dtype=float))
        if not abs(np.linalg.norm(direction) - 1.0) <= UNIT_TOL:  # NaN fails
            raise ValueError("slab direction must be a unit vector")
        if not self.lower < self.upper:
            raise ValueError("slab needs lower < upper")
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "dim", direction.shape[0])

    def _contains(self, pts, tol):
        if self.dim == 1:  # the interval projection clips onto
            (lo,), (hi,) = self._interval
            return (pts[:, 0] >= lo - tol) & (pts[:, 0] <= hi + tol)
        s = pts @ self.direction
        return (s >= self.lower - tol) & (s <= self.upper + tol)

    def _project(self, pts):
        # pts + (clip(s) - s) d, in one output array and one scratch vector
        s = pts @ self.direction
        shift = np.clip(s, self.lower, self.upper)
        shift -= s
        out = np.multiply(shift[:, None], self.direction)
        out += pts
        return out

    def axis_bounds(self):
        """Per-axis bounds, read as a half-space face's ``b / a``: a
        direction within ``UNIT_TOL`` of ``+-e_i`` bounds axis i by
        ``lower / d_i`` and ``upper / d_i`` (a zero bound is +0.0)."""
        lo = np.full(self.dim, -np.inf)
        hi = np.full(self.dim, np.inf)
        axis = np.flatnonzero(np.abs(np.abs(self.direction) - 1.0) <= UNIT_TOL)
        if len(axis) == 1:
            i = axis[0]
            ends = sorted((self.lower / self.direction[i],
                           self.upper / self.direction[i]))
            lo[i], hi[i] = ends[0] + 0.0, ends[1] + 0.0
        return lo, hi

    def to_config(self):
        return {"shape": "slab", "direction": self.direction.tolist(),
                "lower": float(self.lower), "upper": float(self.upper)}


@dataclass(frozen=True)
class Product(ConvexDomain):
    """``base x R^k``: the first ``base.dim`` coordinates are constrained."""

    base: ConvexDomain
    free_dims: int
    dim: int = field(init=False)

    def __post_init__(self):
        if self.free_dims < 0:
            raise ValueError("free_dims must be nonnegative")
        object.__setattr__(self, "dim", self.base.dim + self.free_dims)

    def _contains(self, pts, tol):
        return self.base._contains(pts[:, : self.base.dim], tol)

    def _project(self, pts):
        out = pts.copy()
        out[:, : self.base.dim] = self.base.project(pts[:, : self.base.dim])
        return out

    def axis_bounds(self):
        lo_b, hi_b = self.base.axis_bounds()
        lo = np.concatenate([lo_b, np.full(self.free_dims, -np.inf)])
        hi = np.concatenate([hi_b, np.full(self.free_dims, np.inf)])
        return lo, hi

    def to_config(self):
        return {"shape": "product", "base": self.base.to_config(),
                "free_dims": int(self.free_dims)}


@dataclass(frozen=True)
class RegularPolygon(HalfspaceIntersection):
    """Regular n-gon (``n = sides >= 3``) circumscribed about the disc of
    ``radius`` r at ``center``: face j touches it in direction
    ``m_j = (cos, sin)(2 pi j / n)``, so the n, 2n, 4n, ...-gons nest down
    to it. Its vertices lie at ``circumradius`` R = r / cos(pi / n).

    In closed form: the polar angle of p - c names the sector j =
    rint(angle n / 2 pi) mod n. With u, v the coordinates of p - c along
    m_j and t_j = (-m_jy, m_jx), p is inside when u <= r and otherwise
    projects to c + r m_j + clip(v, +-r tan(pi / n)) t_j."""

    normals: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    center: np.ndarray
    radius: float
    sides: int
    circumradius: float = field(init=False)

    def __post_init__(self):
        disc = Ball(center=self.center, radius=float(self.radius))
        if disc.dim != 2:
            raise UnsupportedDimension("a regular polygon needs a 2D center")
        if not isinstance(self.sides, numbers.Integral) or self.sides < 3:
            raise ValueError(f"need an integer >= 3 sides, got {self.sides!r}")
        center, radius, n = disc.center, disc.radius, int(self.sides)
        angles = 2.0 * np.pi * np.arange(n) / n
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        for name, value in (("center", center), ("radius", radius),
                            ("sides", n), ("normals", normals),
                            ("offsets", normals @ center + radius),
                            ("circumradius", radius / math.cos(math.pi / n))):
            object.__setattr__(self, name, value)
        super().__post_init__()

    def _sector(self, pts):
        """The normal m_j of each row's sector (two columns) and the row's
        coordinates u, v on it."""
        dx = pts[:, 0] - self.center[0]
        dy = pts[:, 1] - self.center[1]
        j = np.rint(np.arctan2(dy, dx) * (self.sides / (2.0 * math.pi)))
        j = j.astype(np.intp) % self.sides
        mx, my = self.normals[:, 0].take(j), self.normals[:, 1].take(j)
        return mx, my, dx * mx + dy * my, dy * mx - dx * my

    def _contains(self, pts, tol):
        reach = self.radius + tol
        if reach < 0.0:
            return np.zeros(len(pts), dtype=bool)
        # inside within r + tol of c, outside beyond the corners of the
        # polygon widened by tol, and the sector test on the ring between
        dist2 = _dist2(pts, self.center)
        inside = dist2 <= reach * reach
        outer = reach / math.cos(math.pi / self.sides)
        ring = np.flatnonzero(~inside & (dist2 <= outer * outer))
        inside[ring] = self._sector(pts[ring])[2] <= reach
        return inside

    @cached_property
    def vertices(self) -> np.ndarray:
        """The corners c + R (cos, sin)((j + 1/2) 2 pi / n), j = 0..n - 1;
        corner j is shared by faces j and j + 1."""
        angles = np.pi * (2.0 * np.arange(self.sides) + 1.0) / self.sides
        return self.center + self.circumradius * np.column_stack(
            [np.cos(angles), np.sin(angles)])

    def _project(self, pts):
        # rows inside the disc stay where they are
        out = pts.copy()
        r = self.radius
        far = np.flatnonzero(_dist2(pts, self.center) > r * r)
        mx, my, u, v = self._sector(pts[far])
        outside = u > r
        far, mx, my, v = far[outside], mx[outside], my[outside], v[outside]
        half = r * math.tan(math.pi / self.sides)
        np.clip(v, -half, half, out=v)
        out[far, 0] = self.center[0] + r * mx - v * my
        out[far, 1] = self.center[1] + r * my + v * mx
        return out

    def to_config(self):
        return {"shape": "regular_polygon", "center": self.center.tolist(),
                "radius": self.radius, "sides": self.sides}


def _polygon_vertices(normals, offsets, tol=1e-9):
    """Feasible intersections of face-line pairs of a 2D half-space system.

    The pairs come in the order (0, 1), (0, 2), ..., (1, 2), ...; nearly
    parallel pairs are skipped. All pairs go through one batched solve; the
    feasibility test runs over blocks of pairs, so it holds at most
    ``VERTEX_BLOCK`` violations at a time however many faces there are.
    """
    i, j = np.triu_indices(len(offsets), 1)
    det = normals[i, 0] * normals[j, 1] - normals[i, 1] * normals[j, 0]
    keep = np.abs(det) >= 1e-12
    i, j = i[keep], j[keep]
    mats = np.stack([normals[i], normals[j]], axis=1)
    rhs = np.stack([offsets[i], offsets[j]], axis=1)[:, :, None]
    verts = np.linalg.solve(mats, rhs)[:, :, 0]
    feasible = np.empty(len(verts), dtype=bool)
    block = max(1, VERTEX_BLOCK // len(offsets))
    for start in range(0, len(verts), block):
        viol = verts[start:start + block] @ normals.T
        viol -= offsets
        feasible[start:start + block] = viol.max(axis=1) <= tol
    verts = verts[feasible]
    if not len(verts):
        return np.empty((0, 2))
    rounded = np.round(verts / 1e-9) * 1e-9
    _, unique_idx = np.unique(rounded, axis=0, return_index=True)
    return verts[np.sort(unique_idx)]


def _dykstra(pts, normals, offsets, tol=DYKSTRA_TOL, max_sweeps=DYKSTRA_MAX_SWEEPS):
    """Cyclic Dykstra projection onto an intersection of half-spaces.

    Vectorized over a batch of points. Raises ``NoConvergence`` when the
    per-sweep change has not dropped below ``tol`` within ``max_sweeps``.
    """
    if len(pts) == 0:
        return pts.copy()
    x = pts.copy()
    corrections = np.zeros((len(offsets),) + pts.shape)
    for _ in range(max_sweeps):
        x_prev = x.copy()
        for j in range(len(offsets)):
            z = x + corrections[j]
            s = z @ normals[j] - offsets[j]
            x = z - np.maximum(s, 0.0)[:, None] * normals[j]
            corrections[j] = z - x
        if np.max(np.abs(x - x_prev)) <= tol:
            return x
    raise NoConvergence(
        f"Dykstra projection did not reach tol={tol} in {max_sweeps} sweeps"
    )


def interval(lower: float, upper: float) -> Slab:
    """One dimensional open interval ``(lower, upper)``."""
    return Slab(direction=np.array([1.0]), lower=lower, upper=upper)


def half_line(threshold: float = 0.0) -> HalfspaceIntersection:
    """One dimensional half-line ``(threshold, +inf)``."""
    return HalfspaceIntersection(normals=np.array([[-1.0]]),
                                 offsets=np.array([-threshold]))


def polygon_approximation(ball: Ball, n: int) -> RegularPolygon:
    """Circumscribed regular n-gon around a 2D ball: the ``RegularPolygon``
    whose inscribed ball is ``ball``. Its ``to_config`` rebuilds the same
    polygon."""
    if not isinstance(ball, Ball) or ball.dim != 2:
        raise UnsupportedDimension("polygon approximation needs a 2D ball")
    return RegularPolygon(center=ball.center, radius=ball.radius, sides=n)


def truncation_box(domain: ConvexDomain, tail_mass: float):
    """Axis-aligned box carrying all but ``tail_mass`` of the Gaussian mass.

    Each unbounded axis side is cut at ``R`` with ``2(1 - Phi(R))`` equal to
    the per-axis share ``tail_mass / dim``, that is ``R = -ndtri(p)`` with
    ``p = tail_mass / (2 dim)`` (bit for bit ``scipy.stats.norm.isf(p)``,
    without importing ``scipy.stats``); sides the domain already bounds
    keep the domain's own bound regardless of ``tail_mass``.
    """
    from scipy.special import ndtri
    if not 0.0 < tail_mass < 1.0:
        raise ValueError("tail_mass must lie in (0, 1)")
    radius = float(-ndtri(tail_mass / (2.0 * domain.dim)))
    lo_d, hi_d = domain.axis_bounds()
    lo = np.where(np.isfinite(lo_d), lo_d, -radius)
    hi = np.where(np.isfinite(hi_d), hi_d, radius)
    if np.any(lo >= hi):
        raise EmptyDomain("domain has no mass inside the truncation box")
    return lo, hi


def domain_from_config(cfg: dict) -> ConvexDomain:
    """Rebuild a domain from its ``to_config`` dictionary."""
    try:
        shape = cfg["shape"]
    except (TypeError, KeyError):
        raise ValueError("domain config needs a 'shape' tag") from None
    if shape not in _SHAPES:
        raise ValueError(f"unknown domain shape {shape!r}")
    return _SHAPES[shape](cfg)


_SHAPES = {
    "whole_space": lambda c: WholeSpace(dim=int(c["dim"])),
    "halfspaces": lambda c: HalfspaceIntersection(c["normals"], c["offsets"]),
    "ball": lambda c: Ball(center=c["center"], radius=float(c["radius"])),
    "regular_polygon": lambda c: RegularPolygon(
        center=c["center"], radius=c["radius"], sides=c["sides"]),
    "slab": lambda c: Slab(direction=np.array(c["direction"], dtype=float),
                           lower=float(c["lower"]), upper=float(c["upper"])),
    "product": lambda c: Product(base=domain_from_config(c["base"]),
                                 free_dims=int(c["free_dims"])),
}
