"""Open convex subsets of R^d.

Membership, Euclidean projection, product structure with free Gaussian
factors, and regular polygons circumscribed about discs. All point
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

    def contains(self, x, tol: float = CONTAINS_TOL):
        """Closed-set membership test within ``tol``."""
        pts, single = _as_batch(x, self.dim)
        out = self._contains(pts, tol)
        return bool(out[0]) if single else out

    def project(self, x):
        """Euclidean projection onto the closed set."""
        pts, single = _as_batch(x, self.dim)
        out = self._project(pts)
        return out[0] if single else out

    def axis_bounds(self):
        """Per-axis bounding interval ``(lo, hi)`` with +-inf where unbounded."""
        raise NotImplementedError

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
        # or reorder, and a lone row goes through gemv), so any subset of
        # rows or faces can recompute the face path's values bit for bit
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
        feasible = np.all(self._violations(cand) <= DYKSTRA_TOL, axis=1)
        if not np.all(feasible):
            rest = sub[~feasible]
            if self.dim == 2:
                cand[~feasible] = self._project_candidates(rest)
            else:
                cand[~feasible] = _dykstra(rest, self.normals, self.offsets)
        out[bad] = cand
        return out

    def _project_candidates(self, pts):
        """Exact 2D projection by enumerating face and vertex candidates.

        If the projection foot lies on a face, that face's constraint is
        violated at the point, so only violated faces contribute face
        candidates; vertices cover the rest. Closed form, unlike iterative
        projection, which stalls on nearly parallel adjacent faces.
        Candidates are tested in blocks of at most ``VERTEX_BLOCK``
        violations.
        """
        n, m = len(pts), len(self.offsets)
        sviol = self._violations(pts)
        dist2 = np.full((n, m), np.inf)
        rows, faces = np.nonzero(sviol > 0.0)
        cand = pts[rows] - sviol[rows, faces][:, None] * self.normals[faces]
        ok = np.empty(len(cand), dtype=bool)
        block = max(1, VERTEX_BLOCK // m)
        for start in range(0, len(cand), block):
            sl = slice(start, start + block)
            ok[sl] = self._contains(cand[sl], DYKSTRA_TOL)
        dist2[rows[ok], faces[ok]] = sviol[rows[ok], faces[ok]] ** 2
        verts = self.vertices
        if len(verts):
            dv = pts[:, None, :] - verts[None, :, :]
            dist2 = np.concatenate(
                [dist2, np.einsum("ijk,ijk->ij", dv, dv)], axis=1)
        best = np.argmin(dist2, axis=1)
        if not np.all(np.isfinite(dist2[np.arange(n), best])):
            raise NoConvergence("no feasible projection candidate found")
        out = np.empty_like(pts)
        from_face = best < m
        if np.any(from_face):
            j = best[from_face]
            sel = np.flatnonzero(from_face)
            out[sel] = pts[sel] - sviol[sel, j][:, None] * self.normals[j]
        if len(verts):
            out[~from_face] = verts[best[~from_face] - m]
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
        bad = r > self.radius
        out[bad] = self.center + (pts[bad] - self.center) \
            * (self.radius / r[bad])[:, None]
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

    def _coord(self, pts):
        if self.dim == 1:
            # the one product the matmul would form, without its per-call
            # cost (most of a 1D projection); only the sign of a zero
            # coordinate can differ, and neither clip nor shift sees it
            return pts[:, 0] * self.direction[0]
        return pts @ self.direction

    def _contains(self, pts, tol):
        s = self._coord(pts)
        return (s >= self.lower - tol) & (s <= self.upper + tol)

    def _project(self, pts):
        # pts + (clip(s) - s) d, in one output array and one scratch vector
        s = self._coord(pts)
        shift = np.clip(s, self.lower, self.upper)
        shift -= s
        out = np.multiply(shift[:, None], self.direction)
        out += pts
        return out

    def axis_bounds(self):
        lo = np.full(self.dim, -np.inf)
        hi = np.full(self.dim, np.inf)
        axis = np.flatnonzero(np.abs(np.abs(self.direction) - 1.0) <= UNIT_TOL)
        if len(axis) == 1:
            i = axis[0]
            if self.direction[i] > 0:
                lo[i], hi[i] = self.lower, self.upper
            else:
                lo[i], hi[i] = -self.upper, -self.lower
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
        out[:, : self.base.dim] = self.base._project(pts[:, : self.base.dim])
        return out

    def axis_bounds(self):
        lo_b, hi_b = self.base.axis_bounds()
        lo = np.concatenate([lo_b, np.full(self.free_dims, -np.inf)])
        hi = np.concatenate([hi_b, np.full(self.free_dims, np.inf)])
        return lo, hi

    def to_config(self):
        return {"shape": "product", "base": self.base.to_config(),
                "free_dims": int(self.free_dims)}


# Exactness of the two-ball shortcut. Write u = 2**-53, c and r for the
# recorded centre and inradius, d = p - c, S = r + |tol| + |c|, and
# eta = UNIT_TOL + 2u, which bounds ||n_j| - 1| for every normal that passed
# the unit check of HalfspaceIntersection. The face path computes
# v_j = fl(x_j - b_j) with x_j = fl(p . n_j) and b_j = fl(fl(n_j . c) + r).
# A two-term dot product errs by at most 2.01u |p| |n_j|, with or without
# a fused multiply-add, so
#     |(x_j - b_j) - (d . n_j - r)| <= 2.02u |d| + 5.05u |c| + u r.      (1)
# Rounding is monotone, so v_j <= tol once x_j - b_j <= tol, and v_j > tol
# once x_j - b_j > tol + 2u |tol|.
# Inside: d . n_j <= (1 + eta) |d|, so by (1) every v_j <= tol when
#     |d| <= r + tol - BALL_SLACK * S.
# Outside: each direction lies between two neighbouring normals. The
# computed cosine k of the largest half-angle between them (recorded as
# r / circumradius; k >= 1/2 for n >= 3) is within 1.02 eta + 3.1u of the
# exact one, so some d . n_j >= |d| (k - 2.02 eta - 3.1u), and by (1)
# some v_j > tol when
#     |d| > (r + tol + BALL_SLACK * S) / (k - BALL_SLACK).
# BALL_SLACK = 4 UNIT_TOL exceeds every coefficient of S and of |d| above
# (2.02 eta + 6u at most) by nearly 2 UNIT_TOL, which leaves room for the
# rounding of |d|^2, of the two radii and of r / circumradius (under
# 16u (S + |d|) in all). The bound is derived, not tuned: a point that
# passes either test gets exactly the answer of the face path.
BALL_SLACK = 4.0 * UNIT_TOL
# Exactness of the sector path, which settles a RegularPolygon row outside
# the inscribed ball from three faces. Let P0 be the exact regular
# n-gon that the stored faces round: unit normals m_j at angle j beta,
# beta = 2 pi / n, offsets m_j . c + r, circumradius R, edges
# L = 2 r tan(beta / 2), and V0_j(x) = m_j . x - m_j . c - r its
# violations. Fix a reach rho and let eps = BALL_SLACK S,
# S = rho + 3 R + |c|. For every point x below (|x - c| <= rho + 2 R), a
# computed violation v_j(x) is within eps of V0_j(x): the terms of (1), the
# stored normals' error (rounded cos and sin of rounded angles, under 30u)
# and the rounding of the offsets come to under 40u S. So do the angle of
# p - c that atan2 gives (times |p - c|), the tangential coordinates
# (p - c) . t_j, t_j = (-m_jy, m_jx), and the foot q = p - v_j(p) n_j,
# which lies within 2 eps of the exact foot on face j of P0. eps overstates
# these by a factor of 100 or more, which also absorbs the rounding of the
# constants below. A row with |p - c| <= rho is settled by four decisions;
# every other row takes the face path.
# 1. Window: the argmax lies among faces j0 - 1, j0, j0 + 1, where atan2
#    names j0. The normal m_j0 is within pi/n + delta of p - c, with
#    delta |p - c| <= eps, and faces outside the window are at least
#    3 pi/n - delta from it. So their violations fall short of v_j0 by at
#    least |p - c| G1 - 4 eps, G1 = cos(pi/n) - cos(3 pi/n). That is
#    positive when (r - eps) G1 > 4 eps, as |p - c| >= r - eps outside the
#    inscribed ball.
# 2. Ties: the window's values are the face path's own (see
#    ``_violations``), so np.argmax picks the lowest index among the
#    window's maxima. This decision is exact and needs no margin.
# 3. Foot: the face path keeps q if no face violates it by more than
#    DYKSTRA_TOL = tol. Faces j, j +- 1 are computed exactly. q is within
#    2 eps of line j of P0, and by faces j +- 1 within (tol + 3 eps) /
#    sin beta of edge j along it. Every other face is at least
#    2 r (1 - cos beta) away from both ends of edge j (n >= 4), and a
#    violation changes at rate at most 1, so it stays <= tol when
#        2 r (1 - cos beta) >= (tol + 3 eps) / sin beta + 3 eps.
# 4. Vertex: otherwise the face path enumerates candidates. Let
#    p - V0 = la m_a + lb m_b, where V0 is the vertex of face a = j and
#    its neighbour b on the side of p. Then la sin beta and lb sin beta are
#    how far the tangential coordinates of p - c pass r tan(beta / 2). If
#    both la and lb are >= mu = (tol + 4 eps) / sin^2 beta, the feet on a
#    and b violate b and a by more than tol, so neither face is a
#    candidate. Any other face's candidate that passes lies within
#    sig = tol + 3 eps of P0 and on a line that is not adjacent to V0.
#    That puts it at least Lam = sqrt(3)/2 L - sig / sin beta - 2 sig
#    from V0, since non-adjacent edges lie at least sqrt(3)/2 L from V0.
#    V0 is the projection onto P0, so the obtuse-angle inequality puts the
#    candidate farther from p than V0 by Lam^2 / (2A + Lam), A = |p - V0|
#    <= rho + R. Every other vertex is farther by at least as much. The
#    stored vertex is within eps / sin(beta / 2) of V0, and the face path
#    picks it when
#        Lam^2 > (2 (rho + R) + Lam) (2 sig + eps + 2 eps / sin(beta / 2)
#                                     + 6u (rho + 2 R)).
# rho is the largest R 2^k that satisfies 1, 3 and 4. A polygon with no
# such rho, or whose vertices merged (the corner map needs all n), takes
# the face path on every row.
# violations held at once by the vertex enumeration's feasibility test
# (512 kB: a block stays in cache, which made the 1024-gon faster than
# larger blocks did)
VERTEX_BLOCK = 1 << 16


@dataclass(frozen=True)
class _Sectors:
    """Face tables of the O(1) projection onto a ``RegularPolygon`` (see
    the sector margins above), one column per face or sector j."""

    center: np.ndarray
    window: np.ndarray  # nx, ny, b, index of faces j - 1, j, j + 1, sorted
    around: np.ndarray  # nx, ny, b of faces j - 1, j, j + 1, in that order
    corners: np.ndarray  # x; y of the vertex of faces j - 1 and j (j <= n)
    per_radian: float
    reach2: float
    cone: float

    @classmethod
    def build(cls, gon):
        """The tables, or None where the margins or the corner map fail."""
        n = gon.sides
        verts = gon.vertices
        if len(verts) != n:
            return None
        r, big_r = gon.radius, gon.circumradius
        c_norm = float(np.linalg.norm(gon.center))
        beta = 2.0 * math.pi / n
        sin_b, sin_h = math.sin(beta), math.sin(beta / 2.0)
        tan_h = math.tan(beta / 2.0)
        g1 = 2.0 * sin_b * sin_h  # cos(pi / n) - cos(3 pi / n)
        g3 = 4.0 * r * sin_h * sin_h  # 2 r (1 - cos beta)

        def margins_hold(rho):
            eps = BALL_SLACK * (rho + 3.0 * big_r + c_norm)
            sig = DYKSTRA_TOL + 3.0 * eps
            lam = math.sqrt(3.0) * r * tan_h - sig / sin_b - 2.0 * sig
            room = (2.0 * sig + eps + 2.0 * eps / sin_h
                    + 6.0 * 2.0 ** -53 * (rho + 2.0 * big_r))
            return ((r - eps) * g1 > 4.0 * eps
                    and (n == 3 or g3 >= (DYKSTRA_TOL + 3.0 * eps) / sin_b
                         + 3.0 * eps)
                    and lam > 0.0
                    and lam * lam > (2.0 * (rho + big_r) + lam) * room)

        if not margins_hold(big_r):
            return None
        rho = big_r
        while margins_hold(2.0 * rho):  # fails at the latest at inf
            rho *= 2.0
        eps = BALL_SLACK * (rho + 3.0 * big_r + c_norm)
        nbrs = (np.arange(n) + np.array([[-1], [0], [1]])) % n
        ranked = np.sort(nbrs, axis=0)
        nx, ny = gon.normals[:, 0], gon.normals[:, 1]
        # the vertex of faces j and j + 1 is number j + 1 of the adjacent
        # pairs (0, 1), (0, n - 1), (1, 2), ...: 0 for j = 0, 1 for j = n - 1
        order = np.concatenate([[1, 0], np.arange(2, n), [1]])
        return cls(
            center=gon.center,
            window=np.concatenate([nx[ranked], ny[ranked],
                                   gon.offsets[ranked], ranked]),
            around=np.concatenate([nx[nbrs], ny[nbrs], gon.offsets[nbrs]]),
            corners=np.ascontiguousarray(verts[order].T),
            per_radian=n / (2.0 * math.pi), reach2=rho * rho,
            cone=r * tan_h + (DYKSTRA_TOL + 4.0 * eps) / sin_b + 2.0 * eps)

    def project(self, pts):
        """``(settled, out)``: ``out[settled]`` is the face path's projection
        of those rows of ``pts`` (rows outside the inscribed ball)."""
        px, py = pts[:, 0], pts[:, 1]
        dx, dy = px - self.center[0], py - self.center[1]
        near = _dist2(pts, self.center) <= self.reach2
        # the sector of p - c names three faces; their violations are the
        # face path's, and np.argmax's tie rule is the lowest index
        angle = np.arctan2(dy, dx)
        if not near.all():
            angle[~near] = 0.0  # not settled; keeps the index finite
        sector = np.rint(angle * self.per_radian).astype(np.intp)
        sector %= self.window.shape[1]
        win = np.take(self.window, sector, axis=1)
        viol = px * win[0:3]
        viol += py * win[3:6]
        viol -= win[6:9]
        top = viol.max(axis=0)
        face = np.where(viol[0] == top, win[9],
                        np.where(viol[1] == top, win[10], win[11]))
        face = face.astype(np.intp)
        # the foot on that face, kept if it violates no neighbour
        near_face = np.take(self.around, face, axis=1)
        foot_x = px - top * near_face[1]
        foot_y = py - top * near_face[4]
        fviol = foot_x * near_face[0:3]
        fviol += foot_y * near_face[3:6]
        fviol -= near_face[6:9]
        on_face = fviol.max(axis=0) <= DYKSTRA_TOL
        # else the vertex shared with the neighbour on p's side, if p lies
        # deep enough in its normal cone
        along = dy * near_face[0:3] - dx * near_face[3:6]
        ccw = along[1] > 0.0
        at_corner = ((np.abs(along[1]) >= self.cone)
                     & (np.where(ccw, along[2], -along[0]) <= -self.cone))
        corner = np.take(self.corners, face + ccw, axis=1)
        free = top <= 0.0
        out = np.empty_like(pts)
        out[:, 0] = np.where(free, px, np.where(on_face, foot_x, corner[0]))
        out[:, 1] = np.where(free, py, np.where(on_face, foot_y, corner[1]))
        return near & (free | on_face | at_corner), out


@dataclass(frozen=True)
class RegularPolygon(HalfspaceIntersection):
    """Regular n-gon (``n = sides >= 3``) circumscribed about the disc of
    ``radius`` r at ``center``: face j touches it in direction
    ``(cos, sin)(2 pi j / n)``, so the n, 2n, 4n, ...-gons nest down to it.

    Points well inside the disc or well outside the circumscribed ball (of
    radius ``circumradius``, r / cos(pi / n)) skip the violation matrix.
    ``project`` settles nearly every other point in O(1) from the three
    faces its polar angle names (see the sector margins beside BALL_SLACK),
    bit for bit as the face path, which takes the rest. The vertices are
    solved from adjacent face pairs alone."""

    normals: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    center: np.ndarray
    radius: float
    sides: int
    circumradius: float = field(init=False)
    _sectors: _Sectors | None = field(init=False, repr=False)

    def __post_init__(self):
        disc = Ball(center=self.center, radius=float(self.radius))
        if disc.dim != 2:
            raise UnsupportedDimension("a regular polygon needs a 2D center")
        if not isinstance(self.sides, numbers.Integral) or self.sides < 3:
            raise ValueError(f"need an integer >= 3 sides, got {self.sides!r}")
        center, radius, n = disc.center, disc.radius, int(self.sides)
        angles = 2.0 * np.pi * np.arange(n) / n
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        # cos(pi/n) as the stored normals have it: the cosine of the largest
        # half-angle between neighbouring normals
        cos_half = np.sqrt(
            (1.0 + np.einsum("ij,ij->i", normals, np.roll(normals, -1, axis=0)))
            / 2.0).min()
        for name, value in (("center", center), ("radius", radius),
                            ("sides", n), ("normals", normals),
                            ("offsets", normals @ center + radius),
                            ("circumradius", radius / float(cos_half))):
            object.__setattr__(self, name, value)
        super().__post_init__()
        object.__setattr__(self, "_sectors", _Sectors.build(self))

    def radii(self, tol):
        """Distances from the centre within which every face violation
        surely rounds to <= ``tol``, and beyond which one surely rounds to
        > ``tol`` (see BALL_SLACK)."""
        r, big_r = self.radius, self.circumradius
        slack = BALL_SLACK * (r + abs(tol) + float(np.linalg.norm(self.center)))
        return (r + tol - slack,
                (r + tol + slack) * big_r / (r - BALL_SLACK * big_r))

    def sure(self, pts, tol):
        """Masks of the rows inside the inner and beyond the outer radius."""
        inner, outer = self.radii(tol)
        dist2 = _dist2(pts, self.center)
        return (dist2 <= math.copysign(inner * inner, inner),
                dist2 > math.copysign(outer * outer, outer))

    def _contains(self, pts, tol):
        inside, outside = self.sure(pts, tol)
        rest = ~(inside | outside)
        inside[rest] = super()._contains(pts[rest], tol)
        return inside

    @cached_property
    def vertices(self) -> np.ndarray:
        """The corners, from the n adjacent face pairs in ``triu_indices``
        order: (0, 1), (0, n - 1), (1, 2), ..., (n - 2, n - 1)."""
        n = self.sides
        pairs = (np.concatenate([[0, 0], np.arange(1, n - 1)]),
                 np.concatenate([[1, n - 1], np.arange(2, n)]))
        return _polygon_vertices(self.normals, self.offsets, pairs)

    def _project(self, pts):
        inside, _ = self.sure(pts, 0.0)
        rest = np.flatnonzero(~inside)
        out = pts.copy()
        if self._sectors is not None and len(rest):
            settled, proj = self._sectors.project(pts[rest])
            out[rest[settled]] = proj[settled]
            rest = rest[~settled]
        if len(rest):
            out[rest] = super()._project(pts[rest])
        return out

    def to_config(self):
        return {"shape": "regular_polygon", "center": self.center.tolist(),
                "radius": self.radius, "sides": self.sides}


def _polygon_vertices(normals, offsets, pairs=None, tol=1e-9):
    """Feasible intersections of face-line pairs of a 2D half-space system.

    ``pairs`` (two index arrays, ``i < j``) defaults to all pairs in the
    order (0, 1), (0, 2), ..., (1, 2), ...; nearly parallel pairs are
    skipped. All pairs go through one batched solve; the feasibility test
    runs over blocks of pairs, so it holds at most ``VERTEX_BLOCK``
    violations at a time however many faces there are.
    """
    i, j = np.triu_indices(len(offsets), 1) if pairs is None else pairs
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
    polygon, fast paths and arithmetic included."""
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
