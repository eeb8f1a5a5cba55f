"""Weighted finite-difference realization of the generator on 1D/2D meshes.

The operator is assembled from the discrete quadratic form: every face
between adjacent included cells contributes a positive coefficient times
the squared difference across the face (discrete integration by parts).
This makes the three structural facts exact by construction, not by
approximation: rows of the generator sum to zero, the weighted matrix
``W A`` is symmetric, and the form energy is nonnegative. Consistency with
``u'' - x . grad u`` is second order in the spacing, and missing faces at
domain or truncation boundaries are exactly the natural (zero-flux)
Neumann condition.

The solvers use that structure. With ``A = -W^-1 K``, ``K`` symmetric
positive semidefinite and ``W`` the diagonal of cell masses:

- Crank-Nicolson solves the symmetric positive definite form
  ``(W + dt/2 K) y = (W - dt/2 K) x``, factored once per step size with a
  symmetric minimum-degree ordering and no pivoting;
- spectra use the symmetrized matrix ``S = -W^-1/2 K W^-1/2``: on a 1D
  mesh it is tridiagonal (``eigh_tridiagonal``); on a 2D mesh it is dense
  ``eigh`` up to ``DENSE_EIG_CAP`` nodes and shift-invert ``eigsh`` beyond,
  on the same symmetric factorization of ``S - 1/2 I``;
- the ``expm`` scheme is the exact propagator through the eigenvectors of
  ``S`` while the cell masses stay within ``SPECTRAL_WEIGHT_RATIO_CAP`` of
  each other, and Jensen's uniformization of the generator beyond (long
  truncated tails), where every term is nonnegative, so positivity holds
  exactly in floating point.

Unbounded domains are truncated by ``truncation_box``. scipy is imported
inside the functions that use it, so it loads on the engine's first call,
not with ``import oulab``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..domains import ConvexDomain, UnsupportedDimension, truncation_box
from .types import ResolutionTooCoarse, SolverError

MIN_NODES_PER_AXIS = 8
EXPM_NODE_CAP = 2000
DENSE_EIG_CAP = 2600
DEFAULT_CN_STEPS = 200
DEFAULT_TAIL_MASS = 1e-12
CLUSTER_TOL = 1e-10
SPECTRAL_WEIGHT_RATIO_CAP = 1e10
UNIT_ROUNDOFF = 2.0 ** -53


def _phi(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


@dataclass
class GridOperator:
    """Mesh, Gaussian weights, and sparse generator of one domain."""

    domain: ConvexDomain
    axes: tuple           # cell-center coordinates per axis
    spacing: np.ndarray   # h per axis
    nodes: np.ndarray     # (n, dim)
    weights: np.ndarray   # per-node Gaussian cell mass
    matrix: sp.csr_matrix     # generator A with A @ 1 = 0
    stiffness: sp.csr_matrix  # K = -W A, symmetric positive semidefinite
    neighbors: np.ndarray     # (n, dim, 2) node ids of (lower, upper) or -1
    _cn_cache: dict = field(default_factory=dict, repr=False)
    _spectral_cache: tuple | None = field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def prob_weights(self) -> np.ndarray:
        return self.weights / self.weights.sum()

    def sample(self, f) -> np.ndarray:
        return np.asarray(f.eval(self.nodes), dtype=float)

    def check_values(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_nodes,):
            raise ValueError(
                f"grid function must have {self.n_nodes} values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function has non-finite entries")
        return values


def grid_build(domain: ConvexDomain, resolution,
               tail_mass: float = DEFAULT_TAIL_MASS) -> GridOperator:
    """Mesh the domain (intersected with its truncation box) and assemble.

    ``resolution`` is the cell count per axis (scalar or one per axis).
    Cells are included when their center lies in the closed domain, which
    gives the staircase approximation for curved boundaries. The faces are
    assembled in one pass per axis, the same for every dimension: each pair
    of included cells adjacent along the axis shares a face of coefficient
    ``phi(edge) * (cross-axis cell mass) / h``.
    """
    import scipy.sparse as sp
    from scipy.special import ndtr
    if domain.dim > 2:
        raise UnsupportedDimension("grid engine supports dimensions 1 and 2")
    lo, hi = truncation_box(domain, tail_mass)
    res = np.broadcast_to(np.asarray(resolution, dtype=int), (domain.dim,))
    edges = [np.linspace(lo[i], hi[i], res[i] + 1) for i in range(domain.dim)]
    centers = [0.5 * (e[:-1] + e[1:]) for e in edges]
    spacing = np.array([e[1] - e[0] for e in edges])
    axis_mass = [np.diff(ndtr(e)) for e in edges]

    grids = np.meshgrid(*centers, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    mask = domain.contains(pts).reshape(grids[0].shape)
    n = int(mask.sum())
    ids = -np.ones(mask.shape, dtype=int)
    ids[mask] = np.arange(n)
    nodes = pts[mask.ravel()]
    weights = functools.reduce(np.multiply.outer, axis_mass)[mask]

    rows, cols, vals = [], [], []
    neighbors = -np.ones((n, domain.dim, 2), dtype=int)
    for axis in range(domain.dim):
        others = tuple(a for a in range(domain.dim) if a != axis)
        filled = int(mask.any(axis=others).sum())
        if filled < MIN_NODES_PER_AXIS:
            raise ResolutionTooCoarse(
                f"axis {axis} has {filled} nodes, "
                f"need at least {MIN_NODES_PER_AXIS}")
        before = (slice(None),) * axis
        lower = np.nonzero(mask[before + (slice(None, -1),)]
                           & mask[before + (slice(1, None),)])
        upper = lower[:axis] + (lower[axis] + 1,) + lower[axis + 1:]
        a, b = ids[lower], ids[upper]
        c = _phi(edges[axis][upper[axis]])
        for other in others:
            c = c * axis_mass[other][lower[other]]
        c = c / spacing[axis]
        rows.extend([a, b, a, b])
        cols.extend([a, b, b, a])
        vals.extend([c, c, -c, -c])
        neighbors[a, axis, 1] = b
        neighbors[b, axis, 0] = a

    stiff = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    matrix = sp.diags(-1.0 / weights) @ stiff
    return GridOperator(domain=domain, axes=tuple(centers), spacing=spacing,
                        nodes=nodes, weights=weights, matrix=matrix.tocsr(),
                        stiffness=stiff, neighbors=neighbors)


def grid_apply(op: GridOperator, values, t: float, scheme: str = "crank_nicolson",
               n_steps: int | None = None) -> np.ndarray:
    """Evolve node values by the semigroup for time ``t``.

    Crank-Nicolson (default) is unconditionally stable and takes
    ``n_steps`` (default ``DEFAULT_CN_STEPS``) equal steps of size
    ``t / n_steps``, each one solve with the factored ``W + dt/2 K``. The
    ``expm`` scheme evaluates the matrix-exponential action directly and is
    reserved for operators up to ``EXPM_NODE_CAP`` nodes: through the
    eigenvectors of the symmetrized operator while the weight ratio stays
    below ``SPECTRAL_WEIGHT_RATIO_CAP``, by uniformization beyond it.
    ``propagator_details`` names the solver that runs and, for
    uniformization, its term count and error bounds.
    """
    import scipy.sparse as sp
    u = op.check_values(values)
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    if isinstance(n_steps, float) and not n_steps.is_integer():
        raise ValueError(f"n_steps must be a whole number, got {n_steps!r}")
    steps = DEFAULT_CN_STEPS if n_steps is None else int(n_steps)
    if steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps!r}")
    if t == 0.0:
        return u.copy()
    propagator = _propagator(op, scheme)
    if propagator == "crank_nicolson":
        dt = t / steps
        key = float(dt)
        if key not in op._cn_cache:
            # W (I - dt/2 A) = W + dt/2 K: the Crank-Nicolson step in its
            # symmetric positive definite form
            w = sp.diags(op.weights)
            half = 0.5 * dt * op.stiffness
            op._cn_cache[key] = (_factor_symmetric(w + half),
                                 (w - half).tocsr())
        lu, forward = op._cn_cache[key]
        out = u.copy()
        for _ in range(steps):
            out = lu.solve(forward @ out)
        return out
    if propagator == "eigh":
        # exact propagator through the symmetric eigendecomposition;
        # safe only while the similarity scaling stays well conditioned
        if op._spectral_cache is None:
            sqrt_w = np.sqrt(op.weights)
            sym = -(op.stiffness.toarray() / sqrt_w[:, None]) / sqrt_w
            lam, q = np.linalg.eigh(0.5 * (sym + sym.T))
            op._spectral_cache = (lam, q, sqrt_w)
        lam, q, sqrt_w = op._spectral_cache
        return (q @ (np.exp(t * lam) * (q.T @ (sqrt_w * u)))) / sqrt_w
    return _uniformized(op, u, t)


def propagator_details(op: GridOperator, t: float, scheme: str) -> dict:
    """Which solver ``grid_apply(op, u, t, scheme)`` runs: ``propagator`` is
    ``crank_nicolson``, ``eigh`` or ``uniformized``. For uniformization
    the dict also holds ``poisson_terms`` and the ``truncation_bound`` and
    ``roundoff_bound`` of the result, per unit of ``max |u|``."""
    propagator = _propagator(op, scheme)
    if propagator != "uniformized":
        return {"propagator": propagator}
    _, terms, truncation, roundoff = _uniformization(op, t)
    return {"propagator": propagator, "poisson_terms": terms + 1,
            "truncation_bound": truncation, "roundoff_bound": roundoff}


def _propagator(op: GridOperator, scheme: str) -> str:
    if scheme == "crank_nicolson":
        return scheme
    if scheme != "expm":
        raise ValueError(f"unknown scheme {scheme!r}")
    if op.n_nodes > EXPM_NODE_CAP:
        raise SolverError(f"expm scheme reserved for <= {EXPM_NODE_CAP} nodes")
    ratio = float(op.weights.max() / op.weights.min())
    return "eigh" if ratio < SPECTRAL_WEIGHT_RATIO_CAP else "uniformized"


def _uniformization(op: GridOperator, t: float):
    """Rate q, last Poisson index K, and the truncation and roundoff bounds
    (per unit of max |u|) of ``e^{tA} u ~ sum_{k<=K} Pois(k; qt) P^k u``
    with ``P = I + A/q``.

    Truncation: for N ~ Pois(lam), lam = qt, Bernstein's inequality gives
    P(N >= lam + x) <= exp(-x^2 / (2 (lam + x/3))). That equals the unit
    roundoff eps = e^-L at x = L/3 + sqrt(L^2/9 + 2 L lam), so K =
    ceil(lam + x) leaves out a Poisson mass tau <= eps. Since P is
    row-stochastic, |P^k u| <= max |u|; dropping the tail and rescaling the
    kept weights to sum to one each move the result by at most tau.

    Roundoff, to first order in eps, with m the most entries in a row of P:
    each row of the stored P is off by at most 2 eps in sum (a division,
    then the diagonal's addition), and each product P v is a nonnegative
    sum of at most m terms, so the k-th power collects k (m + 2) eps. Each
    weight is a product of at most K rounded ratios from the mode, then
    normalized: (2K + 2) eps. lam = qt is rounded once, which moves the sum
    by 2 lam eps <= 2K eps (its derivative in lam is bounded by 2). The
    K + 1 products and additions into the result add (K + 2) eps. In total
    (K (m + 7) + 4) eps.
    """
    q = float(-op.matrix.diagonal().min())
    lam = q * t
    big_l = -math.log(UNIT_ROUNDOFF)
    terms = math.ceil(lam + big_l / 3.0
                      + math.sqrt(big_l * big_l / 9.0 + 2.0 * big_l * lam))
    m = int(np.diff(op.matrix.indptr).max())
    return q, terms, 2.0 * UNIT_ROUNDOFF, (terms * (m + 7) + 4) * UNIT_ROUNDOFF


def _uniformized(op: GridOperator, u: np.ndarray, t: float) -> np.ndarray:
    """Jensen's uniformization: ``sum_k Pois(k; qt) P^k u``.

    ``q = max(-a_ii)``, so ``a_ii / q >= -1`` with equality exact where the
    maximum sits, and every entry of ``P = I + A/q`` is nonnegative in
    floating point. All terms are then nonnegative for ``u >= 0``.
    """
    q, terms, _, _ = _uniformization(op, t)
    if q == 0.0:
        return u.copy()
    p = op.matrix.copy()
    p.data /= q
    p.setdiag(p.diagonal() + 1.0)
    weights = _poisson_weights(q * t, terms)
    out = weights[0] * u
    v = u
    for w in weights[1:]:
        v = p @ v
        out += w * v
    return out


def _poisson_weights(lam: float, last: int) -> np.ndarray:
    """Pois(k; lam) for k = 0..last, rescaled to sum to one.

    Built by ratios outward from the mode, where the weight is largest, so
    the relative error of weight k is at most (2 |k - mode| + 2) eps. Weights
    from logarithms, exp(k log lam - lam - log k!), would carry an error of
    eps times the size of those logarithms, about lam log lam, in every term.
    """
    mode = int(lam)
    weights = np.concatenate([
        np.cumprod(np.arange(mode, 0, -1) / lam)[::-1], [1.0],
        np.cumprod(lam / np.arange(mode + 1, last + 1))])
    return weights / math.fsum(weights)


def _factor_symmetric(matrix: sp.spmatrix):
    """Sparse LU of a symmetric definite matrix: minimum-degree ordering of
    ``A^T + A`` and pivots on the diagonal, so the factors keep the fill of
    a symmetric factorization (definite matrices need no pivoting)."""
    from scipy.sparse.linalg import splu
    try:
        return splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as err:
        raise SolverError(f"sparse factorization failed: {err}") from None


@dataclass(frozen=True)
class SpectrumResult:
    """Leading eigenvalues (descending) of the generator and the gap."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # (n, k), unit L2(gamma) norm
    gap: float

    @property
    def kernel_vector(self) -> np.ndarray:
        return self.eigenvectors[:, 0]


def grid_spectrum(op: GridOperator, k: int) -> SpectrumResult:
    """Top ``k`` eigenvalues via the symmetrized matrix ``W^1/2 A W^-1/2``.

    1D meshes are one run of consecutive cells, so the matrix is
    tridiagonal and ``eigh_tridiagonal`` picks the top ``k`` at any size.
    2D meshes take dense ``eigh`` up to ``DENSE_EIG_CAP`` nodes and
    shift-invert ``eigsh`` about 1/2 beyond, on a symmetric factorization.
    """
    import scipy.sparse as sp
    from scipy.linalg import eigh_tridiagonal
    from scipy.sparse.linalg import LinearOperator, eigsh
    n = op.n_nodes
    if n < k + 2:
        raise ValueError("need at least k + 2 nodes")
    inv_sqrt = 1.0 / np.sqrt(op.weights)
    sym = -sp.diags(inv_sqrt) @ op.stiffness @ sp.diags(inv_sqrt)
    sym = 0.5 * (sym + sym.T)
    if op.dim == 1:
        lam, vec = eigh_tridiagonal(sym.diagonal(), sym.diagonal(1),
                                    select="i", select_range=(n - k, n - 1))
        lam, vec = lam[::-1], vec[:, ::-1]
    elif n <= DENSE_EIG_CAP:
        lam, vec = np.linalg.eigh(sym.toarray())
        lam, vec = lam[::-1][:k], vec[:, ::-1][:, :k]
    else:
        lu = _factor_symmetric(sym - 0.5 * sp.identity(n))
        try:
            lam, vec = eigsh(sym, k=k, sigma=0.5, which="LM",
                             OPinv=LinearOperator((n, n), matvec=lu.solve,
                                                  dtype=float))
        except Exception as err:
            raise SolverError(f"sparse eigensolver failed: {err}")
        order = np.argsort(lam)[::-1]
        lam, vec = lam[order], vec[:, order]
    vec = vec * inv_sqrt[:, None]
    for j in range(vec.shape[1]):
        lead = np.argmax(np.abs(vec[:, j]))
        if vec[lead, j] < 0:
            vec[:, j] = -vec[:, j]
    negative = lam[lam < -CLUSTER_TOL]
    gap = -float(negative.max()) if len(negative) else float("nan")
    return SpectrumResult(eigenvalues=lam, eigenvectors=vec, gap=gap)


def weighted_mean(op: GridOperator, values) -> float:
    """Mean against the Gaussian measure conditioned on the meshed region."""
    u = op.check_values(values)
    return float(op.weights @ u / op.weights.sum())


def l2_norm(op: GridOperator, values) -> float:
    """Unnormalized L2(gamma) norm over the meshed region."""
    u = op.check_values(values)
    return float(np.sqrt(op.weights @ (u * u)))


def fd_gradient(op: GridOperator, values):
    """Central-difference gradient and the mask of nodes where it exists.

    A node is interior when it has both neighbors along every axis; the
    returned gradient rows are zero elsewhere.
    """
    u = op.check_values(values)
    grad = np.zeros((op.n_nodes, op.dim))
    interior = np.ones(op.n_nodes, dtype=bool)
    for axis in range(op.dim):
        left = op.neighbors[:, axis, 0]
        right = op.neighbors[:, axis, 1]
        ok = (left >= 0) & (right >= 0)
        interior &= ok
        grad[ok, axis] = (u[right[ok]] - u[left[ok]]) / (2.0 * op.spacing[axis])
    grad[~interior] = 0.0
    return grad, interior
