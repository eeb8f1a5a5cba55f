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

The solvers use that structure and are chosen by the mesh's dimension.
With ``A = -W^-1 K``, ``K`` symmetric positive semidefinite and ``W`` the
diagonal of cell masses:

- a Crank-Nicolson step is ``y = 2 M^-1 (W x) - x`` with the symmetric
  positive definite ``M = W + dt/2 K``, the same step as
  ``M^-1 (W - dt/2 K) x`` since ``W - dt/2 K = 2 W - M``, so it takes one
  solve and no product with a forward matrix. ``M`` is factored once per
  step size: on a 1D mesh it is tridiagonal and LAPACK's ``pttrf`` factors
  it (``pttrs`` solves); on a 2D mesh it is solved by red-black
  elimination (below);
- spectra: on a 1D mesh the symmetrized matrix ``S = -W^-1/2 K W^-1/2``
  is tridiagonal (``eigh_tridiagonal``); on a 2D mesh shift-invert
  ``eigsh`` (ARPACK's mode 3) runs on the pencil ``K v = mu W v`` about
  ``mu = -1/2``. ``K + W/2`` is solved by the same red-black elimination,
  and ARPACK starts from a fixed vector, so a spectrum does not depend on
  earlier ARPACK calls;
- red-black elimination: a face joins two cells whose index sums
  ``i + j`` differ in parity, so in ``M`` and in ``K + W/2`` the block of
  the red cells (``i + j`` even) is diagonal. The red unknowns are
  eliminated through that diagonal, and SuperLU factors only the black
  Schur complement, half the nodes, with a symmetric minimum-degree
  ordering and no pivoting (George & Liu 1981, *Computer Solution of Large
  Sparse Positive Definite Systems*);
- the ``expm`` scheme is, on a 1D mesh whose cell masses stay within
  ``SPECTRAL_WEIGHT_RATIO_CAP`` of each other, the exact propagator
  through the eigenvectors of ``S`` (``eigh_tridiagonal``). Beyond that
  ratio and on every 2D mesh it is Jensen's uniformization of the
  generator (long truncated tails), where every term is nonnegative, so
  positivity holds exactly in floating point.

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
# no solver reads it; bench/tracing.py names its spectrum spans by it
DENSE_EIG_CAP = 2600
DEFAULT_CN_STEPS = 200
DEFAULT_TAIL_MASS = 1e-12
CLUSTER_TOL = 1e-10
SPECTRAL_WEIGHT_RATIO_CAP = 1e10
UNIT_ROUNDOFF = 2.0 ** -53


def _phi(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


class NotFinite(ValueError):
    """A function or its gradient is not finite at a point a check
    evaluates it at (a grid node, quadrature node, sample or path end), or
    a report's side or tolerance overflowed."""


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
    red: np.ndarray           # cells whose index sum i + j is even
    _cn_cache: dict = field(default_factory=dict, init=False, repr=False)
    _spectral_cache: tuple | None = field(default=None, init=False,
                                          repr=False)

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
            raise NotFinite("grid function is not finite at some nodes")
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
    red = (np.indices(mask.shape).sum(axis=0) % 2 == 0)[mask]

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
                        stiffness=stiff, neighbors=neighbors, red=red)


def grid_apply(op: GridOperator, values, t: float, scheme: str = "crank_nicolson",
               n_steps: int | None = None) -> np.ndarray:
    """Evolve node values by the semigroup for time ``t``.

    Crank-Nicolson (default) is unconditionally stable and takes
    ``n_steps`` (default ``DEFAULT_CN_STEPS``) equal steps of size
    ``dt = t / n_steps``, each ``y = 2 M^-1 (W x) - x`` with ``M = W + dt/2
    K`` factored once per ``dt``: by ``pttrf`` on a 1D mesh, where ``M`` is
    tridiagonal, and on a 2D one by red-black elimination and SuperLU on
    the black Schur complement. ``M`` that is not positive definite raises
    ``SolverError``: in 1D when ``pttrf`` finds it, in 2D before factoring,
    when a cell mass is not positive or a face coefficient is negative.
    The ``expm`` scheme evaluates the matrix-exponential action directly
    and is reserved for operators up to ``EXPM_NODE_CAP`` nodes: on a 1D
    mesh through the eigenvectors of the symmetrized operator
    (``eigh_tridiagonal``) while the weight ratio stays below
    ``SPECTRAL_WEIGHT_RATIO_CAP``, by uniformization beyond it and on
    every 2D mesh.
    ``propagator_details`` names the solver that runs and, for
    uniformization, its term count and error bounds.
    """
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
        dt = float(t / steps)
        if dt not in op._cn_cache:
            op._cn_cache[dt] = _cn_solver(op, dt)
        solve = op._cn_cache[dt]
        out = u.copy()
        for _ in range(steps):
            out = 2.0 * solve(op.weights * out) - out
        return out
    if propagator == "eigh":
        # exact propagator through the symmetric eigendecomposition;
        # safe only while the similarity scaling stays well conditioned
        if op._spectral_cache is None:
            from scipy.linalg import eigh_tridiagonal
            sym = _symmetrized(op)
            lam, q = eigh_tridiagonal(sym.diagonal(), sym.diagonal(1))
            op._spectral_cache = (lam, q, np.sqrt(op.weights))
        lam, q, sqrt_w = op._spectral_cache
        return (q @ (np.exp(t * lam) * (q.T @ (sqrt_w * u)))) / sqrt_w
    return _uniformized(op, u, t)


def _cn_solver(op: GridOperator, dt: float):
    """``b -> M^-1 b`` for the Crank-Nicolson matrix ``M = W + dt/2 K``."""
    half = 0.5 * dt * op.stiffness
    if op.dim == 1:
        # one run of consecutive cells: M is tridiagonal
        from scipy.linalg.lapack import dpttrf, dpttrs
        diag, off, info = dpttrf(op.weights + half.diagonal(),
                                 half.diagonal(1))
        if info != 0:
            raise SolverError(f"Crank-Nicolson matrix is not positive "
                              f"definite (LAPACK pttrf info {info})")
        return lambda b: dpttrs(diag, off, b)[0]
    # with positive masses and a graph-Laplacian K (rows summing to zero,
    # off-diagonal entries <= 0), M is positive definite
    k = op.stiffness.tocoo()
    if not (np.all(op.weights > 0) and np.all(k.data[k.row != k.col] <= 0)):
        raise SolverError("Crank-Nicolson matrix is not positive definite: "
                          "a cell mass is not positive or a face "
                          "coefficient is negative")
    import scipy.sparse as sp
    return _factor_symmetric(sp.diags(op.weights) + half, op.red)


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
    if op.dim == 1 and ratio < SPECTRAL_WEIGHT_RATIO_CAP:
        return "eigh"
    return "uniformized"


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


def _factor_symmetric(matrix: sp.spmatrix, red: np.ndarray):
    """``b -> A^-1 b`` for a symmetric definite 2D mesh matrix ``A`` whose
    red-red block ``D = A_rr`` is diagonal, by red-black elimination.

    SuperLU factors only the black Schur complement
    ``C = A_bb - A_br D^-1 A_rb``: minimum-degree ordering of ``C^T + C``
    and pivots on the diagonal, so the factors keep the fill of a
    symmetric factorization (definite matrices need no pivoting). A solve
    is a diagonal scale, one solve with ``C`` and two sparse products:
    ``x_b = C^-1 (b_b - A_br D^-1 b_r)``, ``x_r = D^-1 (b_r - A_rb x_b)``.
    A red block that is not an invertible diagonal raises ``SolverError``.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    r, b = np.flatnonzero(red), np.flatnonzero(~red)
    matrix = matrix.tocsr()
    rows_r, rows_b = matrix[r], matrix[b]
    a_rr = rows_r[:, r]
    d = a_rr.diagonal()
    if not np.all(d) or a_rr.count_nonzero() != len(d):
        raise SolverError("red-black elimination needs a red-red block that "
                          "is an invertible diagonal")
    inv_d = 1.0 / d
    a_rb, a_br = rows_r[:, b], rows_b[:, r]
    schur = rows_b[:, b] - a_br @ (sp.diags(inv_d) @ a_rb)
    try:
        lu = splu(schur.tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as err:
        raise SolverError(f"sparse factorization failed: {err}") from None

    def solve(rhs):
        rhs = np.ravel(rhs)
        scaled = inv_d * rhs[r]
        x_b = lu.solve(rhs[b] - a_br @ scaled)
        x = np.empty_like(rhs)
        x[b] = x_b
        x[r] = scaled - inv_d * (a_rb @ x_b)
        return x
    return solve


def _symmetrized(op: GridOperator) -> sp.csr_matrix:
    """``S = -W^-1/2 K W^-1/2``, sparse and exactly symmetric."""
    import scipy.sparse as sp
    inv_sqrt = sp.diags(1.0 / np.sqrt(op.weights))
    sym = -inv_sqrt @ op.stiffness @ inv_sqrt
    return 0.5 * (sym + sym.T)


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
    """Top ``k`` eigenvalues of the generator, descending, and eigenvectors.

    ``k`` is an integer from 1 to the node count minus 2, checked before
    any solver runs. On a 1D mesh the symmetrized matrix ``W^1/2 A W^-1/2``
    is tridiagonal and ``eigh_tridiagonal`` picks the top ``k``. On a 2D
    mesh shift-invert ``eigsh`` runs on the pencil ``K v = mu W v`` about
    ``mu = -1/2`` (module docstring) and ``lambda = -mu``; its eigenvectors
    come back with unit ``W`` norm. An ARPACK failure raises
    ``SolverError``.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    n = op.n_nodes
    if n < k + 2:
        raise ValueError("need at least k + 2 nodes")
    if op.dim == 1:
        from scipy.linalg import eigh_tridiagonal
        sym = _symmetrized(op)
        lam, vec = eigh_tridiagonal(sym.diagonal(), sym.diagonal(1),
                                    select="i", select_range=(n - k, n - 1))
        lam = lam[::-1]
        vec = vec[:, ::-1] * (1.0 / np.sqrt(op.weights))[:, None]
    else:
        import scipy.sparse as sp
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh
        # K v = mu W v about mu = -1/2, where K + W/2 is positive definite
        solve = _factor_symmetric(op.stiffness + 0.5 * sp.diags(op.weights),
                                  op.red)
        try:
            mu, vec = eigsh(op.stiffness, k=k, M=sp.diags(op.weights),
                            sigma=-0.5, which="LM",
                            OPinv=LinearOperator((n, n), matvec=solve,
                                                 dtype=float),
                            v0=np.random.default_rng(0).standard_normal(n))
        except ArpackError as err:
            raise SolverError(f"sparse eigensolver failed: {err}") from None
        order = np.argsort(mu)
        lam, vec = -mu[order], vec[:, order]
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
    return float(np.sum(op.weights * u) / op.weights.sum())


def l2_norm(op: GridOperator, values) -> float:
    """Unnormalized L2(gamma) norm over the meshed region."""
    u = op.check_values(values)
    return float(np.sqrt(np.sum(op.weights * (u * u))))


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
