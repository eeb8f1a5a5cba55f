import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import eigsh, splu
from scipy.special import ndtr

from oulab.domains import (Ball, HalfspaceIntersection, Product, Slab,
                           UnsupportedDimension, WholeSpace, half_line,
                           interval, polygon_approximation, truncation_box)
from oulab.engines.grid import (CLUSTER_TOL, DEFAULT_TAIL_MASS, DENSE_EIG_CAP,
                                _factor_symmetric, _poisson_weights,
                                fd_gradient, grid_apply, grid_build,
                                grid_spectrum, l2_norm, propagator_details,
                                weighted_mean)
from oulab.engines.mehler import mehler_apply
from oulab.engines.types import ResolutionTooCoarse, SolverError
from oulab.expr import coordinate, exp, from_profile, var


def dirichlet_energy(op, u):
    """Discrete form energy ``u . K u``."""
    return float(u @ (op.stiffness @ u))


def quadrant_2d():
    return HalfspaceIntersection(normals=[[-1.0, 0.0], [0.0, -1.0]],
                                 offsets=[0.0, 0.0])  # {x >= 0, y >= 0}


GRID_DOMAINS = [
    ("line", WholeSpace(1), 400),
    ("halfline", half_line(), 400),
    ("interval", interval(-1.0, 1.0), 300),
    ("quadrant", quadrant_2d(), 40),
    ("ball", Ball(center=[0.0, 0.0], radius=1.0), 40),
]


@pytest.mark.parametrize("name, dom, res", GRID_DOMAINS,
                         ids=[g[0] for g in GRID_DOMAINS])
def test_operator_invariants(name, dom, res):
    op = grid_build(dom, res)
    ones = np.ones(op.n_nodes)
    # constants in the kernel
    assert np.abs(op.matrix @ ones).max() < 1e-9
    # weighted self-adjointness, exact by construction
    weighted = op.matrix.multiply(op.weights[:, None]).tocsr()
    defect = (weighted - weighted.T)
    assert np.abs(defect.data).max() < 1e-9 if defect.nnz else True
    # dissipativity of the form
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = rng.standard_normal(op.n_nodes)
        assert dirichlet_energy(op, u) >= 0.0


FACE_SHAPES = [
    ("line", WholeSpace(1), 200),
    ("interval", interval(-1.0, 1.0), 300),
    ("disc", Ball(center=[0.0, 0.0], radius=1.0), 40),
    ("quadrant", quadrant_2d(), 40),
    ("plane", WholeSpace(2), [30, 45]),
]


@pytest.mark.parametrize("name, dom, res", FACE_SHAPES,
                         ids=[f[0] for f in FACE_SHAPES])
def test_face_coefficients_have_their_closed_form(name, dom, res):
    """The face between included cells i and i + e_k has coefficient
    phi(edge) / h_k in 1D and (phi(edge) * m) / h_k in 2D, with m the
    Gaussian mass of the cells' common cross-axis interval. The
    stiffness holds minus it off the diagonal; each diagonal entry sums
    its cell's faces axis by axis, upper face first."""
    op = grid_build(dom, res)
    lo, hi = truncation_box(dom, DEFAULT_TAIL_MASS)
    shape = tuple(np.broadcast_to(res, (dom.dim,)))
    edges = [np.linspace(lo[k], hi[k], shape[k] + 1) for k in range(dom.dim)]
    phi = [np.exp(-0.5 * e * e) / np.sqrt(2.0 * np.pi) for e in edges]
    mass = [np.diff(ndtr(e)) for e in edges]
    cells = [cell for cell in np.ndindex(*shape)
             if dom.contains(np.array([[0.5 * (edges[k][i] + edges[k][i + 1])
                                        for k, i in enumerate(cell)]]))[0]]
    ids = {cell: p for p, cell in enumerate(cells)}
    assert op.n_nodes == len(cells)

    stiffness = np.zeros((len(cells), len(cells)))
    neighbors = -np.ones((len(cells), dom.dim, 2), dtype=int)
    for cell, p in ids.items():
        for k in range(dom.dim):
            for side, step in ((1, 1), (0, -1)):
                other = cell[:k] + (cell[k] + step,) + cell[k + 1:]
                if other not in ids:
                    continue
                coeff = phi[k][max(cell[k], other[k])]
                for j in range(dom.dim):
                    if j != k:
                        coeff = coeff * mass[j][cell[j]]
                coeff = coeff / (edges[k][1] - edges[k][0])
                stiffness[p, ids[other]] = -coeff
                stiffness[p, p] += coeff
                neighbors[p, k, side] = ids[other]
    assert np.array_equal(op.stiffness.toarray(), stiffness)
    assert np.array_equal(op.neighbors, neighbors)


def test_weights_are_exact_cell_masses():
    op = grid_build(interval(-1.0, 1.0), 200)
    # cells tile (-1, 1) exactly, so the weights sum to Phi(1) - Phi(-1)
    expected = float(ndtr(1.0) - ndtr(-1.0))
    assert abs(op.weights.sum() - expected) < 1e-12


def test_generator_reproduces_drift_on_linear_function():
    op = grid_build(WholeSpace(1), 400)
    x = op.nodes[:, 0]
    err = np.abs((op.matrix @ x) + x)
    radius = truncation_box(op.domain, DEFAULT_TAIL_MASS)[1][0]
    inner = np.abs(x) < radius - 1.0
    h = float(op.spacing[0])
    assert err[inner].max() < 2.0 * h * h


def test_apply_time_zero_and_constants():
    op = grid_build(interval(-1.0, 1.0), 200)
    u0 = op.sample(from_profile(var(1) ** 2, [[1.0]]))
    assert np.array_equal(grid_apply(op, u0, 0.0), u0)
    ones = np.ones(op.n_nodes)
    for scheme in ("crank_nicolson", "expm"):
        out = grid_apply(op, ones, 1.5, scheme=scheme)
        assert np.abs(out - 1.0).max() < 1e-10


def test_linear_decay_matches_mehler():
    op = grid_build(WholeSpace(1), 400)
    x = op.nodes[:, 0]
    t = 0.5
    u = grid_apply(op, x, t)
    inner = np.abs(x) < 5.0  # away from the truncation boundary layer
    h, dt = float(op.spacing[0]), t / 200
    oracle = np.array([mehler_apply(coordinate(1), t, [xi]).value
                       for xi in x[inner][::40]])
    assert np.abs(u[inner][::40] - oracle).max() < 20 * (h * h + dt * dt)
    assert np.abs(u[inner] - math.exp(-t) * x[inner]).max() \
        < 20 * (h * h + dt * dt)


def test_semigroup_law():
    op = grid_build(interval(-1.0, 1.0), 200)
    u0 = op.sample(from_profile(var(1) ** 2, [[1.0]]))
    cn = grid_apply(op, grid_apply(op, u0, 0.3), 0.4)
    cn_direct = grid_apply(op, u0, 0.7)
    assert np.abs(cn - cn_direct).max() < 1e-4
    ex = grid_apply(op, grid_apply(op, u0, 0.3, scheme="expm"), 0.4,
                    scheme="expm")
    ex_direct = grid_apply(op, u0, 0.7, scheme="expm")
    assert np.abs(ex - ex_direct).max() < 1e-12


@pytest.mark.parametrize("dom, res", [(interval(-1.0, 1.0), 300),
                                      (half_line(), 300)])
def test_maximum_principle_and_positivity(dom, res):
    op = grid_build(dom, res)
    for f in (from_profile(var(1) ** 2, [[1.0]]),
              from_profile(exp(-(var(1) ** 2)), [[1.0]])):
        u0 = op.sample(f)
        u = grid_apply(op, u0, 0.8, scheme="expm")
        assert u.min() >= -1e-10
        assert u.max() <= u0.max() + 1e-10
        assert u.min() >= u0.min() - 1e-10
        assert l2_norm(op, u) <= l2_norm(op, u0) + 1e-10


def test_norm_equivalence_identity():
    op = grid_build(half_line(), 300)
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = rng.standard_normal(op.n_nodes)
        lhs = float(u @ (op.weights * (u - op.matrix @ u)))
        rhs = l2_norm(op, u) ** 2 + dirichlet_energy(op, u)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_whole_line_spectrum_hermite():
    op = grid_build(WholeSpace(1), 800)
    spec = grid_spectrum(op, 4)
    assert np.abs(spec.eigenvalues - np.array([0.0, -1.0, -2.0, -3.0])).max() \
        < 1e-3
    # richer grid shrinks the defect (self-convergence oracle)
    fine = grid_spectrum(grid_build(WholeSpace(1), 1600), 4)
    assert np.abs(fine.eigenvalues - np.array([0, -1, -2, -3])).max() \
        < 0.5 * np.abs(spec.eigenvalues - np.array([0, -1, -2, -3])).max()
    assert abs(spec.gap - 1.0) < 1e-3


def test_half_line_spectrum_even_hermite():
    # Neumann at 0 selects even Hermite eigenfunctions: 0, -2, -4
    spec = grid_spectrum(grid_build(half_line(), 800), 3)
    assert np.abs(spec.eigenvalues - np.array([0.0, -2.0, -4.0])).max() < 1e-2
    # oracle: reflecting the even whole-line eigenfunction hits the same value
    whole = grid_spectrum(grid_build(WholeSpace(1), 800), 4)
    assert abs(spec.eigenvalues[1] - whole.eigenvalues[2]) < 1e-3


@pytest.mark.parametrize("name, dom, res", GRID_DOMAINS,
                         ids=[g[0] for g in GRID_DOMAINS])
def test_gap_at_least_one_and_kernel_constant(name, dom, res):
    spec = grid_spectrum(grid_build(dom, res), 3)
    assert abs(spec.eigenvalues[0]) < 1e-8
    assert np.all(spec.eigenvalues <= 1e-8)
    assert spec.gap >= 1.0 - 0.02
    kernel = spec.kernel_vector
    kernel = kernel / np.mean(kernel)
    assert np.abs(kernel - 1.0).max() < 1e-6


def test_plane_spectrum_has_degenerate_pair():
    spec = grid_spectrum(grid_build(WholeSpace(2), 48), 3)
    assert abs(spec.eigenvalues[0]) < 1e-8
    assert np.abs(spec.eigenvalues[1:] + 1.0).max() < 2e-2  # O(h^2), h = 0.3
    assert abs(spec.eigenvalues[1] - spec.eigenvalues[2]) < 1e-6


def test_fd_gradient_exact_on_linear():
    op = grid_build(Ball(center=[0.0, 0.0], radius=1.0), 32)
    u = 2.0 * op.nodes[:, 0] - 0.5 * op.nodes[:, 1]
    grad, interior = fd_gradient(op, u)
    assert interior.sum() > 100
    assert np.abs(grad[interior] - np.array([2.0, -0.5])).max() < 1e-10


def test_build_errors():
    with pytest.raises(UnsupportedDimension):
        grid_build(WholeSpace(3), 10)
    with pytest.raises(ResolutionTooCoarse):
        grid_build(interval(-1.0, 1.0), 4)
    op = grid_build(WholeSpace(1), 2100)
    with pytest.raises(SolverError):
        grid_apply(op, np.ones(op.n_nodes), 0.5, scheme="expm")
    with pytest.raises(ValueError):
        grid_apply(op, np.ones(7), 0.5)
    with pytest.raises(ValueError):
        grid_apply(op, np.full(op.n_nodes, np.nan), 0.5)
    with pytest.raises(ValueError):
        grid_apply(op, np.ones(op.n_nodes), 0.5, scheme="leapfrog")


@pytest.mark.parametrize("t, scheme, n_steps, what", [
    (math.nan, "expm", None, "finite"),
    (math.inf, "expm", None, "finite"),
    (math.nan, "crank_nicolson", None, "finite"),
    (math.inf, "crank_nicolson", None, "finite"),
    (0.5, "crank_nicolson", 0, "n_steps"),
    (0.5, "crank_nicolson", -1, "n_steps"),
])
def test_bad_time_inputs_raise_value_error(t, scheme, n_steps, what):
    op = grid_build(interval(-1.0, 1.0), 50)
    with pytest.raises(ValueError, match=what):
        grid_apply(op, np.ones(op.n_nodes), t, scheme=scheme, n_steps=n_steps)


def test_fractional_n_steps_is_refused():
    # int(200.5) would run 200 steps while a caller charges dt = t / 200.5
    op = grid_build(interval(-1.0, 1.0), 50)
    u0 = np.cos(op.nodes[:, 0])
    for n_steps in (200.5, np.float64(0.5)):
        with pytest.raises(ValueError, match="n_steps"):
            grid_apply(op, u0, 0.5, n_steps=n_steps)
    assert np.array_equal(grid_apply(op, u0, 0.5, n_steps=200.0),
                          grid_apply(op, u0, 0.5, n_steps=200))


def test_masked_ball_mesh_geometry():
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    op = grid_build(ball, 40)
    assert ball.contains(op.nodes).all()
    assert op.n_nodes < 40 * 40  # corners of the box are cut away
    # staircase mass approaches the true mass (oracle: 1 - e^{-1/2})
    assert abs(op.weights.sum() - (1.0 - math.exp(-0.5))) < 5e-3


def test_product_domain_meshes_like_a_strip():
    op = grid_build(Product(base=interval(-1.0, 1.0), free_dims=1), 24)
    assert np.abs(op.nodes[:, 0]).max() <= 1.0
    assert np.abs(op.nodes[:, 1]).max() > 6.0


def test_weighted_mean_and_norm():
    op = grid_build(half_line(), 200)
    ones = np.ones(op.n_nodes)
    assert abs(weighted_mean(op, ones) - 1.0) < 1e-12
    assert abs(l2_norm(op, ones) ** 2 - op.weights.sum()) < 1e-12


# structure-exploiting solvers against the generic ones they replaced ---------

def symmetrized(op):
    """S = -W^-1/2 K W^-1/2, dense."""
    inv_sqrt = 1.0 / np.sqrt(op.weights)
    sym = -(op.stiffness.toarray() * inv_sqrt[:, None]) * inv_sqrt
    return 0.5 * (sym + sym.T)


def unsymmetric_crank_nicolson(op, u, t, steps=200):
    """The Crank-Nicolson loop on ``(I - dt/2 A) y = (I + dt/2 A) x``,
    factored by the default (unsymmetric) sparse LU."""
    dt = t / steps
    eye = sp.identity(op.n_nodes, format="csc")
    lu = splu((eye - 0.5 * dt * op.matrix).tocsc())
    forward = (eye + 0.5 * dt * op.matrix).tocsr()
    out = u.copy()
    for _ in range(steps):
        out = lu.solve(forward @ out)
    return out


UNIFORMIZED = [
    ("line", WholeSpace(1), 800),
    ("halfline", half_line(), 800),
    ("quadrant", quadrant_2d(), 40),
]


@pytest.mark.parametrize("name, dom, res", UNIFORMIZED,
                         ids=[g[0] for g in UNIFORMIZED])
def test_uniformized_expm_matches_dense_reference(name, dom, res):
    op = grid_build(dom, res)
    assert op.weights.max() / op.weights.min() >= 1e10
    r = np.linalg.norm(op.nodes, axis=1)
    panel = [np.exp(-r * r),                    # the positivity bump
             (op.nodes[:, 0] > 1.0) * 1.0,      # zero on most of the mesh
             np.tanh(op.nodes[:, 0]) - 2.0]     # signed
    t = 0.5
    reference = expm(op.matrix.toarray() * t)
    info = propagator_details(op, t, "expm")
    assert info["propagator"] == "uniformized"
    bound = info["truncation_bound"] + info["roundoff_bound"]
    assert bound < 1e-10
    for u in panel:
        u_t = grid_apply(op, u, t, scheme="expm")
        sup = np.abs(u).max()
        assert np.abs(u_t - reference @ u).max() <= bound * sup
        if u.min() >= 0.0:
            assert u_t.min() >= 0.0  # exact: every term is nonnegative
            assert u_t.max() <= u.max() * (1.0 + bound)


def poisson_pmf_decimal(lam, last):
    """Pois(k; lam), k = 0..last, in 40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        lam_d = Decimal(lam)  # the double lam, exactly
        log_fact = Decimal(0)
        out = []
        for k in range(last + 1):
            if k:
                log_fact += Decimal(k).ln()
            out.append(float((k * lam_d.ln() - lam_d - log_fact).exp()))
    return np.array(out)


@pytest.mark.parametrize("lam", [0.3, 37.5, 3152.8306])
def test_poisson_weights_are_accurate_to_their_distance_from_the_mode(lam):
    last = int(lam + 12 * math.sqrt(lam) + 40)
    weights = _poisson_weights(lam, last)
    exact = poisson_pmf_decimal(lam, last)
    exact = exact / math.fsum(exact)
    k = np.arange(last + 1)
    eps = 2.0 ** -53
    # (2 |k - mode| + 2) eps for the weights, 3 eps for rounding and
    # normalizing the reference; absolute below the normal doubles
    allowed = (2 * np.abs(k - int(lam)) + 5) * eps * exact + 1e-300
    assert np.all(np.abs(weights - exact) <= allowed)


def test_uniformized_semigroup_and_constants():
    op = grid_build(half_line(), 800)
    u0 = op.sample(from_profile(exp(-(var(1) ** 2)), [[1.0]]))
    two = grid_apply(op, grid_apply(op, u0, 0.3, scheme="expm"), 0.4,
                     scheme="expm")
    direct = grid_apply(op, u0, 0.7, scheme="expm")
    bound = sum(propagator_details(op, s, "expm")["roundoff_bound"]
                for s in (0.3, 0.4, 0.7))
    assert np.abs(two - direct).max() <= bound
    ones = np.ones(op.n_nodes)
    out = grid_apply(op, ones, 0.7, scheme="expm")
    assert np.abs(out - 1.0).max() <= bound


def test_propagator_details_name_the_branch():
    line = grid_build(WholeSpace(1), 800)
    ival = grid_build(interval(-1.0, 1.0), 200)
    assert propagator_details(ival, 0.5, "crank_nicolson") == \
        {"propagator": "crank_nicolson"}
    assert propagator_details(ival, 0.5, "expm") == {"propagator": "eigh"}
    info = propagator_details(line, 0.5, "expm")
    assert info["propagator"] == "uniformized"
    # Bernstein's tail bound puts the last term a few sqrt(qt) past qt
    q = float(-line.matrix.diagonal().min())
    assert q * 0.5 < info["poisson_terms"] < q * 0.5 + 20 * math.sqrt(q * 0.5)
    assert info["truncation_bound"] <= 2.0 ** -52
    longer = propagator_details(line, 2.0, "expm")
    assert longer["poisson_terms"] > info["poisson_terms"]
    assert longer["roundoff_bound"] > info["roundoff_bound"]
    with pytest.raises(ValueError):
        propagator_details(line, 0.5, "leapfrog")


@pytest.mark.parametrize("dom, res", [(WholeSpace(1), 800), (half_line(), 800),
                                      (interval(-1.0, 1.0), 800)])
def test_tridiagonal_spectrum_matches_dense_eigh(dom, res):
    op = grid_build(dom, res)
    sym = symmetrized(op)
    lam, vec = np.linalg.eigh(sym)
    lam, vec = lam[::-1][:4], vec[:, ::-1][:, :4]
    spec = grid_spectrum(op, 4)
    # both solvers are backward stable: eigenvalues within n eps ||S||
    scale = op.n_nodes * np.finfo(float).eps * np.abs(sym).sum(axis=1).max()
    assert np.abs(spec.eigenvalues - lam).max() <= scale
    dense = vec / np.sqrt(op.weights)[:, None]
    for j in range(4):
        a, b = spec.eigenvectors[:, j], dense[:, j]
        cos = abs(a @ (op.weights * b)) / (l2_norm(op, a) * l2_norm(op, b))
        assert cos > 1.0 - 1e-10
    kernel = spec.kernel_vector / np.mean(spec.kernel_vector)
    assert np.abs(kernel - 1.0).max() < 1e-6


def test_tridiagonal_spectrum_on_a_long_line():
    # 4000 cells: beyond DENSE_EIG_CAP, where shift-invert eigsh ran before
    op = grid_build(WholeSpace(1), 4000)
    assert op.n_nodes > DENSE_EIG_CAP
    spec = grid_spectrum(op, 4)
    hermite = np.array([0.0, -1.0, -2.0, -3.0])
    assert np.abs(spec.eigenvalues - hermite).max() < 1e-4
    kernel = spec.kernel_vector / np.mean(spec.kernel_vector)
    assert np.abs(kernel - 1.0).max() < 1e-6
    lam = eigsh(sp.csc_matrix(symmetrized(op)), k=4, sigma=0.5,
                which="LM")[0]
    assert np.abs(np.sort(lam)[::-1] - spec.eigenvalues).max() < 1e-8


def test_shift_invert_spectrum_on_a_large_2d_mesh():
    op = grid_build(Ball(center=[0.0, 0.0], radius=1.0), 60)
    assert op.n_nodes > DENSE_EIG_CAP
    spec = grid_spectrum(op, 4)
    lam = np.linalg.eigvalsh(symmetrized(op))[::-1][:4]
    assert np.abs(spec.eigenvalues - lam).max() < 1e-8
    kernel = spec.kernel_vector / np.mean(spec.kernel_vector)
    assert np.abs(kernel - 1.0).max() < 1e-6
    # a simple top eigenvalue, then the rotation pair
    steps = np.abs(np.diff(spec.eigenvalues))
    assert steps[0] > CLUSTER_TOL and steps[1] <= CLUSTER_TOL < steps[2]


@pytest.mark.parametrize("dom, res", [(WholeSpace(1), 400), (half_line(), 800),
                                      (interval(-1.0, 1.0), 300),
                                      (Ball(center=[0.0, 0.0], radius=1.0),
                                       40),
                                      (quadrant_2d(), 40),
                                      # more than DENSE_EIG_CAP nodes
                                      (Ball(center=[0.0, 0.0], radius=1.0),
                                       60)])
def test_symmetric_crank_nicolson_matches_the_unsymmetric_loop(dom, res):
    op = grid_build(dom, res)
    for u in (np.tanh(op.nodes[:, 0]), np.exp(-op.nodes[:, -1] ** 2)):
        for t in (0.1, 1.0):
            new = grid_apply(op, u, t)
            old = unsymmetric_crank_nicolson(op, u, t)
            assert np.abs(new - old).max() < 1e-12


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_tridiagonal_eigh_propagator_matches_dense_expm(t):
    op = grid_build(interval(-1.0, 1.0), 200)
    assert propagator_details(op, t, "expm") == {"propagator": "eigh"}
    reference = expm(op.matrix.toarray() * t)
    # both are backward stable and e^{t lam} <= 1: within eps ||S|| max |u|
    scale = np.finfo(float).eps * np.abs(symmetrized(op)).sum(axis=1).max()
    for u in (np.tanh(op.nodes[:, 0]), np.exp(-op.nodes[:, 0] ** 2),
              np.sign(np.sin(40.0 * op.nodes[:, 0]))):
        u_t = grid_apply(op, u, t, scheme="expm")
        assert np.abs(u_t - reference @ u).max() <= scale * np.abs(u).max()


def test_crank_nicolson_refuses_a_matrix_that_is_not_positive_definite():
    op = grid_build(interval(-1.0, 1.0), 200)
    ones = np.ones(op.n_nodes)
    assert np.abs(grid_apply(op, ones, 0.5) - 1.0).max() < 1e-12
    # a copy starts with empty caches, so it factors its own M for the step
    # the operator has already factored
    bad = dataclasses.replace(op, weights=-op.weights)
    with pytest.raises(SolverError, match="not positive definite"):
        grid_apply(bad, ones, 0.5)


def test_crank_nicolson_refuses_a_2d_matrix_that_is_not_positive_definite():
    op = grid_build(Ball(center=[0.0, 0.0], radius=1.0), 40)
    ones = np.ones(op.n_nodes)
    assert np.abs(grid_apply(op, ones, 0.5) - 1.0).max() < 1e-12
    # refused before any arithmetic, so no overflow and no NaN result
    for bad in (dataclasses.replace(op, weights=-op.weights),
                dataclasses.replace(op, stiffness=-op.stiffness)):
        with np.errstate(all="raise"), \
                pytest.raises(SolverError, match="not positive definite"):
            grid_apply(bad, ones, 0.5)


RED_BLACK = [
    ("ball", Ball(center=[0.0, 0.0], radius=1.0)),
    ("ball_offcentre", Ball(center=[0.7, -0.4], radius=1.3)),
    ("quadrant", quadrant_2d()),
    ("gon16", polygon_approximation(Ball(center=[0.0, 0.0], radius=1.0), 16)),
]


def test_red_black_cases_start_on_both_colours():
    firsts = {bool(grid_build(dom, 40).red[0]) for _, dom in RED_BLACK}
    assert firsts == {False, True}


@pytest.mark.parametrize("name, dom", RED_BLACK,
                         ids=[g[0] for g in RED_BLACK])
def test_red_black_solve_matches_a_direct_sparse_lu(name, dom):
    op = grid_build(dom, 40)
    i, j = np.rint((op.nodes - [a[0] for a in op.axes]) / op.spacing).T
    assert np.array_equal(op.red, (i + j) % 2 == 0)
    sym = sp.csr_matrix(symmetrized(op))
    rng = np.random.default_rng(3)
    for matrix in (sp.diags(op.weights) + 0.5 * 0.0025 * op.stiffness,
                   sym - 0.5 * sp.identity(op.n_nodes)):
        solve = _factor_symmetric(matrix, op.red)
        direct = splu(matrix.tocsc())
        for b in (op.weights * np.tanh(op.nodes[:, 0]),
                  rng.standard_normal(op.n_nodes)):
            x = direct.solve(b)
            assert np.abs(solve(b) - x).max() <= 1e-12 * np.abs(x).max()
            # eigsh hands its operator columns as well as vectors
            assert np.array_equal(solve(b[:, None]), solve(b))


def test_red_black_elimination_refuses_a_red_block_that_is_not_diagonal():
    op = grid_build(Ball(center=[0.0, 0.0], radius=1.0), 60)
    # a face between diagonal neighbours joins two cells of one colour;
    # K stays a graph Laplacian, so M stays positive definite
    a = np.flatnonzero(op.red & (op.neighbors[:, 0, 1] >= 0))[0]
    b = op.neighbors[op.neighbors[a, 0, 1], 1, 1]
    assert b >= 0 and op.red[b]
    face = sp.coo_matrix(([1.0, 1.0, -1.0, -1.0], ([a, b, a, b], [a, b, b, a])),
                         shape=(op.n_nodes,) * 2)
    bad = dataclasses.replace(op, stiffness=(op.stiffness + face).tocsr())
    with pytest.raises(SolverError, match="red-red block"):
        grid_apply(bad, np.ones(op.n_nodes), 0.5)
    with pytest.raises(SolverError, match="red-red block"):
        grid_spectrum(bad, 4)
