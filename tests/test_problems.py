import numpy as np
import pytest

from hpmg import (
    CellField,
    ProblemError,
    build_rhs,
    cell_nodes,
    discretisation_error,
    fit_slope,
    get_problem,
    interpolate_exact,
    make_basis,
)
from hpmg.problems import PROBLEMS
from hpmg.smoother import BLOCK

from conftest import mesh_at


@pytest.mark.parametrize("name", ["sin_product", "two_peak"])
def test_rhs_is_negative_laplacian(name, rng):
    # second-order central differences of the exact solution at random
    # interior points
    problem = get_problem(name)
    eps = 1e-5
    pts = rng.uniform(0.1, 0.9, size=(100, 2))
    x, y = pts[:, 0], pts[:, 1]
    u = problem.exact
    lap = (u(x + eps, y) + u(x - eps, y) + u(x, y + eps) + u(x, y - eps)
           - 4.0 * u(x, y)) / eps ** 2
    f = problem.rhs(x, y)
    scale = np.max(np.abs(f)) + 1.0
    np.testing.assert_allclose(-lap, f, atol=1e-4 * scale)


@pytest.mark.parametrize("name", ["sin_product", "two_peak", "zero"])
def test_exact_solution_vanishes_on_boundary(name, rng):
    problem = get_problem(name)
    t = rng.uniform(0.0, 1.0, size=50)
    zero = np.zeros_like(t)
    for x, y in ((t, zero), (t, zero + 1.0), (zero, t), (zero + 1.0, t)):
        np.testing.assert_allclose(problem.exact(x, y), 0.0, atol=1e-14)


def test_problem_lookup():
    assert get_problem("two_peak").name == "two_peak"
    assert set(PROBLEMS) == {"sin_product", "two_peak", "zero"}
    with pytest.raises(ProblemError, match="sin_product"):
        get_problem("poisson")


def test_cell_nodes_layout():
    mesh = mesh_at(1)
    basis = make_basis("lobatto", 1)
    xy = cell_nodes(mesh, basis)
    assert xy.shape == (9, 4, 2)
    k = int(mesh.cell_rank[1, 2])
    h = mesh.h
    # x-major: the local index moves fastest along the last axis
    np.testing.assert_allclose(xy[k, 0], [1 * h, 2 * h], atol=1e-15)
    np.testing.assert_allclose(xy[k, 1], [1 * h, 3 * h], atol=1e-15)
    np.testing.assert_allclose(xy[k, 2], [2 * h, 2 * h], atol=1e-15)
    np.testing.assert_allclose(xy[k, 3], [2 * h, 3 * h], atol=1e-15)


def test_interpolant_matches_exact_at_nodes():
    mesh = mesh_at(1)
    for kind in ("lobatto", "legendre"):
        basis = make_basis(kind, 3)
        problem = get_problem("two_peak")
        u = interpolate_exact(problem, mesh, basis)
        xy = cell_nodes(mesh, basis)
        want = problem.exact(xy[..., 0], xy[..., 1])
        np.testing.assert_array_equal(u.data, want)
    u0 = interpolate_exact(get_problem("zero"), mesh, basis)
    assert np.all(u0.data == 0.0)


def test_rhs_of_zero_problem_is_zero():
    mesh = mesh_at(1)
    basis = make_basis("lobatto", 2)
    b = build_rhs(get_problem("zero"), mesh, basis)
    assert np.all(b.data == 0.0)


def test_rhs_of_constant_forcing():
    # f == 1 against p = 1 lobatto hats integrates to h^2/4 per node
    mesh = mesh_at(1)
    basis = make_basis("lobatto", 1)
    one = PROBLEMS["zero"].__class__("one", lambda x, y: 0.0 * x,
                                     lambda x, y: np.ones(np.broadcast(x, y).shape))
    b = build_rhs(one, mesh, basis)
    np.testing.assert_allclose(b.data, mesh.h ** 2 / 4.0, atol=1e-15)


# a forcing the cell rule integrates exactly against every basis function
# (per-axis degree p + 3 stays within 2(p+2) - 1)
_POLY = PROBLEMS["zero"].__class__(
    "poly", lambda x, y: 0.0 * x,
    lambda x, y: (x ** 3 - 0.2 * x) * (y ** 2 + 1.5))


def _check_rhs_against_fine_rule(mesh, basis, cells):
    # against an independent 20-point rule on each listed cell
    b = build_rhs(_POLY, mesh, basis)
    xg, wg = np.polynomial.legendre.leggauss(20)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    h = mesh.h
    E = basis.eval(xg)
    for k in cells:
        ox, oy = mesh.cells[k] * h
        X = ox + h * xg[:, None]
        Y = oy + h * xg[None, :]
        F = _POLY.rhs(X, Y) * (h ** 2 * np.outer(wg, wg))
        want = np.einsum("ab,ai,bj->ij", F, E, E).reshape(-1)
        np.testing.assert_allclose(b.data[k], want,
                                   atol=1e-13 * np.max(np.abs(want)),
                                   err_msg=f"cell {k}")


def test_rhs_matches_fine_quadrature_oracle():
    mesh = mesh_at(1)
    _check_rhs_against_fine_rule(mesh, make_basis("legendre", 2),
                                 (0, int(mesh.cell_rank[1, 1])))


@pytest.mark.parametrize("kind", ["lobatto", "legendre"])
def test_rhs_matches_fine_quadrature_oracle_in_every_block(kind):
    # L4 is three blocks of BLOCK cells: one cell checked in each, at
    # different offsets, so a block written to the wrong rows fails
    mesh = mesh_at(4)
    assert mesh.ncells == 3 * BLOCK
    _check_rhs_against_fine_rule(mesh, make_basis(kind, 2),
                                 (7, BLOCK + 1093, 3 * BLOCK - 1))


def test_rhs_integral_identity():
    # sum of all load entries equals int f (partition of unity), which is
    # zero for the sine product
    mesh = mesh_at(2)
    basis = make_basis("lobatto", 2)
    b = build_rhs(get_problem("sin_product"), mesh, basis)
    assert abs(b.data.sum()) < 1e-10


def test_discretisation_error_routes():
    mesh = mesh_at(1)
    basis = make_basis("lobatto", 2)
    problem = get_problem("sin_product")
    u = interpolate_exact(problem, mesh, basis)
    e2, ei = discretisation_error(u, problem, mesh, basis)
    assert e2 == 0.0 and ei == 0.0
    u.data += 1e-3
    e2, ei = discretisation_error(u, problem, mesh, basis)
    assert 0.0 < e2 and 0.0 < ei
    # zero reference falls back to absolute norms
    z = get_problem("zero")
    ua = CellField(np.full((mesh.ncells, basis.n ** 2), 2.0))
    e2, ei = discretisation_error(ua, z, mesh, basis)
    assert ei == 2.0
    assert e2 == pytest.approx(2.0 * np.sqrt(ua.data.size))
    # a solution that is not one row per cell: a single row used to
    # broadcast over every cell, a flat array to fail inside numpy
    for bad in (u.data[0], u.data.reshape(-1)):
        for arg in (bad, CellField(bad)):
            with pytest.raises(ProblemError, match="shape"):
                discretisation_error(arg, problem, mesh, basis)


def test_fit_slope():
    hs = [1.0 / 9.0, 1.0 / 27.0, 1.0 / 81.0]
    errs = [h ** 3 for h in hs]
    assert fit_slope(hs, errs) == pytest.approx(3.0, abs=1e-12)
    errs = [2.5 * h ** 1.5 for h in hs]
    assert fit_slope(hs, errs) == pytest.approx(1.5, abs=1e-12)
    assert np.isnan(fit_slope([1.0], [0.5]))
    assert np.isnan(fit_slope(hs, [1.0, 0.0, 1.0]))


def test_rejects_3d_meshes():
    from hpmg import build_hierarchy

    mesh3 = build_hierarchy(3, 1)[0]
    basis = make_basis("lobatto", 1)
    with pytest.raises(ProblemError):
        build_rhs(get_problem("zero"), mesh3, basis)
    with pytest.raises(ProblemError):
        interpolate_exact(get_problem("zero"), mesh3, basis)
