"""Manufactured Poisson problems with closed-form data.

Each problem bundles the exact solution and the matching right-hand side
f = -lap(u).  Load vectors are integrated cell by cell with the basis'
own Gauss-Legendre rule; discretisation errors are relative dof-vector
norms against the nodal interpolant of the exact solution, in line with
how the solver experiments measure convergence.
"""

from dataclasses import dataclass

import numpy as np

from .fields import CellField, combine_norms, norm_parts
from .smoother import BLOCK


class ProblemError(ValueError):
    pass


@dataclass(frozen=True)
class Problem:
    """A 2d manufactured solution: u on the unit square, zero on the
    boundary, and its negative Laplacian."""

    name: str
    exact: callable
    rhs: callable


def _sin_u(x, y):
    return np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)


def _sin_f(x, y):
    return 8.0 * np.pi ** 2 * _sin_u(x, y)


# two-peak parameters: centers and widths of the two Gaussians
_PEAKS = ((2.0, 0.3, 0.4, 0.2), (-1.0, 0.8, 0.6, 0.1))


def _gauss_terms(x, y, a, b, s):
    """Gaussian bump and its first derivatives and Laplacian."""
    g = np.exp(-((x - a) ** 2 + (y - b) ** 2) / (2.0 * s ** 2))
    gx = -g * (x - a) / s ** 2
    gy = -g * (y - b) / s ** 2
    lap = g * (((x - a) ** 2 + (y - b) ** 2) / s ** 4 - 2.0 / s ** 2)
    return g, gx, gy, lap


def _peak_u(x, y):
    out = 0.0
    for c, a, b, s in _PEAKS:
        out = out + c * _gauss_terms(x, y, a, b, s)[0]
    return x * (1.0 - x) * y * (1.0 - y) * out


def _peak_f(x, y):
    # f = -lap(B*G) = -(B lap G + 2 grad B . grad G + G lap B) with the
    # boundary-vanishing bubble B = x(1-x)y(1-y)
    B = x * (1.0 - x) * y * (1.0 - y)
    Bx = (1.0 - 2.0 * x) * y * (1.0 - y)
    By = x * (1.0 - x) * (1.0 - 2.0 * y)
    lapB = -2.0 * y * (1.0 - y) - 2.0 * x * (1.0 - x)
    G = Gx = Gy = lapG = 0.0
    for c, a, b, s in _PEAKS:
        g, gx, gy, lap = _gauss_terms(x, y, a, b, s)
        G = G + c * g
        Gx = Gx + c * gx
        Gy = Gy + c * gy
        lapG = lapG + c * lap
    return -(B * lapG + 2.0 * (Bx * Gx + By * Gy) + G * lapB)


def _zero(x, y):
    return np.zeros(np.broadcast(x, y).shape)


PROBLEMS = {
    "sin_product": Problem("sin_product", _sin_u, _sin_f),
    "two_peak": Problem("two_peak", _peak_u, _peak_f),
    "zero": Problem("zero", _zero, _zero),
}


def get_problem(name):
    try:
        return PROBLEMS[name]
    except KeyError:
        raise ProblemError(f"unknown problem {name!r}; "
                           f"choose from {sorted(PROBLEMS)}") from None


def _require_2d(mesh):
    if mesh.dim != 2:
        raise ProblemError("manufactured problems are two-dimensional")


def cell_nodes(mesh, basis, cells=slice(None)):
    """Physical tensor-node coordinates of the cells (all by default),
    shape (ncells, nloc, dim); the local index runs x-major to match the
    cell block layout."""
    grids = np.meshgrid(*([basis.nodes] * mesh.dim), indexing="ij")
    ref = np.stack([g.reshape(-1) for g in grids], axis=-1)
    return (mesh.cells[cells, None, :] + ref[None, :, :]) * mesh.h


def interpolate_exact(problem, mesh, basis):
    """Nodal interpolant of the exact solution as a CellField."""
    _require_2d(mesh)
    xy = cell_nodes(mesh, basis)
    return CellField(problem.exact(xy[..., 0], xy[..., 1]).copy())


def build_rhs(problem, mesh, basis):
    """Load vector b|_K,i = int_K phi_i f, by the basis' tensor rule.

    With the weighted shape values folded into one matrix
    Q = h^2 kron(w E, w E), of shape ((p+2)^2, (p+1)^2), a cell's load is
    its row of f at the (p+2)^2 quadrature points times Q.  f is
    evaluated one block of BLOCK cells at a time and each block's product
    is written straight into its rows of b.
    """
    _require_2d(mesh)
    xq, h = basis.quad_x, mesh.h
    wE = basis.quad_w[:, None] * basis.eval(xq)     # (nq, p+1)
    Q = h ** 2 * np.kron(wE, wE)
    b = np.empty((mesh.ncells, Q.shape[1]))
    for lo in range(0, mesh.ncells, BLOCK):
        o = mesh.cells[lo:lo + BLOCK] * h
        X = o[:, 0, None, None] + h * xq[None, :, None]
        Y = o[:, 1, None, None] + h * xq[None, None, :]
        F = np.broadcast_to(problem.rhs(X, Y), (len(o), xq.size, xq.size))
        np.matmul(F.reshape(len(o), -1), Q, out=b[lo:lo + BLOCK])
    return CellField(b)


def discretisation_error(u, problem, mesh, basis):
    """Relative (l2, linf) dof-vector distance to the nodal interpolant;
    falls back to absolute norms when the reference is identically zero.

    u is a CellField or an array of shape (ncells, nloc), else
    ProblemError.  The interpolant and the difference are formed one
    block of BLOCK cells at a time, and the sums combine in block order.
    """
    _require_2d(mesh)
    data = u.data if isinstance(u, CellField) else np.asarray(u)
    if data.shape != (mesh.ncells, basis.n ** mesh.dim):
        raise ProblemError(f"solution of shape {data.shape} does not match "
                           f"mesh/basis {(mesh.ncells, basis.n ** mesh.dim)}")
    ref, diff = {}, {}      # per block: norm_parts
    for lo in range(0, mesh.ncells, BLOCK):
        xy = cell_nodes(mesh, basis, slice(lo, lo + BLOCK))
        exact = problem.exact(xy[..., 0], xy[..., 1])
        ref[lo] = norm_parts(exact)
        diff[lo] = norm_parts(data[lo:lo + BLOCK] - exact)
    (r2, ri), (d2, di) = combine_norms(ref), combine_norms(diff)
    if r2 == 0.0:
        return d2, di
    return d2 / r2, di / ri


def fit_slope(hs, errors):
    """Least-squares slope of log(error) against log(h)."""
    hs, errors = np.asarray(hs, float), np.asarray(errors, float)
    if hs.size < 2 or np.any(errors <= 0.0):
        return float("nan")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
