"""Per-cell and per-facet operator blocks for the penalised weak form.

The discrete system is kept in its three-field shape

    Acc u + Acf w = b        cell equation
    q   = Afc u              two-sided facet projections
    w   = Aff q              numerical fluxes

where u holds cell unknowns, q the projected traces (value and normal
derivative from both sides) and w the facet fluxes.  Eliminating q and w
condenses the facet terms onto the cells; the per-cell diagonal block of
the condensed operator is

    S = Acc + sum_F Acf|_F Aff|_F Afc|_F

which is what the block smoother inverts.  All blocks are assembled from
1D reference matrices via tensor products, so a single set per (basis, h)
serves every cell of a uniform mesh.

Sign conventions: on a facet with normal n_F the minus-side value trace
enters with +1 and the plus side with -1, so the value flux equals half
the jump; derivative traces are taken along n_F on both sides.  The sign
of a cell's facet contribution to its residual is -1 on the side whose
outward normal equals n_F (the minus cell) and +1 on the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ref_matrices


class AssemblyError(RuntimeError):
    pass


def _kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _trace_matrix(vec, dim, s, n1):
    """Contract axis s with vec: maps cell dofs to facet dofs (C order)."""
    pre = np.eye(n1 ** s)
    post = np.eye(n1 ** (dim - 1 - s))
    return _kron_chain([pre, vec.reshape(1, -1), post])


def default_penalty(p, h, penalty_const=1.0):
    """Stability scaling gamma = c (p+1)^2 / h, uniform over all facets."""
    return penalty_const * (p + 1) ** 2 / h


@dataclass
class LocalBlocks:
    """All cell-local operator blocks of one (basis, h, theta, gamma) set.

    Indexing: per axis s and face f (0 low, 1 high).  Acf_w / Acf_wp are the
    unsigned couplings of the value and derivative flux into the cell
    residual; the per-incidence sign (minus cell -1, plus cell +1) is applied
    by the traversals.  D_int / D_bnd are the facet contributions to the
    cell's own diagonal for interior and boundary facets, Nb the coupling to
    the neighbour across an interior facet.
    """

    kind: str
    dim: int
    p: int
    h: float
    theta: float
    gamma: float
    nloc: int
    nf: int
    Acc: np.ndarray
    Mcell: np.ndarray
    Mf: np.ndarray
    Tval: list
    Tder: list
    Acf_w: list
    Acf_wp: list
    D_int: list
    D_bnd: list
    Nb: list
    S: np.ndarray
    Sinv: np.ndarray
    P_loc: np.ndarray

    def assemble_true_diagonal(self, boundary_faces):
        """Diagonal block of a cell whose faces (s, f) in the set are on
        the domain boundary; equals S for a fully interior cell."""
        A = self.S.copy()
        for (s, f) in boundary_faces:
            A += self.D_bnd[s][f] - self.D_int[s][f]
        return A


def build_local_blocks(basis, dim, h, theta=-1.0, penalty_const=1.0, gamma=None):
    """Assemble every block for cells of size h^dim.

    gamma overrides the default (p+1)^2-over-h penalty when given.
    """
    if dim not in (2, 3):
        raise AssemblyError(f"dim must be 2 or 3, got {dim}")
    p = basis.p
    n1 = p + 1
    if gamma is None:
        gamma = default_penalty(p, h, penalty_const)
    r = ref_matrices(basis, h)
    nloc = n1 ** dim
    nf = n1 ** (dim - 1)

    Acc = np.zeros((nloc, nloc))
    for s in range(dim):
        Acc += _kron_chain([r.stiffness if k == s else r.mass for k in range(dim)])
    Mcell = _kron_chain([r.mass] * dim)
    Mf = _kron_chain([r.mass] * (dim - 1)) if dim > 1 else np.ones((1, 1))

    Tval = [[_trace_matrix(r.e0, dim, s, n1), _trace_matrix(r.e1, dim, s, n1)]
            for s in range(dim)]
    Tder = [[_trace_matrix(r.g0, dim, s, n1), _trace_matrix(r.g1, dim, s, n1)]
            for s in range(dim)]

    Acf_w, Acf_wp, D_int, D_bnd, Nb = [], [], [], [], []
    for s in range(dim):
        row_w, row_wp, row_di, row_db, row_nb = [], [], [], [], []
        for f in (0, 1):
            sign_out = 1.0 if f == 1 else -1.0     # outward normal vs axis
            TvMf = Tval[s][f].T @ Mf
            TdMf = Tder[s][f].T @ Mf
            a_w = -theta * sign_out * TdMf - gamma * TvMf
            a_wp = TvMf
            row_w.append(a_w)
            row_wp.append(a_wp)
            # interior facet: high face means this cell is the minus side
            if f == 1:
                sig, sv, onb = -1.0, 1.0, 1.0
            else:
                sig, sv, onb = 1.0, -1.0, 1.0
            row_di.append(sig * (a_w @ (0.5 * sv * Tval[s][f])
                                 + a_wp @ (0.5 * onb * Tder[s][f])))
            # boundary facet: always the minus side, one-sided flux,
            # n_F flips to -e_s on the low face
            ob = 1.0 if f == 1 else -1.0
            row_db.append(-1.0 * (a_w @ Tval[s][f] + a_wp @ (ob * Tder[s][f])))
            # neighbour across an interior facet projects from its own
            # opposite face
            fn = 1 - f
            svn = -1.0 if f == 1 else 1.0          # neighbour side sign
            row_nb.append(sig * (a_w @ (0.5 * svn * Tval[s][fn])
                                 + a_wp @ (0.5 * Tder[s][fn])))
        Acf_w.append(row_w)
        Acf_wp.append(row_wp)
        D_int.append(row_di)
        D_bnd.append(row_db)
        Nb.append(row_nb)

    S = Acc + sum(D_int[s][f] for s in range(dim) for f in (0, 1))
    # at theta = -1 the facet terms can cancel Acc entirely (p = 1, gamma = 0
    # leaves an exact zero block), so singularity is judged against the
    # scale of the ingredients, not of S itself
    scale = np.linalg.norm(Acc) + abs(gamma) * np.linalg.norm(Mf)
    if np.linalg.norm(S) <= 1e-12 * scale:
        raise AssemblyError("cell block vanishes; penalty too small")
    try:
        Sinv = np.linalg.inv(S)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError("cell block is singular; penalty too small") from exc
    if not np.isfinite(Sinv).all() or np.linalg.cond(S) > 1e14:
        raise AssemblyError("cell block is numerically singular; penalty too small")

    corners = [[(b >> (dim - 1 - k)) & 1 for k in range(dim)] for b in range(2 ** dim)]
    nodes = basis.nodes
    P_loc = np.ones((nloc, 2 ** dim))
    loc_multi = np.stack(np.meshgrid(*([np.arange(n1)] * dim), indexing="ij"),
                         axis=-1).reshape(-1, dim)
    for b, bits in enumerate(corners):
        col = np.ones(nloc)
        for k in range(dim):
            xk = nodes[loc_multi[:, k]]
            col = col * (xk if bits[k] else 1.0 - xk)
        P_loc[:, b] = col

    return LocalBlocks(
        kind=basis.kind, dim=dim, p=p, h=h, theta=theta, gamma=gamma,
        nloc=nloc, nf=nf, Acc=Acc, Mcell=Mcell, Mf=Mf, Tval=Tval, Tder=Tder,
        Acf_w=Acf_w, Acf_wp=Acf_wp, D_int=D_int, D_bnd=D_bnd, Nb=Nb,
        S=S, Sinv=Sinv, P_loc=P_loc,
    )


def predict_blocks(unit, h, gamma=None):
    """Rescale blocks assembled at h = 1 to cell size h.

    Every block splits into a main part scaling with a fixed power of h and
    a penalty part proportional to gamma * h^(d-1); both parts are recovered
    from the unit-size blocks, so one assembly serves the whole hierarchy.
    Returns a dict of predicted arrays.
    """
    if unit.h != 1.0:
        raise AssemblyError("prediction needs blocks assembled at h = 1")
    d = unit.dim
    if gamma is None:
        gamma = default_penalty(unit.p, h)
    g1 = unit.gamma

    def split(block, pen_route):
        main = block - g1 * pen_route
        return h ** (d - 2) * main + gamma * h ** (d - 1) * pen_route

    out = {
        "Acc": h ** (d - 2) * unit.Acc,
        "Mcell": h ** d * unit.Mcell,
        "Mf": h ** (d - 1) * unit.Mf,
        "Tval": [[unit.Tval[s][f].copy() for f in (0, 1)] for s in range(d)],
        "Tder": [[unit.Tder[s][f] / h for f in (0, 1)] for s in range(d)],
        "P_loc": unit.P_loc.copy(),
    }
    Acf_w, Acf_wp, D_int, D_bnd, Nb = [], [], [], [], []
    pen_S = np.zeros_like(unit.S)
    for s in range(d):
        rw, rwp, rdi, rdb, rnb = [], [], [], [], []
        for f in (0, 1):
            pen_u = -(unit.Tval[s][f].T @ unit.Mf)          # gamma coupling
            rw.append(split(unit.Acf_w[s][f], pen_u))
            rwp.append(h ** (d - 1) * unit.Acf_wp[s][f])
            sig = -1.0 if f == 1 else 1.0
            sv = 1.0 if f == 1 else -1.0
            fn = 1 - f
            svn = -sv
            pen_di = sig * (pen_u @ (0.5 * sv * unit.Tval[s][f]))
            pen_db = -1.0 * (pen_u @ unit.Tval[s][f])
            pen_nb = sig * (pen_u @ (0.5 * svn * unit.Tval[s][fn]))
            rdi.append(split(unit.D_int[s][f], pen_di))
            rdb.append(split(unit.D_bnd[s][f], pen_db))
            rnb.append(split(unit.Nb[s][f], pen_nb))
            pen_S += pen_di
        Acf_w.append(rw)
        Acf_wp.append(rwp)
        D_int.append(rdi)
        D_bnd.append(rdb)
        Nb.append(rnb)
    out.update(Acf_w=Acf_w, Acf_wp=Acf_wp, D_int=D_int, D_bnd=D_bnd, Nb=Nb)
    out["S"] = split(unit.S, pen_S)
    return out


def apply_flux(q_minus, q_plus, out=None):
    """Numerical flux record from the two-sided trace records.

    A record stacks the signed value trace and the n_F-directed derivative
    trace.  The flux averages the two sides, which turns the signed value
    pair into half the jump.  A boundary face is paired with its own
    record (Mesh.opposite_records), and the average of a record with
    itself is that record, bit for bit.  Works on single records and on
    batches alike; out, which may be q_minus itself, receives the result
    in place of a new array.
    """
    if out is None:
        return 0.5 * (q_minus + q_plus)
    np.add(q_minus, q_plus, out=out)
    out *= 0.5
    return out


def memory_access_model(variant, dim, p):
    """Data volume per cell and sweep, in scalar reads plus writes.

    Counting treats one cell block as (p+1)^dim scalars and one facet
    record as (p+1)^(dim-1), with fluxes attributed to the first touching
    cell and facets amortised as dim per cell.
    """
    n1 = p + 1
    cell = n1 ** dim
    face = n1 ** (dim - 1)
    if variant == "vanilla":
        return (2 * dim + 5) * cell
    if variant == "fused":
        return 3 * cell + 7 * dim * face
    if variant == "fused_standalone":
        return 5 * cell + 7 * dim * face
    raise ValueError(f"unknown variant {variant!r}")


@dataclass
class CoarseOps:
    """Continuous bilinear (vertex) operator pieces on square cells."""

    dim: int
    stencil: np.ndarray   # assembled 9-point stencil at an interior vertex
    diag: float


def build_coarse_ops(dim):
    if dim != 2:
        raise AssemblyError("vertex-space operators are implemented for dim = 2")
    # the bilinear stiffness on squares is independent of h in 2D
    stencil = np.full((3, 3), -1.0 / 3.0)
    stencil[1, 1] = 8.0 / 3.0
    return CoarseOps(dim=dim, stencil=stencil, diag=8.0 / 3.0)
