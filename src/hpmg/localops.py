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

Sign conventions: an interior facet normal to axis s has n_F = +e_s; its
minus-side value trace enters with +1 and the plus side with -1, so the
value flux equals half the jump, and derivative traces are taken along
n_F on both sides.  The sign of a cell's facet contribution to its
residual is -1 on the side whose outward normal equals n_F (the minus
cell) and +1 on the other.  Per cell face that is one table: the value
trace -1 on the low face and +1 on the high face, the derivative along
+e_s, the residual sign +1 on the low face and -1 on the high face.  It
holds on the domain boundary too: a boundary facet has one side, its flux
is its cell's record, and its term is the product of two one-sided
factors, so the direction of the boundary normal drops out (Arnold,
Brezzi, Cockburn & Marini, SIAM J. Numer. Anal. 39, 2002).  The signs
live here only: _condense folds them into the condensed blocks, and
LocalBlocks into the signed stacks the traversals read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import ref_matrices
from .mesh import is_count, is_real


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

    The per-face blocks are stacked arrays whose two leading axes are the
    face: axis s and face f (0 low, 1 high), so X[s][f] or X[s, f] is one
    face's block.  Tval / Tder (dim, 2, nf, nloc) map cell dofs to the
    face's value and derivative traces.  Acf_w / Acf_wp (dim, 2, nloc, nf)
    are the unsigned couplings of the value and derivative flux into the
    cell residual.  D_int / D_bnd (dim, 2, nloc, nloc) are the facet
    contributions to the cell's own diagonal for interior and boundary
    facets, Nb the coupling to the neighbour across an interior facet.

    The traversals read two signed stacks built from these.  traces
    (2*dim*2*nf, nloc) holds the value and derivative traces of all 2*dim
    faces in (s, f) order, the value -1 on the low face, where the cell is
    the plus side of an interior facet.  couplings (dim, 2, nloc, 2*nf)
    holds [Acf_w | Acf_wp] of each face, -1 on the high face, where the
    cell is the minus side.  across (nloc, 2*dim*2*nf) holds half of every
    face's couplings side by side in (s, f) order: the cell's own half of
    each flux is already in S (half of couplings[s, f] times the face's
    rows of traces is D_int[s, f]), so the product of the records across
    a cell's faces by across is N u, with N = A - S the part of the
    operator off the interior block; a boundary face's record across is
    its own, which adds D_bnd - D_int.
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
    Tval: np.ndarray
    Tder: np.ndarray
    Acf_w: np.ndarray
    Acf_wp: np.ndarray
    D_int: np.ndarray
    D_bnd: np.ndarray
    Nb: np.ndarray
    S: np.ndarray
    Sinv: np.ndarray
    P_loc: np.ndarray
    traces: np.ndarray = field(init=False)
    couplings: np.ndarray = field(init=False)
    across: np.ndarray = field(init=False)

    def __post_init__(self):
        low_high = np.array([-1.0, 1.0])[:, None, None]
        self.traces = np.stack([low_high * self.Tval, self.Tder],
                               axis=2).reshape(-1, self.nloc)
        self.couplings = -low_high * np.concatenate([self.Acf_w, self.Acf_wp],
                                                    axis=3)
        self.across = 0.5 * np.moveaxis(self.couplings, 2, 0).reshape(
            self.nloc, -1)

    def assemble_true_diagonal(self, boundary_faces):
        """Diagonal block of a cell whose faces (s, f) in the set are on
        the domain boundary; equals S for a fully interior cell."""
        A = self.S.copy()
        for (s, f) in boundary_faces:
            A += self.D_bnd[s, f] - self.D_int[s, f]
        return A


def _condense(Tval, Tder, f, a_w, a_wp=None):
    """The facet terms of face f (0 low, 1 high) of one axis, given the
    face's value and derivative flux couplings a_w, a_wp (None for none)
    and the axis' traces Tval, Tder, low face first: (D_int, D_bnd, Nb).

    On its high face the cell is the minus side of an interior facet: the
    face's residual sign is -1 and its value trace enters the flux with +1,
    the neighbour's, projected from the neighbour's opposite face, with -1;
    on the low face all three flip.  A boundary facet is always the minus
    side, with a one-sided flux and n_F = -e_s on the low face.
    """
    sig = -1.0 if f == 1 else 1.0   # residual sign, neighbour's value sign
    sv = -sig                       # own value sign, n_F . e_s on a boundary
    d_int = a_w @ (0.5 * sv * Tval[f])
    d_bnd = a_w @ Tval[f]
    nb = a_w @ (0.5 * sig * Tval[1 - f])
    if a_wp is not None:
        d_int = d_int + a_wp @ (0.5 * Tder[f])
        d_bnd = d_bnd + a_wp @ (sv * Tder[f])
        nb = nb + a_wp @ (0.5 * Tder[1 - f])
    return sig * d_int, -1.0 * d_bnd, sig * nb


def build_local_blocks(basis, dim, h, theta=-1.0, penalty_const=1.0):
    """Assemble every block for cells of size h^dim, with the penalty
    default_penalty(p, h, penalty_const).  AssemblyError unless dim is
    the integer 2 or 3, h, theta and penalty_const are finite real
    numbers, h > 0 and penalty_const >= 0."""
    if not is_count(dim) or dim not in (2, 3):
        raise AssemblyError(f"dim must be 2 or 3, got {dim!r}")
    for name, v in (("h", h), ("theta", theta),
                    ("penalty_const", penalty_const)):
        if not (is_real(v) and math.isfinite(v)):
            raise AssemblyError(f"{name} must be a finite real number, "
                                f"got {v!r}")
    if h <= 0:
        raise AssemblyError(f"cell size h must be positive, got {h!r}")
    if penalty_const < 0:
        raise AssemblyError(f"penalty_const must be >= 0, got "
                            f"{penalty_const!r}")
    p = basis.p
    n1 = p + 1
    gamma = default_penalty(p, h, penalty_const)
    r = ref_matrices(basis, h)
    nloc = n1 ** dim
    nf = n1 ** (dim - 1)

    Acc = np.zeros((nloc, nloc))
    for s in range(dim):
        Acc += _kron_chain([r.stiffness if k == s else r.mass for k in range(dim)])
    Mcell = _kron_chain([r.mass] * dim)
    Mf = _kron_chain([r.mass] * (dim - 1)) if dim > 1 else np.ones((1, 1))

    Tval = np.array([[_trace_matrix(v, dim, s, n1) for v in (r.e0, r.e1)]
                     for s in range(dim)])
    Tder = np.array([[_trace_matrix(g, dim, s, n1) for g in (r.g0, r.g1)]
                     for s in range(dim)])

    Acf_w = np.empty((dim, 2, nloc, nf))
    Acf_wp = np.empty_like(Acf_w)
    D_int, D_bnd, Nb = (np.empty((dim, 2, nloc, nloc)) for _ in range(3))
    for s, f in np.ndindex(dim, 2):
        sign_out = 1.0 if f == 1 else -1.0     # outward normal vs axis
        TvMf = Tval[s, f].T @ Mf
        TdMf = Tder[s, f].T @ Mf
        Acf_w[s, f] = -theta * sign_out * TdMf - gamma * TvMf
        Acf_wp[s, f] = TvMf
        D_int[s, f], D_bnd[s, f], Nb[s, f] = _condense(
            Tval[s], Tder[s], f, Acf_w[s, f], Acf_wp[s, f])

    S = Acc + sum(D_int.reshape(-1, nloc, nloc))
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


def predict_blocks(unit, h):
    """Rescale blocks assembled at h = 1 to cell size h.

    Every block splits into a main part scaling with a fixed power of h and
    a penalty part proportional to gamma * h^(d-1); both parts are recovered
    from the unit-size blocks, so one assembly serves the whole hierarchy.
    The penalty part of a facet term is its condensation with the value
    coupling -Tval^T Mf alone.  gamma at size h is unit.gamma / h: the
    penalty scales as 1/h, and unit.gamma carries the unit's penalty_const.
    Returns a dict of predicted arrays.
    """
    if unit.h != 1.0:
        raise AssemblyError("prediction needs blocks assembled at h = 1")
    d = unit.dim
    g1 = unit.gamma
    gamma = g1 / h

    def split(block, pen_route):
        main = block - g1 * pen_route
        return h ** (d - 2) * main + gamma * h ** (d - 1) * pen_route

    pen_u = np.empty_like(unit.Acf_w)
    pen = np.empty((3,) + unit.D_int.shape)      # D_int, D_bnd, Nb routes
    for s, f in np.ndindex(d, 2):
        pen_u[s, f] = -(unit.Tval[s, f].T @ unit.Mf)
        pen[:, s, f] = _condense(unit.Tval[s], unit.Tder[s], f, pen_u[s, f])
    return {
        "Acc": h ** (d - 2) * unit.Acc,
        "Mcell": h ** d * unit.Mcell,
        "Mf": h ** (d - 1) * unit.Mf,
        "Tval": unit.Tval.copy(),
        "Tder": unit.Tder / h,
        "P_loc": unit.P_loc.copy(),
        "Acf_w": split(unit.Acf_w, pen_u),
        "Acf_wp": h ** (d - 1) * unit.Acf_wp,
        "D_int": split(unit.D_int, pen[0]),
        "D_bnd": split(unit.D_bnd, pen[1]),
        "Nb": split(unit.Nb, pen[2]),
        "S": split(unit.S, sum(pen[0].reshape(-1, unit.nloc, unit.nloc))),
    }


def apply_flux(q_minus, q_plus, out=None):
    """Numerical flux record from the two-sided trace records.

    A record stacks the signed value trace and the derivative trace along
    +e_s (see FacetProjection).  The flux averages the two sides, which
    turns the signed value pair into half the jump.  A boundary face is
    paired with its own record (Mesh.opposite_records), and the average
    of a record with itself is that record, bit for bit.  Works on single
    records and on batches alike; out, which may be q_minus itself,
    receives the result in place of a new array.
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
