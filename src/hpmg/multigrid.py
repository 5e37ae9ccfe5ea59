"""Geometric hp-multigrid on the condensed cell system.

One p-coarsening step maps the element polynomial space onto continuous
bilinears on the same mesh: the vertex hat functions are a subspace of
every p >= 1 space, their inter-element jumps vanish, so the Galerkin
coarse operator is the plain bilinear finite-element stiffness, applied
as an assembled 9-point vertex stencil a I + b box3x3.  The h-hierarchy
then coarsens the vertex grids by threes down to the 3x3-cell base mesh
with nested bilinear transfers.  Vertex arrays carry a zero Dirichlet
ring that the kernels read but never write: no masks, no padding.

Traversal accounting with the one-traversal smoother: one warm-up
projection traversal, run by the first traversal of a cold state, then
per cycle nu smoothing traversals, one residual traversal that also
restricts, and one prolongation traversal that adds the correction and
re-projects the updated cells (a converged solve discards the last
re-projection).  A run of n cycles touches the mesh n*(nu+2)+1 times.
The vanilla and stages sweeps read no traces a traversal before them
wrote, so they run neither the warm-up nor the re-projection.  Each
traversal counts itself in counters.traversals; solve() only orders them
on the smoother's block engine: the residual traversal keeps each
block's residual in a block buffer and writes its rows of the vertex
contributions R P_loc and its partial norms; the prolongation traversal
forms each block's correction rows, adds them, and forms the change of
the iterate and its partial norms.  Partial norms combine in block
order.  Only the vertex load, one bincount over the contributions, runs
over the whole mesh.

Stopping is either on the residual recorded in the restriction traversal
(criterion "unprec", no extra work) or on the difference of consecutive
cycle iterates, available when a correction is materialised (criterion
"prec"); both are relative to their first recorded value, the residual
one to the residual of the initial guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# exchange_interface is not called here; perfbench/tracing.py rebinds it
# in this module as well as in the smoother
from .fields import (CellField, combine_norms, exchange_interface,
                     fmt_float, norm_parts)
from .mesh import MAX_LEVEL, is_count, is_real
from .smoother import (SWEEPS, SmootherError, _rows_mm, check_settings,
                       compute_residual_only, make_state)


class MgError(RuntimeError):
    pass


class CoarseSolveError(MgError):
    pass


class NonFiniteError(MgError):
    pass


def _check_finite(norm, cycle):
    if not np.isfinite(norm):
        where = f"cycle {cycle}" if cycle else "the initial guess"
        raise NonFiniteError(f"residual norm of {where} is {norm}")


@dataclass
class MgConfig:
    """Settings of one multigrid solve; validate() checks them all.

    nu            smoothing sweeps per cycle, an integer >= 1
    omega         smoother relaxation weight, a real number in [0, 1]
    eps           stopping tolerance, a real number >= 0
    max_cycles    cycle cap, an integer >= 1
    criterion     "prec" (iterate change), "unprec" (residual) or "error"
    coarse        "exact" (direct vertex solve) or "vcycle" (one V-cycle)
    variant       smoother variant: "vanilla", "stages", "fused", "tasked"
    inverse_mode  cell block inverse: "precomputed" or "percell"
    workers       threads of the block engine, an integer >= 1
    """

    nu: int = 2
    omega: float = 0.9
    eps: float = 1e-7
    max_cycles: int = 200
    criterion: str = "prec"
    coarse: str = "exact"
    variant: str = "fused"
    inverse_mode: str = "precomputed"
    workers: int = 1

    def validate(self):
        for name in ("nu", "max_cycles"):
            v = getattr(self, name)
            if not is_count(v) or v < 1:
                raise MgError(f"{name} must be an integer >= 1, got {v!r}")
        if self.criterion not in ("prec", "unprec", "error"):
            raise MgError(f"unknown stopping criterion {self.criterion!r}")
        if self.coarse not in ("exact", "vcycle"):
            raise MgError(f"unknown coarse solve mode {self.coarse!r}")
        try:
            check_settings(self.omega, self.variant, self.inverse_mode,
                           self.workers)
        except SmootherError as exc:
            raise MgError(str(exc)) from exc
        if not (is_real(self.eps) and self.eps >= 0.0):     # also rejects NaN
            raise MgError(f"tolerance eps must be a real number >= 0, "
                          f"got {self.eps!r}")


@dataclass
class CoarseLevel:
    n: int                  # cells per direction
    stencil: np.ndarray     # a I + b box3x3, b the off-centre weight
    W: np.ndarray           # 1d interpolation from the next coarser level
    sine: tuple = None      # (S, mu) of direct_solve, built on first use


@dataclass
class CoarseSpace:
    """The vertex grids and their kernels: jacobi updates U's interior in
    place, the other kernels return arrays whose ring is zero."""

    levels: list            # finest first, down to the 3x3-cell base

    # -- vertex-grid kernels ------------------------------------------------

    @staticmethod
    def _box(U):
        """Box sums at the interior vertices: two 3-point slice passes."""
        T = U[:-2] + U[1:-1]
        T += U[2:]
        box = T[:, :-2] + T[:, 1:-1]
        box += T[:, 2:]
        return box

    def apply_stiffness(self, li, U):
        """9-point stencil a U + b box(U) with eliminated Dirichlet rows."""
        st = self.levels[li].stencil
        R = np.zeros(U.shape)
        np.multiply(self._box(U), st[0, 0], out=R[1:-1, 1:-1])
        R[1:-1, 1:-1] += (st[1, 1] - st[0, 0]) * U[1:-1, 1:-1]
        return R

    def jacobi(self, li, U, B, omega, nsweeps):
        """nsweeps damped Jacobi sweeps on U's interior in place, each
        U = (1 - w a) U + w B - w b box(U), w = omega / (a + b)."""
        st = self.levels[li].stencil
        w = omega / st[1, 1]
        wB, I = w * B[1:-1, 1:-1], U[1:-1, 1:-1]
        for _ in range(nsweeps):
            R = self._box(U)
            R *= -w * st[0, 0]
            R += wB
            I *= 1.0 - w * (st[1, 1] - st[0, 0])
            I += R
        return U

    def direct_solve(self, li, B):
        """Exact solve on level li: the orthonormal sine basis S
        diagonalises the Kronecker-sum stencil, with eigenvalue
        C_k . stencil . C_m on mode (k, m), C_k = (cos t_k, 1, cos t_k),
        t_k = pi k / n (Lynch, Rice & Thomas, Numer. Math. 6, 1964).
        S and mu are built on the level's first solve and reused."""
        lev = self.levels[li]
        if lev.sine is None:
            k = np.arange(1, lev.n)
            kl = np.outer(k, k) % (2 * lev.n)   # small phases keep S orthogonal
            c = np.cos(np.pi * k / lev.n)
            C = np.stack([c, np.ones_like(c), c], axis=1)
            lev.sine = (np.sqrt(2.0 / lev.n) * np.sin(np.pi * kl / lev.n),
                        C @ lev.stencil @ C.T)
        S, mu = lev.sine
        U = np.zeros_like(B)
        U[1:-1, 1:-1] = S @ ((S @ B[1:-1, 1:-1] @ S) / mu) @ S
        return U

    def restrict(self, li, R):
        """Full weighting (transpose of bilinear interpolation) to li+1."""
        W = self.levels[li].W[1:-1, 1:-1]
        C = np.zeros((self.levels[li + 1].n + 1,) * 2)
        C[1:-1, 1:-1] = W.T @ R[1:-1, 1:-1] @ W
        return C


def build_coarse_space(dim, level):
    if dim != 2:
        raise MgError("vertex-grid hierarchy is implemented for dim == 2")
    if not is_count(level) or not 1 <= level <= MAX_LEVEL:
        raise MgError(f"level must be an integer in [1, {MAX_LEVEL}], "
                      f"got {level!r}")
    # the bilinear stiffness on squares is independent of h in 2D
    stencil = np.full((3, 3), -1.0 / 3.0)
    stencil[1, 1] = 8.0 / 3.0
    levels = []
    for l in range(level, 0, -1):
        n = 3 ** l
        W = None
        if l > 1:
            q = np.arange(n + 1)
            c, r = np.divmod(q, 3)
            W = np.zeros((n + 1, 3 ** (l - 1) + 1))
            W[q, c] = 1.0 - r / 3.0
            W[q[r > 0], c[r > 0] + 1] = r[r > 0] / 3.0
        levels.append(CoarseLevel(n=n, stencil=stencil, W=W))
    return CoarseSpace(levels=levels)


def h_vcycle(cspace, li, B, nu_pre=3, nu_post=3, omega=0.6):
    """One V-cycle from a zero initial guess on vertex level li, with
    damped Jacobi smoothing and a direct solve on the base level."""
    if li == len(cspace.levels) - 1:
        return cspace.direct_solve(li, B)
    U = np.zeros_like(B)
    if nu_pre:      # the first sweep, from zero, is U = (omega / d) B
        U[1:-1, 1:-1] = omega / cspace.levels[li].stencil[1, 1] * B[1:-1, 1:-1]
    cspace.jacobi(li, U, B, omega, max(nu_pre - 1, 0))
    C = cspace.restrict(li, B - cspace.apply_stiffness(li, U))
    E = h_vcycle(cspace, li + 1, C, nu_pre, nu_post, omega)
    W = cspace.levels[li].W[1:-1, 1:-1]
    U[1:-1, 1:-1] += W @ E[1:-1, 1:-1] @ W.T
    return cspace.jacobi(li, U, B, omega, nu_post)


# the exact coarse solve stops at this normwise backward error, and gives
# up with CoarseSolveError after this many direct steps
COARSE_TOL = 1e-14
COARSE_MAX_STEPS = 400


def coarse_solve(cspace, B, cfg):
    """Vertex-level solve: a single V-cycle, or ("exact" mode) direct
    solves of the residual until the normwise backward error
    |R| <= COARSE_TOL (|A| |U| + |B|) in the max norm (Rigal & Gaches,
    J. ACM 14, 1967), which unlike |R| <= COARSE_TOL |B| stays above
    rounding when |U| >> |B|.  Step one solves B itself; one suffices."""
    if cfg.coarse == "vcycle":
        return h_vcycle(cspace, 0, B)
    if not np.all(np.isfinite(B)):
        raise CoarseSolveError("coarse vertex load is not finite")
    b_inf = np.max(np.abs(B))
    a_inf = np.abs(cspace.levels[0].stencil).sum()
    U, R = np.zeros_like(B), B      # R is the residual of U
    for _ in range(COARSE_MAX_STEPS):
        tol = COARSE_TOL * (a_inf * np.max(np.abs(U)) + b_inf)
        if np.max(np.abs(R[1:-1, 1:-1])) <= tol:
            return U
        U += cspace.direct_solve(0, R)
        R = B - cspace.apply_stiffness(0, U)
    raise CoarseSolveError(
        f"coarse vertex solve did not reach a backward error of "
        f"{COARSE_TOL:g} in {COARSE_MAX_STEPS} steps")


# -- transfers between the cell system and the vertex grid --------------------

def _restrict_rows(blocks, R, out=None):
    """R P_loc, each cell's contributions to its 2^dim corner vertices:
    the restriction kernel, one product per block (see smoother._rows_mm),
    so a row has the same bits in a block traversal and a whole-array
    call."""
    return _rows_mm(R, blocks.P_loc.T, out=out)


def _vertex_load(mesh, contrib):
    """Sum the corner contributions into the vertex grid, in global cell
    order whatever the partition or block traversal, so the result is
    bitwise independent of both; Dirichlet vertices are masked out."""
    bV = np.bincount(mesh.cell_vertices.ravel(), weights=contrib.ravel(),
                     minlength=mesh.nvertices)
    bV[mesh.vertex_boundary] = 0.0
    n = mesh.n
    return bV.reshape(n + 1, n + 1)


def _prolong_rows(mesh, blocks, E, lo, hi, corner, out=None):
    """Rows lo..hi of the prolonged vertex function E: the cells' corner
    values, gathered into corner, times P_loc^T; the prolongation kernel,
    one product per block like _restrict_rows."""
    # the vertex ids are in range by construction; mode "raise" would
    # buffer the output
    np.take(E.reshape(-1), mesh.cell_vertices[lo:hi], out=corner,
            mode="clip")
    return _rows_mm(corner, blocks.P_loc, out=out)


def restrict_to_vertices(mesh, blocks, R):
    """Accumulate P^T r over cells; Dirichlet vertices are masked out."""
    return _vertex_load(mesh, _restrict_rows(blocks, R))


def prolong_from_vertices(mesh, blocks, E):
    """The cell rows of the vertex function E, every cell at once."""
    n = mesh.ncells
    return _prolong_rows(mesh, blocks, E, 0, n,
                         np.empty((n, mesh.cell_vertices.shape[1])))


# -- the solver ----------------------------------------------------------------

@dataclass
class CycleTrace:
    """Per-cycle history of one multigrid run."""

    cycles: int = 0
    converged: bool = False
    r0_l2: float = 0.0
    r0_linf: float = 0.0
    res_l2: list = field(default_factory=list)
    res_linf: list = field(default_factory=list)
    prec_l2: list = field(default_factory=list)
    prec_linf: list = field(default_factory=list)
    e0_l2: float = 0.0
    e0_linf: float = 0.0
    err_l2: list = field(default_factory=list)
    err_linf: list = field(default_factory=list)

    def rel_res(self):
        d = self.r0_l2 if self.r0_l2 > 0 else 1.0
        return [r / d for r in self.res_l2]

    def rel_prec(self):
        if not self.prec_l2:
            return []
        d = self.prec_l2[0] if self.prec_l2[0] > 0 else 1.0
        return [r / d for r in self.prec_l2]

    def rel_err(self):
        d = self.e0_l2 if self.e0_l2 > 0 else 1.0
        return [e / d for e in self.err_l2]

    def to_csv(self, path):
        cols = {"res_l2": self.res_l2, "res_linf": self.res_linf,
                "rel_res_l2": self.rel_res(), "prec_l2": self.prec_l2,
                "prec_linf": self.prec_linf, "rel_prec_l2": self.rel_prec()}
        if self.err_l2:
            cols.update(err_l2=self.err_l2, err_linf=self.err_linf,
                        rel_err_l2=self.rel_err())
        with open(path, "w") as fh:
            fh.write(",".join(["cycle", *cols]) + "\n")
            for i in range(len(self.res_l2)):
                row = [fmt_float(v[i] if i < len(v) else float("nan"))
                       for v in cols.values()]
                fh.write(",".join([str(i + 1), *row]) + "\n")


@dataclass
class MgResult:
    u: CellField
    trace: CycleTrace
    counters: object


def _norms(data):
    if data.size == 0:
        return 0.0, 0.0
    return combine_norms({0: norm_parts(data)})


def _residual_tail(state, contrib):
    """The residual traversal of a cycle: each block's residual, left in
    its block buffer, writes its rows of R P_loc into contrib; returns
    the residual's (l2, linf) norms."""
    parts = {}

    def visit(lo, hi, R):
        _restrict_rows(state.blocks, R, out=contrib[lo:hi])
        parts[lo] = norm_parts(R)

    compute_residual_only(state, visit)
    return combine_norms(parts)


def _prolongation_tail(state, E, snapshot, ref):
    """The prolongation traversal: each block adds its rows of the
    prolonged correction E to u, forms the change against the snapshot
    and then copies u's rows into it, and, given a reference, forms the
    error; the state re-projects the block when its sweep reads traces.
    Returns the (l2, linf) norms of the change and of the error
    (None without a reference)."""
    mesh, blocks, u = state.mesh, state.blocks, state.u.data
    change, error = {}, {}

    def block(lo, hi, bufs):
        _, rows, _, corner = bufs
        rows, rows_u = rows[:hi - lo], u[lo:hi]
        rows_u += _prolong_rows(mesh, blocks, E, lo, hi, corner[:hi - lo],
                                out=rows)
        np.subtract(rows_u, snapshot[lo:hi], out=rows)
        change[lo] = norm_parts(rows)
        snapshot[lo:hi] = rows_u
        if ref is not None:
            np.subtract(rows_u, ref[lo:hi], out=rows)
            error[lo] = norm_parts(rows)

    state.update_blocks(block)
    return combine_norms(change), combine_norms(error) if error else None


def solve(mesh, basis, blocks, b, cfg=None, partition=None, u0=None,
          cspace=None, u_ref=None):
    """Run multigrid cycles on A u = b until the configured criterion or
    the cycle cap; returns the iterate, the trace and the access counters.

    With criterion="error" the run stops once the dof-vector distance to
    u_ref (zeros when omitted) has dropped by eps relative to the initial
    guess; the per-cycle error history is recorded on the trace."""
    cfg = cfg or MgConfig()
    cfg.validate()
    if cspace is None:
        cspace = build_coarse_space(mesh.dim, mesh.level)
    if cspace.levels[0].n != mesh.n:
        raise MgError(f"coarse space of {cspace.levels[0].n} cells per "
                      f"direction does not match the mesh's {mesh.n}")
    sweep_fn = SWEEPS[cfg.variant]
    trace = CycleTrace()
    with make_state(mesh, basis, blocks, b, partition=partition,
                    omega=cfg.omega, variant=cfg.variant,
                    inverse_mode=cfg.inverse_mode, workers=cfg.workers,
                    u0=u0) as state:
        ref = None
        if cfg.criterion == "error":
            ref = np.zeros_like(state.u.data) if u_ref is None else np.asarray(u_ref)
            if ref.size != state.u.data.size:
                raise MgError(f"reference of shape {ref.shape} does not match "
                              f"the iterate's {state.u.data.shape}")
            ref = ref.reshape(state.u.data.shape)
            trace.e0_l2, trace.e0_linf = _norms(state.u.data - ref)
            if trace.e0_l2 == 0.0:
                trace.converged = True
                return MgResult(state.u, trace, state.counters)

        # per cell, its contributions to its corners' vertex load
        contrib = np.empty((mesh.ncells, mesh.cell_vertices.shape[1]))
        if u0 is None or not np.any(state.u.data):
            trace.r0_l2, trace.r0_linf = _norms(state.b.data)
        else:
            trace.r0_l2, trace.r0_linf = _residual_tail(state, contrib)
        _check_finite(trace.r0_l2, 0)
        if trace.r0_l2 == 0.0:
            trace.converged = True
            return MgResult(state.u, trace, state.counters)

        snapshot = state.u.data.copy()
        for cycle in range(1, cfg.max_cycles + 1):
            trace.cycles = cycle
            for _ in range(cfg.nu):
                sweep_fn(state)
            r2, ri = _residual_tail(state, contrib)
            trace.res_l2.append(r2)
            trace.res_linf.append(ri)
            _check_finite(r2, cycle)
            if cfg.criterion == "unprec" and r2 <= cfg.eps * trace.r0_l2:
                trace.converged = True
                break
            eV = coarse_solve(cspace, _vertex_load(mesh, contrib), cfg)
            (d2, di), err = _prolongation_tail(state, eV, snapshot, ref)
            trace.prec_l2.append(d2)
            trace.prec_linf.append(di)
            if (cfg.criterion == "prec" and len(trace.prec_l2) >= 2
                    and trace.prec_l2[0] > 0
                    and d2 <= cfg.eps * trace.prec_l2[0]):
                trace.converged = True
            if ref is not None:
                e2, ei = err
                trace.err_l2.append(e2)
                trace.err_linf.append(ei)
                if e2 <= cfg.eps * trace.e0_l2:
                    trace.converged = True
            if trace.converged:
                break
        return MgResult(state.u, trace, state.counters)
