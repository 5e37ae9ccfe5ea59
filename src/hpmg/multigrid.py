"""Geometric hp-multigrid on the condensed cell system.

One p-coarsening step maps the element polynomial space onto continuous
bilinears on the same mesh: the vertex hat functions are a subspace of
every p >= 1 space, their inter-element jumps vanish, so the Galerkin
coarse operator is the plain bilinear finite-element stiffness, applied
as an assembled 9-point vertex stencil.  The h-hierarchy then coarsens
the vertex grids by threes down to the 3x3-cell base mesh with nested
bilinear transfers.

Traversal accounting with the one-traversal smoother: one warm-up
projection traversal, then per cycle nu smoothing traversals, one
residual traversal that also restricts, and one prolongation traversal
that adds the correction and, when another cycle follows, re-projects the
updated cells for its smoothing.  A run of n cycles touches the mesh
n*(nu+2)+1 times.  The vanilla and stages sweeps read no traces a
traversal before them wrote, so they run neither the warm-up nor the
re-projection.

Stopping is either on the residual recorded in the restriction traversal
(criterion "unprec", no extra work) or on the difference of consecutive
cycle iterates, available when a correction is materialised (criterion
"prec"); both are relative to their first recorded value, the residual
one to the residual of the initial guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import CellField, exchange_interface, fmt_float
from .localops import build_coarse_ops
from .smoother import INVERSE_MODES, SWEEPS, compute_residual_only, make_state


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


# traversals of the fine mesh per smoother sweep / residual evaluation
_SWEEP_COST = {"vanilla": 1, "stages": 3, "fused": 1, "tasked": 1}


@dataclass
class MgConfig:
    nu: int = 2
    omega: float = 0.9
    eps: float = 1e-7
    max_cycles: int = 200
    criterion: str = "prec"        # prec | unprec | error
    coarse: str = "exact"          # exact | vcycle
    nu_coarse: tuple = (3, 3)
    omega_coarse: float = 0.6
    coarse_tol: float = 1e-14
    coarse_max_cycles: int = 400
    variant: str = "fused"
    inverse_mode: str = "precomputed"
    workers: int = 1

    def validate(self):
        if self.criterion not in ("prec", "unprec", "error"):
            raise MgError(f"unknown stopping criterion {self.criterion!r}")
        if self.coarse not in ("exact", "vcycle"):
            raise MgError(f"unknown coarse solve mode {self.coarse!r}")
        if self.variant not in SWEEPS:
            raise MgError(f"unknown smoother variant {self.variant!r}")
        if self.inverse_mode not in INVERSE_MODES:
            raise MgError(f"unknown inverse mode {self.inverse_mode!r}")
        if not 0.0 <= self.omega <= 1.0:     # also rejects NaN
            raise MgError(f"relaxation weight omega must be in [0, 1], "
                          f"got {self.omega}")
        if self.workers < 1:
            raise MgError(f"workers must be >= 1, got {self.workers}")
        if self.nu < 1:
            raise MgError("need at least one smoothing sweep per cycle")
        if not self.eps >= 0.0:     # also rejects NaN
            raise MgError(f"tolerance eps must be >= 0, got {self.eps}")
        if min(self.max_cycles, self.coarse_max_cycles) < 1:
            raise MgError(f"max_cycles and coarse_max_cycles must be >= 1, got "
                          f"{self.max_cycles} and {self.coarse_max_cycles}")
        pre, post = self.nu_coarse
        if min(pre, post) < 0 or pre + post == 0:
            raise MgError(f"nu_coarse needs non-negative sweep counts and at "
                          f"least one sweep, got {self.nu_coarse}")
        # coarse_tol 0 is never met and 1 accepts a zero step; damped Jacobi
        # on the vertex stencil diverges for omega_coarse >= 4/3
        if not (0.0 < self.coarse_tol < 1.0
                and 0.0 < self.omega_coarse < 4.0 / 3.0):
            raise MgError(f"need 0 < coarse_tol < 1 and 0 < omega_coarse "
                          f"< 4/3, got {self.coarse_tol}, {self.omega_coarse}")


@dataclass
class CoarseLevel:
    n: int                  # cells per direction
    stencil: np.ndarray
    diag: float
    interior: np.ndarray    # (n+1, n+1) bool
    W: np.ndarray           # 1d interpolation from the next coarser level


@dataclass
class CoarseSpace:
    dim: int
    levels: list            # finest first, down to the 3x3-cell base

    # -- vertex-grid kernels ------------------------------------------------

    def apply_stiffness(self, li, U):
        """9-point stencil with eliminated Dirichlet rows."""
        st = self.levels[li].stencil
        P = np.pad(U, 1)
        R = np.zeros_like(U)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                w = st[di + 1, dj + 1]
                R += w * P[1 + di:P.shape[0] - 1 + di, 1 + dj:P.shape[1] - 1 + dj]
        R[~self.levels[li].interior] = 0.0
        return R

    def jacobi(self, li, U, B, omega, nsweeps):
        lev = self.levels[li]
        for _ in range(nsweeps):
            R = B - self.apply_stiffness(li, U)
            U = U + (omega / lev.diag) * np.where(lev.interior, R, 0.0)
        return U

    def direct_solve(self, li, B):
        """Exact solve on level li: the orthonormal sine basis S
        diagonalises the Kronecker-sum stencil, with eigenvalue
        C_k . stencil . C_m on mode (k, m), C_k = (cos t_k, 1, cos t_k),
        t_k = pi k / n (Lynch, Rice & Thomas, Numer. Math. 6, 1964)."""
        n = self.levels[li].n
        k = np.arange(1, n)
        kl = np.outer(k, k) % (2 * n)   # small phases keep S orthogonal
        S = np.sqrt(2.0 / n) * np.sin(np.pi * kl / n)
        c = np.cos(np.pi * k / n)
        C = np.stack([c, np.ones_like(c), c], axis=1)
        mu = C @ self.levels[li].stencil @ C.T
        U = np.zeros_like(B)
        U[1:-1, 1:-1] = S @ ((S @ B[1:-1, 1:-1] @ S) / mu) @ S
        return U

    def restrict(self, li, R):
        """Full weighting (transpose of bilinear interpolation) to li+1."""
        W = self.levels[li].W
        C = W.T @ R @ W
        C[~self.levels[li + 1].interior] = 0.0
        return C

    def prolong(self, li, C):
        W = self.levels[li].W
        return W @ C @ W.T


def build_coarse_space(dim, level):
    if dim != 2:
        raise MgError("vertex-grid hierarchy is implemented for dim == 2")
    ops = build_coarse_ops(dim)
    levels = []
    for l in range(level, 0, -1):
        n = 3 ** l
        vb = np.zeros((n + 1, n + 1), dtype=bool)
        vb[0, :] = vb[-1, :] = vb[:, 0] = vb[:, -1] = True
        if l > 1:
            nc = 3 ** (l - 1)
            W = np.zeros((n + 1, nc + 1))
            for q in range(n + 1):
                c, r = divmod(q, 3)
                if r == 0:
                    W[q, c] = 1.0
                else:
                    W[q, c] = 1.0 - r / 3.0
                    W[q, c + 1] = r / 3.0
        else:
            W = None
        levels.append(CoarseLevel(n=n, stencil=ops.stencil, diag=ops.diag,
                                  interior=~vb, W=W))
    return CoarseSpace(dim=dim, levels=levels)


def h_vcycle(cspace, li, B, nu_pre=3, nu_post=3, omega=0.6):
    """One V-cycle from a zero initial guess on vertex level li, with
    damped Jacobi smoothing and a direct solve on the base level."""
    if li == len(cspace.levels) - 1:
        return cspace.direct_solve(li, B)
    U = cspace.jacobi(li, np.zeros_like(B), B, omega, nu_pre)
    R = B - cspace.apply_stiffness(li, U)
    R[~cspace.levels[li].interior] = 0.0
    C = cspace.restrict(li, R)
    E = h_vcycle(cspace, li + 1, C, nu_pre, nu_post, omega)
    U = U + cspace.prolong(li, E)
    U[~cspace.levels[li].interior] = 0.0
    return cspace.jacobi(li, U, B, omega, nu_post)


def coarse_solve(cspace, B, cfg):
    """Vertex-level solve: a single V-cycle, or ("exact" mode) direct
    solves of the residual until the normwise backward error
    |R| <= coarse_tol (|A| |U| + |B|) in the max norm (Rigal & Gaches,
    J. ACM 14, 1967), which unlike |R| <= coarse_tol |B| stays above
    rounding when |U| >> |B|.  One step suffices in practice."""
    if cfg.coarse == "vcycle":
        return h_vcycle(cspace, 0, B, *cfg.nu_coarse, cfg.omega_coarse)
    if not np.all(np.isfinite(B)):
        raise CoarseSolveError("coarse vertex load is not finite")
    b_inf = np.max(np.abs(B))
    a_inf = np.abs(cspace.levels[0].stencil).sum()
    U = np.zeros_like(B)
    for _ in range(cfg.coarse_max_cycles):
        R = B - cspace.apply_stiffness(0, U)
        R[~cspace.levels[0].interior] = 0.0
        tol = cfg.coarse_tol * (a_inf * np.max(np.abs(U)) + b_inf)
        if np.max(np.abs(R)) <= tol:
            return U
        U = U + cspace.direct_solve(0, R)
    raise CoarseSolveError(
        f"coarse vertex solve did not reach a backward error of "
        f"{cfg.coarse_tol:g} in {cfg.coarse_max_cycles} steps")


# -- transfers between the cell system and the vertex grid --------------------

def restrict_to_vertices(mesh, blocks, R):
    """Accumulate P^T r over cells; Dirichlet vertices are masked out.

    The accumulation runs in global cell order whatever the partition,
    so the result is bitwise independent of the subdomain layout.
    """
    contrib = R @ blocks.P_loc
    bV = np.bincount(mesh.cell_vertices.ravel(), weights=contrib.ravel(),
                     minlength=mesh.nvertices)
    bV[mesh.vertex_boundary] = 0.0
    n = mesh.n
    return bV.reshape(n + 1, n + 1)

def prolong_from_vertices(mesh, blocks, E):
    corner = E.reshape(-1)[mesh.cell_vertices]
    return corner @ blocks.P_loc.T


def coarse_grid_correction(mesh, blocks, cspace, R, cfg):
    """Residual rows -> vertex load -> solve -> prolonged correction rows."""
    bV = restrict_to_vertices(mesh, blocks, R)
    eV = coarse_solve(cspace, bV, cfg)
    return prolong_from_vertices(mesh, blocks, eV), eV


# -- the solver ----------------------------------------------------------------

@dataclass
class CycleTrace:
    """Per-cycle history of one multigrid run."""

    eps: float
    criterion: str
    cycles: int = 0
    traversals: int = 0
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
        rel_r, rel_p = self.rel_res(), self.rel_prec()
        cols = "cycle,res_l2,res_linf,rel_res_l2,prec_l2,prec_linf,rel_prec_l2"
        rel_e = self.rel_err() if self.err_l2 else None
        if rel_e is not None:
            cols += ",err_l2,err_linf,rel_err_l2"
        with open(path, "w") as fh:
            fh.write(cols + "\n")
            for i in range(len(self.res_l2)):
                p2 = self.prec_l2[i] if i < len(self.prec_l2) else float("nan")
                pi = self.prec_linf[i] if i < len(self.prec_linf) else float("nan")
                rp = rel_p[i] if i < len(rel_p) else float("nan")
                row = [str(i + 1), fmt_float(self.res_l2[i]),
                       fmt_float(self.res_linf[i]),
                       fmt_float(rel_r[i]), fmt_float(p2),
                       fmt_float(pi), fmt_float(rp)]
                if rel_e is not None:
                    e2 = self.err_l2[i] if i < len(self.err_l2) else float("nan")
                    ei = self.err_linf[i] if i < len(self.err_linf) else float("nan")
                    re = rel_e[i] if i < len(rel_e) else float("nan")
                    row += [fmt_float(e2), fmt_float(ei), fmt_float(re)]
                fh.write(",".join(row) + "\n")


@dataclass
class MgResult:
    u: CellField
    trace: CycleTrace
    counters: object


def _norms(data):
    flat = data.reshape(-1)
    if flat.size == 0:
        return 0.0, 0.0
    # max |x| without an |x| temporary; the outer abs keeps the bits of
    # np.max(np.abs(flat)) for all-zero data and NaN
    return float(np.linalg.norm(flat)), abs(float(max(flat.max(), -flat.min())))


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
    sweep_fn = SWEEPS[cfg.variant]
    sweep_cost = _SWEEP_COST[cfg.variant]
    trace = CycleTrace(eps=cfg.eps, criterion=cfg.criterion)
    with make_state(mesh, basis, blocks, b, partition=partition,
                    omega=cfg.omega, variant=cfg.variant,
                    inverse_mode=cfg.inverse_mode, workers=cfg.workers,
                    u0=u0) as state:
        ref = None
        if cfg.criterion == "error":
            ref = np.zeros_like(state.u.data) if u_ref is None else np.asarray(u_ref)
            ref = ref.reshape(state.u.data.shape)
            trace.e0_l2, trace.e0_linf = _norms(state.u.data - ref)
            if trace.e0_l2 == 0.0:
                trace.converged = True
                return MgResult(state.u, trace, state.counters)

        if u0 is None or not np.any(state.u.data):
            trace.r0_l2, trace.r0_linf = _norms(state.b.data)
        else:
            state.warm_up()
            trace.traversals += 1
            r = compute_residual_only(state)
            trace.traversals += 1
            trace.r0_l2, trace.r0_linf = _norms(r.data)
        _check_finite(trace.r0_l2, 0)
        if trace.r0_l2 == 0.0:
            trace.converged = True
            return MgResult(state.u, trace, state.counters)
        if state.sweep_reads_traces and not state.warm:
            state.warm_up()
            trace.traversals += 1

        snapshot = state.u.data.copy()
        for cycle in range(1, cfg.max_cycles + 1):
            trace.cycles = cycle
            for _ in range(cfg.nu):
                sweep_fn(state)
                trace.traversals += sweep_cost
            trace.traversals += 1 if state.warm else 2
            r = compute_residual_only(state)
            r2, ri = _norms(r.data)
            trace.res_l2.append(r2)
            trace.res_linf.append(ri)
            _check_finite(r2, cycle)
            if cfg.criterion == "unprec" and r2 <= cfg.eps * trace.r0_l2:
                trace.converged = True
                break
            # the prolongation traversal of the correction
            state.u.data += coarse_grid_correction(mesh, blocks, cspace,
                                                   r.data, cfg)[0]
            trace.traversals += 1
            # the change of the iterate, formed in the snapshot buffer
            np.subtract(state.u.data, snapshot, out=snapshot)
            d2, di = _norms(snapshot)
            np.copyto(snapshot, state.u.data)
            trace.prec_l2.append(d2)
            trace.prec_linf.append(di)
            if (cfg.criterion == "prec" and len(trace.prec_l2) >= 2
                    and trace.prec_l2[0] > 0
                    and d2 <= cfg.eps * trace.prec_l2[0]):
                trace.converged = True
            if ref is not None:
                e2, ei = _norms(state.u.data - ref)
                trace.err_l2.append(e2)
                trace.err_linf.append(ei)
                if e2 <= cfg.eps * trace.e0_l2:
                    trace.converged = True
            if trace.converged or cycle == cfg.max_cycles:
                # the traces predate the correction; no cycle reads them
                state.warm = False
                break
            if state.sweep_reads_traces:
                # fused with the prolongation: the re-projection that the
                # next cycle's smoothing consumes
                exchange_interface(state.project(), state.partition)
            else:
                # stale traces no sweep reads: vanilla reads the cells,
                # stages projects first
                state.warm = False
        return MgResult(state.u, trace, state.counters)
