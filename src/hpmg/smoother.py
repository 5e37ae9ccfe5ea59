"""Block-Jacobi smoothers over the cell/projection/flux splitting.

Four sweep flavours produce identical iterates by different data flow:

  vanilla   one traversal reading the 2*dim neighbour cell blocks directly;
            the condensed neighbour couplings are applied per facet pair.
  stages    three traversals: project cell data to facets, combine the
            two-sided projections into fluxes, then accumulate residuals
            and update.
  fused     one traversal per iteration after a single warm-up projection
            traversal; each traversal consumes the projections written at
            the end of the previous one (fluxes of iterate k are always
            formed from iterate k's traces, never from a half-updated mix).
  tasked    the fused traversal with the volumetric residual (and, per
            cell visit, the block factorisation in percell mode) deferred
            to a task pool; fluxes and facet terms are formed once per
            sweep from iterate k's traces by the fused kernels, the cell
            loop waits for each cell's own tasks only and spawns its next
            round, and re-projection follows the cell loop.

All dense kernels go through einsum, whose accumulation order per output
element does not depend on the batch size.  The batched traversals and the
per-cell tasked path therefore produce bitwise identical iterates, as do
runs with different subdomain counts.

The update uses the interior-cell block inverse everywhere, also next to
the boundary; the residual keeps the exact one-sided boundary fluxes, so
the fixed point is the exact discrete solution.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .fields import (DER, MINUS, PLUS, VAL, CellField, FacetFlux,
                     FacetProjection, exchange_interface)
from .localops import apply_flux
from .mesh import make_partition


class SmootherError(RuntimeError):
    pass


def _rows_mm(U, M):
    """Row-stable product U @ M.T; row k equals the single-row product."""
    return np.einsum("ci,ni->cn", U, M)


@dataclass
class SweepCounters:
    """Logical data volume moved by the traversals, in scalars.

    One cell block counts (p+1)^dim scalars, one facet record (projection
    side or flux) counts (p+1)^(dim-1); the value/derivative pair shares a
    record.  Subdomains share one flux store, so an interface flux is
    computed once, but it is counted once per touching subdomain, as a
    distributed run would compute it on both sides.
    """

    cell_reads: int = 0
    cell_writes: int = 0
    facet_reads: int = 0
    facet_writes: int = 0
    tasks_spawned: int = 0
    tasks_executed: int = 0
    sweeps: int = 0

    def reset(self):
        self.cell_reads = self.cell_writes = 0
        self.facet_reads = self.facet_writes = 0
        self.tasks_spawned = self.tasks_executed = 0
        self.sweeps = 0

    def volumetric(self):
        return self.cell_reads + self.cell_writes

    def total(self):
        return self.volumetric() + self.facet_reads + self.facet_writes


@dataclass
class SmootherState:
    """Solution, right-hand side and facet scratch of one smoother run.

    proj and flux hold one facet store shared by every subdomain; a
    subdomain is just its cell range of the partition.
    """

    mesh: object
    basis: object
    blocks: object
    partition: object
    u: CellField
    b: CellField
    omega: float
    variant: str
    inverse_mode: str
    workers: int
    track_old: bool = False
    proj: list = field(default_factory=list)
    flux: list = field(default_factory=list)
    counters: SweepCounters = field(default_factory=SweepCounters)
    warm: bool = False
    u_old: CellField = None
    _executor: object = None
    _pending_res: dict = field(default_factory=dict)
    _pending_inv: dict = field(default_factory=dict)
    _sigma: np.ndarray = None   # (ncells, dim, 2) residual sign, -1 on the minus side
    _orient: np.ndarray = None  # (ncells, dim, 2) n_F . e_s

    def close(self):
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def set_solution(self, data):
        self.u.data[:] = data
        self.warm = False
        self._pending_res.clear()
        self._pending_inv.clear()

    # -- traversal stages ---------------------------------------------------

    def warm_up(self):
        """Initial projection traversal; spawns the first task round for
        the tasked variant."""
        exchange_interface(self.project(), self.partition)
        self.warm = True
        self.respawn_tasks()

    def project(self):
        """Projection traversal, subdomain by subdomain, into the shared
        store; returns the store once per subdomain, as the interface
        exchange expects.  The written flags are cleared first, so the
        exchange checks this traversal's sides, not an earlier one's."""
        self.proj[0].written[:] = False
        for part in range(self.partition.nparts):
            self._project_range(*self.partition.cell_range(part))
        return self.proj * self.partition.nparts

    def _project_range(self, lo, hi):
        mesh, bl = self.mesh, self.blocks
        U = self.u.data[lo:hi]
        pr = self.proj[0]
        for s in range(mesh.dim):
            for f in (0, 1):
                F = mesh.cell_facets[lo:hi, s, f]
                side = mesh.cell_side[lo:hi, s, f]
                val = -self._sigma[lo:hi, s, f, None] * _rows_mm(U, bl.Tval[s][f])
                der = self._orient[lo:hi, s, f, None] * _rows_mm(U, bl.Tder[s][f])
                pr.data[F, side, VAL] = val
                pr.data[F, side, DER] = der
                pr.written[F, side] = True
        self.counters.facet_writes += (hi - lo) * 2 * mesh.dim * bl.nf

    def _flux_all(self):
        """Every facet's flux from the shared projections; boundary facets
        copy their one-sided record."""
        pr, fl = self.proj[0].data, self.flux[0].data
        bnd = self.mesh.facet_boundary
        fl[:] = apply_flux(pr[:, MINUS], pr[:, PLUS])
        fl[bnd] = apply_flux(pr[bnd, MINUS], boundary=True)
        nf = self.blocks.nf
        # each subdomain counts the fluxes it touches: interface facets twice
        touches = self.mesh.nfacets + self.partition.interface_facets.size
        nbnd = int(np.count_nonzero(bnd))
        self.counters.facet_reads += (2 * touches - nbnd) * nf
        self.counters.facet_writes += touches * nf

    def _face_term(self, s, f):
        """Face (s, f)'s share of every cell's residual, from the current
        fluxes."""
        mesh, bl = self.mesh, self.blocks
        fl = self.flux[0].data
        F = mesh.cell_facets[:, s, f]
        m = (_rows_mm(fl[F, VAL], bl.Acf_w[s][f])
             + _rows_mm(fl[F, DER], bl.Acf_wp[s][f]))
        self.counters.facet_reads += mesh.ncells * bl.nf
        return self._sigma[:, s, f, None] * m

    def _gather_residual(self, U):
        """b - A u from the current fluxes; one logical traversal."""
        mesh, bl = self.mesh, self.blocks
        R = self.b.data - _rows_mm(U, bl.Acc)
        for s in range(mesh.dim):
            for f in (0, 1):
                R -= self._face_term(s, f)
        self.counters.cell_reads += 2 * mesh.ncells * bl.nloc
        return R

    def _cell_inverse(self):
        """The interior block inverse; percell mode redoes assembly and
        factorisation on every visit and keeps nothing."""
        bl = self.blocks
        if self.inverse_mode == "precomputed":
            return bl.Sinv
        S = bl.Acc + sum(bl.D_int[s][f]
                         for s in range(bl.dim) for f in (0, 1))
        return np.linalg.inv(S)

    def _update_range(self, R):
        bl = self.blocks
        if self.inverse_mode == "precomputed":
            self.u.data += self.omega * _rows_mm(R, bl.Sinv)
        else:
            for k in range(self.mesh.ncells):
                Sinv = self._cell_inverse()
                self.u.data[k:k + 1] += self.omega * _rows_mm(R[k:k + 1], Sinv)
        self.counters.cell_writes += self.mesh.ncells * bl.nloc

    def _backup_old(self):
        if self.u_old is None:
            self.u_old = self.u.copy()
        else:
            self.u_old.data[:] = self.u.data
        self.counters.cell_reads += self.mesh.ncells * self.blocks.nloc
        self.counters.cell_writes += self.mesh.ncells * self.blocks.nloc

    # -- tasked plumbing ----------------------------------------------------

    def _spawn_cell_tasks(self, k):
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.workers)
        B, bl = self.b.data, self.blocks
        # freeze the input now: an outer solver may correct the iterate
        # between spawn and execution, and the result must not depend on
        # when a worker happens to run the task
        row = self.u.data[k:k + 1].copy()

        def cell_residual():
            return B[k:k + 1] - _rows_mm(row, bl.Acc)

        self._pending_res[k] = self._executor.submit(cell_residual)
        self.counters.tasks_spawned += 1
        if self.inverse_mode == "percell":
            self._pending_inv[k] = self._executor.submit(self._cell_inverse)
            self.counters.tasks_spawned += 1

    def respawn_tasks(self):
        """(Re)spawn every cell's volumetric tasks of a warm tasked state,
        replacing pending ones after the iterate changed under the
        smoother, so the next sweep sees the corrected values."""
        if self.variant != "tasked" or not self.warm:
            return
        for k in range(self.mesh.ncells):
            self._spawn_cell_tasks(k)


def make_state(mesh, basis, blocks, b, partition=None, omega=0.6,
               variant="fused", inverse_mode="precomputed", workers=1,
               u0=None, track_old=False):
    """Allocate the solution, facet scratch and index tables of a run."""
    if variant not in ("vanilla", "stages", "fused", "tasked"):
        raise SmootherError(f"unknown smoother variant {variant!r}")
    if inverse_mode not in ("precomputed", "percell"):
        raise SmootherError(f"unknown inverse mode {inverse_mode!r}")
    if not 0.0 <= omega <= 1.0:
        raise SmootherError(f"relaxation weight must be in [0, 1], got {omega}")
    if workers < 1:
        raise SmootherError(f"workers must be >= 1, got {workers}")
    if partition is None:
        partition = make_partition(mesh, "balanced", 1)
    bdata = b.data if isinstance(b, CellField) else np.asarray(b)
    if bdata.shape != (mesh.ncells, blocks.nloc):
        raise SmootherError("right-hand side shape does not match mesh/basis")
    u = CellField.zeros(mesh.ncells, blocks.nloc)
    if u0 is not None:
        u.data[:] = u0.data if isinstance(u0, CellField) else u0
    st = SmootherState(
        mesh=mesh, basis=basis, blocks=blocks, partition=partition,
        u=u, b=CellField(np.array(bdata, dtype=float)), omega=omega,
        variant=variant, inverse_mode=inverse_mode, workers=workers,
        track_old=track_old,
    )
    st.proj = [FacetProjection.zeros(mesh.nfacets, blocks.nf)]
    st.flux = [FacetFlux.zeros(mesh.nfacets, blocks.nf)]
    st._sigma = np.where(mesh.cell_side == MINUS, -1.0, 1.0)
    st._orient = mesh.facet_orient[mesh.cell_facets].astype(float)
    return st


# -- sweeps ------------------------------------------------------------------

def sweep_vanilla(state):
    """One block-Jacobi iteration reading neighbour cells directly.

    The neighbour gather goes through a padded row of zeros so boundary
    cells issue the same 2*dim block reads as interior ones.
    """
    mesh, bl = state.mesh, state.blocks
    state._backup_old()
    U = state.u_old.data    # u itself is updated in place below
    R = state.b.data - _rows_mm(U, bl.Acc)
    for s in range(mesh.dim):
        for f in (0, 1):
            F = mesh.cell_facets[:, s, f]
            bnd = mesh.facet_boundary[F]
            diag = _rows_mm(U, bl.D_int[s][f])
            if bnd.any():
                diag[bnd] = _rows_mm(U[bnd], bl.D_bnd[s][f])
            R -= diag
    Upad = np.vstack([U, np.zeros((1, bl.nloc))])
    for s in range(mesh.dim):
        for f in (0, 1):
            nb = mesh.neighbors[:, s, f]
            idx = np.where(nb < 0, mesh.ncells, nb)
            R -= _rows_mm(Upad[idx], bl.Nb[s][f])
    state.counters.cell_reads += (2 + 2 * mesh.dim) * mesh.ncells * bl.nloc
    state._update_range(R)
    state.counters.sweeps += 1
    state.warm = False
    return state


def sweep_stages(state):
    """One iteration as three separate traversals: project, flux, update."""
    exchange_interface(state.project(), state.partition)
    state.counters.cell_reads += state.mesh.ncells * state.blocks.nloc
    if state.track_old:
        state._backup_old()
    state._flux_all()
    R = state._gather_residual(state.u.data)
    state._update_range(R)
    state.counters.sweeps += 1
    state.warm = False
    return state


def sweep_fused(state):
    """One iteration in a single traversal, consuming the projections the
    previous traversal wrote and re-projecting the updated cells."""
    if not state.warm:
        raise SmootherError("fused sweep requires warm_up() first")
    if state.track_old:
        state._backup_old()
    state._flux_all()
    R = state._gather_residual(state.u.data)
    state._update_range(R)
    exchange_interface(state.project(), state.partition)
    state.counters.sweeps += 1
    return state


def sweep_tasked(state):
    """The fused iteration with deferred volumetric work.

    The fluxes and the facet terms of the residual are formed once, in
    batch, from iterate k's traces.  Per cell: pick up the cell's own
    pending results, subtract its facet terms in the face order of
    _gather_residual, update and spawn the next round; re-projection
    follows the cell loop.  The iterate is bitwise the one sweep_fused
    produces, for every worker count.
    """
    if not state.warm:
        raise SmootherError("tasked sweep requires warm_up() first")
    mesh, bl = state.mesh, state.blocks
    if state.track_old:
        state._backup_old()
    state._flux_all()
    terms = [state._face_term(s, f) for s in range(mesh.dim) for f in (0, 1)]
    for k in range(mesh.ncells):
        if k not in state._pending_res:
            raise SmootherError(f"cell {k} waits on a task that was never spawned")
        r = state._pending_res.pop(k).result()
        state.counters.tasks_executed += 1
        for t in terms:
            r = r - t[k:k + 1]
        if state.inverse_mode == "percell":
            Sinv = state._pending_inv.pop(k).result()
            state.counters.tasks_executed += 1
        else:
            Sinv = bl.Sinv
        state.u.data[k:k + 1] += state.omega * _rows_mm(r, Sinv)
        state._spawn_cell_tasks(k)
    state.counters.cell_reads += 2 * mesh.ncells * bl.nloc
    state.counters.cell_writes += mesh.ncells * bl.nloc
    exchange_interface(state.project(), state.partition)
    state.counters.sweeps += 1
    return state


SWEEPS = {
    "vanilla": sweep_vanilla,
    "stages": sweep_stages,
    "fused": sweep_fused,
    "tasked": sweep_tasked,
}


def sweep(state):
    return SWEEPS[state.variant](state)


def compute_residual_only(state):
    """b - A u as one traversal, leaving u and the projections untouched.

    Warm states reuse their projections; cold states (vanilla/stages or a
    freshly set solution) get a projection pass first.
    """
    if not state.warm:
        exchange_interface(state.project(), state.partition)
        state.counters.cell_reads += state.mesh.ncells * state.blocks.nloc
        state.warm = True
    state._flux_all()
    R = state._gather_residual(state.u.data)
    return CellField(R)


def apply_operator(mesh, basis, blocks, U, partition=None):
    """Matrix-free A u through the projection/flux/residual pipeline."""
    data = U.data if isinstance(U, CellField) else np.asarray(U)
    zero = CellField.zeros(mesh.ncells, blocks.nloc)
    st = make_state(mesh, basis, blocks, zero, partition=partition)
    st.u.data[:] = data
    r = compute_residual_only(st)
    return CellField(-r.data)
