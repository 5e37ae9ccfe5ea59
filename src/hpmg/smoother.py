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
            tile visit, the block factorisation in percell mode) deferred
            to a task pool, one task per tile; fluxes are formed once per
            sweep from iterate k's traces by the fused kernels, the tile
            loop waits for each tile's own tasks only, subtracts the
            tile's facet terms and spawns its next round, and
            re-projection follows the tile loop.

Every cell-block product goes through _rows_mm, a BLAS product evaluated
on one global grid of tiles of T = min(729, ncells) consecutive cells (a
27x27 block of the curve in 2D on levels >= 3; T divides ncells).  BLAS
rows are not batch-stable, but a row computed by a call of the same shape
at the same offset in that call always has the same bits.  _rows_mm keeps
that fixed: whole tiles go into one stacked call, and a range that cuts a
tile is evaluated in a zero-padded tile-shaped buffer with its rows at
their global offsets, so no foreign cell is read.  Whatever range a
subdomain, a task or a batched traversal asks for, every row comes out
bitwise the same, so stages, fused and tasked, on any subdomain and
worker count, produce identical iterates.

The projection store is cell-major (see fields.FacetProjection): a cell
range writes its signed value and derivative traces on all 2*dim faces
with one product by the stacked trace matrix, straight into its
contiguous block of the store.  Forming the fluxes is the only gather:
two row gathers through Mesh.facet_records.  The trace signs and the
residual signs of the face couplings are folded into the matrices (value
traces -1 on the low face, couplings -1 on the high face); only the
records and face terms of low faces on the domain boundary, where the
cell is the minus side and n_F = -e_s, are negated after the product.
Negation is exact, so the iterates keep the bits of applying the signs
to the data.

The update uses the interior-cell block inverse everywhere, also next to
the boundary; the residual keeps the exact one-sided boundary fluxes, so
the fixed point is the exact discrete solution.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .fields import (MINUS, PLUS, CellField, FacetFlux, FacetProjection,
                     exchange_interface)
from .localops import apply_flux
from .mesh import make_partition


class SmootherError(RuntimeError):
    pass


TILE = 729
INVERSE_MODES = ("precomputed", "percell")


def _tile(n):
    """Rows per tile of the global grid over n cell rows."""
    return min(TILE, n)


def _rows_mm(U, M, lo=0, n=None, out=None):
    """U @ M.T for rows lo.. of an n-row array, on the global tile grid.

    Whole tiles go into one stacked call; a tile the range cuts is
    evaluated in a zero-padded tile buffer with the rows at their global
    offsets.  Row k therefore has the same bits for every range that
    contains it.  out, a C-contiguous (len(U), len(M)) array, receives
    the rows in place of a new array.
    """
    n = len(U) if n is None else n
    T = _tile(n)
    hi = lo + len(U)
    if out is None:
        out = np.empty((len(U), M.shape[0]))
    elif out.shape != (len(U), M.shape[0]) or not out.flags.c_contiguous:
        raise SmootherError("_rows_mm needs a C-contiguous output of shape "
                            f"{(len(U), M.shape[0])}, got {out.shape}")
    a, b = -(-lo // T) * T, hi // T * T     # the whole tiles in [lo, hi)
    if a < b:
        np.matmul(U[a - lo:b - lo].reshape(-1, T, U.shape[1]), M.T,
                  out=out[a - lo:b - lo].reshape(-1, T, M.shape[0]))
    for s, e in ((lo, min(hi, a)), (max(lo, a, b), hi)):
        if s < e:
            t0 = s // T * T
            buf = np.zeros((T, U.shape[1]))
            buf[s - t0:e - t0] = U[s - lo:e - lo]
            out[s - lo:e - lo] = (buf @ M.T)[s - t0:e - t0]
    return out


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
    subdomain is just its cell range of the partition.  Used as a context
    manager, the state shuts its task pool down on exit.
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
    _traces: np.ndarray = None  # (2*dim*2*nf, nloc) signed traces of all faces
    _couplings: list = None     # [s][f] signed [Acf_w | Acf_wp]
    _low_bnd: np.ndarray = None  # c*dim + s of every low face on the boundary

    def close(self):
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

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
        """Cells lo..hi's signed value and derivative traces on every face:
        one product by the stacked trace matrix, written straight into the
        rows lo..hi of the cell-major store; the low-boundary records are
        negated afterwards."""
        mesh, nf = self.mesh, self.blocks.nf
        proj = self.proj[0]
        _rows_mm(self.u.data[lo:hi], self._traces, lo, mesh.ncells,
                 out=proj.data[lo:hi].reshape(hi - lo, -1))
        i, j = np.searchsorted(self._low_bnd, (lo * mesh.dim, hi * mesh.dim))
        faces = proj.data.reshape(-1, 2, 2 * nf)    # (cell, axis) by face
        faces[self._low_bnd[i:j], 0] *= -1
        proj.written[lo:hi] = True
        self.counters.facet_writes += (hi - lo) * 2 * mesh.dim * nf

    def _flux_all(self):
        """Every facet's flux from the shared projections: the minus and
        the plus records, gathered through Mesh.facet_records, averaged in
        place.  A boundary facet names its minus record twice, and the
        average of a record with itself is that record, bit for bit."""
        nf = self.blocks.nf
        recs = self.proj[0].records()
        fl = self.flux[0].data.reshape(-1, 2 * nf)
        table = self.mesh.facet_records
        np.take(recs, table[:, MINUS], axis=0, out=fl, mode="clip")  # unbuffered
        apply_flux(fl, np.take(recs, table[:, PLUS], axis=0), out=fl)
        bnd = self.mesh.facet_boundary
        # each subdomain counts the fluxes it touches: interface facets twice
        touches = self.mesh.nfacets + self.partition.interface_facets.size
        nbnd = int(np.count_nonzero(bnd))
        self.counters.facet_reads += (2 * touches - nbnd) * nf
        self.counters.facet_writes += touches * nf

    def _subtract_face_terms(self, R, lo=0):
        """R -= each face's share of the residual of cells lo.., from the
        current fluxes, one face at a time in (axis, low/high) order: the
        gathered flux rows of the face times the signed [Acf_w | Acf_wp]
        in one product, the rows of low faces on the boundary (minus
        cells there) negated."""
        mesh, bl = self.mesh, self.blocks
        hi = lo + len(R)
        fl = self.flux[0].data.reshape(mesh.nfacets, 2 * bl.nf)
        rows, term = np.empty((hi - lo, 2 * bl.nf)), np.empty_like(R)
        i, j = np.searchsorted(self._low_bnd, (lo * mesh.dim, hi * mesh.dim))
        low = self._low_bnd[i:j]
        for s in range(mesh.dim):
            cells = low[low % mesh.dim == s] // mesh.dim - lo
            for f in (0, 1):
                # the facet ids are in range by construction; mode "raise"
                # would buffer the output
                np.take(fl, mesh.cell_facets[lo:hi, s, f], axis=0, out=rows,
                        mode="clip")
                _rows_mm(rows, self._couplings[s][f], lo, mesh.ncells, out=term)
                if f == 0:
                    term[cells] *= -1
                R -= term
        self.counters.facet_reads += 2 * mesh.dim * (hi - lo) * bl.nf

    def _gather_residual(self, U):
        """b - A u from the current fluxes; one logical traversal."""
        mesh, bl = self.mesh, self.blocks
        R = _rows_mm(U, bl.Acc)
        np.subtract(self.b.data, R, out=R)  # no second (ncells, nloc) array
        self._subtract_face_terms(R)
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

    def _update_tile(self, lo, r, Sinv):
        n = self.mesh.ncells
        self.u.data[lo:lo + len(r)] += self.omega * _rows_mm(r, Sinv, lo, n)

    def _update_range(self, R):
        """u += omega S^-1 r, tile by tile; percell mode rebuilds the
        inverse on every tile visit."""
        n = self.mesh.ncells
        T = _tile(n)
        for lo in range(0, n, T):
            self._update_tile(lo, R[lo:lo + T], self._cell_inverse())
        self.counters.cell_writes += n * self.blocks.nloc

    def _backup_old(self):
        if self.u_old is None:
            self.u_old = self.u.copy()
        else:
            self.u_old.data[:] = self.u.data
        self.counters.cell_reads += self.mesh.ncells * self.blocks.nloc
        self.counters.cell_writes += self.mesh.ncells * self.blocks.nloc

    # -- tasked plumbing ----------------------------------------------------

    def _spawn_tile_tasks(self, t):
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.workers)
        B, bl, n = self.b.data, self.blocks, self.mesh.ncells
        T = _tile(n)
        lo = t * T
        # freeze the input now: an outer solver may correct the iterate
        # between spawn and execution, and the result must not depend on
        # when a worker happens to run the task
        rows = self.u.data[lo:lo + T].copy()

        def tile_residual():
            return B[lo:lo + T] - _rows_mm(rows, bl.Acc, lo, n)

        self._pending_res[t] = self._executor.submit(tile_residual)
        self.counters.tasks_spawned += 1
        if self.inverse_mode == "percell":
            self._pending_inv[t] = self._executor.submit(self._cell_inverse)
            self.counters.tasks_spawned += 1

    def respawn_tasks(self):
        """(Re)spawn every tile's volumetric tasks of a warm tasked state,
        replacing pending ones after the iterate changed under the
        smoother, so the next sweep sees the corrected values."""
        if self.variant != "tasked" or not self.warm:
            return
        for t in range(self.mesh.ncells // _tile(self.mesh.ncells)):
            self._spawn_tile_tasks(t)


def make_state(mesh, basis, blocks, b, partition=None, omega=0.6,
               variant="fused", inverse_mode="precomputed", workers=1,
               u0=None, track_old=False):
    """Allocate the solution, facet scratch and index tables of a run."""
    if variant not in ("vanilla", "stages", "fused", "tasked"):
        raise SmootherError(f"unknown smoother variant {variant!r}")
    if inverse_mode not in INVERSE_MODES:
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
    st.proj = [FacetProjection.zeros(mesh.ncells, mesh.dim, blocks.nf)]
    st.flux = [FacetFlux.zeros(mesh.nfacets, blocks.nf)]
    # value traces -1 on the low face, residual couplings -1 on the high
    # face (the minus side of an interior facet)
    st._traces = np.vstack([np.vstack([(2 * f - 1) * blocks.Tval[s][f],
                                       blocks.Tder[s][f]])
                            for s in range(mesh.dim) for f in (0, 1)])
    st._couplings = [[(1 - 2 * f) * np.hstack([blocks.Acf_w[s][f],
                                               blocks.Acf_wp[s][f]])
                      for f in (0, 1)] for s in range(mesh.dim)]
    st._low_bnd = np.flatnonzero(mesh.cell_side[:, :, 0] == MINUS)
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
    """The fused iteration with deferred volumetric work, one task per
    tile of the global tile grid.

    The fluxes are formed once, in batch, from iterate k's traces.  Per
    tile: pick up the tile's own pending results, subtract its facet terms
    from those fluxes as _gather_residual does (a whole tile of the grid
    gets the bits of the batched call), update and spawn the next round;
    re-projection follows the tile loop.  The iterate is bitwise the one
    sweep_fused produces, for every worker count.
    """
    if not state.warm:
        raise SmootherError("tasked sweep requires warm_up() first")
    mesh, bl = state.mesh, state.blocks
    if state.track_old:
        state._backup_old()
    state._flux_all()
    T = _tile(mesh.ncells)
    for t in range(mesh.ncells // T):
        if t not in state._pending_res:
            raise SmootherError(f"tile {t} waits on a task that was never spawned")
        r = state._pending_res.pop(t).result()
        state.counters.tasks_executed += 1
        state._subtract_face_terms(r, t * T)
        if state.inverse_mode == "percell":
            Sinv = state._pending_inv.pop(t).result()
            state.counters.tasks_executed += 1
        else:
            Sinv = bl.Sinv
        state._update_tile(t * T, r, Sinv)
        state._spawn_tile_tasks(t)
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
