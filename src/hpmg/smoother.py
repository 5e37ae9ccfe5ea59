"""Block-Jacobi smoothers over the cell/projection/flux splitting.

Each form of the operator has one home here.  Every sweep is one _sweep
in split form: block by block, u <- (1 - omega) u + omega S^-1 (b - N u),
the damped block-Jacobi step u + omega S^-1 (b - A u) with S the
interior-cell block and N = A - S.  A cell's own half of every flux is
already in S, so N u is the other half, the product of the records across
the cell's faces by LocalBlocks.across, and a sweep forms no fluxes.  The
sweeps differ only in their pre-step and in the kernel that writes a
block's b - N u; under four variant names they give identical iterates:

  vanilla   reads the 2*dim neighbour cell blocks of the old iterate:
            N u is the condensed neighbour couplings per face, plus D_int u
            on a boundary face, which is (D_bnd - D_int) u bit for bit.
  stages    first projects the cells and copies the record across every
            cell face into a second store; the kernel reads its slice.
  fused     a single touch of the cells per iteration: the kernel gathers
            the records across its block's cell faces from the one trace
            store, and the updated cells are re-projected in place; a cold
            state is warmed up first.  N u of iterate k is always formed
            from iterate k's traces: before the loop the sweep copies into
            a halo the records that a block reads across its block boundary
            (Mesh.opposite_records), which an earlier block or a concurrent
            task may already have rewritten, and each block takes those
            rows from the halo.
  tasked    another name for fused, kept for the runs that ask for its
            blocks as tasks (workers > 1).

The flux form's one home is the residual traversal, compute_residual_only
(used by apply_operator and the solver's restriction): one block kernel
averages the records across with the block's own into the fluxes
(apply_flux) and forms b - Acc u minus each face's coupling times the
face's fluxes.  That keeps A u, and its exact symmetry at theta = -1,
independent of the sweeps.

Every traversal (the sweeps, the stages sweep's gather pass, projection,
residual, the solver's prolongation) is a block loop through
SmootherState.each_block, those that change u through update_blocks,
which re-projects their blocks when the sweep reads traces.  With one
worker, or a mesh of one block, that is a plain loop; otherwise the
state's thread pool runs one task per worker over a contiguous run of
blocks, each task with its own block buffers.  A block reads iterate
k's traces only: its own rows of the store, which no other task writes,
and the halo, which no task writes (what its gather read across the
block boundary is replaced from the halo).  It writes only its own rows
of u and of the store, so the tasks are independent and the iterate
does not depend on the worker count or on the order the tasks run in.
The block kernels count nothing; each traversal adds its closed-form
counts once, on the calling thread, and each_block one to
SweepCounters.traversals.

The mesh is cut into one grid of blocks of min(BLOCK, ncells) consecutive
cells: BLOCK = 2187 = 3^7, and every mesh has a power of 3 cells, so a
larger mesh splits into whole blocks.  The block is the traversal unit,
small enough that its data stays in cache between the kernels, and the
bitwise unit.  Every cell-block product goes through _rows_mm, one
stacked BLAS call over whole blocks.  BLAS rows are not batch-stable, but
a row computed by a call of the same shape at the same offset in that
call always has the same bits; so a row's bits depend only on its block,
and any subdomain count and any worker count produce identical iterates.
_project_range, the only method that takes a cell range from its caller,
rejects a range that is not whole blocks, and _rows_mm one that is longer
than a block and not a whole number of them.  Vanilla's boundary rows of
a face are one product per block and face, so their bits too depend only
on the block.  Vanilla, whose arithmetic differs anyway, agrees with the
other sweeps to 1e-12, not bit for bit.

The trace store is cell-major (see fields.FacetProjection): a cell range
writes its signed value and derivative traces on all 2*dim faces with one
product by the stacked trace matrix, straight into its contiguous block of
the store.  The records across the faces are the only gather: a block's
are one take through Mesh.opposite_records, in the fused sweep with the
rows across the block boundary replaced from the halo; the residual
traversal averages them in place with the block's own contiguous records
into its fluxes.  The signs of the traces and of the face terms are those
folded into the signed stacks LocalBlocks.traces, LocalBlocks.couplings
and LocalBlocks.across, the one table of localops, with no exception: a
boundary facet has one side, the record across it is its cell's own
record, and its face term, a product of two one-sided factors, does not
depend on which way the boundary normal points.

The update uses the interior-cell block inverse everywhere, also next to
the boundary; N keeps the exact one-sided boundary terms, so the fixed
point is the exact discrete solution.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .fields import CellField, FacetProjection, exchange_interface
from .localops import apply_flux
from .mesh import is_count, is_real, make_partition


class SmootherError(RuntimeError):
    pass


BLOCK = 2187        # cells per block: 3^7
INVERSE_MODES = ("precomputed", "percell")


def check_settings(omega, variant, inverse_mode, workers):
    """SmootherError unless the smoother settings are valid."""
    if variant not in SWEEPS:
        raise SmootherError(f"unknown smoother variant {variant!r}")
    if inverse_mode not in INVERSE_MODES:
        raise SmootherError(f"unknown inverse mode {inverse_mode!r}")
    if not (is_real(omega) and 0.0 <= omega <= 1.0):     # also rejects NaN
        raise SmootherError(f"relaxation weight must be a real number in "
                            f"[0, 1], got {omega!r}")
    if not is_count(workers) or workers < 1:
        raise SmootherError(f"workers must be an integer >= 1: {workers!r}")


def _block(n):
    """Rows per block of the grid over n cell rows."""
    return min(BLOCK, n)


def _rows_mm(U, M, out=None):
    """U @ M.T as one stacked product over blocks of _block(len(U)) rows.

    U must be whole blocks, else SmootherError: a row then has the bits
    of its block's product, whatever else the call covers.  out, a
    C-contiguous (len(U), len(M)) array, receives the rows in place of a
    new array.
    """
    rows = _block(len(U))
    if len(U) % rows:
        raise SmootherError(f"_rows_mm needs whole blocks of {rows} rows, "
                            f"got {len(U)} rows")
    if out is None:
        out = np.empty((len(U), M.shape[0]))
    elif out.shape != (len(U), M.shape[0]) or not out.flags.c_contiguous:
        raise SmootherError("_rows_mm needs a C-contiguous output of shape "
                            f"{(len(U), M.shape[0])}, got {out.shape}")
    np.matmul(U.reshape(-1, rows, U.shape[1]), M.T,
              out=out.reshape(-1, rows, M.shape[0]))
    return out


@dataclass
class SweepCounters:
    """Logical data volume moved by the traversals, in scalars.

    One cell block counts (p+1)^dim scalars, one facet record (a trace or
    a flux) (p+1)^(dim-1); the value/derivative pair shares a record.  The
    totals are those of the flux form, the paper's logical traffic, which
    memory_access_model predicts and acceptance criterion 4 pins: a sweep
    counts the fluxes and the residual of that form, although it forms
    b - N u from the records across each face and no fluxes.  An
    interface flux is counted once per touching subdomain, as a
    distributed run would form it on both sides.  The fused sweep's halo
    copy is not counted; it is an artefact of updating the one trace
    store in place.  sweeps counts the sweeps, one per _sweep; traversals
    the passes over the mesh, one per each_block loop; tasks_spawned and
    tasks_executed the pool tasks, one per worker's run of blocks of a
    traversal, none for a traversal run inline.  total() leaves out the
    sweep, traversal and task counts.
    """

    cell_reads: int = 0
    cell_writes: int = 0
    facet_reads: int = 0
    facet_writes: int = 0
    tasks_spawned: int = 0
    tasks_executed: int = 0
    sweeps: int = 0
    traversals: int = 0

    def reset(self):
        self.cell_reads = self.cell_writes = 0
        self.facet_reads = self.facet_writes = 0
        self.tasks_spawned = self.tasks_executed = 0
        self.sweeps = self.traversals = 0

    def volumetric(self):
        return self.cell_reads + self.cell_writes

    def total(self):
        return self.volumetric() + self.facet_reads + self.facet_writes


@dataclass
class SmootherState:
    """Solution, right-hand side and facet scratch of one smoother run.

    _new_state checks mesh, blocks and partition against each other and
    against the basis, which the state does not keep.  proj holds the
    trace store of the current iterate, one FacetProjection shared by
    every subdomain; a subdomain is just its cell range of the partition.
    flux holds the stages sweep's second FacetProjection, the record
    across each cell face, and is empty for the other variants.  The fused
    sweep re-projects each block into proj in place, after copying the
    records that blocks read across their block boundaries into the halo:
    _halo_src names those records' rows of the store, and _halo_reads, per
    block with any, the rows of the block's records across they replace
    and their rows of the halo.  A mesh of one block has no halo.  With
    workers > 1 the block loops run on a thread pool, started by the first
    traversal of more than one block; used as a context manager, the state
    shuts it down on exit.
    """

    mesh: object
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
    _old: np.ndarray = None     # u_old and a zero row for neighbour id -1
    _omega_sinv: np.ndarray = None  # omega S^-1, in precomputed mode
    _executor: object = None
    _halo: np.ndarray = None    # copies of the records read across blocks
    _halo_src: np.ndarray = None  # their rows of the store
    _halo_reads: dict = None    # block lo -> (its rows across, halo rows)
    _bufs: list = None  # per task: a block's (records across or fluxes,
                        # residual, face term or step, corner values)

    def close(self):
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @property
    def sweep_reads_traces(self):
        """Whether a sweep consumes the traces the previous traversal
        wrote (fused, tasked); vanilla reads cells, stages projects first."""
        return self.variant in ("fused", "tasked")

    def set_solution(self, data):
        """Set the iterate; SmootherError unless data is (ncells, nloc):
        a row or a scalar would broadcast over every cell."""
        data = np.asarray(data.data if isinstance(data, CellField) else data)
        if data.shape != self.u.data.shape:
            raise SmootherError(f"initial guess of shape {data.shape} does "
                                f"not match mesh/basis {self.u.data.shape}")
        self.u.data[:] = data
        self.warm = False

    # -- traversal stages ---------------------------------------------------

    def warm_up(self):
        """Projection traversal, checked by the interface exchange."""
        exchange_interface(self.project(), self.partition)
        self.warm = True

    def project(self):
        """Projection traversal, block by block, into the store that all
        subdomains share.  Returns the store for the interface exchange to
        check, its written flags cleared first, so the exchange checks
        this traversal's sides, not an earlier one's."""
        store = self.proj[0]
        store.written[:] = False
        self.each_block(lambda lo, hi, _: self._project_range(lo, hi))
        self._count(project=True)
        self.counters.cell_reads += self.mesh.ncells * self.blocks.nloc
        return store

    def _project_range(self, lo, hi):
        """Cells lo..hi's signed value and derivative traces on every face:
        one product by the stacked trace matrix, written straight into the
        rows lo..hi of the cell-major store.  lo..hi must be whole blocks
        of the grid, else SmootherError."""
        mesh = self.mesh
        rows = _block(mesh.ncells)
        if lo % rows or hi % rows or not 0 <= lo < hi <= mesh.ncells:
            raise SmootherError(f"cells {lo}..{hi} are not whole blocks of "
                                f"{rows} cells of the {mesh.ncells}-cell mesh")
        proj = self.proj[0]
        _rows_mm(self.u.data[lo:hi], self.blocks.traces,
                 out=proj.data[lo:hi].reshape(hi - lo, -1))
        proj.written[lo:hi] = True

    def _blocks(self):
        """The (lo, hi) cell ranges of the grid of blocks, in mesh order."""
        n = self.mesh.ncells
        size = _block(n)
        return [(lo, lo + size) for lo in range(0, n, size)]

    def each_block(self, fn):
        """fn(lo, hi, bufs) for every block, bufs being one task's
        (records across or fluxes, residual, face term or step, corner
        values) buffers.  With one worker or one block a plain loop;
        otherwise one pool task per worker over a contiguous run of
        blocks, each task with its own buffers."""
        blocks = self._blocks()
        ntasks = min(self.workers, len(blocks))
        self.counters.traversals += 1

        def run(i):
            for lo, hi in blocks[i * len(blocks) // ntasks:
                                 (i + 1) * len(blocks) // ntasks]:
                fn(lo, hi, self._bufs[i])

        if ntasks == 1:
            return run(0)
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.workers)
        tasks = [self._executor.submit(run, i) for i in range(ntasks)]
        self.counters.tasks_spawned += ntasks
        # every task ends before any error is raised, so none still writes
        wait(tasks)
        for task in tasks:
            task.result()
        self.counters.tasks_executed += ntasks

    def update_blocks(self, fn):
        """each_block for a loop that changes u; when the sweep reads
        traces, each block is re-projected after fn and the state ends
        warm, else its traces are stale and it ends cold."""
        reproject = self.sweep_reads_traces
        if reproject:
            self.proj[0].written[:] = False

        def block(lo, hi, bufs):
            fn(lo, hi, bufs)
            if reproject:
                self._project_range(lo, hi)

        self.each_block(block)
        if reproject:
            self._count(project=True)
            exchange_interface(self.proj[0], self.partition)
        self.warm = reproject

    def _records_across(self, lo, hi, out, halo=False):
        """The record across every face of cells lo..hi, one row per
        record in the store's order, in the first rows of out: gathered
        through Mesh.opposite_records (with halo, those across the block
        boundary from the halo instead).  A boundary record names
        itself."""
        k = 2 * self.mesh.dim
        out = out[:(hi - lo) * k]
        # the record ids are in range by construction; mode "raise" would
        # buffer the output
        np.take(self.proj[0].records(),
                self.mesh.opposite_records[lo * k:hi * k], axis=0, out=out,
                mode="clip")
        if halo and lo in self._halo_reads:
            rows, src = self._halo_reads[lo]
            out[rows] = self._halo[src]
        return out

    def _count(self, project=False, residual=False, update=False):
        """Add the counts of whole-mesh kernel passes, on the calling
        thread: the re-projection writes 2*dim records per cell; the
        residual reads two cell blocks and the 2*dim fluxes of each cell,
        after forming the fluxes, of which each subdomain counts those it
        touches, interface facets twice; the update writes one block."""
        mesh, bl, c = self.mesh, self.blocks, self.counters
        n, k = mesh.ncells, 2 * mesh.dim
        if project:
            c.facet_writes += n * k * bl.nf
        if residual:
            touches = mesh.nfacets + self.partition.interface_facets.size
            nbnd = int(np.count_nonzero(mesh.facet_boundary))
            c.facet_reads += (2 * touches - nbnd + n * k) * bl.nf
            c.facet_writes += touches * bl.nf
            c.cell_reads += 2 * n * bl.nloc
        if update:
            c.cell_writes += n * bl.nloc

    def _split_residual(self, lo, hi, R, across):
        """R = b - N u on cells lo..hi, N = A - S the part of the operator
        off the interior block: one product of the records across the
        cells' faces (across, laid out as _records_across lays them out)
        by LocalBlocks.across.  R is a C-contiguous (hi - lo, nloc)
        array."""
        _rows_mm(across.reshape(hi - lo, -1), self.blocks.across, out=R)
        np.subtract(self.b.data[lo:hi], R, out=R)
        return R

    def _step_inverse(self):
        """omega times the interior block inverse; percell mode redoes
        assembly and factorisation on every visit and keeps nothing."""
        if self.inverse_mode == "precomputed":
            return self._omega_sinv
        bl = self.blocks
        return self.omega * np.linalg.inv(
            bl.Acc + sum(bl.D_int.reshape(-1, bl.nloc, bl.nloc)))

    def _relax(self, lo, R, term):
        """u = (1 - omega) u + omega S^-1 R on cells lo.., R = b - N u: the
        update of every sweep, u + omega S^-1 (b - A u) in split form.  One
        product, formed in term (a scratch buffer of at least len(R)
        rows); percell mode re-forms the inverse on every call, so once
        per block visit."""
        step = _rows_mm(R, self._step_inverse(), out=term[:len(R)])
        u = self.u.data[lo:lo + len(R)]
        u *= 1.0 - self.omega
        u += step

    def _backup_old(self):
        """u into the old iterate, kept across sweeps with a zero last row
        for neighbour id -1 to read; u_old views its first ncells rows."""
        if self._old is None:
            self._old = np.zeros((self.mesh.ncells + 1, self.blocks.nloc))
            self.u_old = CellField(self._old[:-1])
        self._old[:-1] = self.u.data
        self.counters.cell_reads += self.mesh.ncells * self.blocks.nloc
        self.counters.cell_writes += self.mesh.ncells * self.blocks.nloc


def make_state(mesh, basis, blocks, b, partition=None, omega=0.6,
               variant="fused", inverse_mode="precomputed", workers=1,
               u0=None, track_old=False):
    """Allocate the solution, facet scratch and index tables of a run."""
    st = _new_state(mesh, basis, blocks, b,
                    CellField.zeros(mesh.ncells, blocks.nloc), partition,
                    omega, variant, inverse_mode, workers, track_old)
    if u0 is not None:
        st.set_solution(u0)
    return st


def _new_state(mesh, basis, blocks, b, u, partition=None, omega=0.6,
               variant="fused", inverse_mode="precomputed", workers=1,
               track_old=False):
    """make_state on the iterate u, a CellField the state adopts.
    SmootherError unless the blocks were built for the mesh's dimension
    and cell size (to rounding) and for the basis."""
    check_settings(omega, variant, inverse_mode, workers)
    if blocks.dim != mesh.dim:
        raise SmootherError(f"{blocks.dim}D blocks do not match the "
                            f"{mesh.dim}D mesh")
    if abs(blocks.h - mesh.h) > 1e-12 * mesh.h:
        raise SmootherError(f"blocks of cell size {blocks.h!r} do not match "
                            f"the mesh's cell size {mesh.h!r}")
    if (blocks.kind, blocks.p) != (basis.kind, basis.p):
        raise SmootherError(f"{blocks.kind} p{blocks.p} blocks do not match "
                            f"the {basis.kind} p{basis.p} basis")
    if partition is None:
        partition = make_partition(mesh, "balanced", 1)
    if partition.starts[-1] != mesh.ncells:
        raise SmootherError(f"partition of {int(partition.starts[-1])} cells "
                            f"does not match the {mesh.ncells}-cell mesh")
    # the smoother only reads b: a float64 C-contiguous one is not copied
    bdata = np.ascontiguousarray(b.data if isinstance(b, CellField) else b,
                                 dtype=float)
    if bdata.shape != (mesh.ncells, blocks.nloc):
        raise SmootherError("right-hand side shape does not match mesh/basis")
    st = SmootherState(
        mesh=mesh, blocks=blocks, partition=partition,
        u=u, b=CellField(bdata), omega=omega,
        variant=variant, inverse_mode=inverse_mode, workers=workers,
        track_old=track_old,
    )
    if inverse_mode == "precomputed":
        st._omega_sinv = omega * blocks.Sinv
    st.proj = [FacetProjection.zeros(mesh.ncells, mesh.dim, blocks.nf)]
    if st.sweep_reads_traces:
        _build_halo(st)
    if variant == "stages":
        st.flux = [FacetProjection.zeros(mesh.ncells, mesh.dim, blocks.nf)]
    rows = _block(mesh.ncells)
    st._bufs = [(np.empty((rows * 2 * mesh.dim, 2 * blocks.nf)),
                 np.empty((rows, blocks.nloc)), np.empty((rows, blocks.nloc)),
                 np.empty((rows, 2 ** mesh.dim)))
                for _ in range(min(workers, len(st._blocks())))]
    return st


def _build_halo(st):
    """The fused sweep's halo tables: every record whose opposite record
    lies in another block (an interior facet across a block boundary;
    boundary records name themselves), in store order, so each block's
    reads are one contiguous run of the halo."""
    k = 2 * st.mesh.dim
    opposite = st.mesh.opposite_records
    size = _block(st.mesh.ncells) * k
    rows = np.flatnonzero(opposite // size != np.arange(opposite.size) // size)
    st._halo_src = opposite[rows]
    st._halo = np.empty((rows.size, 2 * st.blocks.nf))
    st._halo_reads = {}
    for lo, hi in st._blocks():
        a, b = np.searchsorted(rows, (lo * k, hi * k))
        if b > a:
            st._halo_reads[lo] = (rows[a:b] - lo * k, slice(a, b))


# -- sweeps ------------------------------------------------------------------

def _sweep(state, pre_residual):
    """The split-form step every sweep ends with: block by block,
    pre_residual(lo, hi, R, bufs) writes b - N u of cells lo..hi into the
    block buffer R, and _relax updates the cells from it; then the update
    and the sweep are counted."""
    def block(lo, hi, bufs):
        R = bufs[1][:hi - lo]
        pre_residual(lo, hi, R, bufs)
        state._relax(lo, R, bufs[2])

    state.update_blocks(block)
    state._count(update=True)
    state.counters.sweeps += 1
    return state


def sweep_vanilla(state):
    """One block-Jacobi iteration reading neighbour cells directly, block
    by block from the old iterate: N u is the neighbour couplings, and on
    a boundary face D_int u, which is (D_bnd - D_int) u; a boundary face's
    gather reads the old iterate's zero last row, so boundary cells issue
    the same 2*dim block reads."""
    mesh, bl = state.mesh, state.blocks
    state._backup_old()
    U = state._old      # u itself is updated in place
    state.counters.cell_reads += (2 + 2 * mesh.dim) * mesh.ncells * bl.nloc

    def pre_residual(lo, hi, R, bufs):
        term, nb = bufs[2][:hi - lo], mesh.neighbors[lo:hi]
        R[:] = state.b.data[lo:hi]
        for s, f in np.ndindex(mesh.dim, 2):
            R -= _rows_mm(U[nb[:, s, f]], bl.Nb[s, f], out=term)
            bnd = np.flatnonzero(nb[:, s, f] < 0)
            if bnd.size:    # one product per block and face: see module doc
                R[bnd] -= _rows_mm(U[lo + bnd], bl.D_int[s, f])

    return _sweep(state, pre_residual)


def sweep_stages(state):
    """One iteration as three separate traversals: project, copy the
    record across every cell face into the second store, then b - N u
    and the update block by block from slices of that store."""
    state.warm_up()
    if state.track_old:
        state._backup_old()
    store = state.flux[0].records()
    k = 2 * state.mesh.dim
    state.each_block(lambda lo, hi, _: state._records_across(
        lo, hi, store[lo * k:hi * k]))
    state._count(residual=True)
    return _sweep(state, lambda lo, hi, R, _: state._split_residual(
        lo, hi, R, store[lo * k:hi * k]))


def sweep_fused(state):
    """One iteration in a single touch of the cells, consuming the traces
    the previous traversal wrote; a cold state is warmed up first.

    Block by block: the records across the block's cell faces from
    iterate k's traces, b - N u, the update and the re-projection of the
    updated cells into their rows of the store.  A block's own records
    are still iterate k's when it reads them; the records it reads across
    its block boundary, which another block may already have rewritten,
    come from the halo, copied from the store before the loop.
    """
    if not state.warm:
        state.warm_up()
    if state.track_old:
        state._backup_old()
    np.take(state.proj[0].records(), state._halo_src, axis=0,
            out=state._halo, mode="clip")
    state._count(residual=True)
    return _sweep(state, lambda lo, hi, R, bufs: state._split_residual(
        lo, hi, R, state._records_across(lo, hi, bufs[0], halo=True)))


SWEEPS = {
    "vanilla": sweep_vanilla,
    "stages": sweep_stages,
    "fused": sweep_fused,
    "tasked": sweep_fused,
}


def sweep(state):
    return SWEEPS[state.variant](state)


def compute_residual_only(state, visit=None):
    """b - A u in the flux form as one traversal, leaving u and the
    projections untouched.

    Warm states reuse their projections; cold states (vanilla/stages or a
    freshly set solution) run warm_up() first.  Returns the residual as a
    CellField; with visit, each block's residual stays in a block buffer
    and visit(lo, hi, R) receives it while its rows are in cache (on a
    pool thread when the state has one), and None is returned.
    """
    if not state.warm:
        state.warm_up()
    mesh, bl = state.mesh, state.blocks
    k = 2 * mesh.dim
    own = state.proj[0].records()
    out = np.empty_like(state.u.data) if visit is None else None

    def block(lo, hi, bufs):
        fluxes, R, term, _ = bufs
        R = R[:hi - lo] if out is None else out[lo:hi]
        fluxes = state._records_across(lo, hi, fluxes)
        apply_flux(fluxes, own[lo * k:hi * k], out=fluxes)
        faces = fluxes.reshape(hi - lo, mesh.dim, 2, 2 * bl.nf)
        _rows_mm(state.u.data[lo:hi], bl.Acc, out=R)
        np.subtract(state.b.data[lo:hi], R, out=R)
        for s, f in np.ndindex(mesh.dim, 2):    # in (axis, low/high) order
            R -= _rows_mm(faces[:, s, f], bl.couplings[s, f],
                          out=term[:hi - lo])
        if visit is not None:
            visit(lo, hi, R)

    state.each_block(block)
    state._count(residual=True)
    return None if out is None else CellField(out)


def apply_operator(mesh, basis, blocks, U, partition=None):
    """Matrix-free A u through the projection/flux/residual pipeline.

    U is read in place when it is a C-contiguous float64 array (else a
    float copy); SmootherError unless it is (ncells, nloc).
    """
    data = np.ascontiguousarray(U.data if isinstance(U, CellField) else U,
                                dtype=float)
    if data.shape != (mesh.ncells, blocks.nloc):
        raise SmootherError(f"operand of shape {data.shape} does not match "
                            f"mesh/basis {(mesh.ncells, blocks.nloc)}")
    # A u = -(b - A u) with b = 0.  The state adopts data as its iterate
    # and is never swept: the variant without sweep stores.  The zero b
    # also receives A u: each block reads its own rows of b before it
    # writes them, and no block reads another's
    out = np.zeros_like(data)
    st = _new_state(mesh, basis, blocks, out, CellField(data),
                    partition=partition, variant="vanilla")
    compute_residual_only(
        st, lambda lo, hi, R: np.negative(R, out=out[lo:hi]))
    return CellField(out)
