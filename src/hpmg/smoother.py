"""Block-Jacobi smoothers over the cell/projection/flux splitting.

Each form of the operator has one home here.  Every sweep is one _sweep
in split form: block by block, u <- (1 - omega) u + c - Q, the damped
block-Jacobi step u + omega S^-1 (b - A u) with S the interior-cell block
and N = A - S, c = omega S^-1 b and Q = omega S^-1 N u.  A cell's own half
of every flux is already in S, so N u is the other half, the product of
the records across the cell's faces by LocalBlocks.across, and a sweep
forms no fluxes.  c depends on b only: the state's first sweep builds it
and the state keeps it.  Q is one product per block and face term by a
stack precomposed with omega S^-1 once per state (_step_stacks), so a
block runs no product by S^-1 of its own.  Percell mode instead forms the
stacks and the block's rows of c on every block visit and keeps nothing,
with the same arithmetic, so its iterates are those of precomputed mode
bit for bit.  The sweeps differ only in their pre-step and in the kernel
that writes a block's Q; under four variant names they give identical
iterates:

  vanilla   reads the 2*dim neighbour cell blocks of the old iterate,
            gathered face by face into a reused block buffer: Q is the
            neighbour couplings per face by omega S^-1 Nb, plus
            omega S^-1 D_int u on a boundary face, which is
            omega S^-1 (D_bnd - D_int) u bit for bit; the first sweep
            finds every block's boundary rows per face.
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
which brings their blocks' traces up to date when the sweep reads
traces: a sweep re-projects its blocks, and the solver's correction adds
the traces of its bilinear from the cells' corners (_add_corner_traces).
With one worker, or a mesh of one block, that is a plain loop; otherwise
the state's thread pool runs one task per worker over a contiguous run
of blocks, each task with its own block buffers.  A block reads iterate
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


def _cell_rows(data, what, shape):
    """data, a CellField or an array of the given shape, as a float64
    C-contiguous array, not copied when it is one already.  SmootherError
    for complex data, whose imaginary part the cast would drop, and for
    any other shape: a row or a scalar would broadcast over every cell."""
    data = data.data if isinstance(data, CellField) else data
    if np.iscomplexobj(data):
        raise SmootherError(f"{what} is complex; the solver is real-valued")
    if np.shape(data) != shape:
        raise SmootherError(f"{what} of shape {np.shape(data)} does not "
                            f"match mesh/basis {shape}")
    return np.ascontiguousarray(data, dtype=float)


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
    counts the fluxes and the residual of that form, which reads b,
    although it forms Q from the records across each face and no fluxes,
    and reads c = omega S^-1 b in place of b; neither c's build nor its
    read is counted.  An interface flux is counted once per touching
    subdomain, as a distributed run would form it on both sides.  The
    fused sweep's halo copy is not counted; it is an artefact of updating
    the one trace store in place.  sweeps counts the sweeps, one per _sweep; traversals
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
    and their rows of the halo.  A mesh of one block has no halo.  In
    precomputed mode the first sweep builds c = omega S^-1 b and the
    step's stacks (_step_stacks), and the state keeps them; percell mode
    and a state that is never swept, like apply_operator's, hold neither.
    With workers > 1 the block loops run on a thread pool, started by the
    first traversal of more than one block; used as a context manager,
    the state shuts it down on exit.
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
    _stacks: tuple = None       # the step's stacks, in precomputed mode
    _c: np.ndarray = None       # omega S^-1 b, in precomputed mode
    _executor: object = None
    _halo: np.ndarray = None    # copies of the records read across blocks
    _halo_src: np.ndarray = None  # their rows of the store
    _halo_reads: dict = None    # block lo -> (its rows across, halo rows)
    _bnd_rows: dict = None      # vanilla: block lo -> per face, (its
                                # boundary rows, their cell ids)
    _bufs: list = None  # per task: a block's (records across or fluxes,
                        # residual or Q, face term or c, corner values,
                        # and for vanilla a face's neighbour cells and ids)

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
        """Set the iterate; SmootherError unless data is real and
        (ncells, nloc), see _cell_rows."""
        self.u.data[:] = _cell_rows(data, "initial guess", self.u.data.shape)
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

    def update_blocks(self, fn, retrace=None):
        """each_block for a loop that changes u.  When the sweep reads
        traces, each block's rows of the store are brought up to date
        after fn, by retrace(lo, hi, bufs) if given, else by re-projecting
        the block, and the state ends warm; else its traces are stale and
        it ends cold."""
        reproject = self.sweep_reads_traces
        if reproject:
            self.proj[0].written[:] = False
            if retrace is None:
                retrace = lambda lo, hi, _: self._project_range(lo, hi)

        def block(lo, hi, bufs):
            fn(lo, hi, bufs)
            if reproject:
                retrace(lo, hi, bufs)

        self.each_block(block)
        if reproject:
            self._count(project=True)
            exchange_interface(self.proj[0], self.partition)
        self.warm = reproject

    def _add_corner_traces(self, lo, hi, bufs):
        """Add the traces of a bilinear change of cells lo..hi, given by
        its values at the cells' corners in the block's corner buffer, to
        their rows of the store: one product by LocalBlocks.corner_traces,
        through the block's records-across buffer.  Marks the rows
        written."""
        n, proj = hi - lo, self.proj[0]
        step = _rows_mm(bufs[3][:n], self.blocks.corner_traces,
                        out=bufs[0][:n * 2 * self.mesh.dim].reshape(n, -1))
        rows = proj.data[lo:hi].reshape(n, -1)
        rows += step
        proj.written[lo:hi] = True

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

    def _step_stacks(self):
        """omega S^-1 and the stacks of Q = omega S^-1 N u, precomposed:
        omega S^-1 across for the sweeps that read the records across,
        omega S^-1 Nb and omega S^-1 D_int, face by face, for vanilla.
        Precomputed mode builds them once per state; percell mode redoes
        assembly, factorisation and composition on every call, once per
        block visit, and keeps nothing."""
        if self._stacks is not None:
            return self._stacks
        bl = self.blocks
        if self.inverse_mode == "precomputed":
            osinv = self.omega * bl.Sinv
        else:
            osinv = self.omega * np.linalg.inv(
                bl.Acc + sum(bl.D_int.reshape(-1, bl.nloc, bl.nloc)))
        if self.variant == "vanilla":
            stacks = (osinv, osinv @ bl.Nb, osinv @ bl.D_int)
        else:
            stacks = (osinv, osinv @ bl.across)
        if self.inverse_mode == "precomputed":
            self._stacks = stacks
        return stacks

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
    and cell size (to rounding) and for the basis, and b is real and
    (ncells, nloc)."""
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
    bdata = _cell_rows(b, "right-hand side", (mesh.ncells, blocks.nloc))
    st = SmootherState(
        mesh=mesh, blocks=blocks, partition=partition,
        u=u, b=CellField(bdata), omega=omega,
        variant=variant, inverse_mode=inverse_mode, workers=workers,
        track_old=track_old,
    )
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


def _build_boundary_rows(st):
    """Vanilla's tables, built by its first sweep: per block, per face in
    (axis, low/high) order, the block's rows on the boundary and their
    cell ids; and for every task two more block buffers, for a face's
    neighbour cells and their ids."""
    nb = st.mesh.neighbors
    st._bnd_rows = {}
    for lo, hi in st._blocks():
        rows = [np.flatnonzero(nb[lo:hi, s, f] < 0)
                for s, f in np.ndindex(st.mesh.dim, 2)]
        st._bnd_rows[lo] = [(r, lo + r) for r in rows]
    size = _block(st.mesh.ncells)
    st._bufs = [bufs + (np.empty((size, st.blocks.nloc)),
                        np.empty(size, dtype=np.intp))
                for bufs in st._bufs]


# -- sweeps ------------------------------------------------------------------

def _sweep(state, kernel):
    """The split-form step every sweep ends with: block by block,
    kernel(lo, hi, Q, stacks, bufs) writes Q = omega S^-1 N u of cells
    lo..hi into the block buffer Q, one product by a stack of
    _step_stacks per face term, and u <- (1 - omega) u + c - Q with
    c = omega S^-1 b; then the update and the sweep are counted.  In
    precomputed mode the state's first sweep builds c in whole blocks and
    keeps it; percell mode forms the block's rows of c on every visit."""
    if state.inverse_mode == "precomputed" and state._c is None:
        state._c = _rows_mm(state.b.data, state._step_stacks()[0])

    def block(lo, hi, bufs):
        n = hi - lo
        stacks = state._step_stacks()
        Q = kernel(lo, hi, bufs[1][:n], stacks, bufs)
        if state._c is None:
            c = _rows_mm(state.b.data[lo:hi], stacks[0], out=bufs[2][:n])
        else:
            c = state._c[lo:hi]
        np.subtract(c, Q, out=Q)
        u = state.u.data[lo:hi]
        u *= 1.0 - state.omega
        u += Q

    state.update_blocks(block)
    state._count(update=True)
    state.counters.sweeps += 1
    return state


def sweep_vanilla(state):
    """One block-Jacobi iteration reading neighbour cells directly, block
    by block from the old iterate: N u is the neighbour couplings, and on
    a boundary face D_int u, which is (D_bnd - D_int) u.  Each face's
    neighbour cells are gathered into a reused block buffer; a boundary
    face's gather reads the old iterate's zero last row, so boundary cells
    issue the same 2*dim block reads."""
    mesh, bl = state.mesh, state.blocks
    if state._bnd_rows is None:
        _build_boundary_rows(state)
    state._backup_old()
    U = state._old      # u itself is updated in place
    state.counters.cell_reads += (2 + 2 * mesh.dim) * mesh.ncells * bl.nloc

    def kernel(lo, hi, Q, stacks, bufs):
        _, on_nb, on_bnd = stacks
        n = hi - lo
        term, cells, nb = bufs[2][:n], bufs[4][:n], bufs[5][:n]
        faces = zip(np.ndindex(mesh.dim, 2), state._bnd_rows[lo])
        for i, ((s, f), (rows, ids)) in enumerate(faces):
            # a contiguous copy of the face's neighbour ids, which take
            # would otherwise make; id -1 wraps to the zero last row
            np.copyto(nb, mesh.neighbors[lo:hi, s, f])
            np.take(U, nb, axis=0, out=cells, mode="wrap")
            if i == 0:
                _rows_mm(cells, on_nb[s, f], out=Q)
            else:
                Q += _rows_mm(cells, on_nb[s, f], out=term)
            if rows.size:   # one product per block and face: see module doc
                m = rows.size
                np.take(U, ids, axis=0, out=cells[:m], mode="clip")
                Q[rows] += _rows_mm(cells[:m], on_bnd[s, f], out=term[:m])
        return Q

    return _sweep(state, kernel)


def _across_kernel(records):
    """The kernel of the sweeps that read the records across: Q is one
    product of the block's records across, records(lo, hi, bufs) laid out
    as _records_across lays them out, by omega S^-1 across."""
    return lambda lo, hi, Q, stacks, bufs: _rows_mm(
        records(lo, hi, bufs).reshape(hi - lo, -1), stacks[1], out=Q)


def sweep_stages(state):
    """One iteration as three separate traversals: project, copy the
    record across every cell face into the second store, then Q and the
    update block by block from slices of that store."""
    state.warm_up()
    if state.track_old:
        state._backup_old()
    store = state.flux[0].records()
    k = 2 * state.mesh.dim
    state.each_block(lambda lo, hi, _: state._records_across(
        lo, hi, store[lo * k:hi * k]))
    state._count(residual=True)
    return _sweep(state, _across_kernel(
        lambda lo, hi, _: store[lo * k:hi * k]))


def sweep_fused(state):
    """One iteration in a single touch of the cells, consuming the traces
    the previous traversal wrote; a cold state is warmed up first.

    Block by block: the records across the block's cell faces from
    iterate k's traces, Q, the update and the re-projection of the
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
    return _sweep(state, _across_kernel(
        lambda lo, hi, bufs: state._records_across(lo, hi, bufs[0],
                                                   halo=True)))


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
        fluxes, R, term = bufs[:3]
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
    float copy); SmootherError unless it is real and (ncells, nloc).
    """
    data = _cell_rows(U, "operand", (mesh.ncells, blocks.nloc))
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
