"""Hierarchical base-3 Cartesian meshes on the unit box.

A mesh at level l has 3^l cells per axis.  Cells are stored in the order of
a recursively constructed space-filling curve (base-3, boustrophedon), so
consecutive cells always share a facet and contiguous index ranges form
connected subdomains.  Facets are axis-aligned; the facet normal n_F points
along its coordinate axis from the minus to the plus cell, except on the
domain boundary where n_F is the outward normal and only a minus cell
exists.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

MAX_LEVEL = 6


class MeshError(ValueError):
    pass


def is_count(v):
    """Whether v is an integer of any kind, bool excepted."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v):
    """Whether v is a real number of any kind, bool excepted."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def peano_order(dim, level):
    """Cell multi-indices of the 3^(level*dim) cells in curve order.

    Built level by level: each refinement step replaces every cell by a
    3^dim block of subcells, traversed by a reflected copy of the coarser
    pattern.  The reflection of axis k toggles with the parity of the sum
    of the other axes' block coordinates, which keeps consecutive cells
    facet-adjacent across block seams.
    """
    G = np.zeros((1, dim), dtype=np.int64)
    for L in range(1, level + 1):
        m = 3 ** (L - 1)
        blocks = []
        for t in range(3**dim):
            a = []
            r = t
            for k in range(dim):           # a[0] is the slowest digit
                a.append(r // 3 ** (dim - 1 - k))
                r %= 3 ** (dim - 1 - k)
            g = []
            for k in range(dim):           # serpentine: reverse when the
                flip = sum(a[:k]) % 2      # slower digits sum to odd
                g.append(a[k] if flip == 0 else 2 - a[k])
            sub = G.copy()
            for k in range(dim):
                if sum(g[j] for j in range(dim) if j != k) % 2:
                    sub[:, k] = m - 1 - sub[:, k]
            blocks.append(sub + m * np.asarray(g, dtype=np.int64))
        G = np.concatenate(blocks)
    return G


@dataclass
class Mesh:
    """Uniform level-l mesh with curve-ordered cells and indexed facets.

    Facet ids are grouped by axis, then ordered lexicographically by
    (plane index along the axis, cross-axis position in C order over the
    other axes).  With nf = (n+1) n^(dim-1) facets per axis, facet id F
    lies on axis F // nf and plane (F % nf) // n^(dim-1); its orientation
    n_F . e_axis is -1 on plane 0 and +1 on every other plane.  Cell c's
    low face along axis s is the facet on plane cells[c, s], its high face
    the one a plane further.

    Per-face trace records are numbered cell-major: cell c's record on
    its face f (0 low, 1 high) along axis s is row (c*dim + s)*2 + f.
    facet_records names the records a facet's flux is formed from: the
    minus cell's high face (its low face on the low boundary) and the
    plus cell's low face; a boundary facet repeats its minus record.
    opposite_records names, per record, the other record of its facet's
    pair: a low face's is its facet's minus record, a high face's its
    facet's plus record, which on the boundary is the record itself.
    cell_vertices lists each cell's corner vertex ids: its low corner's
    id plus the same 2^dim offsets for every cell.
    """

    dim: int
    level: int
    n: int                      # cells per axis, 3**level
    h: float
    cells: np.ndarray           # (ncells, dim) multi-index per curve rank
    cell_rank: np.ndarray       # inverse map, shape (n,)*dim
    facet_boundary: np.ndarray  # (nfacets,) bool
    facet_cells: np.ndarray     # (nfacets, 2) curve ranks of (minus, plus); -1 if absent
    facet_records: np.ndarray   # (nfacets, 2) trace record rows of (minus, plus), see above
    opposite_records: np.ndarray  # (ncells*dim*2,) record across each record's facet
    neighbors: np.ndarray       # (ncells, dim, 2) neighbour rank or -1
    vertex_boundary: np.ndarray # (nvertices,) bool, vertices C-major over [0, n]^dim
    cell_vertices: np.ndarray   # (ncells, 2**dim), corners C-major over (lo, hi)

    @property
    def ncells(self):
        return self.cells.shape[0]

    @property
    def nfacets(self):
        return self.facet_cells.shape[0]

    @property
    def nvertices(self):
        return self.vertex_boundary.shape[0]

    def summary(self):
        n = self.n
        per_axis_interior = (n - 1) * n ** (self.dim - 1)
        per_axis_boundary = 2 * n ** (self.dim - 1)
        return {
            "dim": self.dim,
            "level": self.level,
            "cells_per_axis": n,
            "h": self.h,
            "ncells": int(self.ncells),
            "nfacets": int(self.nfacets),
            "interior_facets": int(self.dim * per_axis_interior),
            "boundary_facets": int(self.dim * per_axis_boundary),
            "nvertices": int(self.nvertices),
        }


def _build_mesh(dim, level):
    n = 3**level
    h = 1.0 / n
    cells = peano_order(dim, level)
    ncells = cells.shape[0]
    rank = np.arange(ncells)

    cell_rank = np.empty((n,) * dim, dtype=np.int64)
    cell_rank[tuple(cells.T)] = rank

    # each cell scatters its rank and records onto its two faces per axis:
    # it is the minus cell of its high face and of a low-boundary face,
    # and the plus cell of an interior low face; a boundary facet repeats
    # its minus record, so each face's opposite record is read off its
    # facet.  opposite_records is int32 where the ids fit, which halves a
    # table the sweeps keep in memory next to the trace stores.
    cross = n ** (dim - 1)
    nf_axis = (n + 1) * cross
    nrec = ncells * dim * 2
    facet_cells = np.full((dim * nf_axis, 2), -1, dtype=np.int64)
    facet_records = np.empty((dim * nf_axis, 2), dtype=np.int64)
    neighbors = np.empty((ncells, dim, 2), dtype=np.int64)
    opposite_records = np.empty(
        (ncells, dim, 2),
        dtype=np.int32 if nrec <= np.iinfo(np.int32).max else np.int64)
    for s in range(dim):
        clin = np.zeros(ncells, dtype=np.int64)
        for ax in range(dim):
            if ax != s:
                clin = clin * n + cells[:, ax]
        i_s = cells[:, s]
        lo = s * nf_axis + i_s * cross + clin
        hi = lo + cross
        side = (i_s > 0).astype(np.int64)
        rec = (rank * dim + s) * 2
        facet_cells[hi, 0] = rank
        facet_records[hi, 0] = rec + 1
        facet_cells[lo, side] = rank
        facet_records[lo, side] = rec
        planes = facet_records[s * nf_axis:(s + 1) * nf_axis]
        planes = planes.reshape(n + 1, cross, 2)
        planes[[0, n], :, 1] = planes[[0, n], :, 0]
        # the neighbour across a face is its facet's other cell
        neighbors[:, s, 1] = facet_cells[hi, 1]
        neighbors[:, s, 0] = np.where(side == 1, facet_cells[lo, 0], -1)
        opposite_records[:, s, 0] = facet_records[lo, 0]
        opposite_records[:, s, 1] = facet_records[hi, 1]
    facet_boundary = facet_cells[:, 1] < 0
    opposite_records = opposite_records.reshape(-1)

    # vertices, C-major over [0, n]^dim; a cell's corners are its low
    # corner's vertex id plus one offset per corner, C-major over (lo, hi)
    vertex_boundary = np.ones((n + 1,) * dim, dtype=bool)
    vertex_boundary[(slice(1, n),) * dim] = False
    vertex_boundary = vertex_boundary.reshape(-1)

    strides = (n + 1) ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    corners = np.indices((2,) * dim, dtype=np.int64).reshape(dim, -1)
    cell_vertices = (cells @ strides)[:, None] + strides @ corners

    return Mesh(
        dim=dim, level=level, n=n, h=h, cells=cells, cell_rank=cell_rank,
        facet_boundary=facet_boundary, facet_cells=facet_cells,
        facet_records=facet_records, opposite_records=opposite_records,
        neighbors=neighbors, vertex_boundary=vertex_boundary,
        cell_vertices=cell_vertices,
    )


def build_hierarchy(dim, level):
    """Meshes from the requested level down to level 1, finest first."""
    if not is_count(dim) or dim not in (2, 3):
        raise MeshError(f"dim must be the integer 2 or 3, got {dim!r}")
    if not is_count(level) or not 1 <= level <= MAX_LEVEL:
        raise MeshError(f"level must be an integer in [1, {MAX_LEVEL}], "
                        f"got {level!r}")
    return [_build_mesh(dim, l) for l in range(level, 0, -1)]


@dataclass
class Partition:
    """Contiguous curve ranges assigned to subdomains.

    A subdomain is only its cell range: all of them share the mesh-wide
    trace store.  interface_facets are the interior facets whose two
    cells lie in different subdomains, in facet-id order, and
    interface_records their (minus, plus) rows of Mesh.facet_records.
    """

    mode: str
    nparts: int
    sizes: np.ndarray
    starts: np.ndarray          # nparts+1 offsets into the curve order
    part_of_cell: np.ndarray
    interface_facets: np.ndarray
    interface_records: np.ndarray   # (len(interface_facets), 2)

    def cell_range(self, part):
        return int(self.starts[part]), int(self.starts[part + 1])


def make_partition(mesh, mode, nparts):
    """Split the curve order into nparts contiguous ranges.

    balanced:  sizes differ by at most one.
    geometric: repeatedly halve the remaining cells; the last part takes
               whatever is left.
    """
    N = mesh.ncells
    if not is_count(nparts) or not 1 <= nparts <= N:
        raise MeshError(f"nparts must be an integer in [1, {N}], "
                        f"got {nparts!r}")
    if mode == "balanced":
        base, extra = divmod(N, nparts)
        sizes = np.full(nparts, base, dtype=np.int64)
        sizes[:extra] += 1
    elif mode == "geometric":
        sizes = np.empty(nparts, dtype=np.int64)
        remaining = N
        for k in range(nparts - 1):
            sizes[k] = remaining // 2
            remaining -= sizes[k]
        sizes[nparts - 1] = remaining
        if (sizes == 0).any():
            raise MeshError(f"geometric split into {nparts} parts exhausts {N} cells")
    else:
        raise MeshError(f"unknown partition mode {mode!r}")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    part_of_cell = np.repeat(np.arange(nparts), sizes)

    if nparts == 1:     # one part has no interface
        ids = np.empty(0, dtype=np.intp)
    else:
        both = np.flatnonzero(~mesh.facet_boundary)
        parts = part_of_cell[mesh.facet_cells[both]]   # (minus, plus) owners
        ids = both[parts[:, 0] != parts[:, 1]]
    return Partition(
        mode=mode, nparts=nparts, sizes=sizes, starts=starts,
        part_of_cell=part_of_cell, interface_facets=ids,
        interface_records=mesh.facet_records[ids],
    )
