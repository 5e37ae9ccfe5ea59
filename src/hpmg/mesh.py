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

from dataclasses import dataclass

import numpy as np

MAX_LEVEL = 6


class MeshError(ValueError):
    pass


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
    (plane index along the axis, cross-axis position).

    Per-face trace records are numbered cell-major: cell c's record on
    its face f (0 low, 1 high) along axis s is row (c*dim + s)*2 + f.
    facet_records names the records a facet's flux is formed from: the
    minus cell's high face (its low face on the low boundary) and the
    plus cell's low face; a boundary facet repeats its minus record.
    opposite_records names, per record, the other record of its facet's
    pair: the record across the facet, or the record itself on the
    boundary.
    """

    dim: int
    level: int
    n: int                      # cells per axis, 3**level
    h: float
    cells: np.ndarray           # (ncells, dim) multi-index per curve rank
    cell_rank: np.ndarray       # inverse map, shape (n,)*dim
    facet_axis: np.ndarray      # (nfacets,)
    facet_boundary: np.ndarray  # (nfacets,) bool
    facet_orient: np.ndarray    # (nfacets,) n_F . e_axis, -1 only on the low boundary
    facet_cells: np.ndarray     # (nfacets, 2) curve ranks of (minus, plus); -1 if absent
    cell_facets: np.ndarray     # (ncells, dim, 2) facet id at (axis, low/high face)
    cell_side: np.ndarray       # (ncells, dim, 2) side the cell occupies: 0 minus, 1 plus
    facet_records: np.ndarray   # (nfacets, 2) trace record rows of (minus, plus), see above
    opposite_records: np.ndarray  # (ncells*dim*2,) record across each record's facet
    neighbors: np.ndarray       # (ncells, dim, 2) neighbour rank or -1
    vertex_coords: np.ndarray   # (nvertices, dim)
    vertex_boundary: np.ndarray # (nvertices,) bool
    cell_vertices: np.ndarray   # (ncells, 2**dim), corner order C-major over (lo, hi)

    @property
    def ncells(self):
        return self.cells.shape[0]

    @property
    def nfacets(self):
        return self.facet_axis.shape[0]

    @property
    def nvertices(self):
        return self.vertex_coords.shape[0]

    def cell_centers(self):
        return (self.cells + 0.5) * self.h

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

    cell_rank = np.empty((n,) * dim, dtype=np.int64)
    cell_rank[tuple(cells.T)] = np.arange(ncells)

    nf_axis = (n + 1) * n ** (dim - 1)
    nfacets = dim * nf_axis
    facet_axis = np.repeat(np.arange(dim), nf_axis)
    facet_boundary = np.zeros(nfacets, dtype=bool)
    facet_orient = np.ones(nfacets, dtype=np.int64)
    facet_cells = np.full((nfacets, 2), -1, dtype=np.int64)

    cross = n ** (dim - 1)
    for s in range(dim):
        off = s * nf_axis
        planes = np.repeat(np.arange(n + 1), cross)
        facet_boundary[off:off + nf_axis] = (planes == 0) | (planes == n)
        facet_orient[off:off + nf_axis] = np.where(planes == 0, -1, 1)
        # cross-axis multi-index in C order over the remaining axes
        other = [k for k in range(dim) if k != s]
        grids = np.meshgrid(*(np.arange(n) for _ in other), indexing="ij")
        cidx = [g.reshape(-1) for g in grids]

        def rank_at(plane_i):
            full = [None] * dim
            full[s] = np.full(cross, plane_i, dtype=np.int64)
            for k, ax in enumerate(other):
                full[ax] = cidx[k]
            return cell_rank[tuple(full)]

        for pi in range(n + 1):
            rows = off + pi * cross + np.arange(cross)
            if pi == 0:
                facet_cells[rows, 0] = rank_at(0)        # outward normal -e_s
            elif pi == n:
                facet_cells[rows, 0] = rank_at(n - 1)
            else:
                facet_cells[rows, 0] = rank_at(pi - 1)
                facet_cells[rows, 1] = rank_at(pi)

    # per-cell facet ids, sides and neighbours
    cell_facets = np.empty((ncells, dim, 2), dtype=np.int64)
    cell_side = np.zeros((ncells, dim, 2), dtype=np.int64)
    neighbors = np.full((ncells, dim, 2), -1, dtype=np.int64)
    for s in range(dim):
        off = s * nf_axis
        other = [k for k in range(dim) if k != s]
        clin = np.zeros(ncells, dtype=np.int64)
        for ax in other:
            clin = clin * n + cells[:, ax]
        i_s = cells[:, s]
        cell_facets[:, s, 0] = off + i_s * cross + clin
        cell_facets[:, s, 1] = off + (i_s + 1) * cross + clin
        # on its high face a cell is always the minus cell; on its low face
        # it is the plus cell unless the face lies on the domain boundary
        cell_side[:, s, 1] = 0
        cell_side[:, s, 0] = np.where(i_s == 0, 0, 1)
        lo = cells.copy()
        lo[:, s] -= 1
        hi = cells.copy()
        hi[:, s] += 1
        has_lo = cells[:, s] > 0
        has_hi = cells[:, s] < n - 1
        neighbors[has_lo, s, 0] = cell_rank[tuple(lo[has_lo].T)]
        neighbors[has_hi, s, 1] = cell_rank[tuple(hi[has_hi].T)]

    # trace record rows of (minus, plus) per facet
    faces = np.where(facet_orient == -1, 0, 1)
    facet_records = np.empty((nfacets, 2), dtype=np.int64)
    facet_records[:, 0] = (facet_cells[:, 0] * dim + facet_axis) * 2 + faces
    facet_records[:, 1] = np.where(facet_boundary, facet_records[:, 0],
                                   (facet_cells[:, 1] * dim + facet_axis) * 2)
    # the record across each face: the neighbour's opposite face, or the
    # record itself on the boundary; int32 where the ids fit, which halves
    # a table the sweeps keep in memory next to the trace stores
    nrec = ncells * dim * 2
    own = np.arange(nrec).reshape(ncells, dim, 2)
    across = (neighbors * dim + np.arange(dim)[:, None]) * 2 + [1, 0]
    opposite_records = np.where(neighbors >= 0, across, own).reshape(-1).astype(
        np.int32 if nrec <= np.iinfo(np.int32).max else np.int64)

    # vertices, C-major over [0, n]^dim
    vgrids = np.meshgrid(*(np.arange(n + 1) for _ in range(dim)), indexing="ij")
    vidx = np.stack([g.reshape(-1) for g in vgrids], axis=1)
    vertex_coords = vidx * h
    vertex_boundary = ((vidx == 0) | (vidx == n)).any(axis=1)

    strides = np.array([(n + 1) ** (dim - 1 - k) for k in range(dim)], dtype=np.int64)
    corners = np.array(
        [[(b >> (dim - 1 - k)) & 1 for k in range(dim)] for b in range(2**dim)],
        dtype=np.int64,
    )
    cell_vertices = ((cells[:, None, :] + corners[None, :, :]) * strides).sum(axis=2)

    return Mesh(
        dim=dim, level=level, n=n, h=h, cells=cells, cell_rank=cell_rank,
        facet_axis=facet_axis, facet_boundary=facet_boundary,
        facet_orient=facet_orient, facet_cells=facet_cells,
        cell_facets=cell_facets, cell_side=cell_side,
        facet_records=facet_records, opposite_records=opposite_records,
        neighbors=neighbors,
        vertex_coords=vertex_coords, vertex_boundary=vertex_boundary,
        cell_vertices=cell_vertices,
    )


def build_hierarchy(dim, level):
    """Meshes from the requested level down to level 1, finest first."""
    if dim not in (2, 3):
        raise MeshError(f"dim must be 2 or 3, got {dim}")
    if not 1 <= level <= MAX_LEVEL:
        raise MeshError(f"level must be in [1, {MAX_LEVEL}], got {level}")
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
    if not 1 <= nparts <= N:
        raise MeshError(f"nparts must be in [1, {N}], got {nparts}")
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

    both = np.flatnonzero((mesh.facet_cells >= 0).all(axis=1))
    parts = part_of_cell[mesh.facet_cells[both]]   # (minus, plus) owners
    ids = both[parts[:, 0] != parts[:, 1]]
    return Partition(
        mode=mode, nparts=nparts, sizes=sizes, starts=starts,
        part_of_cell=part_of_cell, interface_facets=ids,
        interface_records=mesh.facet_records[ids],
    )
