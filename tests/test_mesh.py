import numpy as np
import pytest

from hpmg import MeshError, build_hierarchy, make_partition, peano_order

from conftest import mesh_at
from oracles import mesh_tables


def test_level1_counts():
    m = mesh_at(1)
    assert m.ncells == 9
    assert m.nfacets == 24
    assert m.nvertices == 16
    s = m.summary()
    assert s["interior_facets"] == 12
    assert s["boundary_facets"] == 12
    assert s["cells_per_axis"] == 3
    assert s["h"] == pytest.approx(1.0 / 3.0)


def test_summary_keys_and_consistency():
    m = mesh_at(2)
    s = m.summary()
    assert set(s) == {"dim", "level", "cells_per_axis", "h", "ncells",
                      "nfacets", "interior_facets", "boundary_facets",
                      "nvertices"}
    assert s["interior_facets"] + s["boundary_facets"] == s["nfacets"]
    assert s["ncells"] == s["cells_per_axis"] ** s["dim"]


@pytest.mark.parametrize("dim,level", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_curve_is_a_facet_adjacent_bijection(dim, level):
    G = peano_order(dim, level)
    n = 3 ** level
    assert G.shape == (n ** dim, dim)
    # bijection onto the index lattice
    lin = np.zeros(len(G), dtype=np.int64)
    for k in range(dim):
        lin = lin * n + G[:, k]
    assert len(np.unique(lin)) == len(G)
    assert G.min() == 0 and G.max() == n - 1
    # consecutive cells share a facet: Manhattan distance exactly one
    steps = np.abs(np.diff(G, axis=0)).sum(axis=1)
    assert np.all(steps == 1)


def test_curve_nesting_across_levels():
    # the level-l curve traverses the children of coarse cell k as the
    # contiguous rank block [3^d k, 3^d (k+1))
    for dim in (2, 3):
        coarse = peano_order(dim, 1)
        fine = peano_order(dim, 2)
        blk = 3 ** dim
        for k in range(len(coarse)):
            parents = fine[blk * k:blk * (k + 1)] // 3
            assert np.all(parents == coarse[k]), (dim, k)


def test_hierarchy_order_and_limits():
    meshes = build_hierarchy(2, 3)
    assert [m.level for m in meshes] == [3, 2, 1]
    assert meshes[0].n == 27 and meshes[-1].n == 3
    with pytest.raises(MeshError):
        build_hierarchy(4, 2)
    with pytest.raises(MeshError):
        build_hierarchy(2, 0)
    with pytest.raises(MeshError):
        build_hierarchy(2, 7)


@pytest.mark.parametrize("args", [(2, True), (2, 2.0), (2.0, 2), (True, 2),
                                  (np.float64(3.0), 1)],
                         ids=["level-bool", "level-float", "dim-float",
                              "dim-bool", "dim-numpy-float"])
def test_hierarchy_rejects_non_integer_dim_and_level(args):
    # True == 1 used to build L1 and 2.0 to fail inside range()
    with pytest.raises(MeshError, match="integer"):
        build_hierarchy(*args)


@pytest.mark.parametrize("nparts", [2.0, True, np.float64(3.0), "2"])
def test_partition_rejects_non_integer_part_counts(nparts):
    with pytest.raises(MeshError, match="integer"):
        make_partition(mesh_at(1), "balanced", nparts)


def test_mesh_accepts_numpy_integers():
    m = build_hierarchy(np.int64(2), np.int32(2))[0]
    assert m.ncells == 81
    assert make_partition(m, "balanced", np.int64(3)).nparts == 3


def test_interior_facet_orientation():
    # n_F points from the minus to the plus cell
    m = mesh_at(2)
    t = mesh_tables(m)
    centers = (m.cells + 0.5) * m.h
    interior = ~m.facet_boundary
    cm = m.facet_cells[interior, 0]
    cp = m.facet_cells[interior, 1]
    ax = t.facet_axis[interior]
    gap = centers[cp, ax] - centers[cm, ax]
    assert np.all(gap > 0)
    np.testing.assert_allclose(gap, m.h, atol=1e-15)
    assert np.all(t.facet_orient[interior] == 1)
    # boundary facets carry only a minus cell and the outward orientation
    bnd = m.facet_boundary
    assert np.all(m.facet_cells[bnd, 0] >= 0)
    assert np.all(m.facet_cells[bnd, 1] == -1)
    low = t.facet_orient == -1
    assert np.all(m.facet_boundary[low])


def test_cell_facets_and_neighbors_agree():
    m = mesh_at(2)
    t = mesh_tables(m)
    for k in range(m.ncells):
        for s in range(m.dim):
            for side in (0, 1):
                f = t.cell_facets[k, s, side]
                assert t.facet_axis[f] == s
                assert k in m.facet_cells[f]
                nb = m.neighbors[k, s, side]
                other = [c for c in m.facet_cells[f] if c not in (k, -1)]
                if nb == -1:
                    assert m.facet_boundary[f]
                    assert other == []
                else:
                    assert other == [nb]


def test_cell_side_matches_facet_record():
    m = mesh_at(1)
    t = mesh_tables(m)
    for k in range(m.ncells):
        for s in range(m.dim):
            for side in (0, 1):
                f = t.cell_facets[k, s, side]
                assert m.facet_cells[f, t.cell_side[k, s, side]] == k


def test_facet_records_name_the_cells_faces():
    # record row (c*dim + s)*2 + f is cell c's face f along axis s: the
    # minus record is the minus cell's face on the facet, the plus record
    # the plus cell's; a boundary facet names its minus record twice
    m = mesh_at(2)
    t = mesh_tables(m)
    for fid in range(m.nfacets):
        for side in (0, 1):
            c, rest = divmod(int(m.facet_records[fid, side]), 2 * m.dim)
            s, f = divmod(rest, 2)
            assert t.cell_facets[c, s, f] == fid
            assert t.cell_side[c, s, f] == (0 if m.facet_boundary[fid] else side)
        if m.facet_boundary[fid]:
            assert m.facet_records[fid, 0] == m.facet_records[fid, 1]


@pytest.mark.parametrize("dim, level", [(2, 2), (3, 1)])
def test_opposite_records_pair_each_face_with_the_one_across(dim, level):
    m = mesh_at(level, dim)
    opp = m.opposite_records
    own = np.arange(m.ncells * m.dim * 2)
    assert opp.shape == own.shape
    boundary = (m.neighbors < 0).reshape(-1)
    # an involution on interior records, the identity on boundary ones
    np.testing.assert_array_equal(opp[opp[~boundary]], own[~boundary])
    assert (opp[~boundary] != own[~boundary]).all()
    np.testing.assert_array_equal(opp[boundary], own[boundary])
    # every (record, opposite) pair is its facet's (minus, plus) pair
    t = mesh_tables(m)
    pairs = m.facet_records[t.cell_facets.reshape(-1)]
    side = t.cell_side.reshape(-1)
    np.testing.assert_array_equal(pairs[own, side], own)
    np.testing.assert_array_equal(pairs[own, 1 - side], opp)


@pytest.mark.parametrize("dim, level", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_index_tables_match_a_facet_by_facet_build(dim, level):
    # the vectorised per-axis scatter against a build that visits every
    # facet and every cell face on its own
    m = mesh_at(level, dim)
    t = mesh_tables(m)
    for name in ("facet_boundary", "facet_cells", "facet_records",
                 "neighbors", "opposite_records", "cell_vertices"):
        np.testing.assert_array_equal(getattr(m, name), getattr(t, name),
                                      err_msg=name)


def test_vertices_and_cell_corners():
    m = mesh_at(1)
    vertex_coords = mesh_tables(m).vertex_coords
    assert np.count_nonzero(m.vertex_boundary) == 12
    for k in (0, 4, 8):
        lo = m.cells[k] * m.h
        corners = vertex_coords[m.cell_vertices[k]]
        np.testing.assert_allclose(corners.min(axis=0), lo, atol=1e-15)
        np.testing.assert_allclose(corners.max(axis=0), lo + m.h, atol=1e-15)


def test_dim3_smoke():
    m = build_hierarchy(3, 1)[0]
    s = m.summary()
    assert s["ncells"] == 27
    assert s["nfacets"] == 108
    assert s["interior_facets"] == 54
    assert s["nvertices"] == 64
    steps = np.abs(np.diff(m.cells, axis=0)).sum(axis=1)
    assert np.all(steps == 1)


def test_balanced_partition_sizes():
    m = mesh_at(1)
    part = make_partition(m, "balanced", 2)
    assert sorted(part.sizes.tolist()) == [4, 5]
    assert part.cell_range(0) == (0, int(part.sizes[0]))
    part4 = make_partition(m, "balanced", 4)
    assert part4.sizes.tolist() == [3, 2, 2, 2]


def test_geometric_partition_sizes():
    m = mesh_at(1)
    part = make_partition(m, "geometric", 5)
    assert part.sizes.tolist() == [4, 2, 1, 1, 1]
    with pytest.raises(MeshError):
        make_partition(m, "geometric", 6)


def test_geometric_partition_level6():
    m = mesh_at(6)
    part = make_partition(m, "geometric", 4)
    assert part.sizes.tolist() == [265720, 132860, 66430, 66431]


def test_partition_interface_facets():
    m = mesh_at(2)
    part = make_partition(m, "balanced", 4)
    iface = set(part.interface_facets.tolist())
    interior = np.where(~m.facet_boundary)[0]
    for f in interior:
        cm, cp = m.facet_cells[f]
        crosses = part.part_of_cell[cm] != part.part_of_cell[cp]
        assert (f in iface) == crosses
    assert np.all(np.diff(part.interface_facets) > 0)
    # each interface facet has both cells, owned by different subdomains
    cells = m.facet_cells[part.interface_facets]
    assert np.all(cells >= 0)
    pm, pp = part.part_of_cell[cells].T
    assert np.all(pm != pp)
    # contiguous curve ranges keep every subdomain connected, so any part
    # with more than zero cells shows up in part_of_cell exactly sizes times
    counts = np.bincount(part.part_of_cell, minlength=4)
    assert counts.tolist() == part.sizes.tolist()


def test_partition_rejects_bad_requests():
    m = mesh_at(1)
    with pytest.raises(MeshError):
        make_partition(m, "balanced", 0)
    with pytest.raises(MeshError):
        make_partition(m, "balanced", 10)
    with pytest.raises(MeshError):
        make_partition(m, "striped", 2)


@pytest.mark.parametrize("mode, nparts", [("balanced", 1), ("balanced", 4),
                                          ("geometric", 3)])
def test_partition_interface_records_are_the_cut_facets(mode, nparts):
    m = mesh_at(2)
    part = make_partition(m, mode, nparts)
    owners = np.where(m.facet_cells >= 0,
                      part.part_of_cell[m.facet_cells], -1)
    cut = np.flatnonzero((owners >= 0).all(axis=1)
                         & (owners[:, 0] != owners[:, 1]))
    np.testing.assert_array_equal(part.interface_facets, cut)
    assert part.interface_records.shape == (cut.size, 2)
    np.testing.assert_array_equal(part.interface_records, m.facet_records[cut])
    # record rows are cell-major: both name the facet's own cells
    np.testing.assert_array_equal(part.interface_records // (2 * m.dim),
                                  m.facet_cells[cut])
    assert (cut.size == 0) == (nparts == 1)
