import numpy as np
import pytest

from hpmg import (
    AssemblyError,
    apply_flux,
    build_local_blocks,
    build_hierarchy,
    default_penalty,
    make_basis,
    memory_access_model,
    predict_blocks,
)

from conftest import blocks_for, cspace_at, mesh_at
from oracles import assemble_global, blocks_global, interbasis_matrix


def test_default_penalty_scaling():
    assert default_penalty(2, 1.0 / 3.0) == pytest.approx(27.0)
    assert default_penalty(1, 0.5, penalty_const=2.0) == pytest.approx(16.0)


@pytest.mark.parametrize("kind", ["lobatto", "legendre"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
def test_blocks_reproduce_quadrature_assembly(kind, p, theta):
    # route 1: global matrix stitched from the precomputed cell blocks
    # route 2: element-by-element quadrature of the facet-coupled weak form
    mesh = mesh_at(1)
    basis = make_basis(kind, p)
    blocks = build_local_blocks(basis, mesh.dim, mesh.h, theta=theta)
    A_blocks = blocks_global(mesh, blocks)
    A_quad = assemble_global(mesh, basis, theta, blocks.gamma)
    scale = np.max(np.abs(A_quad))
    assert np.max(np.abs(A_blocks - A_quad)) < 1e-12 * scale


def test_schur_block_is_interior_cell_diagonal():
    # S must equal the diagonal block of the quadrature assembly for the
    # one cell of the 3x3 mesh with no boundary faces
    mesh = mesh_at(1)
    for kind, p, theta, pc in (("lobatto", 2, -1.0, 1.0),
                               ("legendre", 2, 1.0, 2.0)):
        basis = make_basis(kind, p)
        blocks = build_local_blocks(basis, mesh.dim, mesh.h, theta=theta,
                                    penalty_const=pc)
        A = assemble_global(mesh, basis, theta, blocks.gamma)
        center = int(mesh.cell_rank[1, 1])
        rows = slice(center * blocks.nloc, (center + 1) * blocks.nloc)
        diag = A[rows, rows]
        assert np.max(np.abs(blocks.S - diag)) < 1e-12 * np.max(np.abs(diag))


@pytest.mark.parametrize("kind", ["lobatto", "legendre"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_schur_identity_from_stored_pieces(kind, p):
    # recompose S = Acc + sum of facet eliminations from the flux couplings
    # and trace operators, mirroring the three-field elimination
    _, _, blocks = blocks_for(kind, p, 1)
    S = blocks.Acc.copy()
    for s in range(blocks.dim):
        for f in (0, 1):
            sig = -1.0 if f == 1 else 1.0
            sv = 1.0 if f == 1 else -1.0
            S += sig * (blocks.Acf_w[s][f] @ (0.5 * sv * blocks.Tval[s][f])
                        + blocks.Acf_wp[s][f] @ (0.5 * blocks.Tder[s][f]))
    assert np.max(np.abs(S - blocks.S)) < 1e-12 * np.max(np.abs(blocks.S))


@pytest.mark.parametrize("kind", ["lobatto", "legendre"])
@pytest.mark.parametrize("p", [1, 3, 5])
def test_inverse_and_constant_kernel(kind, p):
    _, _, blocks = blocks_for(kind, p, 1)
    eye = blocks.S @ blocks.Sinv
    assert np.max(np.abs(eye - np.eye(blocks.nloc))) < 1e-10
    ones = np.ones(blocks.nloc)
    assert np.max(np.abs(blocks.Acc @ ones)) < 1e-10 * np.max(np.abs(blocks.Acc))


def test_lobatto_traces_are_node_selectors():
    _, _, blocks = blocks_for("lobatto", 3, 1)
    for s in range(2):
        for f in (0, 1):
            T = blocks.Tval[s][f]
            assert np.all(np.isin(np.round(T, 12), (0.0, 1.0)))
            np.testing.assert_allclose(T.sum(axis=1), np.ones(blocks.nf),
                                       atol=1e-12)


def test_corner_interpolation_partition_of_unity():
    for kind in ("lobatto", "legendre"):
        _, _, blocks = blocks_for(kind, 4, 1)
        np.testing.assert_allclose(blocks.P_loc.sum(axis=1),
                                   np.ones(blocks.nloc), atol=1e-12)
        assert blocks.P_loc.shape == (blocks.nloc, 4)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("h", [1.0 / 3.0, 1.0 / 9.0])
def test_prediction_matches_direct_assembly(h, dim):
    # the predicted penalty follows the unit's penalty_const, not 1
    basis = make_basis("lobatto", 2)

    def close(a, b):
        scale = max(np.max(np.abs(b)), 1.0)
        assert np.max(np.abs(a - b)) < 1e-12 * scale

    for penalty_const in (1.0, 2.0, 0.5):
        unit = build_local_blocks(basis, dim, 1.0, penalty_const=penalty_const)
        direct = build_local_blocks(basis, dim, h, penalty_const=penalty_const)
        pred = predict_blocks(unit, h)
        close(pred["Acc"], direct.Acc)
        close(pred["Mcell"], direct.Mcell)
        close(pred["Mf"], direct.Mf)
        close(pred["S"], direct.S)
        close(pred["P_loc"], direct.P_loc)
        for s in range(dim):
            for f in (0, 1):
                close(pred["Tval"][s][f], direct.Tval[s][f])
                close(pred["Tder"][s][f], direct.Tder[s][f])
                close(pred["Acf_w"][s][f], direct.Acf_w[s][f])
                close(pred["Acf_wp"][s][f], direct.Acf_wp[s][f])
                close(pred["D_int"][s][f], direct.D_int[s][f])
                close(pred["D_bnd"][s][f], direct.D_bnd[s][f])
                close(pred["Nb"][s][f], direct.Nb[s][f])


@pytest.mark.parametrize("dim", [2, 3])
def test_signed_stacks_hold_the_per_face_blocks(dim):
    # traces: per face in (axis, low/high) order the value trace, -1 on the
    # low face, then the derivative trace; couplings: [Acf_w | Acf_wp] of
    # each face, -1 on the high face
    blocks = build_local_blocks(make_basis("legendre", 2), dim, 1.0 / 3.0)
    nf = blocks.nf
    assert blocks.traces.shape == (2 * dim * 2 * nf, blocks.nloc)
    for k, (s, f) in enumerate((s, f) for s in range(dim) for f in (0, 1)):
        rows = blocks.traces[2 * nf * k:2 * nf * (k + 1)]
        low_high = 1.0 if f == 1 else -1.0
        assert np.array_equal(rows[:nf], low_high * blocks.Tval[s][f])
        assert np.array_equal(rows[nf:], blocks.Tder[s][f])
        coupling = np.hstack([blocks.Acf_w[s][f], blocks.Acf_wp[s][f]])
        assert np.array_equal(blocks.couplings[s][f], -low_high * coupling)


def test_prediction_requires_unit_blocks():
    basis = make_basis("lobatto", 1)
    not_unit = build_local_blocks(basis, 2, 0.5)
    with pytest.raises(AssemblyError):
        predict_blocks(not_unit, 1.0 / 3.0)


@pytest.mark.parametrize("h, match", [
    (0.0, "cell size h must be positive"),
    (-1.0 / 3.0, "cell size h must be positive"),
    ("0.3", "h must be a finite real number"),
    (True, "h must be a finite real number"),
    (float("nan"), "h must be a finite real number"),
    (float("inf"), "h must be a finite real number"),
])
def test_bad_prediction_cell_size_is_rejected(h, match):
    # the checks of build_local_blocks: h = 0 would divide by zero, and a
    # negative h would return finite blocks
    unit = build_local_blocks(make_basis("lobatto", 2), 2, 1.0)
    with pytest.raises(AssemblyError, match=match):
        predict_blocks(unit, h)


def test_zero_penalty_is_rejected():
    # theta = -1, p = 1: the facet consistency terms cancel Acc exactly,
    # leaving a zero cell block once the penalty is removed
    basis = make_basis("lobatto", 1)
    with pytest.raises(AssemblyError):
        build_local_blocks(basis, 2, 1.0 / 3.0, theta=-1.0, penalty_const=0.0)
    # any positive penalty restores invertibility
    build_local_blocks(basis, 2, 1.0 / 3.0, theta=-1.0, penalty_const=1e-9)


@pytest.mark.parametrize("name, value, match", [
    ("dim", 2.0, "dim must be 2 or 3"),
    ("h", 0.0, "cell size h must be positive"),
    ("h", -1.0 / 3.0, "cell size h must be positive"),
    ("h", "0.3", "h must be a finite real number"),
    ("h", True, "h must be a finite real number"),
    ("h", float("nan"), "h must be a finite real number"),
    ("h", float("inf"), "h must be a finite real number"),
    ("theta", None, "theta must be a finite real number"),
    ("theta", float("nan"), "theta must be a finite real number"),
    ("penalty_const", -1.0, "penalty_const must be >= 0"),
    ("penalty_const", True, "penalty_const must be a finite real number"),
    ("penalty_const", float("inf"),
     "penalty_const must be a finite real number"),
])
def test_bad_assembly_inputs_are_rejected(name, value, match):
    # checked before any of them is used: h = 0 would otherwise divide by
    # zero in default_penalty, and a negative penalty would assemble
    args = dict(dim=2, h=1.0 / 3.0, theta=-1.0, penalty_const=1.0)
    args[name] = value
    with pytest.raises(AssemblyError, match=match):
        build_local_blocks(make_basis("lobatto", 2), **args)


@pytest.mark.parametrize("kind", ["lobatto", "legendre"])
@pytest.mark.parametrize("dim, degrees", [(2, range(1, 10)),
                                          (3, range(1, 6))])
def test_boundary_diagonal_is_twice_the_interior_one_bitwise(kind, dim,
                                                             degrees):
    # vanilla's boundary term reads D_int for D_bnd - D_int: the interior
    # facet term is the boundary one halved, exactly
    for p in degrees:
        basis = make_basis(kind, p)
        for h in (1.0, 1.0 / 3.0, 1.0 / 243.0):
            bl = build_local_blocks(basis, dim, h)
            assert np.array_equal(bl.D_bnd - bl.D_int, bl.D_int), (p, h)
            assert np.array_equal(bl.D_bnd, 2.0 * bl.D_int), (p, h)


def test_true_diagonal_accounts_for_boundary_faces():
    mesh = mesh_at(1)
    basis = make_basis("lobatto", 2)
    blocks = build_local_blocks(basis, mesh.dim, mesh.h)
    A = assemble_global(mesh, basis, blocks.theta, blocks.gamma)
    for k in range(mesh.ncells):
        faces = [(s, f) for s in range(2) for f in (0, 1)
                 if mesh.neighbors[k, s, f] == -1]
        rows = slice(k * blocks.nloc, (k + 1) * blocks.nloc)
        want = A[rows, rows]
        got = blocks.assemble_true_diagonal(faces)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_flux_record_semantics(rng):
    qm = rng.normal(size=(2, 4))
    qp = rng.normal(size=(2, 4))
    np.testing.assert_allclose(apply_flux(qm, qp), 0.5 * (qm + qp), atol=0.0)
    # one-sided pair
    np.testing.assert_allclose(apply_flux(np.array([1.0]), np.array([0.0])),
                               [0.5], atol=0.0)
    # equal derivative records pass through the average unchanged
    ones = np.ones(3)
    np.testing.assert_allclose(apply_flux(ones, ones), ones, atol=0.0)
    # signed value traces of a continuous function cancel
    np.testing.assert_allclose(apply_flux(ones, -ones), np.zeros(3), atol=0.0)
    # a boundary face is paired with its own record: the average of a
    # record with itself is that record, bit for bit
    q = rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-300, 300, size=(50, 1))
    assert apply_flux(q, q).tobytes() == q.tobytes()


def test_flux_record_into_out(rng):
    # out may be the minus record itself: the flux store is filled in place
    qm = rng.normal(size=(5, 4))
    qp = rng.normal(size=(5, 4))
    want = apply_flux(qm, qp)
    buf = qm.copy()
    assert apply_flux(buf, qp, out=buf) is buf
    assert buf.tobytes() == want.tobytes()
    buf = qm.copy()
    assert apply_flux(buf, buf, out=buf) is buf
    assert buf.tobytes() == qm.tobytes()


D2_VANILLA = [36, 81, 144, 225, 324, 441, 576, 729, 900, 1089]
D2_FUSED = [40, 69, 104, 145, 192, 245, 304, 369, 440, 517]
D2_STANDALONE = [48, 87, 136, 195, 264, 343, 432, 531, 640, 759]
D3_VANILLA = [88, 297, 704, 1375, 2376, 3773, 5632, 8019, 11000, 14641]
D3_FUSED = [108, 270, 528, 900, 1404, 2058, 2880, 3888, 5100, 6534]
D3_STANDALONE = [124, 324, 656, 1150, 1836, 2744, 3904, 5346, 7100, 9196]


def test_access_model_table():
    for p in range(1, 11):
        assert memory_access_model("vanilla", 2, p) == D2_VANILLA[p - 1]
        assert memory_access_model("fused", 2, p) == D2_FUSED[p - 1]
        assert memory_access_model("fused_standalone", 2, p) == D2_STANDALONE[p - 1]
        assert memory_access_model("vanilla", 3, p) == D3_VANILLA[p - 1]
        assert memory_access_model("fused", 3, p) == D3_FUSED[p - 1]
        assert memory_access_model("fused_standalone", 3, p) == D3_STANDALONE[p - 1]


def test_access_model_spot_values():
    assert memory_access_model("vanilla", 2, 1) == 36
    assert memory_access_model("fused", 2, 4) == 145
    assert memory_access_model("fused_standalone", 3, 9) == 7100
    with pytest.raises(ValueError):
        memory_access_model("blocked", 2, 2)


def test_vertex_operator_pieces():
    stencil = cspace_at(2).levels[0].stencil
    assert stencil[1, 1] == pytest.approx(8.0 / 3.0)
    off = np.delete(stencil.reshape(-1), 4)
    np.testing.assert_allclose(off, np.full(8, -1.0 / 3.0), atol=1e-15)
    # stencil is the element assembly around one interior vertex
    assert stencil.sum() == pytest.approx(0.0)


def test_basis_change_conjugates_cell_blocks():
    # nodal matrices of the two bases are congruent through the
    # interpolation matrix between the node sets
    lob = make_basis("lobatto", 3)
    leg = make_basis("legendre", 3)
    b_lob = build_local_blocks(lob, 2, 1.0 / 3.0)
    b_leg = build_local_blocks(leg, 2, 1.0 / 3.0)
    # columns are legendre cardinals expressed as lobatto nodal values
    F1 = interbasis_matrix(leg, lob)
    F = np.kron(F1, F1)
    for a, b in ((b_lob.Acc, b_leg.Acc), (b_lob.Mcell, b_leg.Mcell),
                 (b_lob.S, b_leg.S)):
        got = F.T @ a @ F
        assert np.max(np.abs(got - b)) < 1e-10 * np.max(np.abs(b))


def test_rejects_unsupported_dim():
    with pytest.raises(AssemblyError):
        build_local_blocks(make_basis("lobatto", 1), 1, 0.5)


def test_hierarchy_blocks_share_gamma_rule():
    meshes = build_hierarchy(2, 2)
    basis = make_basis("lobatto", 2)
    for m in meshes:
        blocks = build_local_blocks(basis, 2, m.h)
        assert blocks.gamma == pytest.approx((2 + 1) ** 2 / m.h)
