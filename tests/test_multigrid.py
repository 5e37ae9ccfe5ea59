import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import hpmg.multigrid
from hpmg import (
    CellField,
    MgConfig,
    MgError,
    NonFiniteError,
    SmootherError,
    SmootherState,
    apply_operator,
    build_coarse_space,
    build_rhs,
    get_problem,
    interpolate_exact,
    make_partition,
    make_state,
    norm,
    solve,
)
from hpmg.mesh import MAX_LEVEL
from hpmg.smoother import BLOCK
from hpmg.multigrid import (
    CoarseSolveError,
    coarse_solve,
    h_vcycle,
    prolong_from_vertices,
    restrict_to_vertices,
)

from conftest import blocks_for, cspace_at, mesh_at
from oracles import (assembled_vertex_matrix, blocks_global, free_vertices,
                     nine_point_stencil, vcycle_dense)


def test_solve_leaves_the_callers_b_alone():
    mesh, basis, blocks = blocks_for("lobatto", 2, 2)
    b = build_rhs(get_problem("sin_product"), mesh, basis).data
    before = b.copy()
    res = solve(mesh, basis, blocks, b, MgConfig(eps=1e-8))
    assert res.trace.converged
    assert b.tobytes() == before.tobytes()


def test_norms_keep_the_bits_of_norm_and_max_abs(rng):
    cases = [rng.normal(size=(50, 7)), -np.abs(rng.normal(size=33)),
             np.zeros(5), np.array([-0.0, -0.0]), np.array([3.0, -np.inf])]
    nan = rng.normal(size=40)
    nan[[3, 17]] = np.nan, -np.nan
    cases.append(nan)
    for data in cases:
        got = np.array(hpmg.multigrid._norms(data))
        want = np.array([np.linalg.norm(data.reshape(-1)),
                         np.max(np.abs(data))])
        assert got.tobytes() == want.tobytes(), data


def _interior_random(n, rng):
    E = rng.normal(size=(n + 1, n + 1))
    E[0, :] = E[-1, :] = E[:, 0] = E[:, -1] = 0.0
    return E


@pytest.mark.parametrize("kind", ["lobatto", "legendre"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_vertex_stencil_is_galerkin_product(kind, p, rng):
    # route 1: the 9-point vertex stencil
    # route 2: prolong to cells, apply the DG operator, restrict back
    mesh, basis, blocks = blocks_for(kind, p, 1)
    cspace = cspace_at(1)
    for _ in range(5):
        E = _interior_random(mesh.n, rng)
        route1 = cspace.apply_stiffness(0, E)
        rows = prolong_from_vertices(mesh, blocks, E)
        Au = apply_operator(mesh, basis, blocks, CellField(rows))
        route2 = restrict_to_vertices(mesh, blocks, Au.data)
        scale = np.max(np.abs(route1))
        assert np.max(np.abs(route1 - route2)) < 1e-11 * scale


def test_vertex_prolongation_reproduces_bilinears():
    cspace = cspace_at(2)
    fine, coarse = cspace.levels[0], cspace.levels[1]

    def bilinear(n):
        x = np.linspace(0.0, 1.0, n + 1)
        X, Y = np.meshgrid(x, x, indexing="ij")
        return 0.3 - 0.7 * X + 1.1 * Y + 0.9 * X * Y

    got = fine.W @ bilinear(coarse.n) @ fine.W.T
    np.testing.assert_allclose(got, bilinear(fine.n), atol=1e-13)


def test_transfer_adjointness(rng):
    # restrict is the transpose of the interpolation kron(W, W) between
    # interior vertices; it ignores R's ring and leaves its own ring zero
    cspace = cspace_at(2)
    nf, nc = cspace.levels[0].n, cspace.levels[1].n
    W = cspace.levels[0].W
    P = np.kron(W, W)[np.ix_(free_vertices(nf), free_vertices(nc))]
    for _ in range(20):
        C = _interior_random(nc, rng)
        R = rng.normal(size=(nf + 1, nf + 1))
        lhs = float(np.sum((P @ C.reshape(-1)[free_vertices(nc)])
                           * R.reshape(-1)[free_vertices(nf)]))
        got = cspace.restrict(0, R)
        rhs = float(np.sum(C * got))
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)
        assert not np.any(got.reshape(-1)[~free_vertices(nc)])


def test_cell_vertex_transfer_adjointness(rng):
    mesh, basis, blocks = blocks_for("lobatto", 2, 1)
    for _ in range(20):
        E = _interior_random(mesh.n, rng)
        R = rng.normal(size=(mesh.ncells, blocks.nloc))
        lhs = float(np.sum(prolong_from_vertices(mesh, blocks, E) * R))
        rhs = float(np.sum(E * restrict_to_vertices(mesh, blocks, R)))
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


@settings(max_examples=24, derandomize=True, database=None, deadline=None)
@given(kind=hs.sampled_from(["lobatto", "legendre"]), p=hs.integers(1, 3),
       level=hs.integers(1, 2), seed=hs.integers(0, 2**32 - 1))
def test_cell_vertex_transfers_are_adjoint(kind, p, level, seed):
    # <restrict(r), e> == <r, prolong(e)> for e zero on the Dirichlet
    # ring, to rounding in the size of the summed products
    mesh, basis, blocks = blocks_for(kind, p, level)
    gen = np.random.default_rng(seed)
    E = _interior_random(mesh.n, gen)
    R = gen.normal(size=(mesh.ncells, blocks.nloc))
    terms = prolong_from_vertices(mesh, blocks, E) * R
    lhs = float(np.sum(restrict_to_vertices(mesh, blocks, R) * E))
    assert abs(lhs - terms.sum()) <= 1e-12 * np.abs(terms).sum()


def test_prolongation_partition_of_unity():
    mesh, basis, blocks = blocks_for("legendre", 3, 1)
    ones = np.ones((mesh.n + 1, mesh.n + 1))
    rows = prolong_from_vertices(mesh, blocks, ones)
    np.testing.assert_allclose(rows, 1.0, atol=1e-13)


def test_correction_solves_restricted_system(rng):
    # after an exact-mode correction the residual has no component left in
    # the vertex space
    mesh, basis, blocks = blocks_for("lobatto", 2, 1)
    cspace = cspace_at(1)
    cfg = MgConfig(coarse="exact")
    R = rng.normal(size=(mesh.ncells, blocks.nloc))
    eV = coarse_solve(cspace, restrict_to_vertices(mesh, blocks, R), cfg)
    delta = prolong_from_vertices(mesh, blocks, eV)
    Ad = apply_operator(mesh, basis, blocks, CellField(delta))
    r_new = R - Ad.data
    before = restrict_to_vertices(mesh, blocks, R)
    after = restrict_to_vertices(mesh, blocks, r_new)
    assert np.max(np.abs(after)) < 1e-9 * np.max(np.abs(before))
    # and the vertex residual of eV itself is at rounding level
    bV = restrict_to_vertices(mesh, blocks, R)
    rV = bV - cspace.apply_stiffness(0, eV)
    assert np.max(np.abs(rV)) < 1e-11 * np.max(np.abs(bV))


@pytest.mark.parametrize("p", [1, 3])
def test_restriction_matches_scatter_add_bitwise(p, rng):
    # the accumulation adds the corner contributions in flat cell order,
    # exactly as an unbuffered scatter-add does
    mesh, basis, blocks = blocks_for("lobatto", p, 3)
    R = rng.normal(size=(mesh.ncells, blocks.nloc))
    want = np.zeros(mesh.nvertices)
    np.add.at(want, mesh.cell_vertices, R @ blocks.P_loc)
    want[mesh.vertex_boundary] = 0.0
    got = restrict_to_vertices(mesh, blocks, R)
    assert got.tobytes() == want.reshape(mesh.n + 1, mesh.n + 1).tobytes()


def test_zero_residual_gives_zero_correction():
    mesh, basis, blocks = blocks_for("lobatto", 2, 1)
    cspace = cspace_at(1)
    Z = np.zeros((mesh.ncells, blocks.nloc))
    for mode in ("vcycle", "exact"):
        eV = coarse_solve(cspace, restrict_to_vertices(mesh, blocks, Z),
                          MgConfig(coarse=mode))
        delta = prolong_from_vertices(mesh, blocks, eV)
        assert np.all(delta == 0.0)
        assert np.all(eV == 0.0)


def test_vertex_vcycle_contracts(rng):
    # one V-cycle from zero must at least halve the error (measured ~0.15)
    cspace = cspace_at(2)
    n = cspace.levels[0].n
    A = assembled_vertex_matrix(cspace.levels[0].stencil, n)
    free = free_vertices(n)
    for _ in range(3):
        B = _interior_random(n, rng)
        x = np.zeros((n + 1) ** 2)
        x[free] = np.linalg.solve(A, B.reshape(-1)[free])
        exact = x.reshape(n + 1, n + 1)
        U = h_vcycle(cspace, 0, B)
        ratio = norm(U - exact) / norm(exact)
        assert ratio < 0.5
    # iterated cycles keep contracting
    B = _interior_random(n, rng)
    U = np.zeros((n + 1, n + 1))
    errs = []
    x = np.zeros((n + 1) ** 2)
    x[free] = np.linalg.solve(A, B.reshape(-1)[free])
    exact = x.reshape(n + 1, n + 1)
    for _ in range(6):
        U = U + h_vcycle(cspace, 0, B - cspace.apply_stiffness(0, U))
        errs.append(norm(U - exact))
    assert all(b < 0.5 * a for a, b in zip(errs, errs[1:]))


def test_vertex_vcycle_of_zero_is_zero():
    cspace = cspace_at(2)
    n = cspace.levels[0].n
    U = h_vcycle(cspace, 0, np.zeros((n + 1, n + 1)))
    assert np.all(U == 0.0)


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("nu", [(3, 3), (0, 3), (3, 0)])
def test_vertex_vcycle_matches_dense_oracle(level, nu, rng):
    cspace = cspace_at(level)
    n = cspace.levels[0].n
    for _ in range(2):
        B = _interior_random(n, rng)
        U = h_vcycle(cspace, 0, B, *nu, 0.6)
        want = vcycle_dense(cspace, 0, B[1:-1, 1:-1].reshape(-1), *nu, 0.6)
        got = U[1:-1, 1:-1].reshape(-1)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert not np.any(U.reshape(-1)[~free_vertices(n)])


@pytest.mark.parametrize("level", [1, 2, 4])
def test_stiffness_matches_nine_point_loop(level, rng):
    # a nonzero ring is read by the interior rows and never written
    cspace = cspace_at(level)
    for li, lev in enumerate(cspace.levels):
        U = rng.normal(size=(lev.n + 1, lev.n + 1))
        got = cspace.apply_stiffness(li, U)
        want = nine_point_stencil(lev.stencil, U)
        scale = np.abs(lev.stencil).sum() * np.max(np.abs(U))
        assert np.max(np.abs(got - want)) <= 1e-15 * scale
        assert not np.any(got.reshape(-1)[~free_vertices(lev.n)])


def test_jacobi_updates_the_interior_in_place(rng):
    cspace = cspace_at(2)
    n = cspace.levels[0].n
    B = rng.normal(size=(n + 1, n + 1))
    U = _interior_random(n, rng)
    want = U.copy()
    for _ in range(2):
        R = B - nine_point_stencil(cspace.levels[0].stencil, want)
        want[1:-1, 1:-1] += (0.6 / (8.0 / 3.0)) * R[1:-1, 1:-1]
    assert cspace.jacobi(0, U, B, 0.6, 2) is U
    np.testing.assert_allclose(U, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))
    assert not np.any(U.reshape(-1)[~free_vertices(n)])


def test_direct_solve_caches_its_sine_basis(rng):
    cspace = cspace_at(3)
    assert all(lev.sine is None for lev in build_coarse_space(2, 3).levels)
    for li, lev in enumerate(cspace.levels):
        B = _interior_random(lev.n, rng)
        first = cspace.direct_solve(li, B)
        S, mu = lev.sine
        again = cspace.direct_solve(li, B)
        assert lev.sine[0] is S and lev.sine[1] is mu
        assert first.tobytes() == again.tobytes()
        fresh = build_coarse_space(2, 3)
        fresh.direct_solve(li, B)
        assert S.tobytes() == fresh.levels[li].sine[0].tobytes()
        assert mu.tobytes() == fresh.levels[li].sine[1].tobytes()


def test_exact_mode_makes_one_direct_solve_per_load(monkeypatch):
    # the first step solves for the load itself; one residual checks it
    mesh, basis, blocks = blocks_for("lobatto", 2, 3)
    cspace = build_coarse_space(2, 3)
    b = build_rhs(get_problem("two_peak"), mesh, basis)
    bV = restrict_to_vertices(mesh, blocks, b.data)
    calls = []
    for name in ("direct_solve", "apply_stiffness"):
        fn = getattr(cspace, name)
        monkeypatch.setattr(cspace, name, lambda *a, fn=fn, name=name:
                            calls.append(name) or fn(*a))
    coarse_solve(cspace, bV, MgConfig(coarse="exact"))
    assert calls == ["direct_solve", "apply_stiffness"]


def test_exact_coarse_solve_reaches_rounding(rng):
    cspace = cspace_at(2)
    n = cspace.levels[0].n
    B = _interior_random(n, rng)
    U = coarse_solve(cspace, B, MgConfig(coarse="exact"))
    R = B - cspace.apply_stiffness(0, U)
    assert np.max(np.abs(R)) <= 1e-12 * np.max(np.abs(B))


@pytest.mark.parametrize("level", [1, 2, 3])
def test_direct_solve_matches_dense_solve(level, rng):
    # every level li, the 3x3-cell base level of the V-cycle included
    cspace = cspace_at(level)
    for li, lev in enumerate(cspace.levels):
        A = assembled_vertex_matrix(lev.stencil, lev.n)
        free = free_vertices(lev.n)
        B = _interior_random(lev.n, rng)
        x = np.zeros((lev.n + 1) ** 2)
        x[free] = np.linalg.solve(A, B.reshape(-1)[free])
        U = cspace.direct_solve(li, B)
        assert np.max(np.abs(U.reshape(-1) - x)) <= 1e-13 * np.max(np.abs(x))


def test_exact_mode_runs_no_vcycle(monkeypatch):
    def no_vcycle(*args, **kwargs):
        raise AssertionError("exact coarse mode entered h_vcycle")

    monkeypatch.setattr(hpmg.multigrid, "h_vcycle", no_vcycle)
    mesh, basis, blocks = blocks_for("lobatto", 2, 2)
    b = build_rhs(get_problem("two_peak"), mesh, basis)
    res = solve(mesh, basis, blocks, b,
                MgConfig(criterion="unprec", eps=1e-7, coarse="exact"))
    assert res.trace.converged


def test_exact_coarse_solve_of_smooth_load_meets_backward_error():
    # two V-cycles leave a backward error of about 3e-6 here; one direct
    # step reaches COARSE_TOL
    cspace = cspace_at(5)
    n = cspace.levels[0].n
    s = np.sin(np.pi * np.linspace(0.0, 1.0, n + 1))
    B = cspace.apply_stiffness(0, np.outer(s, s))
    U = coarse_solve(cspace, B, MgConfig(coarse="exact"))
    R = B - cspace.apply_stiffness(0, U)
    a_inf = np.abs(cspace.levels[0].stencil).sum()
    bound = a_inf * np.max(np.abs(U)) + np.max(np.abs(B))
    assert np.max(np.abs(R)) <= hpmg.multigrid.COARSE_TOL * bound


def test_exact_coarse_solve_rejects_non_finite_load(rng):
    cspace = cspace_at(2)
    B = _interior_random(cspace.levels[0].n, rng)
    B[4, 5] = np.nan
    with pytest.raises(CoarseSolveError, match="finite"):
        coarse_solve(cspace, B, MgConfig(coarse="exact"))


def test_solve_matches_dense_solution():
    mesh, basis, blocks = blocks_for("lobatto", 2, 1)
    problem = get_problem("sin_product")
    b = build_rhs(problem, mesh, basis)
    A = blocks_global(mesh, blocks)
    want = np.linalg.solve(A, b.data.reshape(-1))
    for criterion in ("unprec", "prec"):
        cfg = MgConfig(criterion=criterion, eps=1e-11, max_cycles=100)
        res = solve(mesh, basis, blocks, b, cfg)
        assert res.trace.converged
        got = res.u.data.reshape(-1)
        assert norm(got - want) < 1e-8 * norm(want), criterion


# (cycles, traversals) at L2 p2 on two_peak with eps=1e-6, per
# (criterion, start): prec, unprec and error, each from zero and from the
# interpolant.  Per cycle: nu sweeps of 1 traversal (stages 3), a residual
# traversal (2 when it must project first: vanilla, stages, and a u0
# start), and a prolongation traversal, which unprec's last cycle skips;
# fused adds one warm-up, so from zero it runs cycles * (nu + 2) + 1.
# "error" without a reference is converged at zero and never reaches it
# from the interpolant, so it runs to the cap of 200.
_TRAVERSALS = {
    "vanilla": [(12, 60), (18, 92), (18, 89), (20, 101), (0, 0), (200, 1002)],
    "stages": [(12, 108), (18, 164), (18, 161), (20, 181), (0, 0),
               (200, 1802)],
    "fused": [(12, 49), (18, 74), (18, 72), (20, 81), (0, 0), (200, 802)],
}
_TRAVERSALS["tasked"] = _TRAVERSALS["fused"]


@pytest.mark.parametrize("start", ["cold", "u0"])
@pytest.mark.parametrize("criterion", ["prec", "unprec", "error"])
@pytest.mark.parametrize("variant", ["vanilla", "stages", "fused", "tasked"])
def test_traversal_accounting(variant, criterion, start):
    mesh, basis, blocks = blocks_for("lobatto", 2, 2)
    problem = get_problem("two_peak")
    b = build_rhs(problem, mesh, basis)
    u0 = interpolate_exact(problem, mesh, basis) if start == "u0" else None
    cfg = MgConfig(variant=variant, criterion=criterion, eps=1e-6,
                   workers=2 if variant == "tasked" else 1)
    res = solve(mesh, basis, blocks, b, cfg, u0=u0)
    i = 2 * ["prec", "unprec", "error"].index(criterion) + (start == "u0")
    assert (res.trace.cycles, res.counters.traversals) == \
        _TRAVERSALS[variant][i]


def test_converged_solve_projects_once_per_cycle(monkeypatch):
    # project() runs once, as the warm-up, block by block; after it every
    # traversal that changes u brings its own blocks' traces up to date:
    # each sweep re-projects them, and the correction of every cycle, the
    # last one's included, adds the correction's traces from the corners
    mesh, basis, blocks = blocks_for("lobatto", 1, 4)
    b = build_rhs(get_problem("two_peak"), mesh, basis)
    calls, ranges, added = [], [], []
    project = SmootherState.project
    project_range = SmootherState._project_range
    add_traces = SmootherState._add_corner_traces
    monkeypatch.setattr(SmootherState, "project",
                        lambda st: calls.append(1) or project(st))
    monkeypatch.setattr(SmootherState, "_project_range",
                        lambda st, lo, hi: ranges.append((lo, hi))
                        or project_range(st, lo, hi))
    monkeypatch.setattr(SmootherState, "_add_corner_traces",
                        lambda st, lo, hi, bufs: added.append((lo, hi))
                        or add_traces(st, lo, hi, bufs))
    cfg = MgConfig(variant="fused", eps=1e-7)
    res = solve(mesh, basis, blocks, b, cfg)
    assert res.trace.converged and res.trace.cycles > 1
    assert len(calls) == 1
    every_block = [(lo, lo + BLOCK) for lo in range(0, mesh.ncells, BLOCK)]
    assert len(every_block) == 3
    sweeps = [(lo, hi) for _ in range(cfg.nu) for lo, hi in every_block]
    assert ranges == every_block + sweeps * res.trace.cycles
    assert added == every_block * res.trace.cycles


@pytest.mark.parametrize("kind", ["lobatto", "legendre"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_corrected_trace_store_matches_a_fresh_projection(kind, p,
                                                          monkeypatch):
    # the correction adds corner_traces times the corners to the store in
    # place of re-projecting the corrected cells; the next sweep reads
    # that store, so it must hold the corrected iterate's traces.  L4 has
    # three blocks.  Relative to the largest sum of the projection's term
    # magnitudes, the rounding scale of the product: a derivative trace
    # is a difference of terms up to p^2 / h times the cell values
    mesh, basis, blocks = blocks_for(kind, p, 4)
    b = build_rhs(get_problem("two_peak"), mesh, basis)
    tail = hpmg.multigrid._prolongation_tail
    checked = []

    def checked_tail(state, *args):
        out = tail(state, *args)
        store = state.proj[0]
        fresh = state.u.data @ blocks.traces.T
        got = store.data.reshape(mesh.ncells, -1)
        scale = np.max(np.abs(state.u.data) @ np.abs(blocks.traces).T)
        assert np.max(np.abs(got - fresh)) <= 1e-14 * scale, len(checked)
        assert store.written.all()
        checked.append(1)
        return out

    monkeypatch.setattr(hpmg.multigrid, "_prolongation_tail", checked_tail)
    res = solve(mesh, basis, blocks, b, MgConfig(variant="fused", eps=1e-7))
    assert res.trace.converged
    assert len(checked) == res.trace.cycles > 1


@pytest.mark.parametrize("variant", ["fused", "vanilla"])
def test_percell_solve_is_bitwise_precomputed(variant):
    # percell mode forms the step's stacks and the block's rows of
    # c = omega S^-1 b on every block visit, with the arithmetic that
    # precomputed mode runs once per state; L4 has three blocks
    mesh, basis, blocks = blocks_for("lobatto", 2, 4)
    b = build_rhs(get_problem("two_peak"), mesh, basis)
    runs = [solve(mesh, basis, blocks, b,
                  MgConfig(variant=variant, inverse_mode=mode, eps=1e-7))
            for mode in ("precomputed", "percell")]
    assert runs[0].trace.converged
    assert runs[1].trace.cycles == runs[0].trace.cycles
    np.testing.assert_array_equal(runs[1].u.data, runs[0].u.data)


@pytest.mark.parametrize("variant", ["vanilla", "stages"])
def test_cell_reading_sweeps_run_no_unread_projection(variant, monkeypatch):
    # no warm-up and no re-projection after a correction: vanilla reads the
    # cells, so only the residual projects; stages also projects per sweep
    mesh, basis, blocks = blocks_for("lobatto", 2, 2)
    b = build_rhs(get_problem("two_peak"), mesh, basis)
    calls = []
    project = SmootherState.project
    monkeypatch.setattr(SmootherState, "project",
                        lambda st: calls.append(1) or project(st))
    cfg = MgConfig(variant=variant, eps=1e-7)
    res = solve(mesh, basis, blocks, b, cfg)
    assert res.trace.converged and res.trace.cycles > 1
    per_cycle = cfg.nu + 1 if variant == "stages" else 1
    assert len(calls) == res.trace.cycles * per_cycle


def test_zero_rhs_short_circuits():
    mesh, basis, blocks = blocks_for("lobatto", 2, 1)
    b = CellField.zeros(mesh.ncells, blocks.nloc)
    res = solve(mesh, basis, blocks, b)
    assert res.trace.converged
    assert res.trace.cycles == 0
    assert res.counters.traversals == 0
    assert np.all(res.u.data == 0.0)


def test_start_at_solution_stays_there():
    mesh, basis, blocks = blocks_for("lobatto", 2, 1)
    b = build_rhs(get_problem("sin_product"), mesh, basis)
    A = blocks_global(mesh, blocks)
    ustar = np.linalg.solve(A, b.data.reshape(-1)).reshape(mesh.ncells, -1)
    cfg = MgConfig(eps=1e-7, max_cycles=3)
    res = solve(mesh, basis, blocks, b, cfg, u0=CellField(ustar.copy()))
    assert np.max(np.abs(res.u.data - ustar)) < 1e-11 * np.max(np.abs(ustar))


def test_error_criterion_with_reference():
    mesh, basis, blocks = blocks_for("lobatto", 2, 2)
    b = build_rhs(get_problem("sin_product"), mesh, basis)
    A = blocks_global(mesh, blocks)
    ustar = np.linalg.solve(A, b.data.reshape(-1)).reshape(mesh.ncells, -1)
    cfg = MgConfig(criterion="error", eps=1e-6, max_cycles=100)
    res = solve(mesh, basis, blocks, b, cfg, u_ref=ustar)
    assert res.trace.converged
    assert res.trace.err_l2[-1] <= 1e-6 * res.trace.e0_l2
    assert len(res.trace.err_l2) == len(res.trace.prec_l2)
    # starting at the reference converges immediately
    res0 = solve(mesh, basis, blocks, b, cfg, u0=CellField(ustar.copy()),
                 u_ref=ustar)
    assert res0.trace.converged and res0.trace.cycles == 0


def test_error_criterion_decay_to_zero_reference():
    # b = 0 with a nonzero start measures pure error decay (reference is
    # the homogeneous solution)
    mesh, basis, blocks = blocks_for("lobatto", 2, 2)
    u0 = interpolate_exact(get_problem("two_peak"), mesh, basis)
    b = CellField.zeros(mesh.ncells, blocks.nloc)
    cfg = MgConfig(criterion="error", eps=5e-9, max_cycles=100)
    res = solve(mesh, basis, blocks, b, cfg, u0=u0)
    assert res.trace.converged
    assert 15 <= res.trace.cycles <= 30
    rel = res.trace.rel_err()
    assert rel[-1] <= 5e-9
    assert all(b <= a for a, b in zip(rel, rel[1:]))


def test_coarse_modes_agree():
    mesh, basis, blocks = blocks_for("lobatto", 2, 2)
    b = build_rhs(get_problem("two_peak"), mesh, basis)
    results = {}
    for mode in ("vcycle", "exact"):
        cfg = MgConfig(criterion="unprec", eps=1e-7, coarse=mode)
        results[mode] = solve(mesh, basis, blocks, b, cfg)
    cv = results["vcycle"].trace.cycles
    ce = results["exact"].trace.cycles
    assert abs(cv - ce) <= 2
    uv = results["vcycle"].u.data
    ue = results["exact"].u.data
    assert np.max(np.abs(uv - ue)) < 1e-6 * np.max(np.abs(ue))


@pytest.mark.parametrize("coarse", ["vcycle", "exact"])
def test_solve_is_partition_invariant(coarse):
    mesh, basis, blocks = blocks_for("lobatto", 2, 2)
    b = build_rhs(get_problem("two_peak"), mesh, basis)
    cfg = MgConfig(eps=1e-7, coarse=coarse)
    base = solve(mesh, basis, blocks, b, cfg)
    for mode, nparts in (("balanced", 4), ("geometric", 3)):
        part = make_partition(mesh, mode, nparts)
        res = solve(mesh, basis, blocks, b, cfg, partition=part)
        np.testing.assert_array_equal(res.u.data, base.u.data)
        assert res.trace.cycles == base.trace.cycles


def test_tasked_solve_is_bitwise_fused_for_any_workers():
    # the coarse correction mutates u between task spawn and consumption;
    # pending work must be refreshed or the result depends on scheduling
    mesh, basis, blocks = blocks_for("lobatto", 2, 2)
    b = build_rhs(get_problem("two_peak"), mesh, basis)
    base = solve(mesh, basis, blocks, b, MgConfig(eps=1e-7))
    for workers in (1, 4):
        cfg = MgConfig(eps=1e-7, variant="tasked", workers=workers)
        res = solve(mesh, basis, blocks, b, cfg)
        np.testing.assert_array_equal(res.u.data, base.u.data)
        assert res.trace.cycles == base.trace.cycles


def test_solve_is_bitwise_across_blocks():
    # at L4 the 6561 cells form 3 blocks of 2187, which no mesh at L <= 3
    # (a single block) has; the part ranges cut blocks, but they cut no
    # product: the projection covers all cells, and the tasks run whole
    # blocks
    mesh, basis, blocks = blocks_for("lobatto", 1, 4)
    b = build_rhs(get_problem("two_peak"), mesh, basis)
    cfg = MgConfig(eps=1e-7)
    base = solve(mesh, basis, blocks, b, cfg)
    runs = [solve(mesh, basis, blocks, b, cfg,
                  partition=make_partition(mesh, mode, nparts))
            for mode, nparts in (("balanced", 8), ("geometric", 3))]
    runs.append(solve(mesh, basis, blocks, b,
                      MgConfig(eps=1e-7, variant="tasked", workers=2)))
    for res in runs:
        np.testing.assert_array_equal(res.u.data, base.u.data)
        assert res.trace.cycles == base.trace.cycles


_REPLAY = """
import hashlib
from hpmg import (MgConfig, build_hierarchy, build_local_blocks, build_rhs,
                  get_problem, make_basis, make_partition, solve)
mesh = build_hierarchy(2, 3)[0]
basis = make_basis("lobatto", 4)
blocks = build_local_blocks(basis, 2, mesh.h)
b = build_rhs(get_problem("two_peak"), mesh, basis)
for cfg, part in ((MgConfig(eps=1e-7), make_partition(mesh, "balanced", 4)),
                  (MgConfig(eps=1e-7, variant="tasked", workers=2), None)):
    res = solve(mesh, basis, blocks, b, cfg, partition=part)
    print(hashlib.sha256(res.u.data.tobytes()).hexdigest())
"""


def test_iterates_do_not_depend_on_blas_threads():
    # at p = 4 the block products are large enough for OpenBLAS to split
    # them over threads
    src = str(Path(hpmg.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _REPLAY], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True)
        hashes.append(out.stdout.split())
    assert len(hashes[0]) == 2
    assert hashes[0] == hashes[1]
    # the 4-part fused and the tasked solve replay the same iterate
    assert hashes[0][0] == hashes[0][1]


def test_config_validation():
    with pytest.raises(MgError):
        MgConfig(criterion="energy").validate()
    with pytest.raises(MgError):
        MgConfig(coarse="direct").validate()
    with pytest.raises(MgError):
        MgConfig(nu=0).validate()
    with pytest.raises(MgError):
        build_coarse_space(3, 2)
    # a level with no vertex grid, or one past the largest mesh
    for level in (0, -1, MAX_LEVEL + 1):
        with pytest.raises(MgError, match="level must be an integer"):
            build_coarse_space(2, level)


def test_trace_history_and_csv(tmp_path):
    mesh, basis, blocks = blocks_for("lobatto", 2, 1)
    b = build_rhs(get_problem("sin_product"), mesh, basis)
    res = solve(mesh, basis, blocks, b, MgConfig(criterion="unprec", eps=1e-7))
    tr = res.trace
    assert tr.rel_prec()[0] == 1.0
    assert tr.rel_res()[0] < 1.0
    assert len(tr.res_l2) == tr.cycles
    # an unprec stop skips the last correction, so prec lags res by one
    assert len(tr.prec_l2) == tr.cycles - 1
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "cycle,res_l2,res_linf,rel_res_l2,prec_l2,prec_linf,rel_prec_l2"
    assert len(lines) == 1 + tr.cycles
    assert "nan" in lines[-1]
    # error-criterion traces add the error columns
    cfg = MgConfig(criterion="error", eps=1e-6, max_cycles=50)
    res = solve(mesh, basis, blocks, b, cfg,
                u0=interpolate_exact(get_problem("sin_product"), mesh, basis))
    path2 = tmp_path / "trace_err.csv"
    res.trace.to_csv(path2)
    header = path2.read_text().splitlines()[0]
    assert header.endswith("err_l2,err_linf,rel_err_l2")


@pytest.mark.parametrize("bad", [
    {"eps": -1.0},
    {"eps": float("nan")},
    {"max_cycles": 0},
    {"variant": "bogus"},
    {"inverse_mode": "cholesky"},
    {"omega": -0.1},
    {"omega": 1.5},
    {"omega": float("nan")},
    {"workers": 0},
    {"nu": 2.5},
    {"max_cycles": 2.5},
    {"workers": 1.5},
    {"eps": None},
    {"eps": "1e-7"},
    {"eps": True},
    {"eps": 1e-7j},
    {"omega": None},
    {"omega": "0.5"},
    {"omega": True},
    {"omega": 0.5j},
    {"nu": True},
    {"nu": "2"},
    {"max_cycles": True},
    {"max_cycles": None},
    {"workers": None},
    # without smoothing the iterate stays at the coarse-space solution,
    # which the prec test takes for converged
    {"omega": 0.0},
])
def test_config_validation_rejects_out_of_range_values(bad):
    with pytest.raises(MgError):
        MgConfig(**bad).validate()


def test_config_validation_accepts_integer_counts_of_any_kind():
    # numpy integers count, as numpy floats are real numbers
    MgConfig(nu=np.int64(2), workers=np.int32(1), max_cycles=np.uint8(9),
             omega=np.float32(0.5), eps=np.float64(1e-7)).validate()


def test_initial_guess_and_reference_of_the_wrong_shape_raise():
    # a single row would broadcast over every cell
    mesh, basis, blocks = blocks_for("lobatto", 2, 2)
    b = build_rhs(get_problem("sin_product"), mesh, basis)
    for u0 in (np.ones(blocks.nloc), np.ones(5),
               np.ones((mesh.ncells, blocks.nloc + 1))):
        with pytest.raises(SmootherError, match="initial guess"):
            solve(mesh, basis, blocks, b, MgConfig(), u0=u0)
    cfg = MgConfig(criterion="error")
    with pytest.raises(MgError, match="reference"):
        solve(mesh, basis, blocks, b, cfg, u_ref=np.ones(5))
    # a flat reference of the right size is the iterate's layout
    ref = np.zeros(mesh.ncells * blocks.nloc)
    assert solve(mesh, basis, blocks, b, cfg, u_ref=ref).trace.converged
    # a NaN reference would run every cycle to max_cycles, an infinite
    # one would stop at once with converged set
    for bad in (np.nan, np.inf):
        ref = np.full((mesh.ncells, blocks.nloc), bad)
        with pytest.raises(MgError, match="not finite"):
            solve(mesh, basis, blocks, b, cfg, u_ref=ref)
    # nor a complex one, whose error norms are not real
    with pytest.raises(MgError, match="complex"):
        solve(mesh, basis, blocks, b, cfg,
              u_ref=np.full((mesh.ncells, blocks.nloc), 1j))
    # the other criteria would ignore a reference, whatever its shape
    for criterion in ("prec", "unprec"):
        for ref in (np.zeros(3), np.zeros((mesh.ncells, blocks.nloc))):
            with pytest.raises(MgError, match="needs criterion 'error'"):
                solve(mesh, basis, blocks, b,
                      MgConfig(criterion=criterion), u_ref=ref)


@pytest.mark.parametrize("criterion", ["prec", "unprec"])
@pytest.mark.parametrize("variant", ["vanilla", "stages", "fused", "tasked"])
def test_one_cycle_from_zero_is_the_first_cycle_of_solve(variant, criterion,
                                                          rng):
    # _cycle on a fresh state, as another driver would apply it to a
    # residual r, keeps the bits and the counts of solve's first cycle.
    # L4 has three blocks, so the tasked run spreads over its workers
    mesh, basis, blocks = blocks_for("lobatto", 2, 4)
    r = rng.uniform(-1.0, 1.0, (mesh.ncells, blocks.nloc))
    cfg = MgConfig(variant=variant, criterion=criterion, max_cycles=1,
                   workers=2 if variant == "tasked" else 1)
    cspace = cspace_at(4)
    res = solve(mesh, basis, blocks, r, cfg, cspace=cspace)
    assert res.trace.cycles == 1 and not res.trace.converged
    r0 = hpmg.multigrid._norms(r)[0]
    stop_at = cfg.eps * r0 if criterion == "unprec" else None
    with make_state(mesh, basis, blocks, r, omega=cfg.omega, variant=variant,
                    workers=cfg.workers) as st:
        contrib = np.empty((mesh.ncells, mesh.cell_vertices.shape[1]))
        snapshot = np.zeros_like(r)
        res_norms, change, err = hpmg.multigrid._cycle(
            st, cspace, cfg, 1, contrib, snapshot, stop_at=stop_at)
        assert err is None
        np.testing.assert_array_equal(st.u.data, res.u.data)
        np.testing.assert_array_equal(snapshot, res.u.data)
        assert res_norms == (res.trace.res_l2[0], res.trace.res_linf[0])
        assert change == (res.trace.prec_l2[0], res.trace.prec_linf[0])
        assert st.counters.total() == res.counters.total()
        assert st.counters.traversals == res.counters.traversals


def test_coarse_space_of_another_mesh_is_rejected():
    mesh, basis, blocks = blocks_for("lobatto", 2, 3)
    b = build_rhs(get_problem("sin_product"), mesh, basis)
    for level in (2, 4):
        for coarse in ("exact", "vcycle"):
            with pytest.raises(MgError, match=f"{3 ** level} cells per "
                               r"direction does not match the mesh's 27"):
                solve(mesh, basis, blocks, b, MgConfig(coarse=coarse),
                      cspace=cspace_at(level))


def test_failed_tasked_solve_shuts_its_thread_pool_down(recording_pool,
                                                        monkeypatch):
    # capped at one step, the exact coarse solve takes one direct step but
    # never checks it, so it raises after the tasked smoother has started
    # its workers (L4 has three blocks, so the pool runs)
    monkeypatch.setattr(hpmg.multigrid, "COARSE_MAX_STEPS", 1)
    mesh, basis, blocks = blocks_for("lobatto", 1, 4)
    b = build_rhs(get_problem("two_peak"), mesh, basis)
    cfg = MgConfig(variant="tasked", workers=2, coarse="exact")
    before = set(threading.enumerate())
    with pytest.raises(CoarseSolveError):
        solve(mesh, basis, blocks, b, cfg)
    assert [pool.closed for pool in recording_pool.started] == [True]
    leaked = [t for t in threading.enumerate()
              if t not in before and t.name.startswith("ThreadPoolExecutor")]
    assert leaked == []


@pytest.mark.parametrize("coarse, cycle", [("vcycle", 50), ("exact", 52)],
                         ids=["vcycle", "exact"])
def test_diverging_solve_raises_non_finite_error(coarse, cycle):
    # a penalty below the coercivity bound assembles fine, but the
    # iteration blows up; the solve names the cycle instead of running on
    mesh, basis, blocks = blocks_for("lobatto", 3, 2, penalty_const=0.2)
    b = build_rhs(get_problem("sin_product"), mesh, basis)
    with np.errstate(all="ignore"), \
            pytest.raises(NonFiniteError, match=f"cycle {cycle} "):
        solve(mesh, basis, blocks, b, MgConfig(coarse=coarse))


def test_nan_right_hand_side_raises_non_finite_error():
    mesh, basis, blocks = blocks_for("lobatto", 2, 1)
    b = build_rhs(get_problem("sin_product"), mesh, basis)
    b.data[4, 1] = np.nan
    with pytest.raises(NonFiniteError, match="initial guess"):
        solve(mesh, basis, blocks, b, MgConfig())
    u0 = np.ones_like(b.data)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="initial guess"):
        solve(mesh, basis, blocks, b, MgConfig(), u0=u0)
