import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from hpmg import (
    CellField,
    SmootherError,
    apply_operator,
    build_local_blocks,
    build_rhs,
    get_problem,
    make_basis,
    make_partition,
    make_state,
    memory_access_model,
    norm,
    sweep,
)
from hpmg.fields import DER, VAL, exchange_interface
from hpmg.localops import apply_flux
from hpmg.smoother import (BLOCK, _rows_mm, compute_residual_only,
                           sweep_fused)

from conftest import blocks_for, mesh_at, rng  # noqa: F401
from oracles import blocks_global, jacobi_iteration_dense, mesh_tables


def _random_setup(kind="lobatto", p=2, level=1, seed=3, **kw):
    mesh, basis, blocks = blocks_for(kind, p, level)
    gen = np.random.default_rng(seed)
    b = CellField(gen.normal(size=(mesh.ncells, blocks.nloc)))
    st = make_state(mesh, basis, blocks, b, **kw)
    return mesh, basis, blocks, b, st


def _run(st, nsweeps):
    if st.variant in ("fused", "tasked"):
        st.warm_up()
    for _ in range(nsweeps):
        sweep(st)
    st.close()
    return st.u.data.copy()


ALL_VARIANTS = ("vanilla", "stages", "fused", "tasked")


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_sweep_matches_dense_block_jacobi(variant):
    # oracle: dense residual, the same interior block inverse on every cell
    mesh, basis, blocks, b, st = _random_setup(variant=variant, omega=1.0)
    A = blocks_global(mesh, blocks)
    want = jacobi_iteration_dense(A, blocks.Sinv, 1.0,
                                  np.zeros(A.shape[0]), b.data.reshape(-1),
                                  nsteps=3)
    got = _run(st, 3).reshape(-1)
    assert np.max(np.abs(got - want)) < 1e-11 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_fixed_point_is_left_alone(variant):
    mesh, basis, blocks, b, st = _random_setup(variant=variant, omega=0.9)
    A = blocks_global(mesh, blocks)
    ustar = np.linalg.solve(A, b.data.reshape(-1))
    st.set_solution(ustar.reshape(mesh.ncells, blocks.nloc))
    got = _run(st, 2)
    assert np.max(np.abs(got.reshape(-1) - ustar)) < 1e-12 * np.max(np.abs(ustar))


def test_zero_relaxation_changes_nothing(rng):
    # omega enters the inverse: (1 - 0) u + 0 S^-1 (b - N u) is u, bit for
    # bit; L4 has three blocks
    for level in (1, 4):
        mesh, basis, blocks, b, st = _random_setup(variant="fused", omega=0.0,
                                                   level=level)
        u0 = rng.normal(size=(mesh.ncells, blocks.nloc))
        st.set_solution(u0)
        got = _run(st, 3)
        np.testing.assert_array_equal(got, u0)


def test_variants_agree_to_machine_precision():
    results = {}
    for variant in ALL_VARIANTS:
        *_, st = _random_setup(kind="lobatto", p=3, level=1,
                               variant=variant, omega=0.9)
        results[variant] = _run(st, 10)
    base = results["fused"]
    scale = np.max(np.abs(base))
    for variant in ALL_VARIANTS:
        assert np.max(np.abs(results[variant] - base)) < 1e-12 * scale, variant
    # the staged and deferred forms replay the exact fused arithmetic
    np.testing.assert_array_equal(results["stages"], base)
    np.testing.assert_array_equal(results["tasked"], base)


def test_percell_inverse_is_bitwise_equal():
    # also on the three blocks of L4, each visit re-forming omega S^-1
    for level in (1, 4):
        *_, st_pre = _random_setup(variant="fused", level=level,
                                   inverse_mode="precomputed")
        *_, st_per = _random_setup(variant="fused", level=level,
                                   inverse_mode="percell")
        np.testing.assert_array_equal(_run(st_pre, 5), _run(st_per, 5))


def test_partition_and_worker_invariance():
    mesh, basis, blocks, b, _ = _random_setup(level=2)
    runs = []
    for mode, nparts in (("balanced", 1), ("balanced", 4), ("geometric", 3)):
        part = make_partition(mesh, mode, nparts)
        st = make_state(mesh, basis, blocks, b, partition=part,
                        variant="fused", omega=0.9)
        runs.append(_run(st, 6))
    for w in (1, 4):
        st = make_state(mesh, basis, blocks, b, variant="tasked",
                        omega=0.9, workers=w)
        runs.append(_run(st, 6))
    for other in runs[1:]:
        np.testing.assert_array_equal(other, runs[0])


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(cut=hs.one_of(
    hs.tuples(hs.just("balanced"), hs.integers(1, 81)),
    # halving 81 cells leaves at most 8 non-empty parts
    hs.tuples(hs.just("geometric"), hs.integers(1, 8))))
@example(cut=("balanced", 81))      # every cell its own part
def test_sweeps_and_residual_are_bitwise_across_partitions(variant, cut):
    mesh, basis, blocks, b, _ = _random_setup(level=2)

    def three_sweeps_and_residual(part):
        with make_state(mesh, basis, blocks, b, partition=part,
                        variant=variant, omega=0.9) as state:
            if state.sweep_reads_traces:
                state.warm_up()
            for _ in range(3):
                sweep(state)
            r = compute_residual_only(state)
            exchange_interface(state.project(), part)
        return state.u.data, r.data

    want = three_sweeps_and_residual(make_partition(mesh, "balanced", 1))
    got = three_sweeps_and_residual(make_partition(mesh, *cut))
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


@settings(max_examples=24, derandomize=True, database=None, deadline=None)
@given(kind=hs.sampled_from(["lobatto", "legendre"]), p=hs.integers(1, 3),
       level=hs.integers(1, 2), alpha=hs.floats(-1e3, 1e3),
       seed=hs.integers(0, 2**32 - 1))
def test_apply_operator_is_linear(kind, p, level, alpha, seed):
    # A(alpha x + y) = alpha A x + A y, to rounding in the size of the terms
    mesh, basis, blocks = blocks_for(kind, p, level)
    x, y = np.random.default_rng(seed).normal(size=(2, mesh.ncells, blocks.nloc))
    Ax = apply_operator(mesh, basis, blocks, x).data
    Ay = apply_operator(mesh, basis, blocks, y).data
    got = apply_operator(mesh, basis, blocks, alpha * x + y).data
    scale = abs(alpha) * np.max(np.abs(Ax)) + np.max(np.abs(Ay))
    assert np.max(np.abs(got - (alpha * Ax + Ay))) <= 1e-12 * scale


@pytest.mark.parametrize("level, p", [(4, 2), (5, 1)])
def test_block_traversals_agree_bitwise(level, p):
    # several blocks: no block may read traces that an earlier block of
    # the same sweep already replaced
    mesh, basis, blocks, b, _ = _random_setup(p=p, level=level)
    assert mesh.ncells > BLOCK

    def three_sweeps(**kw):
        return _run(make_state(mesh, basis, blocks, b, omega=0.9, **kw), 3)

    want = three_sweeps(variant="stages")
    for nparts in (1, 5):
        part = make_partition(mesh, "geometric", nparts)
        np.testing.assert_array_equal(
            three_sweeps(variant="fused", partition=part), want, str(nparts))
    np.testing.assert_array_equal(three_sweeps(variant="tasked", workers=2),
                                  want)
    # vanilla's arithmetic differs, but it replays itself bit for bit on
    # any worker count and partition, its blocks run as pool tasks
    want = three_sweeps(variant="vanilla")
    pooled = make_state(mesh, basis, blocks, b, omega=0.9, variant="vanilla",
                        workers=2)
    np.testing.assert_array_equal(_run(pooled, 3), want)
    assert pooled.counters.tasks_spawned > 0
    part = make_partition(mesh, "geometric", 5)
    np.testing.assert_array_equal(
        three_sweeps(variant="vanilla", partition=part), want)


@pytest.mark.parametrize("level, p", [(5, 1), (4, 3)])
def test_multi_block_sweep_is_one_step_of_the_operator(level, p):
    # every schedule's sweep is u + omega S^-1 (b - A u) on a mesh of
    # several blocks (L5 27, whose fused sweep reads records across block
    # boundaries from its halo, L4 3), with b - A u from the residual
    # traversal
    mesh, basis, blocks = blocks_for("lobatto", p, level)
    assert mesh.ncells > BLOCK
    u, b = np.random.default_rng(level).normal(
        size=(2, mesh.ncells, blocks.nloc))
    omega = 0.9
    with make_state(mesh, basis, blocks, b, u0=u) as st:
        r = compute_residual_only(st).data
    want = u + omega * r @ blocks.Sinv.T
    for variant, workers in (("fused", 1), ("tasked", 2), ("stages", 1),
                             ("vanilla", 1)):
        with make_state(mesh, basis, blocks, b, omega=omega, variant=variant,
                        workers=workers, u0=u) as st:
            sweep(st)
        assert (np.max(np.abs(st.u.data - want))
                < 1e-12 * np.max(np.abs(want))), variant


def test_pooled_sweeps_replay_under_frequent_thread_switches():
    # more workers than cores and a thread switch every microsecond: a
    # buffer, a row or a count shared by two tasks would show here
    mesh, basis, blocks, b, _ = _random_setup(p=1, level=5)

    def sweeps(workers):
        with make_state(mesh, basis, blocks, b, omega=0.9, variant="tasked",
                        workers=workers) as st:
            st.warm_up()
            for _ in range(3):
                sweep(st)
            r = compute_residual_only(st)
        return st.u.data, r.data, st.counters.total()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sweeps(4)
    finally:
        sys.setswitchinterval(interval)
    want = sweeps(1)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]


def test_make_state_reads_b_in_place_or_as_a_float_copy():
    mesh, basis, blocks, b, _ = _random_setup()
    st = make_state(mesh, basis, blocks, b.data)
    assert st.b.data is b.data
    ints = np.arange(mesh.ncells * blocks.nloc).reshape(mesh.ncells, -1)
    st = make_state(mesh, basis, blocks, ints)
    assert st.b.data.dtype == np.float64
    assert not np.shares_memory(st.b.data, ints)
    np.testing.assert_array_equal(st.b.data, ints)


def test_vanilla_counter_matches_model():
    for p in (1, 3):
        mesh, basis, blocks, b, st = _random_setup(p=p, variant="vanilla")
        n = 4
        _run(st, n)
        per_cell = st.counters.volumetric() / (n * mesh.ncells)
        assert per_cell == memory_access_model("vanilla", 2, p)
        assert st.counters.total() == st.counters.volumetric()
        assert st.counters.sweeps == n


def test_fused_counter_matches_model():
    from hpmg.bench import predicted_total_accesses

    for p in (1, 2, 4):
        mesh, basis, blocks, b, st = _random_setup(p=p, level=2,
                                                   variant="fused")
        st.warm_up()
        st.counters.reset()
        sweep(st)
        assert st.counters.volumetric() == 3 * mesh.ncells * blocks.nloc
        assert st.counters.total() == predicted_total_accesses(mesh, p, "fused")
        st.close()


def test_standalone_tracking_adds_two_blocks():
    from hpmg.bench import predicted_total_accesses

    p = 2
    mesh, basis, blocks, b, st = _random_setup(p=p, variant="fused",
                                               track_old=True)
    st.warm_up()
    st.counters.reset()
    sweep(st)
    assert st.counters.volumetric() == 5 * mesh.ncells * blocks.nloc
    assert st.counters.total() == predicted_total_accesses(
        mesh, p, "fused_standalone")
    st.close()


def test_tasked_counters_count_tasks():
    # one task per worker over a run of blocks; a one-block mesh runs inline
    for level, workers, ntasks in ((1, 2, 0), (4, 2, 2), (4, 5, 3)):
        mesh, basis, blocks, b, st = _random_setup(variant="tasked",
                                                   level=level, workers=workers)
        st.warm_up()
        assert st.counters.tasks_spawned == ntasks
        n = 3
        for _ in range(n):
            sweep(st)
        compute_residual_only(st)
        st.close()
        # the warm-up's projection, n sweeps and the residual
        assert st.counters.tasks_spawned == (n + 2) * ntasks
        assert st.counters.tasks_executed == (n + 2) * ntasks


@pytest.mark.parametrize("p", [1, 2])
def test_pooled_sweep_counts_match_the_model(p):
    # the block kernels count nothing on the pool threads; the sweep adds
    # its closed-form totals once
    from hpmg.bench import predicted_total_accesses

    mesh, basis, blocks, b, st = _random_setup(p=p, level=4,
                                               variant="tasked", workers=2)
    with st:
        st.warm_up()
        st.counters.reset()
        sweep(st)
    assert st.counters.total() == predicted_total_accesses(mesh, p, "fused")
    assert st.counters.tasks_spawned == st.counters.tasks_executed > 0


def test_constant_state_produces_zero_interior_value_flux():
    mesh, basis, blocks, b, st = _random_setup(variant="stages")
    st.set_solution(np.full((mesh.ncells, blocks.nloc), 2.5))
    sweep(st)
    # the cell-face fluxes, one record per (cell, axis, face), from the
    # stages sweep's two stores: iterate k's traces, which it leaves in
    # place, and the records across each face
    boundary = mesh.neighbors < 0
    fl = apply_flux(st.proj[0].data, st.flux[0].data)
    # signed value traces of the two sides cancel in the average
    assert np.max(np.abs(fl[~boundary][:, VAL])) < 1e-14
    assert np.max(np.abs(fl[~boundary][:, DER])) < 1e-12
    # boundary faces copy the one-sided record of the constant, signed as
    # every record: -1 on the low face, +1 on the high face
    for f, sign in ((0, -1.0), (1, 1.0)):
        on = boundary[:, :, f]
        np.testing.assert_allclose(fl[:, :, f][on][:, VAL], sign * 2.5,
                                   atol=1e-14)


def test_boundary_flux_is_one_sided_copy():
    mesh, basis, blocks, b, st = _random_setup(variant="stages", seed=11)
    st.set_solution(np.random.default_rng(5).normal(
        size=(mesh.ncells, blocks.nloc)))
    sweep(st)
    pr, fl = st.proj[0].data, st.flux[0].data
    t = mesh_tables(mesh)
    for f in np.where(mesh.facet_boundary)[0]:
        # the minus cell's record on its low (outward -e_s) or high face
        face = 0 if t.facet_orient[f] == -1 else 1
        cell_face = (mesh.facet_cells[f, 0], t.facet_axis[f], face)
        np.testing.assert_array_equal(fl[cell_face], pr[cell_face])


@pytest.mark.parametrize("variant", ["fused", "tasked"])
def test_cold_fused_sweep_warms_up_first(variant):
    # a cold sweep is warm_up() and then sweep(), in u and in the counts;
    # L4 has three blocks, which the tasked state runs on its pool
    *_, cold = _random_setup(p=1, level=4, variant=variant, workers=2)
    *_, warm = _random_setup(p=1, level=4, variant=variant, workers=2)
    with cold, warm:
        warm.warm_up()
        for _ in range(2):
            sweep_fused(cold)
            sweep_fused(warm)
    np.testing.assert_array_equal(cold.u.data, warm.u.data)
    assert cold.counters == warm.counters
    assert cold.counters.traversals == 3


@pytest.mark.parametrize("nloc", [4, 16, 49])
def test_rows_mm_rows_do_not_depend_on_the_range(nloc):
    # BLAS gives a row different bits in calls of different shapes; on the
    # one grid of blocks every run of whole blocks gets the bits of the
    # whole-array call, and a range that cuts a block is refused
    n = 3 * BLOCK
    gen = np.random.default_rng(nloc)
    U = gen.normal(size=(n, nloc))
    nf = int(round(nloc ** 0.5))
    ranges = [(lo * BLOCK, hi * BLOCK) for lo, hi in
              ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3))]
    # cell blocks, one face's traces, the stacked traces of all 2*dim faces
    for M in (gen.normal(size=(nloc, nloc)), gen.normal(size=(2 * nf, nloc)),
              gen.normal(size=(2 * 2 * 2 * nf, nloc))):
        full = _rows_mm(U, M)
        for lo, hi in ranges:
            part = _rows_mm(U[lo:hi], M)
            assert part.tobytes() == full[lo:hi].tobytes(), (lo, hi)
            # the projection's call: rows written into a slice of a store
            store = np.full((n + 3, len(M)), np.inf)
            _rows_mm(U[lo:hi], M, out=store[lo + 1:hi + 1])
            assert store[lo + 1:hi + 1].tobytes() == full[lo:hi].tobytes(), (lo, hi)
            assert np.isinf(store[:lo + 1]).all() and np.isinf(store[hi + 1:]).all()
        for lo, hi in ((0, BLOCK + 1), (100, 3000), (5, n)):
            with pytest.raises(SmootherError, match="whole blocks"):
                _rows_mm(U[lo:hi], M)


def test_rows_mm_rejects_an_output_it_cannot_fill_in_place():
    U, M = np.ones((10, 4)), np.ones((6, 4))
    with pytest.raises(SmootherError, match="C-contiguous"):
        _rows_mm(U, M, out=np.empty((10, 12))[:, ::2])
    with pytest.raises(SmootherError, match="shape"):
        _rows_mm(U, M, out=np.empty((10, 5)))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_projection_records_carry_the_facet_signs(p):
    # every record is its cell's stacked traces: the value signed -1 on the
    # low face and +1 on the high face, the derivative along +e_s.  On an
    # interior facet that is the facet convention, stated from the mesh:
    # the value carries -sigma (+1 on the minus side of the facet, -1 on
    # the plus side), the derivative n_F . e_s
    mesh, basis, blocks, b, st = _random_setup(p=p, level=2)
    u = np.random.default_rng(p).normal(size=(mesh.ncells, blocks.nloc))
    st.set_solution(u)
    st.project()
    pr = st.proj[0].data
    t = mesh_tables(mesh)
    scale = np.max(np.abs(u))
    vtol, dtol = 1e-13 * scale, 1e-12 * scale / mesh.h
    for s in range(mesh.dim):
        for f in (0, 1):
            val = u @ blocks.Tval[s][f].T
            der = u @ blocks.Tder[s][f].T
            np.testing.assert_allclose(pr[:, s, f, VAL], (2 * f - 1) * val,
                                       rtol=0, atol=vtol)
            np.testing.assert_allclose(pr[:, s, f, DER], der,
                                       rtol=0, atol=dtol)
            facets = t.cell_facets[:, s, f]
            inner = mesh.neighbors[:, s, f] >= 0
            sval = np.where(t.cell_side[:, s, f] == 0, 1.0, -1.0)[:, None]
            sder = t.facet_orient[facets][:, None]
            np.testing.assert_allclose(pr[inner, s, f, VAL],
                                       (sval * val)[inner], rtol=0, atol=vtol)
            np.testing.assert_allclose(pr[inner, s, f, DER],
                                       (sder * der)[inner], rtol=0, atol=dtol)
    # both kinds of face are covered, the low boundary among them
    assert mesh.facet_boundary.any() and not mesh.facet_boundary.all()
    assert (t.facet_orient == -1).any()


def test_projection_range_writes_only_its_rows():
    # at L4 the 6561 cells form 3 blocks
    mesh, basis, blocks, b, st = _random_setup(p=2, level=4)
    st.set_solution(np.random.default_rng(0).normal(size=(mesh.ncells, blocks.nloc)))
    proj = st.proj[0]
    assert st._blocks() == [(0, BLOCK), (BLOCK, 2 * BLOCK),
                            (2 * BLOCK, mesh.ncells)]
    for lo, hi in st._blocks() + [(0, 2 * BLOCK), (BLOCK, mesh.ncells)]:
        proj.data[:] = np.nan
        proj.written[:] = False
        st._project_range(lo, hi)
        assert np.isfinite(proj.data[lo:hi]).all() and proj.written[lo:hi].all()
        for rows in (slice(0, lo), slice(hi, None)):
            assert np.isnan(proj.data[rows]).all(), (lo, hi, rows)
            assert not proj.written[rows].any(), (lo, hi, rows)
    # a range that is not whole blocks is refused, and nothing is written
    proj.written[:] = False
    for lo, hi in ((0, 100), (10, BLOCK), (BLOCK, BLOCK), (0, 4 * BLOCK)):
        with pytest.raises(SmootherError, match="whole blocks"):
            st._project_range(lo, hi)
    assert not proj.written.any()


def test_projection_is_byte_identical_across_part_counts():
    # one projection product covers all cells whatever the partition
    mesh, basis, blocks, b, _ = _random_setup(p=3, level=3)
    u = np.random.default_rng(1).normal(size=(mesh.ncells, blocks.nloc))
    stores = []
    for nparts in (1, 8):
        part = make_partition(mesh, "balanced", nparts)
        with make_state(mesh, basis, blocks, b, partition=part) as st:
            st.set_solution(u)
            stores.append(st.project().data.copy())
    assert stores[1].tobytes() == stores[0].tobytes()


def test_state_as_context_manager_shuts_its_pool_down(recording_pool):
    # L4 has three blocks, so two workers really start the pool
    *_, st = _random_setup(p=1, level=4, variant="tasked", workers=2)
    with st as entered:
        assert entered is st
        st.warm_up()
        sweep(st)
        assert st._executor is not None
    assert st._executor is None
    assert [pool.closed for pool in recording_pool.started] == [True]


def test_residual_only_routes():
    mesh, basis, blocks, b, st = _random_setup(variant="stages")
    # u = 0: the residual is the right-hand side itself
    r = compute_residual_only(st)
    np.testing.assert_array_equal(r.data, b.data)
    # generic u: dense oracle
    gen = np.random.default_rng(1)
    u = gen.normal(size=(mesh.ncells, blocks.nloc))
    st.set_solution(u)
    r = compute_residual_only(st)
    A = blocks_global(mesh, blocks)
    want = b.data.reshape(-1) - A @ u.reshape(-1)
    assert np.max(np.abs(r.data.reshape(-1) - want)) < 1e-10
    # at the solve the residual vanishes
    st.set_solution(np.linalg.solve(A, b.data.reshape(-1)).reshape(u.shape))
    r = compute_residual_only(st)
    assert norm(r) < 1e-10 * norm(b)


def test_apply_operator_matches_dense(rng):
    mesh, basis, blocks, b, _ = _random_setup(p=3)
    A = blocks_global(mesh, blocks)
    u = rng.normal(size=(mesh.ncells, blocks.nloc))
    got = apply_operator(mesh, basis, blocks, CellField(u))
    want = A @ u.reshape(-1)
    assert np.max(np.abs(got.data.reshape(-1) - want)) < 1e-10 * np.max(np.abs(want))


def test_only_a_sweep_builds_the_step_of_the_right_hand_side(monkeypatch):
    # c = omega S^-1 b is one cell field: apply_operator, whose state is
    # never swept, leaves it unbuilt, and so does a residual traversal;
    # a precomputed sweep builds it once and keeps it, a percell one never
    import hpmg.smoother as smoother
    states = []
    residual = smoother.compute_residual_only
    monkeypatch.setattr(smoother, "compute_residual_only",
                        lambda st, *a: states.append(st) or residual(st, *a))
    mesh, basis, blocks, b, st = _random_setup(level=4, variant="fused")
    apply_operator(mesh, basis, blocks, b)
    assert len(states) == 1 and states[0]._c is None
    compute_residual_only(st)
    assert st._c is None
    sweep(st)
    c = st._c
    assert c.shape == b.data.shape
    sweep(st)
    assert st._c is c
    *_, st = _random_setup(level=4, variant="fused", inverse_mode="percell")
    sweep(st)
    assert st._c is None and st._stacks is None


def test_state_validation():
    mesh, basis, blocks = blocks_for("lobatto", 2, 1)
    b = CellField.zeros(mesh.ncells, blocks.nloc)
    with pytest.raises(SmootherError, match="variant"):
        make_state(mesh, basis, blocks, b, variant="jacobi")
    with pytest.raises(SmootherError, match="inverse mode"):
        make_state(mesh, basis, blocks, b, inverse_mode="cholesky")
    with pytest.raises(SmootherError, match="relaxation weight"):
        make_state(mesh, basis, blocks, b, omega=1.5)
    with pytest.raises(SmootherError, match="relaxation weight"):
        make_state(mesh, basis, blocks, b, omega=-0.1)
    with pytest.raises(SmootherError, match="relaxation weight"):
        make_state(mesh, basis, blocks, b, omega="0.5")
    with pytest.raises(SmootherError, match="workers"):
        make_state(mesh, basis, blocks, b, workers=0)
    for workers in (1.5, True):
        with pytest.raises(SmootherError, match="workers"):
            make_state(mesh, basis, blocks, b, workers=workers)
    # a partition built for another mesh
    with pytest.raises(SmootherError, match="partition of 81 cells"):
        make_state(mesh, basis, blocks, b,
                   partition=make_partition(mesh_at(2), "balanced", 4))
    with pytest.raises(SmootherError, match="shape"):
        make_state(mesh, basis, blocks, CellField.zeros(mesh.ncells, 3))
    # blocks built for another cell size, degree or dimension
    with pytest.raises(SmootherError, match="cell size 1.0 do not match"):
        make_state(mesh, basis, build_local_blocks(basis, 2, 1.0), b)
    with pytest.raises(SmootherError,
                       match="lobatto p2 blocks do not match the lobatto p3"):
        make_state(mesh, make_basis("lobatto", 3), blocks, b)
    p1 = make_basis("lobatto", 1)
    cube = build_local_blocks(p1, 3, mesh.h)
    # b of (ncells, 8) passes the shape check, which reads blocks.nloc
    b8 = CellField.zeros(mesh.ncells, cube.nloc)
    with pytest.raises(SmootherError, match="3D blocks do not match"):
        make_state(mesh, p1, cube, b8)
    with pytest.raises(SmootherError, match="3D blocks do not match"):
        apply_operator(mesh, p1, cube, b8)
    # an operand that is not one row per cell: a single row would
    # broadcast over every cell
    for bad in (np.ones(blocks.nloc), np.ones(mesh.ncells * blocks.nloc)):
        with pytest.raises(SmootherError, match="operand of shape"):
            apply_operator(mesh, basis, blocks, bad)
    # nor an initial guess: a row or a scalar would broadcast too
    st = make_state(mesh, basis, blocks, b)
    for bad in (np.ones(blocks.nloc), 2.5,
                np.ones(mesh.ncells * blocks.nloc)):
        with pytest.raises(SmootherError, match="initial guess of shape"):
            make_state(mesh, basis, blocks, b, u0=bad)
        with pytest.raises(SmootherError, match="initial guess of shape"):
            st.set_solution(bad)
    # complex data would be cast to its real part with only a warning
    z = np.ones((mesh.ncells, blocks.nloc), dtype=complex)
    with pytest.raises(SmootherError, match="right-hand side is complex"):
        make_state(mesh, basis, blocks, CellField(z))
    with pytest.raises(SmootherError, match="initial guess is complex"):
        make_state(mesh, basis, blocks, b, u0=z)
    with pytest.raises(SmootherError, match="initial guess is complex"):
        st.set_solution(CellField(z))
    with pytest.raises(SmootherError, match="operand is complex"):
        apply_operator(mesh, basis, blocks, z)


def test_standalone_smoothing_is_monotone():
    # plain smoothing converges slowly but never regresses on the smooth
    # problem at its standalone relaxation weight
    mesh, basis, blocks = blocks_for("lobatto", 2, 3)
    problem = get_problem("sin_product")
    b = build_rhs(problem, mesh, basis)
    st = make_state(mesh, basis, blocks, b, omega=0.6, variant="fused",
                    track_old=True)
    st.warm_up()
    res = []
    for _ in range(100):
        sweep(st)
        res.append(norm(compute_residual_only(st)))
    st.close()
    res = np.asarray(res)
    assert np.all(np.diff(res) <= 1e-12 * res[:-1])
    assert res[-1] < res[0]


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("variant", ["stages", "fused", "tasked"])
def test_multi_subdomain_sweep_counts_interface_fluxes_per_part(variant, p):
    # an interface flux is counted once by each of its two subdomains: one
    # extra interior flux record (two reads, one write) per interface facet
    mesh, basis, blocks, b, _ = _random_setup(p=p, level=2)

    def one_sweep_total(part):
        st = make_state(mesh, basis, blocks, b, partition=part,
                        variant=variant, omega=0.9)
        if variant != "stages":
            st.warm_up()
        st.counters.reset()
        sweep(st)
        st.close()
        return st.counters.total()

    single = one_sweep_total(make_partition(mesh, "balanced", 1))
    for mode, nparts in (("balanced", 4), ("geometric", 3)):
        part = make_partition(mesh, mode, nparts)
        extra = 3 * blocks.nf * part.interface_facets.size
        assert one_sweep_total(part) == single + extra, (mode, nparts)


def test_facet_memory_does_not_depend_on_subdomain_count():
    mesh, basis, blocks, b, _ = _random_setup(p=3, level=2)

    def facet_bytes(nparts):
        st = make_state(mesh, basis, blocks, b,
                        partition=make_partition(mesh, "balanced", nparts))
        return (sum(f.data.nbytes + f.written.nbytes for f in st.proj)
                + sum(f.data.nbytes for f in st.flux))

    assert facet_bytes(8) == facet_bytes(1)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_operator_is_symmetric_positive_definite(p):
    # at theta = -1 (symmetric interior penalty) the matrix-free operator,
    # applied to every unit vector, gives an exactly symmetric SPD matrix
    mesh, basis, blocks = blocks_for("lobatto", p, 1, theta=-1.0)
    n = mesh.ncells * blocks.nloc
    A = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        A[:, j] = apply_operator(mesh, basis, blocks,
                                 CellField(e.reshape(mesh.ncells, -1))).data.reshape(-1)
    assert np.max(np.abs(A - A.T)) == 0.0
    assert np.linalg.eigvalsh(A).min() > 0.0
