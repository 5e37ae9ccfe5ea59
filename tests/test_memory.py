import tracemalloc

import pytest

from hpmg import (FacetProjection, MgConfig, apply_operator, build_hierarchy,
                  build_rhs, discretisation_error, get_problem, make_basis,
                  make_state, solve, sweep)

from conftest import blocks_for


def _traced_peak(fn):
    """fn()'s result and the peak of traced memory during the call above
    the memory traced when it started, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_whole_mesh_temporaries_stay_within_budget():
    # L4 p3: three blocks of 2187 cells.  Budgets in cell fields
    # (ncells * nloc doubles), each between the figure of the earlier
    # solver, which built whole-mesh temporaries, and the current one:
    # - solve (10.0 -> 7.5): u, the trace store (2 at p3), the cycle
    #   snapshot, c = omega S^-1 b, which the first sweep builds and the
    #   state keeps, the vertex contributions (0.25), one task's block
    #   buffers (1.4) and the coarse space;
    # - apply_operator (5.6 -> 4.6): the trace store, the block buffers
    #   and the zero b, which also receives the A u it returns; the state
    #   adopts the operand as its iterate, where the earlier one also
    #   held a zero iterate and a separate residual; it never sweeps, so
    #   it builds no c;
    # - discretisation_error (8.0 -> 3.0): the node coordinates, the
    #   interpolant, the difference and the problem's temporaries of one
    #   block;
    # - a vanilla sweep after the first (5.0 -> 0.34 -> 0.02): the
    #   scatter into the boundary rows of a block; the neighbour cells
    #   and their ids go through block buffers that the first sweep
    #   allocates, and the old iterate is kept across sweeps.
    mesh, basis, blocks = blocks_for("lobatto", 3, 4)
    problem = get_problem("two_peak")
    b = build_rhs(problem, mesh, basis)
    field = mesh.ncells * blocks.nloc * 8
    res, solve_bytes = _traced_peak(
        lambda: solve(mesh, basis, blocks, b, MgConfig(variant="fused")))
    assert res.trace.converged
    _, apply_bytes = _traced_peak(
        lambda: apply_operator(mesh, basis, blocks, res.u))
    _, error_bytes = _traced_peak(
        lambda: discretisation_error(res.u, problem, mesh, basis))
    st = make_state(mesh, basis, blocks, b, variant="vanilla")
    sweep(st)
    _, vanilla_bytes = _traced_peak(lambda: sweep(st))
    assert solve_bytes < 8.0 * field
    assert apply_bytes < 5.0 * field
    assert error_bytes < 5.0 * field
    assert vanilla_bytes < 0.1 * field


def test_set_up_temporaries_stay_within_budget():
    # L4 p3, budgets in cell fields as above, each between the figure of
    # the earlier set-up and the current one; both include what the call
    # returns:
    # - build_rhs (26.5 -> 10.5): b, and the problem's temporaries of one
    #   block, where the earlier build held the quadrature values and
    #   their product with the shape values over the whole mesh;
    # - build_hierarchy (3.0 -> 1.9): the four meshes, where the earlier
    #   build also held whole-mesh corner and face-record temporaries.
    mesh = build_hierarchy(2, 4)[0]
    basis = make_basis("lobatto", 3)
    field = mesh.ncells * basis.n ** 2 * 8
    _, rhs_bytes = _traced_peak(
        lambda: build_rhs(get_problem("two_peak"), mesh, basis))
    _, mesh_bytes = _traced_peak(lambda: build_hierarchy(2, 4))
    assert rhs_bytes < 16.0 * field
    assert mesh_bytes < 2.5 * field


@pytest.mark.parametrize("variant", ["fused", "tasked"])
def test_trace_reading_state_holds_one_trace_store(variant):
    mesh, basis, blocks = blocks_for("lobatto", 3, 4)
    b = build_rhs(get_problem("two_peak"), mesh, basis)
    with make_state(mesh, basis, blocks, b, variant=variant,
                    workers=2) as st:
        stores = [x for v in vars(st).values()
                  for x in (v if isinstance(v, list) else [v])
                  if isinstance(x, FacetProjection)]
    assert len(stores) == 1 and stores[0] is st.proj[0]
