"""The benchmark's layer tracer must find every name it rebinds.

perfbench/tracing.py wraps module-level functions of hpmg.multigrid and
hpmg.smoother by name; renaming or inlining one of them breaks the
benchmark's per-layer metrics without failing any solver test.
"""

import importlib.util
from pathlib import Path

from hpmg import MgConfig, build_rhs, get_problem, make_partition, solve

from conftest import blocks_for

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_records_every_layer_and_restores_names():
    tracing = _load_tracing()
    mesh, basis, blocks = blocks_for("lobatto", 2, 1)
    b = build_rhs(get_problem("sin_product"), mesh, basis)
    part = make_partition(mesh, "balanced", 2)
    tracer = tracing.Tracer()
    tracer.new_request()
    with tracing.traced_layers(tracer):
        res = solve(mesh, basis, blocks, b, MgConfig(eps=1e-7), partition=part)
    assert res.trace.converged
    names = {span[3] for span in tracer.spans}
    for name in ("smoother.sweep", "smoother.residual", "fields.exchange",
                 "localops.apply_flux"):
        assert name in names, name
    assert tracing.still_wrapped() == []
