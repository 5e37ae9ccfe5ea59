"""The benchmark must find every name and setting it uses of hpmg.

perfbench/*.py import names from hpmg and its modules, perfbench/tracing.py
wraps module-level functions of hpmg.multigrid and hpmg.smoother by name,
perfbench/workloads.py builds MgConfig objects by field name, and
perfbench/run.py reads attributes of a SmootherState; renaming, moving or
inlining one of them breaks the benchmark without failing any solver test.
"""

import ast
import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hpmg import (MgConfig, apply_operator, build_rhs, discretisation_error,
                  get_problem, make_partition, solve)
from hpmg.smoother import SWEEPS

from conftest import blocks_for

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("variant, criterion", [
    pytest.param(v, c, id=v if c == "prec" else f"{v}-{c}")
    for c in ("prec", "unprec") for v in SWEEPS])
def test_traced_solve_records_every_layer_and_restores_names(variant,
                                                             criterion):
    tracing = _load("tracing")
    mesh, basis, blocks = blocks_for("lobatto", 2, 1)
    b = build_rhs(get_problem("sin_product"), mesh, basis)
    part = make_partition(mesh, "balanced", 2)
    tracer = tracing.Tracer()
    tracer.new_request()
    cfg = MgConfig(eps=1e-7, variant=variant, criterion=criterion)
    with tracing.traced_layers(tracer):
        res = solve(mesh, basis, blocks, b, cfg, partition=part)
    assert res.trace.converged
    calls = Counter(span[3] for span in tracer.spans)
    for name in ("fields.exchange", "localops.apply_flux"):
        assert calls[name], name
    # a span per call of each layer: a call that leaves hpmg.multigrid's
    # namespace, or a sweep not looked up in SWEEPS, records none.  An
    # unprec stop skips the last cycle's coarse solve
    cycles = res.trace.cycles
    assert (calls["smoother.sweep"], calls["smoother.residual"],
            calls["multigrid.coarse_solve"]) == \
        (cfg.nu * cycles, cycles, cycles - (criterion == "unprec"))
    assert tracing.still_wrapped() == []


def test_every_workload_config_validates():
    workloads = _load("workloads").WORKLOADS
    assert workloads
    for name, w in workloads.items():
        cfg = w.config()
        cfg.validate()
        assert cfg.variant in SWEEPS, name


@pytest.mark.parametrize("name, cycles, total, traversals", [
    ("fine-p3", 11, 194217264, 45),
    ("parts8-p6", 27, 122926167, 109),
    ("coarse-exact-p1", 4, 28118988, 17),
    ("tasked-p3", 15, 3269808, 61),
])
def test_workload_solves_keep_their_integer_invariants(name, cycles, total,
                                                       traversals):
    # each workload's solve at seed 0, as the benchmark sets it up: a
    # change to convergence or to the traversal accounting shows here.
    # The counts follow from the cycle count, so they do not depend on
    # the BLAS build's rounding as long as the cycle count holds.  The
    # solve must also pass the benchmark's own correctness gates, as
    # perfbench/run.py checks them: the true relative residual and the
    # relative error to the exact solution under the workload's bounds
    workloads = _load("workloads")
    w = workloads.WORKLOADS[name]
    case, _ = workloads.set_up(w)
    b = workloads.make_rhs(case, 0)
    res = solve(case.mesh, case.basis, case.blocks, b, w.config(),
                partition=case.partition, cspace=case.cspace)
    assert res.trace.converged
    assert (res.trace.cycles, res.counters.total(),
            res.counters.traversals) == (cycles, total, traversals)
    Au = apply_operator(case.mesh, case.basis, case.blocks, res.u,
                        partition=case.partition)
    rel = np.linalg.norm(b - Au.data) / np.linalg.norm(b)
    assert rel < w.max_rel_residual
    err, _ = discretisation_error(res.u, workloads.PROBLEM, case.mesh,
                                  case.basis)
    assert err < w.max_rel_error


def _hpmg_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    node.module.split(".")[0] == "hpmg":
                yield path.name, node.module, [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "hpmg":
                        yield path.name, a.name, []


def test_every_hpmg_name_perfbench_imports_resolves():
    found = list(_hpmg_imports())
    assert any(names for _, _, names in found)
    for source, module, names in found:
        mod = importlib.import_module(module)
        for name in names:
            # a name is an attribute, or a submodule of a package
            assert hasattr(mod, name) or (
                hasattr(mod, "__path__")
                and importlib.util.find_spec(f"{module}.{name}")), \
                f"{source} imports {name} from {module}, which lacks it"


def _outputs(directory):
    return {f.name: f.stat().st_mtime_ns for f in directory.glob("*")}


@pytest.mark.parametrize("workload, trace", [
    pytest.param("tasked-p3", 0, id="0"),
    pytest.param("tasked-p3", 1, id="1"),
    # the one workload of many blocks on one subdomain: the only one whose
    # fused counters perfbench checks against the model, and whose fused
    # halo and per-block solver tail run in the benchmark's own flow
    pytest.param("coarse-exact-p1", 1, id="coarse-exact-p1-1"),
])
def test_benchmark_runs_a_workload_end_to_end(workload, trace, tmp_path):
    # a short run of a workload, as the benchmark runs it, from a copy of
    # perfbench/ whose src/ links to this checkout's: run.py compares
    # resolved paths, so the copy imports this hpmg and writes its result
    # under tmp_path, not into perfbench/out/
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in PERFBENCH.glob("*.py"):
        shutil.copy(f, bench / f.name)
    (tmp_path / "src").symlink_to(PERFBENCH.parent / "src")
    before = _outputs(PERFBENCH / "out")
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert (bench / "out" / f"{workload}.trace{trace}.json").is_file()
    assert _outputs(PERFBENCH / "out") == before
