import csv
import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import hpmg.bench as bench
from hpmg import MgConfig, memory_access_model
from hpmg.bench import (
    OMEGA_SMOOTHER,
    REF_CYCLES,
    main,
    make_parser,
    predicted_total_accesses,
    run_convergence_study,
    run_cycle_count_table,
    run_equivalence_suite,
    run_model_table,
    run_residual_history,
    run_residual_vs_error,
    solver_config,
)

from conftest import mesh_at


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _read_manifest(path):
    with open(path) as fh:
        return json.load(fh)


MANIFEST_KEYS = {"command", "config", "meshes", "outputs", "build_id",
                 "wall_time_s"}


def test_model_table_matches_closed_forms(tmp_path):
    out = str(tmp_path)
    rows = run_model_table(out=out)
    assert len(rows) == 20
    data = _read_csv(tmp_path / "model.csv")
    for row in data:
        dim, p = int(row["dim"]), int(row["p"])
        assert int(row["vanilla"]) == (2 * dim + 5) * (p + 1) ** dim
        assert int(row["fused"]) == (3 * (p + 1) ** dim
                                     + 7 * dim * (p + 1) ** (dim - 1))
        assert int(row["fused_standalone"]) == int(row["fused"]) + 2 * (p + 1) ** dim
        assert float(row["reduction"]) == pytest.approx(
            int(row["vanilla"]) / int(row["fused"]))
    doc = _read_manifest(tmp_path / "model.json")
    assert MANIFEST_KEYS <= set(doc)
    assert doc["command"] == "model"
    assert doc["outputs"] == ["model.csv"]


def test_manifest_records_numpy_blas_and_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    run_model_table(dims=(2,), p_max=1, out=str(tmp_path))
    env = _read_manifest(tmp_path / "model.json")["environment"]
    assert env["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert env["threads"] == {"OPENBLAS_NUM_THREADS": "3",
                              "OMP_NUM_THREADS": None}


def test_manifest_survives_a_git_call_that_hangs(tmp_path, monkeypatch):
    def hang(cmd, **kw):
        raise bench.subprocess.TimeoutExpired(cmd, kw.get("timeout"))

    monkeypatch.setattr(bench.subprocess, "run", hang)
    run_model_table(dims=(2,), p_max=1, out=str(tmp_path))
    assert _read_manifest(tmp_path / "model.json")["build_id"] == "unknown"


def test_convergence_study(tmp_path):
    out = str(tmp_path)
    rows, slopes = run_convergence_study([1], [1, 2], out=out)
    assert len(rows) == 2 and len(slopes) == 1
    for r in rows:
        assert r[7]  # converged
    # the error drops with refinement at roughly h^(p+1)
    assert rows[1][8] < rows[0][8]
    assert 1.5 < slopes[0][3] < 3.0
    data = _read_csv(tmp_path / "convergence.csv")
    assert [d["level"] for d in data] == ["1", "2"]
    sl = _read_csv(tmp_path / "convergence_slopes.csv")
    assert float(sl[0]["slope_l2"]) == pytest.approx(slopes[0][3])
    doc = _read_manifest(tmp_path / "convergence.json")
    assert doc["config"]["problem"] == "sin_product"
    assert doc["config"]["criterion"] == "prec"
    assert [m["level"] for m in doc["meshes"]] == [1, 2]


def test_convergence_on_zero_problem(tmp_path):
    rows, slopes = run_convergence_study([2], [1], problem="zero",
                                         out=str(tmp_path))
    # zero data short-circuits: no cycles, exact zeros
    assert rows[0][6] == 0
    assert rows[0][8] == 0.0 and rows[0][9] == 0.0
    assert np.isnan(slopes[0][3])


def test_cycle_table_and_reference_column(tmp_path):
    rows = run_cycle_count_table(p_list=(2, 3), levels=(2,), out=str(tmp_path))
    by_p = {r[5]: r for r in rows}
    assert by_p[2][8] == REF_CYCLES[("two_peak", "prec", "lobatto", 2, 2)] == 16
    assert by_p[3][8] == REF_CYCLES[("two_peak", "prec", "lobatto", 2, 3)] == 27
    for r in rows:
        assert r[7]  # converged
        assert 0 < r[6] < 100
    # cycle counts grow with p at fixed level
    assert by_p[3][6] >= by_p[2][6]
    data = _read_csv(tmp_path / "cycles.csv")
    assert list(data[0]) == ["problem", "criterion", "basis", "level",
                             "cells_per_axis", "p", "cycles", "converged",
                             "ref_cycles"]
    assert data[0]["cells_per_axis"] == "9"
    doc = _read_manifest(tmp_path / "cycles.json")
    assert doc["config"]["eps"] == 1e-7
    assert "access_model_per_cell" in doc["config"]
    assert doc["config"]["access_model_per_cell"]["2"]["fused"] == \
        memory_access_model("fused", 2, 2)


def test_reference_table_is_dense_where_defined():
    # every configured (problem, criterion, basis) block covers levels 2..5
    # and p 2..6, minus the two entries left open
    assert len(REF_CYCLES) == 6 * 4 * 5 - 2
    assert ("two_peak", "unprec", "legendre", 5, 6) not in REF_CYCLES
    assert REF_CYCLES[("sin_product", "unprec", "lobatto", 2, 2)] == 12
    assert REF_CYCLES[("two_peak", "unprec", "lobatto", 5, 6)] == 106


def test_residual_history(tmp_path):
    sm_rows, paths = run_residual_history(p=2, level=2, max_sweeps=25,
                                          out=str(tmp_path))
    # plain smoothing is nowhere near 1e-7 after 25 sweeps
    assert len(sm_rows) == 25
    assert sm_rows[-1][3] > 1e-4
    # first iterate-difference entry defines the preconditioned scale
    assert sm_rows[0][6] == 1.0
    rel = [r[3] for r in sm_rows]
    assert all(b <= a for a, b in zip(rel, rel[1:]))
    names = {p.split("/")[-1] for p in map(str, paths)}
    assert names == {"history_smoother.csv", "history_exact.csv",
                     "history_vcycle.csv"}
    ne = len(_read_csv(tmp_path / "history_exact.csv"))
    nv = len(_read_csv(tmp_path / "history_vcycle.csv"))
    # the single V-cycle coarse solve costs at most a couple of extra cycles
    assert abs(ne - nv) <= 2
    doc = _read_manifest(tmp_path / "history.json")
    assert doc["config"]["omega_smoother"] == OMEGA_SMOOTHER
    assert doc["config"]["max_sweeps"] == 25


def test_residual_vs_error(tmp_path):
    rows = run_residual_vs_error(p_list=(2,), levels=(2,), out=str(tmp_path))
    (p, level, h, cycles, converged, rel_err, rel_prec, rel_unprec), = rows
    assert converged
    assert rel_err <= 5e-9
    assert rel_prec <= 1e-7
    # the unpreconditioned residual trails the true error by orders of
    # magnitude, which is the point of the experiment
    assert rel_unprec > 10 * rel_err
    data = _read_csv(tmp_path / "residual_vs_error.csv")
    assert list(data[0]) == ["p", "level", "h", "cycles", "converged",
                             "rel_err_l2", "rel_prec_l2", "rel_unprec_l2"]


def test_equivalence_suite(tmp_path):
    rows, counter_rows, all_ok = run_equivalence_suite(
        p=2, level=1, n_iter=4, subdomains=(1, 2),
        partitions=("balanced",), variants=("vanilla", "fused", "tasked"),
        inverse_modes=("precomputed",), workers=(1, 2), out=str(tmp_path))
    assert all_ok
    # every variant runs once per subdomain count and worker count
    assert len(rows) == 4 + 4 + 4
    for r in rows:
        assert r[6] <= 1e-12
    # the fused baseline runs are bitwise copies of themselves
    assert all(r[7] for r in rows if r[1] in ("fused", "tasked"))
    assert len(counter_rows) == 6
    for c in counter_rows:
        assert c[9]
        assert c[3] == c[4]          # volumetric per cell == model
        assert c[5] == c[6]          # total == entity-resolved prediction
    doc = _read_manifest(tmp_path / "equivalence.json")
    assert doc["config"]["n_iter"] == 4


def test_equivalence_suite_runs_its_worker_rows_on_the_pool(
        tmp_path, recording_pool):
    # L4 has three blocks, so every workers=2 row starts one pool, which
    # its state shuts down; the workers=1 rows and the counter rows start
    # none
    rows, _, all_ok = run_equivalence_suite(
        p=1, level=4, n_iter=2, subdomains=(1, 2),
        partitions=("balanced",), variants=("vanilla", "fused", "tasked"),
        inverse_modes=("precomputed",), workers=(1, 2), out=str(tmp_path))
    assert all_ok
    pooled = [r for r in rows if r[5] == 2]
    assert len(pooled) == 6
    assert len(recording_pool.started) == len(pooled)
    assert all(pool.closed for pool in recording_pool.started)


def test_equivalence_runs_each_distinct_partition_once(tmp_path):
    # at one subdomain geometric is balanced; at two the splits differ
    rows, _, all_ok = run_equivalence_suite(
        p=2, level=1, n_iter=2, subdomains=(1, 2),
        partitions=("balanced", "geometric"), variants=("vanilla", "fused"),
        inverse_modes=("precomputed",), workers=(1,), out=str(tmp_path))
    assert all_ok
    assert len(rows) == 2 * 3
    assert sorted({(r[3], r[4]) for r in rows}) == [
        ("balanced", 1), ("balanced", 2), ("geometric", 2)]


def test_predicted_accesses_consistent_with_bulk_model():
    # the bulk model amortises facets at 3.5 records each; resolving the
    # entities charges boundary facets 4, so the mesh total exceeds the
    # bulk total by half a record per boundary facet
    mesh = mesh_at(2)
    nb = mesh.summary()["boundary_facets"]
    for p in (1, 3):
        pred = predicted_total_accesses(mesh, p, "fused")
        bulk = memory_access_model("fused", 2, p) * mesh.ncells
        assert 2 * (pred - bulk) == nb * (p + 1)
    assert predicted_total_accesses(mesh, 2, "vanilla") == \
        memory_access_model("vanilla", 2, 2) * mesh.ncells


def test_solver_config_overrides():
    cfg = solver_config(None)
    assert (cfg.omega, cfg.nu, cfg.criterion, cfg.coarse) == (0.9, 2, "prec",
                                                              "exact")
    cfg = solver_config(None, omega=0.5, inverse="percell", eps=1e-9)
    assert cfg.omega == 0.5
    assert cfg.inverse_mode == "percell"
    assert cfg.eps == 1e-9

    import argparse

    args = argparse.Namespace(omega=0.7, nu=3, coarse=None, criterion=None,
                              variant=None, inverse=None, workers=None,
                              eps=None, max_cycles=None)
    cfg = solver_config(args, nu=4)
    assert cfg.omega == 0.7 and cfg.nu == 4
    assert args.nu == 3  # the namespace itself is left alone


def test_csv_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cycle_count_table(p_list=(2,), levels=(2,), out=str(a))
    run_cycle_count_table(p_list=(2,), levels=(2,), out=str(b))
    assert (a / "cycles.csv").read_bytes() == (b / "cycles.csv").read_bytes()


def test_cli_subcommands(tmp_path, capsys):
    d = tmp_path / "model"
    assert main(["model", "--out", str(d)]) == 0
    assert "20 model rows" in capsys.readouterr().out
    assert (d / "model.csv").exists()

    d = tmp_path / "cycles"
    assert main(["cycles", "--p", "2", "--levels", "2", "--out", str(d)]) == 0
    out = capsys.readouterr().out
    assert "L2 (9x9) p=2:" in out and "ref=16" in out

    d = tmp_path / "conv"
    assert main(["convergence", "--p", "1", "--levels", "1", "2",
                 "--out", str(d)]) == 0
    assert "slope_l2" in capsys.readouterr().out

    d = tmp_path / "rve"
    assert main(["residual-vs-error", "--p", "2", "--levels", "2",
                 "--out", str(d)]) == 0
    assert "rel_unprec" in capsys.readouterr().out

    d = tmp_path / "eq"
    assert main(["equivalence", "--p", "2", "--levels", "1",
                 "--subdomains", "1", "2", "--out", str(d)]) == 0
    assert "all passed" in capsys.readouterr().out

    d = tmp_path / "history"
    assert main(["history", "--p", "1", "--levels", "1", "--out", str(d)]) == 0
    assert "history_vcycle.csv" in capsys.readouterr().out
    assert (d / "history.json").exists()


def test_cli_rejects_unknown_choices():
    with pytest.raises(SystemExit):
        main(["cycles", "--criterion", "energy"])
    with pytest.raises(SystemExit):
        main(["unknown-command"])


DRIVERS = ("run_convergence_study", "run_cycle_count_table",
           "run_residual_history", "run_residual_vs_error",
           "run_equivalence_suite", "run_model_table")


def _subcommands():
    sub = next(a for a in make_parser()._actions if a.choices)
    return sub.choices


def _other_value(action):
    """Command-line tokens for a value that differs from the flag's default."""
    default = action.default
    if action.choices:
        many = isinstance(default, list)
        return next([c] for c in action.choices
                    if ([c] if many else c) != default)
    if isinstance(default, list):
        return [str(max(default) + 1)]
    if action.type is float:
        return ["0.5" if default != 0.5 else "0.25"]
    return [str(default + 1)]


class _Recorded(Exception):
    pass


def test_every_accepted_flag_reaches_its_driver(monkeypatch):
    calls = []

    def recorder(name):
        def record(*args, **kwargs):
            calls.append((name, args, kwargs))
            raise _Recorded
        return record

    for name in DRIVERS:
        monkeypatch.setattr(bench, name, recorder(name))

    def call(argv):
        with pytest.raises(_Recorded):
            main(argv)
        return calls.pop()

    for cmd, sp in _subcommands().items():
        flags = [a for a in sp._actions
                 if a.option_strings and a.dest not in ("help", "out")]
        assert (cmd == "model") == (flags == [])
        base = call([cmd])
        for action in flags:
            flag = action.option_strings[0]
            changed = call([cmd, flag] + _other_value(action))
            assert changed != base, f"{cmd} {flag} does not reach the driver"


@pytest.mark.parametrize("argv", [
    ["history", "--p", "2", "3"],
    ["residual-vs-error", "--problem", "sin_product"],
    ["equivalence", "--variant", "vanilla"],
    ["model", "--p", "3"],
    ["convergence", "--criterion", "unprec"],
    ["cycles", "--seed", "5"],
])
def test_cli_rejects_flags_the_driver_would_ignore(argv):
    with pytest.raises(SystemExit):
        main(argv)


def test_cycles_manifest_echoes_every_config_field(tmp_path):
    assert main(["cycles", "--p", "2", "--levels", "1", "--coarse", "vcycle",
                 "--out", str(tmp_path)]) == 0
    config = _read_manifest(tmp_path / "cycles.json")["config"]
    for f in dataclasses.fields(MgConfig):
        assert f.name in config, f.name
    assert config["coarse"] == "vcycle"


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [ln.split("#", 1)[0] for ln in block.split("```", 1)[0].splitlines()]
    commands = [shlex.split(ln) for ln in lines if ln.startswith("hpmg-bench")]
    assert len(commands) >= 6
    parser = make_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
