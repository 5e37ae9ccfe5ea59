"""End-to-end acceptance gate, one test per release criterion.

Every test prints a single "criterion N (...): PASS/FAIL" line; the lines
are echoed in the pytest terminal summary (run with -s to see them inline).
Runtime budgets are part of the criteria and are asserted together with the
numerical checks.  Solver runs that several criteria share are cached at
module scope, so the gate stays well inside its time budgets.
"""

import csv
import json
import time
from dataclasses import fields, replace

import numpy as np

from conftest import ACCEPTANCE_LINES, cspace_at, mesh_at
from oracles import assemble_global

from hpmg import (CellField, MgConfig, apply_operator, build_local_blocks,
                  build_rhs, discretisation_error, fit_slope, get_problem,
                  interpolate_exact, make_basis, make_partition, make_state,
                  memory_access_model, predict_blocks, solve, sweep)
from hpmg.bench import predicted_total_accesses, run_cycle_count_table


def _report(tag, label, ok, detail):
    line = f"criterion {tag} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# -- shared solver runs for the robustness criteria ---------------------------

_RUNS = {}
_T5 = []   # wall time of each robustness sub-test; their sum shares one budget


def _mg_run(problem, criterion, basis, level, p):
    key = (problem, criterion, basis, level, p)
    if key not in _RUNS:
        mesh = mesh_at(level)
        bas = make_basis(basis, p)
        blocks = build_local_blocks(bas, 2, mesh.h)
        b = build_rhs(get_problem(problem), mesh, bas)
        cfg = MgConfig(criterion=criterion, eps=1e-7, max_cycles=300)
        _RUNS[key] = solve(mesh, bas, blocks, b, cfg, cspace=cspace_at(level))
    return _RUNS[key]


def _cycles(problem, criterion, basis, level, p):
    res = _mg_run(problem, criterion, basis, level, p)
    assert res.trace.converged, (problem, criterion, basis, level, p)
    return res.trace.cycles


# -- criterion 1: operator against an independent assembly --------------------

def test_criterion_1_operator_matches_quadrature_assembly():
    t0 = time.monotonic()
    gen = np.random.default_rng(101)
    mesh = mesh_at(1)
    worst = 0.0
    for kind in ("lobatto", "legendre"):
        for p in (1, 2, 3):
            bas = make_basis(kind, p)
            blocks = build_local_blocks(bas, 2, mesh.h)
            A = assemble_global(mesh, bas, -1.0, blocks.gamma)
            for _ in range(30):
                u = gen.normal(size=mesh.ncells * blocks.nloc)
                want = (A @ u).reshape(mesh.ncells, blocks.nloc)
                got = apply_operator(mesh, bas, blocks,
                                     u.reshape(mesh.ncells, blocks.nloc)).data
                dev = np.max(np.abs(got - want)) / np.max(np.abs(want))
                worst = max(worst, dev)
    dt = time.monotonic() - t0
    _report(1, "operator matches independent assembly",
            worst < 1e-10 and dt < 10.0,
            f"max rel dev {worst:.2e} (tol 1e-10), {dt:.1f}s of 10s")


# -- criterion 2: all smoother variants agree --------------------------------

def test_criterion_2_smoother_variants_agree():
    t0 = time.monotonic()
    mesh = mesh_at(3)
    worst = 0.0
    for p in (2, 4):
        bas = make_basis("lobatto", p)
        blocks = build_local_blocks(bas, 2, mesh.h)
        b = build_rhs(get_problem("two_peak"), mesh, bas)

        def run(variant, inverse_mode, workers):
            st = make_state(mesh, bas, blocks, b, omega=0.6, variant=variant,
                            inverse_mode=inverse_mode, workers=workers)
            if variant in ("fused", "tasked"):
                st.warm_up()
            for _ in range(10):
                sweep(st)
            st.close()
            return st.u.data.copy()

        base = run("fused", "precomputed", 1)
        scale = np.max(np.abs(base))
        for variant in ("vanilla", "stages", "fused", "tasked"):
            for inverse_mode in ("precomputed", "percell"):
                for workers in (1, 4):
                    u = run(variant, inverse_mode, workers)
                    worst = max(worst, np.max(np.abs(u - base)) / scale)
    dt = time.monotonic() - t0
    _report(2, "variant x inverse x workers equivalence",
            worst < 1e-12 and dt < 60.0,
            f"max rel dev {worst:.2e} (tol 1e-12), {dt:.1f}s of 60s")


# -- criterion 3: discretisation convergence orders ---------------------------

def test_criterion_3_convergence_orders():
    t0 = time.monotonic()
    prob = get_problem("sin_product")
    cfg = MgConfig(eps=1e-10, max_cycles=400)
    slopes = {}
    for p in (1, 2, 3):
        bas = make_basis("legendre", p)
        hs, errs = [], []
        for level in (2, 3, 4):
            mesh = mesh_at(level)
            blocks = build_local_blocks(bas, 2, mesh.h)
            b = build_rhs(prob, mesh, bas)
            res = solve(mesh, bas, blocks, b, cfg, cspace=cspace_at(level))
            assert res.trace.converged
            hs.append(mesh.h)
            errs.append(discretisation_error(res.u, prob, mesh, bas)[0])
        slopes[p] = fit_slope(hs, errs)
    ok = all(abs(slopes[p] - (p + 1)) <= 0.25 for p in slopes)
    dt = time.monotonic() - t0
    shown = ", ".join(f"p{p}:{s:.2f}" for p, s in slopes.items())
    _report(3, "L2 error slopes are p+1",
            ok and dt < 300.0,
            f"{shown} (want p+1 +- 0.25), {dt:.1f}s of 300s")


# -- criterion 4: memory access model -----------------------------------------

# scalars moved per cell and sweep in the bulk limit, p = 1..10
_MODEL = {
    (2, "vanilla"): [36, 81, 144, 225, 324, 441, 576, 729, 900, 1089],
    (2, "fused"): [40, 69, 104, 145, 192, 245, 304, 369, 440, 517],
    (2, "fused_standalone"): [48, 87, 136, 195, 264, 343, 432, 531, 640, 759],
    (3, "vanilla"): [88, 297, 704, 1375, 2376, 3773, 5632, 8019, 11000, 14641],
    (3, "fused"): [108, 270, 528, 900, 1404, 2058, 2880, 3888, 5100, 6534],
    (3, "fused_standalone"): [124, 324, 656, 1150, 1836, 2744, 3904, 5346,
                              7100, 9196],
}


def test_criterion_4_access_model_and_counters():
    t0 = time.monotonic()
    bad = 0
    for (dim, variant), row in _MODEL.items():
        for p, want in zip(range(1, 11), row):
            if memory_access_model(variant, dim, p) != want:
                bad += 1
    mesh = mesh_at(2)
    counter_ok = True
    for p in range(1, 7):
        bas = make_basis("lobatto", p)
        blocks = build_local_blocks(bas, 2, mesh.h)
        b = CellField(np.zeros((mesh.ncells, blocks.nloc)))
        st = make_state(mesh, bas, blocks, b, variant="fused")
        st.warm_up()
        st.counters.reset()
        sweep(st)
        st.close()
        counter_ok &= st.counters.volumetric() == 3 * mesh.ncells * blocks.nloc
        counter_ok &= st.counters.total() == predicted_total_accesses(
            mesh, p, "fused")
    dt = time.monotonic() - t0
    _report(4, "closed-form access model and live counters",
            bad == 0 and counter_ok and dt < 5.0,
            f"{60 - bad}/60 model entries exact, counters "
            f"{'match' if counter_ok else 'MISMATCH'}, {dt:.1f}s of 5s")


# -- criterion 5: solver robustness -------------------------------------------

def test_criterion_5a_cycles_flat_in_h():
    t0 = time.monotonic()
    table = {p: [_cycles("two_peak", "prec", "lobatto", lv, p)
                 for lv in (2, 3, 4, 5)] for p in (2, 3)}
    ok = all(np.all(np.diff(table[p]) <= 0) for p in table)
    dt = time.monotonic() - t0
    _T5.append(dt)
    shown = "; ".join(f"p{p}: {table[p]}" for p in table)
    _report("5a", "preconditioned cycles non-increasing in level",
            ok, f"{shown}, {dt:.1f}s")


def test_criterion_5b_cycles_grow_in_p():
    t0 = time.monotonic()
    cyc = [_cycles("two_peak", "prec", "lobatto", 3, p) for p in range(2, 7)]
    ok = bool(np.all(np.diff(cyc) > 0))
    dt = time.monotonic() - t0
    _T5.append(dt)
    _report("5b", "preconditioned cycles strictly increasing in p",
            ok, f"p2..6 at level 3: {cyc}, {dt:.1f}s")


def test_criterion_5c_unpreconditioned_contraction():
    t0 = time.monotonic()
    worst = 0.0
    for problem in ("sin_product", "two_peak"):
        for p in (2, 3):
            tr = _mg_run(problem, "unprec", "lobatto", 3, p).trace
            assert tr.converged
            n = len(tr.res_l2)
            rho = (tr.res_l2[-1] / tr.res_l2[0]) ** (1.0 / (n - 1))
            worst = max(worst, rho)
    bound = 10.0 ** (-1.0 / 3.0)
    dt = time.monotonic() - t0
    _T5.append(dt)
    _report("5c", "residual contraction per cycle",
            worst <= bound,
            f"worst mean rate {worst:.3f} (bound {bound:.3f}), {dt:.1f}s")


def test_criterion_5d_basis_independence():
    t0 = time.monotonic()
    worst = 0
    for level in (2, 3, 4):
        for p in range(2, 7):
            gap = abs(_cycles("two_peak", "prec", "legendre", level, p)
                      - _cycles("two_peak", "prec", "lobatto", level, p))
            worst = max(worst, gap)
    dt = time.monotonic() - t0
    _T5.append(dt)
    total = sum(_T5)
    _report("5d", "cycle counts basis-independent",
            worst <= 2 and total < 900.0,
            f"worst basis gap {worst} cycles (bound 2), robustness total "
            f"{total:.1f}s of 900s")


# -- criterion 6: residual flavors vs true error ------------------------------

def test_criterion_6_residual_vs_error():
    t0 = time.monotonic()
    prob = get_problem("two_peak")
    ok = True
    shown = []
    for p in (2, 3):
        rel_un = []
        for level in (2, 3, 4):
            mesh = mesh_at(level)
            bas = make_basis("lobatto", p)
            blocks = build_local_blocks(bas, 2, mesh.h)
            u0 = interpolate_exact(prob, mesh, bas)
            cfg = MgConfig(criterion="error", eps=5e-9, max_cycles=500)
            res = solve(mesh, bas, blocks,
                        CellField(np.zeros_like(u0.data)), cfg,
                        u0=u0.data.copy(), cspace=cspace_at(level))
            ok &= res.trace.converged
            ok &= res.trace.rel_prec()[-1] <= 1e-7
            rfin = apply_operator(mesh, bas, blocks, res.u.data)
            rel_un.append(float(np.linalg.norm(rfin.data)) / res.trace.r0_l2)
        ok &= bool(np.all(np.diff(rel_un) > 0))
        shown.append(f"p{p} unprec {rel_un[0]:.1e}->{rel_un[-1]:.1e}")
    dt = time.monotonic() - t0
    _report(6, "preconditioned residual tracks the error",
            ok and dt < 600.0,
            f"rel prec <= 1e-7 at error 5e-9; {'; '.join(shown)}, "
            f"{dt:.1f}s of 600s")


# -- criterion 7: Schur complement identity and h-scaling ----------------------

def test_criterion_7_schur_identity_and_h_scaling():
    t0 = time.monotonic()
    mesh = mesh_at(1)
    worst = 0.0
    for kind, p in (("lobatto", 2), ("legendre", 3)):
        bas = make_basis(kind, p)
        blocks = build_local_blocks(bas, 2, mesh.h)

        A = assemble_global(mesh, bas, -1.0, blocks.gamma)
        center = int(mesh.cell_rank[1, 1])
        rows = slice(center * blocks.nloc, (center + 1) * blocks.nloc)
        diag = A[rows, rows]
        scale = np.max(np.abs(diag))
        worst = max(worst, np.max(np.abs(blocks.S - diag)) / scale)

        S = blocks.Acc.copy()
        for s in range(blocks.dim):
            for f in (0, 1):
                sig = -1.0 if f == 1 else 1.0
                sv = 1.0 if f == 1 else -1.0
                S += sig * (blocks.Acf_w[s][f] @ (0.5 * sv * blocks.Tval[s][f])
                            + blocks.Acf_wp[s][f] @ (0.5 * blocks.Tder[s][f]))
        worst = max(worst, np.max(np.abs(S - blocks.S)) / scale)

        unit = build_local_blocks(bas, 2, 1.0)
        direct = build_local_blocks(bas, 2, 1.0 / 9.0)
        pred = predict_blocks(unit, 1.0 / 9.0)

        def dev(a, b):
            return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1.0)

        worst = max(worst, dev(pred["Acc"], direct.Acc),
                    dev(pred["Mcell"], direct.Mcell),
                    dev(pred["Mf"], direct.Mf), dev(pred["S"], direct.S),
                    dev(pred["P_loc"], direct.P_loc))
        for s in range(2):
            for f in (0, 1):
                for name in ("Tval", "Tder", "Acf_w", "Acf_wp", "D_int",
                             "D_bnd", "Nb"):
                    worst = max(worst, dev(pred[name][s][f],
                                           getattr(direct, name)[s][f]))
    dt = time.monotonic() - t0
    _report(7, "Schur identity and h-scaling of all blocks",
            worst < 1e-12,
            f"max rel dev {worst:.2e} (tol 1e-12), {dt:.1f}s")


# -- criterion 8: reproducibility from a run manifest --------------------------

def test_criterion_8_bitwise_reproducibility_from_manifest(tmp_path):
    t0 = time.monotonic()
    run_cycle_count_table(p_list=(2,), levels=(2,), out=str(tmp_path))
    with open(tmp_path / "cycles.json") as fh:
        man = json.load(fh)
    with open(tmp_path / "cycles.csv") as fh:
        rec = next(iter(csv.DictReader(fh)))
    knobs = man["config"]

    level, p = knobs["levels"][0], knobs["p"][0]
    mesh = mesh_at(level)
    bas = make_basis(knobs["basis"], p)
    blocks = build_local_blocks(bas, 2, mesh.h, theta=knobs["theta"],
                                penalty_const=knobs["penalty_const"])
    cfg = MgConfig(**{f.name: knobs[f.name] for f in fields(MgConfig)})
    b = build_rhs(get_problem(knobs["problem"]), mesh, bas)
    cspace = cspace_at(level)

    base = solve(mesh, bas, blocks, b, cfg, cspace=cspace)
    ok = base.trace.cycles == int(rec["cycles"])
    reruns = [
        solve(mesh, bas, blocks, b, cfg, cspace=cspace,
              partition=make_partition(mesh, "balanced", 4)),
        solve(mesh, bas, blocks, b, cfg, cspace=cspace,
              partition=make_partition(mesh, "geometric", 3)),
        solve(mesh, bas, blocks, b, replace(cfg, variant="tasked", workers=4),
              cspace=cspace,
              partition=make_partition(mesh, "balanced", 4)),
    ]
    for res in reruns:
        ok &= bool(np.array_equal(res.u.data, base.u.data))
        ok &= res.trace.cycles == base.trace.cycles
    dt = time.monotonic() - t0
    _report(8, "bitwise reproducibility from manifest",
            ok,
            f"recorded {rec['cycles']} cycles; {len(reruns)} partition/worker "
            f"replays bit-identical, {dt:.1f}s")
