"""Experiment drivers and the command line harness.

Each driver reproduces one solver study end to end: discretisation-error
convergence, two-grid cycle-count tables, residual histories, the
error-versus-residual stopping study, cross-variant equivalence, and the
closed-form access-count model.  Every driver writes CSV files plus a JSON
manifest, so a run can be reproduced bit for bit from its manifest.

The solver drivers take one MgConfig and fix only the stopping settings
their study defines; the manifest echoes every field of the config the
solves used, plus the discretisation knobs.  Each `hpmg-bench` subcommand
accepts exactly the flags its driver reads, and `solver_config` is the one
map from flag names to MgConfig fields.

The cycle tables carry a ref_cycles column with reference counts for the
standard configurations of the same experiment design, for side-by-side
trend comparison; the solver's own counts depend on the relaxation and
penalty choices and are validated by trend, not digit by digit.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from .basis import make_basis
from .fields import CellField, fmt_float
from .localops import build_local_blocks, memory_access_model
from .mesh import build_hierarchy, make_partition
from .multigrid import MgConfig, build_coarse_space, solve
from .problems import (PROBLEMS, build_rhs, discretisation_error, fit_slope,
                       get_problem, interpolate_exact)
from .smoother import (INVERSE_MODES, SWEEPS, apply_operator,
                       compute_residual_only, make_state, sweep)

OMEGA_SMOOTHER = 0.6   # standalone block-Jacobi default; two-grid uses MgConfig


# -- reference cycle counts -----------------------------------------------------
# Counts published for this experiment design (reduction 1e-7, levels 2..5,
# p 2..6); keyed by (problem, criterion, basis, level, p).  Used only as a
# side-by-side column in the emitted tables.

def _ref_table(rows):
    out = {}
    for (prob, crit, bk), by_level in rows.items():
        for level, counts in by_level.items():
            for p, c in zip((2, 3, 4, 5, 6), counts):
                if c is not None:
                    out[(prob, crit, bk, level, p)] = c
    return out


REF_CYCLES = _ref_table({
    ("sin_product", "unprec", "lobatto"): {
        2: (12, 24, 43, 63, 89),
        3: (13, 23, 41, 61, 86),
        4: (13, 22, 41, 61, 85),
        5: (13, 22, 41, 61, 85),
    },
    ("two_peak", "unprec", "lobatto"): {
        2: (19, 36, 59, 89, 125),
        3: (18, 33, 55, 82, 116),
        4: (17, 31, 52, 78, 111),
        5: (16, 30, 50, 75, 106),
    },
    ("sin_product", "prec", "lobatto"): {
        2: (11, 20, 32, 46, 62),
        3: (9, 15, 25, 35, 47),
        4: (7, 12, 19, 26, 35),
        5: (7, 9, 13, 18, 22),
    },
    ("two_peak", "prec", "lobatto"): {
        2: (16, 27, 43, 61, 82),
        3: (12, 19, 29, 41, 55),
        4: (9, 14, 21, 29, 39),
        5: (8, 10, 15, 20, 26),
    },
    ("two_peak", "unprec", "legendre"): {
        2: (20, 37, 62, 92, 131),
        3: (19, 34, 57, 85, 122),
        4: (18, 33, 55, 82, 117),
        5: (17, 31, 53, 78, None),
    },
    ("two_peak", "prec", "legendre"): {
        2: (16, 27, 43, 61, 82),
        3: (12, 19, 29, 41, 55),
        4: (9, 13, 21, 29, 38),
        5: (8, 10, 15, 20, None),
    },
})


# -- plumbing --------------------------------------------------------------------

def _build_id():
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=here, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def _environment():
    """The numpy and BLAS build and the BLAS thread settings: the iterates
    are bitwise reproducible only on the same BLAS build."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # older numpy has no dict mode
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v)
                    for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _fmt(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def write_manifest(out, name, command, config, meshes, outputs, wall):
    doc = {
        "command": command,
        "config": config,
        "meshes": meshes,
        "outputs": [os.path.basename(p) for p in outputs],
        "build_id": _build_id(),
        "environment": _environment(),
        "wall_time_s": round(wall, 3),
    }
    path = os.path.join(out, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


class _Setup:
    """Caches meshes, coarse spaces and assembled blocks across solves."""

    def __init__(self):
        self.meshes = {}
        self.cspaces = {}

    def mesh(self, level):
        if level not in self.meshes:
            self.meshes[level] = build_hierarchy(2, level)[0]
        return self.meshes[level]

    def cspace(self, level):
        if level not in self.cspaces:
            self.cspaces[level] = build_coarse_space(2, level)
        return self.cspaces[level]

    def assemble(self, level, p, basis_kind, theta, penalty):
        mesh = self.mesh(level)
        basis = make_basis(basis_kind, p)
        blocks = build_local_blocks(basis, 2, mesh.h, theta=theta,
                                    penalty_const=penalty)
        return mesh, basis, blocks


def solver_config(args_like=None, **kw):
    """MgConfig from CLI-style overrides; None keeps the library default."""
    cfg = MgConfig()
    src = dict(vars(args_like)) if args_like is not None else {}
    src.update(kw)
    for name, attr in (("omega", "omega"), ("nu", "nu"), ("coarse", "coarse"),
                       ("criterion", "criterion"), ("variant", "variant"),
                       ("inverse", "inverse_mode"), ("workers", "workers"),
                       ("eps", "eps"), ("max_cycles", "max_cycles")):
        v = src.get(name)
        if v is not None:
            setattr(cfg, attr, v)
    return cfg


def predicted_total_accesses(mesh, p, variant):
    """Entity-resolved access count for one sweep on a concrete mesh.

    The closed-form model amortizes facet work over cells in the bulk
    limit (d interior facets per cell); on a finite mesh the same
    per-entity counts are 7 facet records per interior facet, 4 per
    boundary facet, and the model's volumetric term per cell.
    """
    dim = mesh.dim
    nloc = (p + 1) ** dim
    nf = (p + 1) ** (dim - 1)
    nb = int(np.sum(mesh.facet_cells[:, 1] < 0))
    ni = mesh.nfacets - nb
    vol = {"vanilla": (2 * dim + 5), "fused": 3, "fused_standalone": 5}[variant]
    facet = 0 if variant == "vanilla" else (7 * ni + 4 * nb) * nf
    return mesh.ncells * vol * nloc + facet


def access_model_echo(p_list, dim=2):
    return {str(p): {v: memory_access_model(v, dim, p)
                     for v in ("vanilla", "fused", "fused_standalone")}
            for p in p_list}


# -- drivers ---------------------------------------------------------------------

def run_convergence_study(p_list, levels, problem="sin_product",
                          basis="lobatto", theta=-1.0, penalty=1.0,
                          out=".", cfg=None):
    """Discretisation error over (p, level) plus fitted slopes."""
    t0 = time.time()
    os.makedirs(out, exist_ok=True)
    setup = _Setup()
    prob = get_problem(problem)
    cfg = replace(cfg or MgConfig(), criterion="prec", eps=1e-10,
                  max_cycles=300)
    rows, slope_rows = [], []
    for p in p_list:
        errs2, errsi, hs = [], [], []
        for level in levels:
            mesh, bas, blocks = setup.assemble(level, p, basis, theta, penalty)
            b = build_rhs(prob, mesh, bas)
            res = solve(mesh, bas, blocks, b, cfg, cspace=setup.cspace(level))
            e2, ei = discretisation_error(res.u, prob, mesh, bas)
            rows.append((problem, basis, p, level, mesh.h,
                         mesh.ncells * bas.n ** 2, res.trace.cycles,
                         res.trace.converged, e2, ei))
            errs2.append(e2); errsi.append(ei); hs.append(mesh.h)
        slope_rows.append((problem, basis, p, fit_slope(hs, errs2),
                           fit_slope(hs, errsi)))
    paths = [
        write_csv(os.path.join(out, "convergence.csv"),
                  ["problem", "basis", "p", "level", "h", "dofs", "cycles",
                   "converged", "err_l2", "err_linf"], rows),
        write_csv(os.path.join(out, "convergence_slopes.csv"),
                  ["problem", "basis", "p", "slope_l2", "slope_linf"],
                  slope_rows),
    ]
    write_manifest(out, "convergence.json", "convergence",
                   dict(asdict(cfg), basis=basis, theta=theta,
                        penalty_const=penalty, p=list(p_list),
                        levels=list(levels), problem=problem),
                   [setup.mesh(lv).summary() for lv in levels],
                   paths, time.time() - t0)
    return rows, slope_rows


def run_cycle_count_table(p_list=(2, 3, 4, 5, 6), levels=(2, 3, 4, 5),
                          problem="two_peak", criterion="prec",
                          basis="lobatto", theta=-1.0, penalty=1.0,
                          out=".", cfg=None):
    """Cycles to reduce the chosen residual flavor by 1e-7."""
    t0 = time.time()
    os.makedirs(out, exist_ok=True)
    setup = _Setup()
    prob = get_problem(problem)
    cfg = replace(cfg or MgConfig(), criterion=criterion, eps=1e-7,
                  max_cycles=500)
    rows = []
    for level in levels:
        for p in p_list:
            mesh, bas, blocks = setup.assemble(level, p, basis, theta, penalty)
            b = build_rhs(prob, mesh, bas)
            res = solve(mesh, bas, blocks, b, cfg, cspace=setup.cspace(level))
            ref = REF_CYCLES.get((problem, criterion, basis, level, p), "")
            rows.append((problem, criterion, basis, level, mesh.n, p,
                         res.trace.cycles, res.trace.converged, ref))
    path = write_csv(os.path.join(out, "cycles.csv"),
                     ["problem", "criterion", "basis", "level",
                      "cells_per_axis", "p", "cycles", "converged",
                      "ref_cycles"], rows)
    write_manifest(out, "cycles.json", "cycles",
                   dict(asdict(cfg), basis=basis, theta=theta,
                        penalty_const=penalty, p=list(p_list),
                        levels=list(levels), problem=problem,
                        access_model_per_cell=access_model_echo(p_list)),
                   [setup.mesh(lv).summary() for lv in levels],
                   [path], time.time() - t0)
    return rows


def run_residual_history(problem="two_peak", p=2, level=3, basis="lobatto",
                         theta=-1.0, penalty=1.0, max_sweeps=1000,
                         omega_smoother=OMEGA_SMOOTHER, out=".", cfg=None):
    """Residual evolution for the standalone smoother and for the two-grid
    solver with the exact and the V-cycle coarse solve."""
    t0 = time.time()
    os.makedirs(out, exist_ok=True)
    setup = _Setup()
    prob = get_problem(problem)
    mesh, bas, blocks = setup.assemble(level, p, basis, theta, penalty)
    b = build_rhs(prob, mesh, bas)
    cfg = replace(cfg or MgConfig(), criterion="unprec", eps=1e-7,
                  max_cycles=500)

    sm_rows = []
    with make_state(mesh, bas, blocks, b.copy(), omega=omega_smoother,
                    variant=cfg.variant, inverse_mode=cfg.inverse_mode,
                    workers=cfg.workers, track_old=True) as st:
        r0 = compute_residual_only(st)
        n0_2 = float(np.linalg.norm(r0.data))
        n0_i = float(np.max(np.abs(r0.data)))
        d1 = None
        for it in range(1, max_sweeps + 1):
            sweep(st)
            r = compute_residual_only(st)
            r2 = float(np.linalg.norm(r.data))
            ri = float(np.max(np.abs(r.data)))
            diff = float(np.linalg.norm(st.u.data - st.u_old.data))
            if d1 is None:
                d1 = diff if diff > 0 else 1.0
            sm_rows.append((it, r2, ri, r2 / n0_2, ri / n0_i, diff, diff / d1))
            if r2 <= 1e-7 * n0_2:
                break
    paths = [write_csv(os.path.join(out, "history_smoother.csv"),
                       ["sweep", "res_l2", "res_linf", "rel_res_l2",
                        "rel_res_linf", "prec_l2", "rel_prec_l2"], sm_rows)]

    modes = ("exact", "vcycle")
    for mode in modes:
        res = solve(mesh, bas, blocks, b.copy(), replace(cfg, coarse=mode),
                    cspace=setup.cspace(level))
        tr_path = os.path.join(out, f"history_{mode}.csv")
        res.trace.to_csv(tr_path)
        paths.append(tr_path)

    knobs = asdict(cfg)
    del knobs["coarse"]
    write_manifest(out, "history.json", "history",
                   dict(knobs, coarse_modes=list(modes), basis=basis,
                        theta=theta, penalty_const=penalty, p=p,
                        levels=[level], problem=problem,
                        omega_smoother=omega_smoother, max_sweeps=max_sweeps,
                        access_model_per_cell=access_model_echo([p])),
                   [mesh.summary()], paths, time.time() - t0)
    return sm_rows, paths


def run_residual_vs_error(p_list=(2, 3), levels=(2, 3, 4), basis="lobatto",
                          theta=-1.0, penalty=1.0, out=".", cfg=None):
    """Solve A u = 0 from the two-peak interpolant until the solution error
    drops below 5e-9, then report both residual flavors."""
    t0 = time.time()
    os.makedirs(out, exist_ok=True)
    setup = _Setup()
    prob = get_problem("two_peak")
    cfg = replace(cfg or MgConfig(), criterion="error", eps=5e-9,
                  max_cycles=500)
    rows = []
    for p in p_list:
        for level in levels:
            mesh, bas, blocks = setup.assemble(level, p, basis, theta, penalty)
            u0 = interpolate_exact(prob, mesh, bas)
            res = solve(mesh, bas, blocks,
                        CellField(np.zeros_like(u0.data)), cfg,
                        u0=u0.data.copy(), cspace=setup.cspace(level))
            rfin = apply_operator(mesh, bas, blocks, res.u.data)
            rel_unprec = float(np.linalg.norm(rfin.data)) / res.trace.r0_l2
            rows.append((p, level, mesh.h, res.trace.cycles,
                         res.trace.converged, res.trace.rel_err()[-1],
                         res.trace.rel_prec()[-1], rel_unprec))
    path = write_csv(os.path.join(out, "residual_vs_error.csv"),
                     ["p", "level", "h", "cycles", "converged", "rel_err_l2",
                      "rel_prec_l2", "rel_unprec_l2"], rows)
    write_manifest(out, "residual_vs_error.json", "residual-vs-error",
                   dict(asdict(cfg), basis=basis, theta=theta,
                        penalty_const=penalty, p=list(p_list),
                        levels=list(levels), problem="two_peak",
                        access_model_per_cell=access_model_echo(p_list)),
                   [setup.mesh(lv).summary() for lv in levels],
                   [path], time.time() - t0)
    return rows


def run_equivalence_suite(p=3, level=3, problem="two_peak", basis="lobatto",
                          theta=-1.0, penalty=1.0, n_iter=10,
                          subdomains=(1, 2, 4, 8),
                          partitions=("balanced", "geometric"),
                          variants=tuple(SWEEPS),
                          inverse_modes=INVERSE_MODES,
                          workers=(1, 4), omega=OMEGA_SMOOTHER, out="."):
    """Iterate-invariance across variants, distinct partitions, and worker
    counts, plus instrumented-counter agreement with the access model."""
    t0 = time.time()
    os.makedirs(out, exist_ok=True)
    setup = _Setup()
    mesh, bas, blocks = setup.assemble(level, p, basis, theta, penalty)
    b = build_rhs(get_problem(problem), mesh, bas)

    def iterate(variant, inverse, part, nworkers):
        with make_state(mesh, bas, blocks, b.copy(), partition=part,
                        omega=omega, variant=variant, inverse_mode=inverse,
                        workers=nworkers) as st:
            for _ in range(n_iter):
                sweep(st)
        return st.u.data, st.counters

    # each distinct split runs once: at one subdomain every mode is the
    # same single range
    parts = {}
    for pmode in partitions:
        for nparts in subdomains:
            part = make_partition(mesh, pmode, nparts)
            parts.setdefault(tuple(part.starts), part)
    base, _ = iterate("fused", "precomputed",
                      make_partition(mesh, "balanced", 1), 1)
    scale = float(np.max(np.abs(base)))
    rows = []
    all_ok = True
    for variant in variants:
        for inverse in inverse_modes:
            for part in parts.values():
                for nworkers in workers:
                    u, _ = iterate(variant, inverse, part, nworkers)
                    dev = float(np.max(np.abs(u - base))) / scale
                    bitwise = bool(np.array_equal(u, base))
                    passed = dev <= 1e-12
                    all_ok &= passed
                    rows.append(("iterate", variant, inverse, part.mode,
                                 part.nparts, nworkers, dev, bitwise, passed))

    counter_rows = []
    for pp in range(1, 7):
        bas_p = make_basis(basis, pp)
        blocks_p = build_local_blocks(bas_p, 2, mesh.h, theta=theta,
                                      penalty_const=penalty)
        b_p = build_rhs(get_problem(problem), mesh, bas_p)
        with make_state(mesh, bas_p, blocks_p, b_p, omega=omega) as st:
            st.warm_up()
            st.counters.reset()
            sweep(st)
        vol_cell = st.counters.volumetric() / mesh.ncells
        total = st.counters.total()
        model = memory_access_model("fused", 2, pp)
        predicted = predicted_total_accesses(mesh, pp, "fused")
        passed = vol_cell == 3 * (pp + 1) ** 2 and total == predicted
        all_ok &= passed
        counter_rows.append(("counter", "fused", pp, vol_cell,
                             3 * (pp + 1) ** 2, total, predicted,
                             total / mesh.ncells, model, passed))

    paths = [
        write_csv(os.path.join(out, "equivalence.csv"),
                  ["kind", "variant", "inverse", "partition", "subdomains",
                   "workers", "max_rel_dev", "bitwise", "passed"], rows),
        write_csv(os.path.join(out, "equivalence_counters.csv"),
                  ["kind", "variant", "p", "vol_per_cell", "model_vol",
                   "total", "predicted_total", "total_per_cell",
                   "model_bulk_per_cell", "passed"], counter_rows),
    ]
    write_manifest(out, "equivalence.json", "equivalence",
                   {"p": p, "levels": [level], "problem": problem,
                    "basis": basis, "theta": theta, "penalty_const": penalty,
                    "n_iter": n_iter, "subdomains": list(subdomains),
                    "partitions": list(partitions),
                    "variants": list(variants),
                    "inverse_modes": list(inverse_modes),
                    "worker_counts": list(workers), "omega_smoother": omega,
                    "access_model_per_cell": access_model_echo(range(1, 7))},
                   [mesh.summary()], paths, time.time() - t0)
    return rows, counter_rows, all_ok


def run_model_table(dims=(2, 3), p_max=10, out="."):
    """Closed-form access counts per cell and sweep."""
    t0 = time.time()
    os.makedirs(out, exist_ok=True)
    rows = []
    for dim in dims:
        for p in range(1, p_max + 1):
            v = memory_access_model("vanilla", dim, p)
            f = memory_access_model("fused", dim, p)
            s = memory_access_model("fused_standalone", dim, p)
            rows.append((dim, p, v, f, s, v / f, v / s))
    path = write_csv(os.path.join(out, "model.csv"),
                     ["dim", "p", "vanilla", "fused", "fused_standalone",
                      "reduction", "reduction_standalone"], rows)
    write_manifest(out, "model.json", "model",
                   {"dims": list(dims), "p_max": p_max}, [], [path],
                   time.time() - t0)
    return rows


# -- CLI -------------------------------------------------------------------------
# Each subcommand takes exactly the flags its driver reads.

def _add_grid(sp, p, levels):
    """--p and --levels: lists when the defaults are lists, else one value."""
    for flag, default in (("--p", p), ("--levels", levels)):
        sp.add_argument(flag, type=int, default=default,
                        nargs="+" if isinstance(default, list) else None)


def _add_discretisation(sp, problem):
    if problem is not None:
        sp.add_argument("--problem", default=problem, choices=list(PROBLEMS))
    sp.add_argument("--basis", default="lobatto",
                    choices=["lobatto", "legendre"])
    sp.add_argument("--theta", type=float, default=-1.0)
    sp.add_argument("--penalty", type=float, default=1.0)


def _add_solver(sp, coarse=True, omega=MgConfig.omega, omega_help=None):
    sp.add_argument("--omega", type=float, default=omega, help=omega_help)
    sp.add_argument("--nu", type=int, default=MgConfig.nu)
    if coarse:
        sp.add_argument("--coarse", default=MgConfig.coarse,
                        choices=["exact", "vcycle"])
    sp.add_argument("--variant", default=MgConfig.variant,
                    choices=list(SWEEPS))
    sp.add_argument("--inverse", default=MgConfig.inverse_mode,
                    choices=list(INVERSE_MODES))
    sp.add_argument("--workers", type=int, default=MgConfig.workers)


def make_parser():
    ap = argparse.ArgumentParser(
        prog="hpmg-bench",
        description="Benchmark harness for the matrix-free two-grid solver.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("convergence",
                        help="discretisation error and its slopes in h")
    _add_grid(sp, [1, 2, 3], [2, 3, 4])
    _add_discretisation(sp, "sin_product")
    _add_solver(sp)

    sp = sub.add_parser("cycles",
                        help="two-grid cycles to a 1e-7 residual reduction")
    _add_grid(sp, [2, 3, 4, 5, 6], [2, 3, 4, 5])
    _add_discretisation(sp, "two_peak")
    _add_solver(sp)
    sp.add_argument("--criterion", default="prec", choices=["prec", "unprec"])

    sp = sub.add_parser("history", help="residual per smoother sweep and per "
                        "two-grid cycle, with both coarse solves")
    _add_grid(sp, 2, 3)
    _add_discretisation(sp, "two_peak")
    _add_solver(sp, coarse=False, omega=None, omega_help=(
        "relaxation weight of the standalone smoother and the two-grid "
        f"solves (default: {OMEGA_SMOOTHER} and {MgConfig.omega})"))

    sp = sub.add_parser("residual-vs-error",
                        help="both residual flavors at a fixed error on two_peak")
    _add_grid(sp, [2, 3], [2, 3, 4])
    _add_discretisation(sp, None)
    _add_solver(sp)

    sp = sub.add_parser("equivalence", help="iterates agree across variants, "
                        "inverse modes, partitions and workers")
    _add_grid(sp, 3, 3)
    _add_discretisation(sp, "two_peak")
    sp.add_argument("--omega", type=float, default=OMEGA_SMOOTHER)
    sp.add_argument("--subdomains", type=int, nargs="+", default=[1])
    sp.add_argument("--partition", nargs="+", choices=["balanced", "geometric"],
                    default=["balanced", "geometric"])
    sp.add_argument("--workers", type=int, default=1,
                    help="every variant runs with 1 and this many workers")

    sub.add_parser("model", help="closed-form access counts per cell")
    for sp in sub.choices.values():
        sp.add_argument("--out", default=".", help="output directory")
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    if args.cmd == "convergence":
        rows, slopes = run_convergence_study(
            args.p, args.levels, args.problem, args.basis, args.theta,
            args.penalty, out=args.out, cfg=solver_config(args))
        for r in slopes:
            print(f"p={r[2]}: slope_l2={r[3]:.3f} slope_linf={r[4]:.3f}")
    elif args.cmd == "cycles":
        rows = run_cycle_count_table(
            args.p, args.levels, args.problem, args.criterion, args.basis,
            args.theta, args.penalty, out=args.out, cfg=solver_config(args))
        for r in rows:
            ref = f" ref={r[8]}" if r[8] != "" else ""
            print(f"L{r[3]} ({r[4]}x{r[4]}) p={r[5]}: {r[6]} cycles{ref}")
    elif args.cmd == "history":
        omega_sm = OMEGA_SMOOTHER if args.omega is None else args.omega
        sm_rows, paths = run_residual_history(
            args.problem, args.p, args.levels, args.basis, args.theta,
            args.penalty, omega_smoother=omega_sm, out=args.out,
            cfg=solver_config(args))
        print(f"smoother sweeps recorded: {len(sm_rows)} "
              f"(final rel_res={sm_rows[-1][3]:.3e}); outputs: "
              + ", ".join(os.path.basename(q) for q in paths))
    elif args.cmd == "residual-vs-error":
        rows = run_residual_vs_error(
            args.p, args.levels, args.basis, args.theta, args.penalty,
            out=args.out, cfg=solver_config(args))
        for r in rows:
            print(f"p={r[0]} L{r[1]}: cycles={r[3]} rel_err={r[5]:.2e} "
                  f"rel_prec={r[6]:.2e} rel_unprec={r[7]:.2e}")
    elif args.cmd == "equivalence":
        rows, counter_rows, all_ok = run_equivalence_suite(
            args.p, args.levels, args.problem, args.basis, args.theta,
            args.penalty, subdomains=tuple(args.subdomains),
            partitions=tuple(args.partition),
            workers=tuple(sorted({1, args.workers})), omega=args.omega,
            out=args.out)
        nbit = sum(1 for r in rows if r[7])
        print(f"iterate checks: {len(rows)} ({nbit} bitwise), "
              f"counter checks: {len(counter_rows)}, "
              f"{'all passed' if all_ok else 'FAILURES'}")
        if not all_ok:
            return 1
    elif args.cmd == "model":
        rows = run_model_table(out=args.out)
        print(f"wrote {len(rows)} model rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
