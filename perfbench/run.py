"""hpmg benchmark: time to solution on four workloads, with layer tracing.

Run from the root of an hpmg checkout:

    python3 perfbench/run.py --workload fine-p3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, one process each

One workload per process.  The process sets the case up several times
(median set-up time), runs one short untimed warm-up solve, then solves
in a closed loop, one solve at a time, for --seconds.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced solves and reports per-layer metrics from the spans (see
tracing.py).  Every solve is checked; the last line of standard output is
the JSON result, and the exit code is 1 when a check failed.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:            # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# smallest set-up sample: repeat until both are reached
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 5, 1.5, 100
WARMUP_CYCLES = 2
MIN_SOLVES = 2
TABLE_SWEEPS = 3


def load_hpmg():
    """Import hpmg from this checkout's src/, never from elsewhere."""
    init = SRC / "hpmg" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from an hpmg checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import hpmg
    if Path(hpmg.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported hpmg from {hpmg.__file__}, not {init}")


load_hpmg()    # the imports below must resolve against this checkout
import numpy as np
import hpmg.multigrid as mg
from hpmg import (apply_operator, discretisation_error, make_state,
                  memory_access_model, sweep)
from hpmg.bench import predicted_total_accesses
from tracing import SOLVE, Tracer, still_wrapped, traced_layers
from workloads import PROBLEM, SETUP_STEPS, WORKLOADS, make_rhs, set_up


# -- environment --------------------------------------------------------------

def _git_id():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _llc_bytes():
    """Size of the highest cache level of cpu0, from sysfs."""
    best = (0, None)
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 2 ** 10, "M": 2 ** 20}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KM")) * mult))
    return best[1]


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for f in sorted((SRC / "hpmg").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "build_id": _git_id(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "llc_bytes": _llc_bytes(),
    }


# -- checks -------------------------------------------------------------------

def bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def true_rel_residual(case, b, u):
    Au = apply_operator(case.mesh, case.basis, case.blocks, u,
                        partition=case.partition)
    return float(np.linalg.norm(b - Au.data) / np.linalg.norm(b))


class Checks:
    def __init__(self):
        self.failures = []

    def require(self, ok, what):
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr, flush=True)
        return ok


# -- set-up and the closed loop -----------------------------------------------

def repeated_setup(w):
    """Set up at least SETUP_MIN_REPS times and SETUP_MIN_S seconds;
    returns the last case and the per-step times of every repetition."""
    reps, spent = [], 0.0
    while len(reps) < SETUP_MAX_REPS and (len(reps) < SETUP_MIN_REPS
                                           or spent < SETUP_MIN_S):
        case = None             # never hold two cases at once
        gc.collect()
        case, steps = set_up(w)
        reps.append(steps)
        spent += sum(steps.values())
    return case, reps


class Solves:
    """Timed solves of one run; the first successful one is the reference
    every later iterate must equal bitwise."""

    def __init__(self, w, case, b, checks, tracer=None):
        self.w, self.case, self.b, self.checks = w, case, b, checks
        self.cfg = w.config()
        self.plain = mg.solve
        self.traced = tracer.wrap(SOLVE, mg.solve) if tracer else None
        self.tracer = tracer
        self.ref = None
        self.true_residual = self.error = None
        self.times = {False: [], True: []}
        self.attempted = self.failed = 0

    def call(self, fn, cfg):
        c = self.case
        return fn(c.mesh, c.basis, c.blocks, self.b, cfg,
                  partition=c.partition, cspace=c.cspace)

    def warm_up(self):
        self.call(self.plain, self.w.config(max_cycles=WARMUP_CYCLES))

    def one(self, traced):
        self.attempted += 1
        gc.collect()
        try:
            if traced:
                self.tracer.new_request()
                with traced_layers(self.tracer):
                    t0 = time.perf_counter()
                    res = self.call(self.traced, self.cfg)
                    dt = time.perf_counter() - t0
            else:
                wrapped = still_wrapped()
                if not self.checks.require(not wrapped,
                                           f"names left wrapped: {wrapped}"):
                    self.failed += 1
                    return
                t0 = time.perf_counter()
                res = self.call(self.plain, self.cfg)
                dt = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.checks.require(False, f"solve {self.attempted} raised")
            self.failed += 1
            return
        if self._check(res, traced):
            self.times[traced].append(dt)
        else:
            self.failed += 1

    def _check(self, res, traced):
        tag = f"solve {self.attempted}{' (traced)' if traced else ''}"
        ok = self.checks.require(res.trace.converged, f"{tag} did not converge")
        if self.ref is None:
            # later iterates equal this one bitwise, so the gates on the
            # reference hold for them too
            c, w = self.case, self.w
            rel = true_rel_residual(c, self.b, res.u)
            err, _ = discretisation_error(res.u, PROBLEM, c.mesh, c.basis)
            self.true_residual, self.error = rel, err
            ok &= self.checks.require(
                rel < w.max_rel_residual, f"{tag}: true relative residual "
                f"{rel:.3e} >= {w.max_rel_residual:g}")
            ok &= self.checks.require(
                err < w.max_rel_error, f"{tag}: relative error to the exact "
                f"solution {err:.3e} >= {w.max_rel_error:g}")
            if ok:
                self.ref = res
            return ok
        ok &= self.checks.require(res.trace.cycles == self.ref.trace.cycles,
                                  f"{tag}: {res.trace.cycles} cycles, "
                                  f"reference {self.ref.trace.cycles}")
        ok &= self.checks.require(bitwise_equal(res.u.data, self.ref.u.data),
                                  f"{tag}: iterate differs from the reference")
        return ok

    def loop(self, seconds):
        """Closed loop for `seconds`: start another solve while its
        expected midpoint lies inside the window.  With a tracer,
        untraced and traced solves alternate, untraced first."""
        t_start = time.perf_counter()
        while True:
            self.one(self.tracer is not None and self.attempted % 2 == 1)
            if self.attempted < MIN_SOLVES:
                continue
            done = self.times[False] + self.times[True]
            elapsed = time.perf_counter() - t_start
            if not done or elapsed + 0.5 * median(done) > seconds:
                return


# -- standalone sweeps --------------------------------------------------------

def sweep_loop(case, b, variant, omega, workers=1):
    """TABLE_SWEEPS timed sweep() calls after one untimed one; returns
    (median ms, scalars counted per timed sweep, state after the loop)."""
    st = make_state(case.mesh, case.basis, case.blocks, b,
                    partition=case.partition, omega=omega, variant=variant,
                    workers=workers)
    try:
        if variant in ("fused", "tasked"):
            st.warm_up()
        sweep(st)
        ms, scalars = [], []
        for _ in range(TABLE_SWEEPS):
            st.counters.reset()
            t0 = time.perf_counter()
            sweep(st)
            ms.append((time.perf_counter() - t0) * 1e3)
            scalars.append(st.counters.total())
    finally:
        st.close()
    return median(ms), scalars, st


# -- one workload -------------------------------------------------------------

MIB = 2 ** 20
LAYERS = ("smoother.sweep", "smoother.residual", "fields.exchange",
          "localops.apply_flux", "multigrid.coarse_solve",
          "multigrid.restrict", "multigrid.prolong", "multigrid.solve",
          "multigrid.vcycles")


def run_workload(name, seed, seconds, trace):
    if name not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {name!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[name]
    env = environment()
    print(json.dumps({"env": env}), flush=True)
    checks = Checks()
    case, reps = repeated_setup(w)
    b = make_rhs(case, seed)
    tracer = Tracer() if trace else None
    solves = Solves(w, case, b, checks, tracer)
    solves.warm_up()
    solves.loop(seconds)
    if not solves.times[False] or (trace and not solves.times[True]):
        sys.exit(f"perfbench: too few solves of {name} passed their checks")
    ref = solves.ref

    if w.variant == "tasked":
        fused = solves.call(solves.plain, w.config(variant="fused", workers=1))
        checks.require(bitwise_equal(fused.u.data, ref.u.data),
                       "tasked iterate differs from the fused solve")

    untraced_s = median(solves.times[False])
    if not trace:
        ok_ratio = (solves.attempted - solves.failed) / solves.attempted
        metrics = {
            "solve_s": (untraced_s, "s"),
            "dof_cycles_per_s": (case.ndof * ref.trace.cycles / untraced_s,
                                 "DoF.cycles/s"),
            "cycles": (ref.trace.cycles, "count"),
            "setup_s": (median(sum(r.values()) for r in reps), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MiB"),
            "solve_pass_ratio": (ok_ratio, "ratio"),
        }
    else:
        med = tracer.layer_medians(LAYERS)
        traced_s = median(solves.times[True])
        sweep_s, resid_s = med["smoother.sweep"][0], med["smoother.residual"][0]
        scalars = ref.counters.total()
        spawned, executed = ref.counters.tasks_spawned, ref.counters.tasks_executed
        m = {
            "multigrid.solve.s": (traced_s, "s"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
            "smoother.sweep.self_s": (sweep_s, "s"),
            "smoother.sweep.calls": (med["smoother.sweep"][1], "count"),
            "smoother.residual.self_s": (resid_s, "s"),
            "smoother.residual.calls": (med["smoother.residual"][1], "count"),
            "smoother.scalars": (scalars, "count"),
            "smoother.eff_gbps": (scalars * 8 / (sweep_s + resid_s) / 1e9,
                                  "GB/s"),
            "smoother.tasks_spawned": (spawned, "count"),
            "smoother.tasks_executed": (executed, "count"),
            "smoother.task_use_ratio": (executed / spawned if spawned else 0.0,
                                        "ratio"),
            "fields.exchange.self_s": (med["fields.exchange"][0], "s"),
            "fields.exchange.calls": (med["fields.exchange"][1], "count"),
            "localops.apply_flux.self_s": (med["localops.apply_flux"][0], "s"),
            "localops.apply_flux.calls": (med["localops.apply_flux"][1],
                                          "count"),
            "multigrid.coarse_solve.self_s": (med["multigrid.coarse_solve"][0],
                                              "s"),
            "multigrid.vcycles": (med["multigrid.vcycles"][1], "count"),
            "multigrid.restrict.self_s": (med["multigrid.restrict"][0], "s"),
            "multigrid.prolong.self_s": (med["multigrid.prolong"][0], "s"),
            "multigrid.solve.self_s": (med["multigrid.solve"][0], "s"),
            "mesh.interface_facets": (int(case.partition.interface_facets.size),
                                      "count"),
        }
        for step in SETUP_STEPS:
            if step != "basis.make_basis":
                m[f"{step}.s"] = (median(r[step] for r in reps), "s")

        # time against modelled and counted traffic, per schedule
        omega = w.config().omega
        table = {v: sweep_loop(case, b, v, omega)
                 for v in ("vanilla", "stages", "fused")}
        for variant, (ms, counted, _) in table.items():
            m[f"smoother.sweep_ms.{variant}"] = (ms, "ms")
            m[f"smoother.counted_mb.{variant}"] = (median(counted) * 8 / MIB,
                                                   "MiB")
        for variant in ("vanilla", "fused"):
            model = memory_access_model(variant, 2, w.p) * case.mesh.ncells
            m[f"smoother.model_mb.{variant}"] = (model * 8 / MIB, "MiB")
        _, counted, st = table["fused"]
        if w.nparts == 1:
            want = predicted_total_accesses(case.mesh, w.p, "fused")
            checks.require(all(c == want for c in counted),
                           f"fused sweep counted {counted}, model {want}")
        scratch = (sum(f.data.nbytes + f.written.nbytes for f in st.proj)
                   + sum(f.data.nbytes for f in st.flux))
        m["fields.facet_scratch_mb"] = (scratch / MIB, "MiB")

        # the criterion-8 pair on the tasked-p3 inputs
        tw = WORKLOADS["tasked-p3"]
        tcase, _ = set_up(tw)
        tb = make_rhs(tcase, seed)
        iterates = {}
        for variant in ("fused", "tasked"):
            ms, _, st = sweep_loop(tcase, tb, variant, tw.config().omega,
                                   workers=tw.workers)
            m[f"smoother.l3p3_sweep_ms.{variant}"] = (ms, "ms")
            iterates[variant] = st.u.data
        checks.require(bitwise_equal(iterates["fused"], iterates["tasked"]),
                       "tasked sweeps differ from fused sweeps on tasked-p3")
        metrics = m

    result = {
        "correct": not checks.failures,
        "attempted": solves.attempted,
        "failed": solves.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    dump = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "env": env, "result": result,
            "solve_s": {"untraced": solves.times[False],
                        "traced": solves.times[True]},
            "true_rel_residual": solves.true_residual,
            "rel_error": solves.error,
            "failures": checks.failures}
    if tracer is not None:
        dump["span_fields"] = ["request", "id", "parent", "name",
                               "start_ns", "end_ns"]
        dump["spans"] = tracer.span_rows()
    with open(OUT / f"{name}.trace{int(trace)}.json", "w") as fh:
        json.dump(dump, fh)
    for k, (v, u) in metrics.items():
        print(f"{name:<16} {k:<34} {v:>16.6g} {u}")
    print(f"{name:<16} timed solves: {len(solves.times[False])} untraced, "
          f"{len(solves.times[True])} traced, {solves.failed} failed")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# -- every workload -----------------------------------------------------------

def run_all(seed, seconds, trace):
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        for k, v in result["metrics"].items():
            print(f"{name:<16} {k:<34} {v['value']:>16.6g} {v['unit']}")
        print(f"{name:<16} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload; all when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
