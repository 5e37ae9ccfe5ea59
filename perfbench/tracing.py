"""Outside-in span tracing of hpmg's layers.

The solver is not instrumented.  Instead, `traced_layers` rebinds the
module-level names that `hpmg.multigrid.solve` and the `hpmg.smoother`
sweeps look up at call time to wrappers that record a span per call, and
puts the original functions back in a `finally`.  A span is
(request, span id, parent span id, name, start ns, end ns, self ns); a
request is one traced solve.  Self time is the span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median

import hpmg.multigrid as mg
import hpmg.smoother as sm

# (namespace, key, span name).  `exchange_interface` is bound separately in
# both modules: the sweeps call the smoother's binding, the re-projection
# after a coarse correction calls the multigrid one.
_SPANNED = (
    (mg.__dict__, "compute_residual_only", "smoother.residual"),
    (mg.__dict__, "coarse_solve", "multigrid.coarse_solve"),
    (mg.__dict__, "restrict_to_vertices", "multigrid.restrict"),
    (mg.__dict__, "prolong_from_vertices", "multigrid.prolong"),
    (mg.__dict__, "exchange_interface", "fields.exchange"),
    (sm.__dict__, "exchange_interface", "fields.exchange"),
    (sm.__dict__, "apply_flux", "localops.apply_flux"),
) + tuple((sm.SWEEPS, v, "smoother.sweep") for v in sm.SWEEPS)

_COUNTED = (mg.__dict__, "h_vcycle", "multigrid.vcycles")
_ORIGINAL = {(id(ns), key): ns[key] for ns, key, _ in _SPANNED + (_COUNTED,)}

SOLVE = "multigrid.solve"


class Tracer:
    """Spans and counts kept in memory until the run writes them out."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()     # (request, name) -> calls
        self.request = -1
        self._next_id = 0
        self._stack = []            # open spans: [span id, child ns]

    def new_request(self):
        self.request += 1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [sid, 0]
            self._stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                self.spans.append((self.request, sid, parent, name, t0, t1,
                                   t1 - t0 - frame[1]))
        return traced

    def count_top_vcycles(self, name, fn):
        """Count h_vcycle calls on the finest vertex level (li == 0) only;
        the recursion into coarser levels goes through the same name."""
        def counted(cspace, li, *args, **kwargs):
            if li == 0:
                self.counts[(self.request, name)] += 1
            return fn(cspace, li, *args, **kwargs)
        return counted

    def layer_medians(self, names):
        """{name: (self seconds, calls)}, each the median over requests of
        the per-request sum; a name that never ran reads (0.0, 0)."""
        self_ns = defaultdict(int)
        calls = Counter(self.counts)
        for req, _, _, name, _, _, own in self.spans:
            self_ns[(req, name)] += own
            calls[(req, name)] += 1
        reqs = range(self.request + 1)
        return {name: (median(self_ns[(r, name)] * 1e-9 for r in reqs),
                       median(calls[(r, name)] for r in reqs))
                for name in names}

    def span_rows(self):
        return [list(s[:6]) for s in self.spans]


@contextmanager
def traced_layers(tracer):
    """Wrap every layer function for the duration of the block."""
    saved = []
    try:
        for ns, key, name in _SPANNED:
            saved.append((ns, key, ns[key]))
            ns[key] = tracer.wrap(name, ns[key])
        ns, key, name = _COUNTED
        saved.append((ns, key, ns[key]))
        ns[key] = tracer.count_top_vcycles(name, ns[key])
        yield
    finally:
        for ns, key, fn in reversed(saved):
            ns[key] = fn


def still_wrapped():
    """Names that do not hold their original function (empty when the
    tracing context restored everything)."""
    return sorted(key for ns, key, _ in _SPANNED + (_COUNTED,)
                  if ns[key] is not _ORIGINAL[(id(ns), key)])
