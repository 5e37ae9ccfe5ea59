"""The benchmark's workloads, their set-up and their seeded inputs.

Every workload solves the 2D sin-product Poisson problem with the lobatto
basis and theta = -1 to a preconditioned reduction of 1e-8.  Why each one
exists is in README.md next to this file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from hpmg import (MgConfig, build_coarse_space, build_hierarchy,
                  build_local_blocks, build_rhs, get_problem, make_basis,
                  make_partition)

PROBLEM = get_problem("sin_product")

EPS = 1e-8
# relative amplitude of the seeded uniform perturbation added to the
# manufactured load vector; small enough to leave the cycle counts alone
RHS_NOISE = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    level: int
    p: int
    # gates on the solution, about 5x the values seeds 0 and 1 give: the
    # true relative residual |b - A u| / |b| (the stopping test is on the
    # change of the iterate, so it is not 1e-8), and the relative l2
    # distance to the interpolated exact solution, which the seeded
    # perturbation dominates
    max_rel_residual: float
    max_rel_error: float
    variant: str = "fused"
    nparts: int = 1
    coarse: str = "vcycle"
    workers: int = 1

    def config(self, **overrides):
        kw = dict(eps=EPS, criterion="prec", variant=self.variant,
                  coarse=self.coarse, workers=self.workers)
        kw.update(overrides)
        return MgConfig(**kw)


WORKLOADS = {w.name: w for w in (
    Workload("fine-p3", level=5, p=3, max_rel_residual=4e-5,
             max_rel_error=5e-5),
    Workload("parts8-p6", level=4, p=6, nparts=8, max_rel_residual=2e-4,
             max_rel_error=1.5e-4),
    Workload("coarse-exact-p1", level=5, p=1, coarse="exact",
             max_rel_residual=1e-4, max_rel_error=2.5e-4),
    Workload("tasked-p3", level=3, p=3, variant="tasked", workers=2,
             max_rel_residual=4e-6, max_rel_error=1.5e-3),
)}


@dataclass
class Case:
    """Everything a solve needs besides its right-hand side."""

    mesh: object
    basis: object
    blocks: object
    cspace: object
    partition: object
    b0: np.ndarray      # manufactured load vector, before perturbation

    @property
    def ndof(self):
        return self.mesh.ncells * self.blocks.nloc


SETUP_STEPS = ("mesh.build_hierarchy", "basis.make_basis",
               "localops.build_local_blocks", "multigrid.build_coarse_space",
               "problems.build_rhs", "mesh.make_partition")


def set_up(w):
    """Build the case; returns it with the seconds each step took, keyed
    by SETUP_STEPS.  The partition is built for one subdomain too, as
    `make_state` would otherwise do inside every solve."""
    steps = {}

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        steps[name] = time.perf_counter() - t0
        return out

    mesh = timed("mesh.build_hierarchy", build_hierarchy, 2, w.level)[0]
    basis = timed("basis.make_basis", make_basis, "lobatto", w.p)
    blocks = timed("localops.build_local_blocks", build_local_blocks,
                   basis, 2, mesh.h)
    cspace = timed("multigrid.build_coarse_space", build_coarse_space,
                   2, w.level)
    b = timed("problems.build_rhs", build_rhs, PROBLEM, mesh, basis)
    partition = timed("mesh.make_partition", make_partition, mesh,
                      "balanced", w.nparts)
    return Case(mesh, basis, blocks, cspace, partition, b.data), steps


def make_rhs(case, seed):
    """The seeded input: the manufactured load plus a uniform perturbation
    of relative amplitude RHS_NOISE.  The same seed gives the same bits."""
    rng = np.random.default_rng(seed)
    scale = RHS_NOISE * np.max(np.abs(case.b0))
    return case.b0 + scale * rng.uniform(-1.0, 1.0, case.b0.shape)
