import numpy as np
import pytest

import hpmg.smoother
from hpmg import build_coarse_space, build_hierarchy, build_local_blocks, make_basis

# caches shared across the whole run; meshes and blocks are immutable
_MESHES = {}
_CSPACES = {}


def mesh_at(level, dim=2):
    key = (dim, level)
    if key not in _MESHES:
        _MESHES[key] = build_hierarchy(dim, level)[0]
    return _MESHES[key]


def cspace_at(level, dim=2):
    key = (dim, level)
    if key not in _CSPACES:
        _CSPACES[key] = build_coarse_space(dim, level)
    return _CSPACES[key]


def blocks_for(kind, p, level, theta=-1.0, penalty_const=1.0):
    basis = make_basis(kind, p)
    mesh = mesh_at(level)
    return mesh, basis, build_local_blocks(basis, 2, mesh.h, theta=theta,
                                           penalty_const=penalty_const)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class RecordingPool(hpmg.smoother.ThreadPoolExecutor):
    """A thread pool that records its instances and their shutdowns."""

    started = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.closed = False
        RecordingPool.started.append(self)

    def shutdown(self, *args, **kwargs):
        self.closed = True
        super().shutdown(*args, **kwargs)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setattr(hpmg.smoother, "ThreadPoolExecutor", RecordingPool)
    return RecordingPool


# Acceptance tests append one "criterion N ... PASS/FAIL" line each; echoing
# them in the terminal summary keeps the verdicts visible without -s.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
