"""Wall-clock smoke test of the threaded execution backend.

Runs the paper's headline numeric workload (kappa = 1e16, float64) at
a CI-friendly size through ``backend="threads"`` with 1 and 4 workers
and asserts 4 workers are not meaningfully *slower* than 1.  On a
multicore host the 4-worker run should win outright; the slack factor
keeps the check meaningful but unflakeable on single-core or noisy CI
runners, where threading can only add overhead bounded by the
dispatch cost.  Not every payload releases the GIL: numpy's ``@`` and
Cholesky do, but scipy's f2py wrappers of the tile-QR kernels and of
``solve_triangular`` hold it, so threads cannot overlap those (see
docs/parallel_backend.md).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist import DistMatrix, ProcessGrid
from repro.matrices import generate_matrix, polar_report
from repro.runtime import Runtime

#: 4 workers may not exceed this multiple of the 1-worker wall clock.
#: Generous on purpose: scheduling noise and 1-core CI hosts must not
#: flake the suite; a real dispatch-layer regression blows well past it.
SLACK = 2.0

N = 1024
NB = 128


def _qdwh_wall(workers: int):
    rt = Runtime(ProcessGrid(1, 1), deferred=True, workers=workers)
    a = generate_matrix(N, cond=1e16, dtype=np.float64, seed=0)
    da = DistMatrix.from_array(rt, a, NB)
    t0 = time.perf_counter()
    res = tiled_qdwh(rt, da, backend="threads", workers=workers)
    wall = time.perf_counter() - t0
    u, h = res.u.to_array(), res.h.to_array()
    rt.close()
    return wall, polar_report(a, u, h)


def test_threads4_not_slower_than_threads1(once):
    def body():
        w1, rep1 = _qdwh_wall(1)
        w4, rep4 = _qdwh_wall(4)
        return w1, w4, rep1, rep4

    w1, w4, rep1, rep4 = once(body)
    # Both runs must be correct before their timing means anything.
    for rep in (rep1, rep4):
        assert rep.orthogonality < 1e-13
        assert rep.backward < 1e-13
    assert w4 <= SLACK * w1, (
        f"threads(4) took {w4:.2f}s vs threads(1) {w1:.2f}s "
        f"(> {SLACK}x slack): dispatch overhead regression")
