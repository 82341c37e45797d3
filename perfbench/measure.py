"""One decomposition as a library user runs it, timed and checked.

A decomposition is: construct a ``Runtime``, scatter the input with
``DistMatrix.from_array``, call ``tiled_qdwh``, gather U and H with
``DistMatrix.to_array``, close the runtime.  The solve is the
``tiled_qdwh`` call plus the two gathers; set-up is everything else.
Every decomposition is checked before its timings are kept: a failed
one counts as attempted and failed and contributes no timing.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, List, Optional

import numpy as np

from repro.core.tiled_qdwh import tiled_qdwh
from repro.dist.grid import ProcessGrid
from repro.dist.matrix import DistMatrix
from repro.matrices.metrics import polar_report
from repro.runtime.distributed.shm import scan_segments
from repro.runtime.executor import Runtime

#: E1 and E2 accuracy bounds, as benchmarks/test_fig1_accuracy.py
#: asserts them for tiled_qdwh at kappa = 1e16.
ORTH_TOL = 1e-13
BERR_TOL = 1e-12


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def shm_segments() -> List[str]:
    """Shared-memory segments this process created and has not removed
    (the processes backend names them ``repro<pid>x...``)."""
    return scan_segments(f"repro{os.getpid()}x")


class RssSampler:
    """Peak resident set of this process plus its live child processes.

    A daemon thread polls ``/proc`` every ``interval`` seconds; callers
    bracket a measured region with :meth:`reset` and :meth:`peak_mb`,
    which also sample at both ends.  Forked workers share pages with
    the main process copy-on-write and each process counts them, so the sum
    bounds physical memory from above.
    """

    def __init__(self, interval: float = 0.025) -> None:
        self._pid = os.getpid()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._lock = threading.Lock()
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, args=(interval,),
                                        name="rss-sampler", daemon=True)
        self._thread.start()

    def _rss(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/statm") as fh:
                return int(fh.read().split()[1]) * self._page
        except (OSError, IndexError, ValueError):
            return 0   # the child exited between listing and reading

    def _children(self) -> List[int]:
        pids: List[int] = []
        base = f"/proc/{self._pid}/task"
        for tid in os.listdir(base):
            with contextlib.suppress(OSError):
                with open(f"{base}/{tid}/children") as fh:
                    pids.extend(int(p) for p in fh.read().split())
        return pids

    def sample(self) -> None:
        total = self._rss(self._pid) + sum(self._rss(p)
                                           for p in self._children())
        with self._lock:
            self._peak = max(self._peak, total)

    def _loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            self.sample()

    def reset(self) -> None:
        with self._lock:
            self._peak = 0
        self.sample()

    def peak_mb(self) -> float:
        self.sample()
        with self._lock:
            return self._peak / 1e6

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class NullTracer:
    """Stands in for :class:`spans.Tracer` on untraced decompositions."""

    def span(self, name: str):
        return contextlib.nullcontext()


@dataclass
class Outcome:
    """Timings and checks of one decomposition."""

    setup_s: float = 0.0
    solve_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: Why the decomposition failed its check, or None when it passed.
    failure: Optional[str] = None
    #: Kept for the traced run's layer metrics.
    result: Any = None
    rt: Any = None
    shm_leaked: int = 0


def check(wl, a: np.ndarray, res, u: np.ndarray, h: np.ndarray,
          inflight: int, leaked: int) -> Optional[str]:
    """The per-decomposition correctness gate; None when it passes."""
    if not res.converged:
        return "did not converge"
    if res.degraded or res.health_log:
        return f"degraded: {res.health_log}"
    if (res.it_qr, res.it_chol) != (wl.it_qr, wl.it_chol):
        return (f"iteration split {res.it_qr}+{res.it_chol}, expected "
                f"{wl.it_qr}+{wl.it_chol}")
    rep = polar_report(a, u, h)
    if not rep.orthogonality < ORTH_TOL:
        return f"orthogonality {rep.orthogonality:.3e} >= {ORTH_TOL:g}"
    if not rep.backward < BERR_TOL:
        return f"backward error {rep.backward:.3e} >= {BERR_TOL:g}"
    if inflight:
        return f"{inflight} in-flight attempt(s) after the solve"
    if leaked:
        return f"{leaked} shared-memory segment(s) leaked after close"
    return None


def decompose(wl, a: np.ndarray, rss: RssSampler, *, tracer=None,
              sink=None) -> Outcome:
    """Run and check one decomposition of ``a``; never raises.

    ``tracer`` (a :class:`spans.Tracer`) brackets the scatter, the
    solve and the ``tiled_qdwh`` call with spans; ``sink`` is handed
    to the runtime (the traced run's task timeline).
    """
    tracer = tracer or NullTracer()
    deferred = wl.backend != "eager"
    out = Outcome()
    rt = None
    try:
        rss.reset()
        t0 = perf_counter()
        rt = Runtime(ProcessGrid(1, 1), deferred=deferred,
                     backend=wl.backend if deferred else "threads",
                     workers=wl.workers, sink=sink, sanitize=None)
        with tracer.span("dist.scatter"):
            d = DistMatrix.from_array(rt, a, wl.nb, name="A")
        t1 = perf_counter()
        c1 = cpu_seconds()
        with tracer.span("solve"):
            with tracer.span("core.tiled_qdwh"):
                res = tiled_qdwh(rt, d, backend=wl.backend,
                                 workers=wl.workers)
            u = res.u.to_array()
            h = res.h.to_array()
        t2 = perf_counter()
        out.cpu_s = cpu_seconds() - c1
        rt.close()
        t3 = perf_counter()
        ex = rt._executor
        inflight = ex.inflight_attempts if ex is not None else 0
        out.peak_rss_mb = rss.peak_mb()
        out.setup_s = (t1 - t0) + (t3 - t2)
        out.solve_s = t2 - t1
        out.result, out.rt = res, rt
        out.shm_leaked = len(shm_segments())
        out.failure = check(wl, a, res, u, h, inflight, out.shm_leaked)
    except Exception as exc:  # a failed solve is counted, never fatal
        out.failure = f"{type(exc).__name__}: {exc}"
        if rt is not None:
            with contextlib.suppress(Exception):
                rt.close()
    return out
