"""Spans around calls into each layer, and the per-layer metrics.

The traced run installs wrappers at the names callers look up:

* the tiled operations ``tiled_qdwh`` imported by name
  (``repro.core.tiled_qdwh.qr_explicit`` ...) -> ``tiled.<op>``;
* ``Runtime.submit`` -> ``runtime.submit``, and on an eager runtime its
  payload argument -> ``kernel.<kind>``;
* ``TaskGraph.add`` / ``TaskGraph.validate`` -> ``runtime.graph_add`` /
  ``runtime.validate``; ``Runtime.sync`` -> ``runtime.sync``;
* ``DistMatrix.to_array`` -> ``dist.gather``;
* ``repro.tiled.kernels.build_t`` (looked up through the module by the
  QR kernels) -> ``kernel.build_t``.

The benchmark's own code adds ``dist.scatter``, ``solve`` and
``core.tiled_qdwh``.  Spans on the main thread nest by call stack;
a span's self time is its duration minus its children's, so the self
times of one solve's spans add up to the solve's duration.  ``build_t``
also runs on executor threads (recorded as parentless spans) and in
forked worker processes, whose spans would die with them: there it
adds its calls and seconds to a slot of memory shared across fork.
"""

from __future__ import annotations

import itertools
import json
import mmap
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

import repro.core.tiled_qdwh as core_mod
import repro.tiled.kernels as kernels_mod
from repro.dist.matrix import DistMatrix
from repro.flops import qdwh_paper_formula
from repro.obs.critical_path import critical_path
from repro.runtime.distributed.executor import ProcessExecutor
from repro.runtime.executor import Runtime
from repro.runtime.graph import TaskGraph
from repro.runtime.parallel import ExecutionStats, ParallelExecutor

#: The tiled operations ``tiled_qdwh`` calls, by the names it imported.
TILED_OPS = ("norm2est_tiled", "geqrf", "trcondest_tiled", "norm_one",
             "norm_fro", "qr_explicit", "gemm", "herk", "posv",
             "transpose_conj", "add", "copy", "scale")

#: ``TaskKind`` values a QDWH run executes (it never submits TRMM).
KERNEL_KINDS = ("gemm", "herk", "trsm", "potrf", "geqrt", "tpqrt",
                "unmqr", "tpmqrt", "add", "scale", "copy", "set", "norm",
                "reduce", "gemv", "solve_vec")

#: Ledger layers, in report order; ``solve`` itself counts as core.
LAYERS = ("core", "tiled", "runtime", "kernel", "dist")

_CHILD_SLOTS = 4096

#: (seq, name, start, end, parent seq or -1, solve id, thread ident)
Span = Tuple[int, str, float, float, int, int, int]


class Tracer:
    """In-memory span recorder; spans are written out at exit."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Solve id stamped on every span recorded from now on.
        self.solve = 0
        self._seq = itertools.count()
        self._stack: List[int] = []
        self._main = threading.get_ident()
        self._pid = os.getpid()
        self._patches: List[Tuple[object, str, object]] = []
        # (calls, seconds) of build_t per worker-pid slot; an anonymous
        # MAP_SHARED mapping, so forked workers write where we read.
        buf = mmap.mmap(-1, _CHILD_SLOTS * 16)
        self._child = np.frombuffer(buf, dtype=np.float64).reshape(
            _CHILD_SLOTS, 2)

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A main-thread span around the ``with`` body."""
        s = next(self._seq)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(s)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((s, name, t0, t1, parent, self.solve,
                               self._main))

    def _wrap(self, name: str, fn):
        """``fn`` recording a main-thread span per call; calls from
        other threads pass straight through."""
        spans, stack, seq, main = (self.spans, self._stack, self._seq,
                                   self._main)
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != main:
                return fn(*args, **kwargs)
            s = next(seq)
            parent = stack[-1] if stack else -1
            stack.append(s)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((s, name, t0, t1, parent, self.solve, main))
        return traced

    def _traced_submit(self, submit):
        wrap = self._wrap

        def submit_wrapping_payload(rt, kind, **kwargs):
            fn = kwargs.get("fn")
            if fn is not None and not rt.deferred:
                kwargs["fn"] = wrap("kernel." + kind.value, fn)
            return submit(rt, kind, **kwargs)
        return wrap("runtime.submit", submit_wrapping_payload)

    def _traced_build_t(self, build_t):
        on_main = self._wrap("kernel.build_t", build_t)
        spans, seq, pid, child = (self.spans, self._seq, self._pid,
                                  self._child)

        def traced(v, tau):
            if os.getpid() != pid:           # forked worker process
                t0 = perf_counter()
                out = build_t(v, tau)
                slot = child[os.getpid() % _CHILD_SLOTS]
                slot[0] += 1.0
                slot[1] += perf_counter() - t0
                return out
            ident = threading.get_ident()
            if ident == self._main:
                return on_main(v, tau)
            t0 = perf_counter()              # executor thread: a leaf
            out = build_t(v, tau)
            spans.append((next(seq), "kernel.build_t", t0, perf_counter(),
                          -1, self.solve, ident))
            return out
        return traced

    def child_build_t(self) -> Tuple[float, float]:
        """(calls, seconds) of ``build_t`` in forked workers so far."""
        calls, secs = self._child.sum(axis=0)
        return float(calls), float(secs)

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Wrappers in place for the ``with`` body, originals after."""
        try:
            for op in TILED_OPS:
                self._patch(core_mod, op, self._wrap("tiled." + op,
                                                     getattr(core_mod, op)))
            self._patch(Runtime, "submit",
                        self._traced_submit(Runtime.submit))
            self._patch(Runtime, "sync",
                        self._wrap("runtime.sync", Runtime.sync))
            self._patch(TaskGraph, "add",
                        self._wrap("runtime.graph_add", TaskGraph.add))
            self._patch(TaskGraph, "validate",
                        self._wrap("runtime.validate", TaskGraph.validate))
            self._patch(DistMatrix, "to_array",
                        self._wrap("dist.gather", DistMatrix.to_array))
            self._patch(kernels_mod, "build_t",
                        self._traced_build_t(kernels_mod.build_t))
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    # -- output ----------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """All spans as Chrome-trace complete events (one lane per
        thread, the main thread first)."""
        if not self.spans:
            return
        origin = min(s[2] for s in self.spans)
        lanes = {self._main: 0}
        events = []
        for seq, name, t0, t1, parent, solve, ident in self.spans:
            lane = lanes.setdefault(ident, len(lanes))
            events.append({"name": name, "cat": name.split(".")[0],
                           "ph": "X", "pid": 0, "tid": lane,
                           "ts": (t0 - origin) * 1e6,
                           "dur": (t1 - t0) * 1e6,
                           "args": {"solve": solve, "span": seq,
                                    "parent": parent}})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                      separators=(",", ":"))


def layer_of(name: str) -> str:
    return "core" if name == "solve" else name.split(".", 1)[0]


def solve_ledger(spans: List[Span]) -> Tuple[float, Dict[str, float]]:
    """(duration of the ``solve`` span, self seconds per layer) for the
    main-thread spans of one solve; the self times add up to the duration."""
    root = next(s for s in spans if s[1] == "solve")
    inside = {root[0]}
    child_s: Dict[int, float] = defaultdict(float)
    members = []
    for s in sorted(spans):                  # parents open before children
        if s[4] in inside or s is root:
            inside.add(s[0])
            members.append(s)
            child_s[s[4]] += s[3] - s[2]
    layers = dict.fromkeys(LAYERS, 0.0)
    for s in members:
        layers[layer_of(s[1])] += (s[3] - s[2]) - child_s[s[0]]
    return root[3] - root[2], layers


def layer_metrics(wl, tracer: Tracer, out, sink, a_nbytes: int,
                  child_build_t: Tuple[float, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced decomposition.

    ``out`` is its :class:`measure.Outcome` and ``sink`` the task
    timeline its runtime recorded; ``child_build_t`` the (calls,
    seconds) forked workers spent in ``build_t`` during it.
    Modules a workload does not run report zero work.
    """
    mine = [s for s in tracer.spans if s[5] == tracer.solve]
    on_main = [s for s in mine if s[6] == tracer._main]
    name_of = {s[0]: s[1] for s in on_main}
    dur: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    kernel_child: Dict[int, float] = defaultdict(float)
    for s in on_main:
        dur[s[1]] += s[3] - s[2]
        calls[s[1]] += 1
        if s[1].startswith("kernel.") and name_of.get(s[4]) == \
                "runtime.submit":
            kernel_child[s[4]] += s[3] - s[2]
    m: Dict[str, float] = {}

    res, rt = out.result, out.rt
    graph, stats, ex = rt.graph, rt.exec_stats, rt._executor
    m["dist.scatter_s"] = dur["dist.scatter"]
    m["dist.gather_s"] = dur["dist.gather"]

    paper = qdwh_paper_formula(wl.n, res.it_qr, res.it_chol)
    flops = sum(t.flops for t in graph.tasks)
    _, layers = solve_ledger(on_main)
    m["core.it_qr"] = res.it_qr
    m["core.it_chol"] = res.it_chol
    m["core.flops_exec"] = flops
    m["core.flops_ratio"] = flops / paper
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layers[layer]

    for op in TILED_OPS:
        m[f"tiled.{op}.s"] = dur["tiled." + op]
        m[f"tiled.{op}.calls"] = calls["tiled." + op]

    counts = graph.counts_by_kind()
    for kind in KERNEL_KINDS:
        m[f"kernel.{kind}.s"] = (stats.per_kind_seconds.get(kind, 0.0)
                                 if stats is not None
                                 else dur["kernel." + kind])
        m[f"kernel.{kind}.calls"] = counts.get(kind, 0)
    worker_bt = [s for s in mine if s[1] == "kernel.build_t"
                 and s[6] != tracer._main]
    m["kernel.build_t.s"] = (dur["kernel.build_t"] + child_build_t[1]
                             + sum(s[3] - s[2] for s in worker_bt))
    m["kernel.build_t.calls"] = (calls["kernel.build_t"]
                                 + int(child_build_t[0]) + len(worker_bt))
    m["kernel.total_s"] = (stats.busy_seconds if stats is not None else
                           sum(dur["kernel." + k] for k in KERNEL_KINDS))

    m["runtime.tasks"] = len(graph.tasks)
    m["runtime.edges"] = sum(len(t.deps) for t in graph.tasks)
    m["runtime.record_s"] = dur["runtime.submit"] - sum(kernel_child.values())
    m["runtime.graph_add_s"] = dur["runtime.graph_add"]
    m["runtime.validate_s"] = dur["runtime.validate"]
    m["runtime.validate.calls"] = calls["runtime.validate"]
    m["runtime.windows"] = stats.windows if stats is not None else 0
    m["runtime.sync_s"] = sum(s[3] - s[2] for s in on_main
                              if s[1] == "runtime.sync"
                              and name_of.get(s[4]) != "runtime.sync")

    # A module the workload does not run did no work: all-zero stats.
    par = stats if isinstance(ex, ParallelExecutor) else ExecutionStats()
    dst = stats if isinstance(ex, ProcessExecutor) else ExecutionStats()
    for prefix, st in (("parallel", par), ("distributed", dst)):
        m[f"{prefix}.busy_s"] = st.busy_seconds
        m[f"{prefix}.cpu_s"] = st.cpu_seconds
        m[f"{prefix}.idle_s"] = st.wall_seconds * st.workers - st.busy_seconds
        m[f"{prefix}.utilization"] = st.utilization
    cp = critical_path(graph, sink.tasks if par is stats else ())
    m["parallel.cp_task_s"] = cp.task_seconds
    m["parallel.cp_wait_s"] = cp.wait_seconds

    m["distributed.comm_messages"] = dst.comm_messages
    m["distributed.comm_mb"] = dst.comm_bytes / 1e6
    m["distributed.wire_ratio"] = dst.comm_bytes / a_nbytes
    m["distributed.retrans_messages"] = dst.comm_retrans_messages
    m["distributed.recovery_events"] = sum(
        v for k, v in dst.recovery.as_dict().items()
        if isinstance(v, int) and not k.endswith("_bytes"))
    m["distributed.shm_leaked"] = out.shm_leaked
    return m
