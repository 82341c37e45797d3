"""Microbenchmark of the single-tile QR kernels at nb = 128.

For every tile-QR kernel (LAPACK ``?geqrt``, ``?gemqrt``, and
``?tpqrt``/``?tpmqrt`` as TS couple ``l = 0`` and TT combine
``l = nb``) in each of float32, float64, complex64 and complex128, the
table in ``results/kernel_micro.txt`` gives:

* ``ms/call`` — best-of-``ROUNDS`` wall time of one call on one thread;
* ``2thr/serial`` — wall time of two threads making ``CALLS`` calls
  each over one thread making ``2 * CALLS``: 0.5 means the two threads
  fully overlap, 1 or more means the call holds the GIL (so the threads
  backend cannot run two of them at once);
* ``resid/eps`` — the kernel's defining residual in units of the
  dtype's machine epsilon.

``gemm`` (``@``) and ``trsm`` rows are references for the GIL ratio.
A later slowdown of tiled QDWH can be pinned to one kernel by
comparing tables.  Only correctness is asserted — residuals at each
dtype's precision — never a time.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.bench import format_table, write_result
from repro.tiled import kernels

NB = 128
CALLS = 50
ROUNDS = 5
DTYPES = (np.float32, np.float64, np.complex64, np.complex128)


def _rand(rng, m, n, dtype):
    a = rng.standard_normal((m, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((m, n))
    return a.astype(dtype)


def _rel(x, ref):
    return np.linalg.norm(x) / np.linalg.norm(ref)


def _cases(dtype):
    """(name, call, residual) per kernel: ``call()`` is timed and
    ``residual()`` is its defining identity's relative error."""
    rng = np.random.default_rng(NB)
    a = _rand(rng, NB, NB, dtype)
    b = _rand(rng, NB, NB, dtype)
    c = _rand(rng, NB, NB, dtype)
    fac, t = kernels.geqrt_kernel(a)
    r = np.triu(fac)
    tri = r + NB * np.eye(NB, dtype=dtype)
    wide = np.complex128 if np.dtype(dtype).kind == "c" else np.float64
    cases = [
        ("geqrt", lambda: kernels.geqrt_kernel(a),
         lambda: _rel(kernels.apply_q_kernel(fac, t, r, False) - a, a)),
        ("gemqrt", lambda: kernels.apply_q_kernel(fac, t, c, True),
         lambda: _rel(kernels.apply_q_kernel(
             fac, t, kernels.apply_q_kernel(fac, t, c, True), False) - c,
             c)),
    ]
    for mode, bot, l in (("ts", b, 0), ("tt", np.triu(b), NB)):
        _, v, tp = kernels.tpqrt_kernel(r, bot, l)

        def couple_resid(v=v, tp=tp, bot=bot, l=l):
            # Q^H [R; B] = [R_new; 0]: the bottom must vanish.
            _, zero = kernels.tpmqrt_kernel(v, tp, r, bot, l, True)
            return _rel(zero, np.vstack([r, bot]))

        def apply_resid(v=v, tp=tp, l=l):
            top, bot2 = kernels.tpmqrt_kernel(v, tp, c, b, l, True)
            top, bot2 = kernels.tpmqrt_kernel(v, tp, top, bot2, l, False)
            return _rel(np.vstack([top - c, bot2 - b]), np.vstack([c, b]))

        cases += [
            (f"tpqrt.{mode}",
             lambda bot=bot, l=l: kernels.tpqrt_kernel(r, bot, l),
             couple_resid),
            (f"tpmqrt.{mode}",
             lambda v=v, tp=tp, l=l: kernels.tpmqrt_kernel(v, tp, c, b, l,
                                                           True),
             apply_resid),
        ]
    cases += [
        ("gemm", lambda: a @ b,
         lambda: _rel(a @ b - a.astype(wide) @ b.astype(wide),
                      a.astype(wide) @ b.astype(wide))),
        ("trsm", lambda: kernels.trsm_kernel(tri, c, lower=False,
                                             conj_trans=True),
         lambda: _rel(tri.conj().T @ kernels.trsm_kernel(
             tri, c, lower=False, conj_trans=True) - c, c)),
    ]
    return cases


def _wall(call, threads: int) -> float:
    """Best-of-ROUNDS wall time of ``threads`` threads making
    ``2 * CALLS // threads`` calls each."""
    per = 2 * CALLS // threads

    def work(barrier):
        barrier.wait()
        for _ in range(per):
            call()

    best = float("inf")
    for _ in range(ROUNDS):
        barrier = threading.Barrier(threads + 1)
        pool = [threading.Thread(target=work, args=(barrier,))
                for _ in range(threads)]
        for th in pool:
            th.start()
        barrier.wait()
        t0 = time.perf_counter()
        for th in pool:
            th.join()
        best = min(best, time.perf_counter() - t0)
    return best


def test_kernel_micro(once):
    def body():
        rows = []
        for dtype in DTYPES:
            for name, call, residual in _cases(dtype):
                call()  # warm the wrapper lookup and allocator
                serial = _wall(call, 1)
                rows.append([name, np.dtype(dtype).name,
                             1e3 * serial / (2 * CALLS),
                             _wall(call, 2) / serial,
                             float(residual() / np.finfo(dtype).eps)])
        return rows

    rows = once(body)
    write_result("kernel_micro", format_table(
        f"Tile-QR kernel microbenchmark (nb={NB}; one BLAS thread "
        "expected)",
        ["kernel", "dtype", "ms/call", "2thr/serial", "resid/eps"], rows))
    for name, dtype, _ms, _ratio, resid in rows:
        assert resid < NB, f"{name} {dtype}: residual {resid:.1f} eps"
