"""The repository benchmark: tiled QDWH on three fixed workloads.

    python3 perfbench/run.py --workload ill_eager --seed 1 --seconds 40 --trace 0

Generates one n=1024 input from ``--seed`` (outside all timing), then
runs closed-loop decompositions of it, checking each, for as many as
fit in ``--seconds`` seconds (at least one).  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, measured with tracing off; ``--trace 1``
alternates untraced and traced decompositions and reports the
per-layer metrics.  The last line of standard output is one JSON
object; a detailed record (and, traced, a Chrome trace of every span)
goes to ``.perfbench/`` at the repository root.  The exit code is 0
when every decomposition passed its check.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy is first imported:
# worker counts are the only parallelism the workloads measure.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: End-to-end metrics (tracing off) and what each covers.
END_TO_END = {
    "solve_s": "tiled_qdwh call until U and H are gathered",
    "setup_s": "Runtime(), from_array scatter and close()",
    "cpu_s": "user+sys CPU of the main process and workers per solve",
    "peak_rss_mb": "peak RSS of the main process plus live workers",
}

#: The base of each per-layer ratio (units come from BENCHMARK.json).
BASES = {
    "core.flops_exec": "sum of Task.flops over rt.graph",
    "core.flops_ratio": "core.flops_exec / repro.flops.qdwh_paper_formula",
    "core.gflops": "qdwh_paper_formula flops / untraced solve_s",
    "parallel.utilization": "busy_s / (executor wall * workers)",
    "distributed.utilization": "busy_s / (executor wall * workers)",
    "distributed.comm_mb": "control-plane bytes / 1e6",
    "distributed.wire_ratio": "control-plane bytes / input matrix bytes",
    "obs.trace_overhead": "traced solve_s / untraced solve_s - 1",
    "ref.tiled_over_dense": "untraced solve_s / ref.dense_qdwh_s",
}


def tail(values: List[float]) -> str:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in (50, 90, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return f"no percentile has 10 samples beyond it (n={n})"
    q = statistics.quantiles(values, n=100, method="inclusive")[best - 1]
    return f"p{best}={q:.6g}"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (a
    checkout without .git reports "unknown")."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref                        # detached HEAD
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> Dict[str, object]:
    import numpy as np
    from repro.obs.bench import machine_calibration
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_s": machine_calibration(),
    }


def run(wl, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Measure ``wl`` and return the result record (see module doc)."""
    from measure import RssSampler, decompose
    from repro.matrices.generator import generate_matrix

    a = generate_matrix(wl.n, cond=wl.cond, seed=seed)
    rss = RssSampler()
    samples: List[Dict[str, object]] = []
    rows: List[Dict[str, float]] = []
    failures: List[str] = []
    refs: Dict[str, float] = {}
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    try:
        t_end = perf_counter() + seconds
        k = 0
        last = 0.0
        # At least one decomposition (traced: one of each kind), then
        # another while one as long as the last still fits: the run
        # ends within --seconds however slow the host is.
        while k < 1 + trace or perf_counter() + last <= t_end:
            t0 = perf_counter()
            gc.collect()
            traced = trace and k % 2 == 1
            if traced:
                out = _traced(wl, a, rss, tracer, k, rows)
            else:
                out = decompose(wl, a, rss)
            if out.failure is None:
                samples.append({"traced": traced,
                                **{m: getattr(out, m) for m in END_TO_END}})
            else:
                failures.append(out.failure)
            del out   # frees its runtime before the next decomposition
            k += 1
            last = perf_counter() - t0
        if trace:
            refs = _references(a)
    finally:
        rss.close()

    rec: Dict[str, object] = {
        "workload": wl.name, "why": wl.why, "n": wl.n, "nb": wl.nb,
        "cond": wl.cond, "backend": wl.backend, "workers": wl.workers,
        "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": k, "failed": len(failures), "failures": failures,
        "samples": samples,
    }
    untraced = [s for s in samples if not s["traced"]]
    metrics: Dict[str, float] = {}
    if not trace and untraced:
        for name in END_TO_END:
            metrics[name] = statistics.median(s[name] for s in untraced)
    elif trace and untraced and rows:
        from repro.flops import qdwh_paper_formula
        solve_s = statistics.median(s["solve_s"] for s in untraced)
        for key in rows[0]:
            metrics[key] = statistics.median(r[key] for r in rows)
        metrics["core.gflops"] = qdwh_paper_formula(
            wl.n, metrics["core.it_qr"], metrics["core.it_chol"]
        ) / solve_s / 1e9
        metrics["obs.trace_overhead"] = statistics.median(
            s["solve_s"] for s in samples if s["traced"]) / solve_s - 1.0
        metrics.update(refs)
        metrics["ref.tiled_over_dense"] = solve_s / refs["ref.dense_qdwh_s"]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_chrome_trace(
            str(OUT_DIR / f"{wl.name}-seed{seed}.trace.json"))
    rec["metrics"] = metrics
    return rec


def _traced(wl, a, rss, tracer, k: int, rows: List[Dict[str, float]]):
    """One traced decomposition; its layer metrics go to ``rows``."""
    from measure import decompose
    from repro.obs.timeline import TimelineSink
    from spans import layer_metrics

    tracer.solve = k
    calls0, secs0 = tracer.child_build_t()
    sink = TimelineSink()
    with tracer.installed():
        out = decompose(wl, a, rss, tracer=tracer, sink=sink)
    if out.failure is None:
        calls1, secs1 = tracer.child_build_t()
        rows.append(layer_metrics(wl, tracer, out, sink, a.nbytes,
                                  (calls1 - calls0, secs1 - secs0)))
    return out


def _references(a) -> Dict[str, float]:
    """Dense yardsticks on the same input: repro's dense QDWH and
    scipy.linalg.polar (context only; no bound)."""
    import scipy.linalg
    from repro.core.qdwh_dense import qdwh

    t0 = perf_counter()
    qdwh(a)
    t1 = perf_counter()
    scipy.linalg.polar(a)
    t2 = perf_counter()
    return {"ref.dense_qdwh_s": t1 - t0, "ref.scipy_polar_s": t2 - t1}


def report(rec: Dict[str, object], units: Dict[str, str]) -> str:
    """Human-readable lines printed above the JSON result."""
    lines = [f"workload {rec['workload']}: {rec['why']}",
             f"  n={rec['n']} nb={rec['nb']} cond={rec['cond']:g} "
             f"backend={rec['backend']} workers={rec['workers']} "
             f"seed={rec['seed']} trace={rec['trace']}"]
    att, failed = rec["attempted"], rec["failed"]
    lines.append(f"  fail_frac = {failed}/{att} = {failed / att:.4f}")
    for why in rec["failures"]:
        lines.append(f"  FAILED: {why}")
    samples = [s for s in rec["samples"] if not s["traced"]]
    metrics = rec["metrics"]
    for name, unit in units.items():
        if name not in metrics:
            continue
        line = f"  {name:32s} {metrics[name]:<14.6g} {unit}"
        if name in END_TO_END:
            vals = [s[name] for s in samples]
            line += (f"  median of n={len(vals)}; {tail(vals)}"
                     f"  ({END_TO_END[name]})")
        elif name in BASES:
            line += f"  ({BASES[name]})"
        lines.append(line)
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    if wl.workers > env["nproc"]:
        print(f"error: {wl.name} needs {wl.workers} workers but only "
              f"{env['nproc']} CPUs are available", file=sys.stderr)
        return 2
    print("host: " + " ".join(f"{k}={v}" for k, v in env.items()))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    rec = run(wl, args.seed, args.seconds, bool(args.trace))
    rec["env"] = env
    print(report(rec, units))

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")

    result = summary(rec, units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def summary(rec: Dict[str, object], units: Dict[str, str]
            ) -> Dict[str, object]:
    """The result line: correct only when every decomposition passed
    and every named metric was measured."""
    metrics = rec["metrics"]
    return {
        "correct": rec["failed"] == 0 and all(n in metrics for n in units),
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items() if n in metrics},
    }


def stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts to track shared
    memory, so the benchmark leaves no process behind when it exits."""
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        stop_resource_tracker()
