"""Self-tests of the benchmark, on inputs small enough to run in seconds.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from repro.dist.matrix import DistMatrix  # noqa: E402
from repro.runtime.executor import Runtime  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny(name: str):
    return replace(WORKLOADS[name], n=64, nb=32)


def units(group: str):
    return {m["name"]: m["unit"] for m in SPEC[group]}


def test_spec_names_units_and_whys():
    groups = ("workloads", "end_to_end", "per_layer")
    every = [m["name"] for g in groups for m in SPEC[g]]
    assert len(every) == len(set(every))
    assert all(NAME.fullmatch(n) for n in every)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    assert list(units("end_to_end")) == list(run.END_TO_END)
    assert {m["name"]: m["why"] for m in SPEC["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    for w in WORKLOADS.values():
        assert w.why and "\n" not in w.why and len(w.why) <= 200


@pytest.mark.parametrize("wname", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(wname, trace, capsys):
    group = units("per_layer" if trace else "end_to_end")
    rec = run.run(tiny(wname), seed=1, seconds=0, trace=bool(trace))
    print(run.report(rec, group))
    result = run.summary(rec, group)
    assert result["correct"], rec["failures"]
    assert result["attempted"] == 1 + trace and result["failed"] == 0
    assert list(result["metrics"]) == list(group)
    for name, val in result["metrics"].items():
        assert val["unit"] == group[name]
        assert isinstance(val["value"], (int, float))
    out = capsys.readouterr().out
    for name, unit in group.items():
        assert re.search(rf"^  {re.escape(name)} +\S+ +"
                         rf"{re.escape(unit)}(  |$)", out, re.M), name


def test_perturbed_u_fails_and_is_not_timed(monkeypatch):
    gather = DistMatrix.to_array
    perturbed = []

    def to_array(self):
        out = gather(self)
        if self.name == "A" and not perturbed:   # U aliases the input
            perturbed.append(True)
            out[0, 0] += 1e-6
        return out

    monkeypatch.setattr(DistMatrix, "to_array", to_array)
    rec = run.run(tiny("ill_eager"), seed=1, seconds=0.3, trace=False)
    assert rec["failed"] == 1 and "orthogonality" in rec["failures"][0]
    assert rec["attempted"] >= 2
    assert len(rec["samples"]) == rec["attempted"] - rec["failed"]
    assert not run.summary(rec, units("end_to_end"))["correct"]


def test_held_out_seed_gives_same_split_and_metric_set():
    for wname in sorted(WORKLOADS):
        a, b = (run.run(tiny(wname), seed=s, seconds=0, trace=True)
                for s in (1, 2))
        assert a["failed"] == b["failed"] == 0
        assert set(a["metrics"]) == set(b["metrics"]) == \
            set(units("per_layer"))
        for key in ("core.it_qr", "core.it_chol"):
            assert a["metrics"][key] == b["metrics"][key]


@pytest.mark.parametrize("wname", sorted(WORKLOADS))
def test_layer_self_times_add_up_to_the_solve(wname):
    from repro.matrices.generator import generate_matrix

    wl = tiny(wname)
    a = generate_matrix(wl.n, cond=wl.cond, seed=3)
    rss = measure.RssSampler()
    tracer = spans.Tracer()
    submit = Runtime.submit
    try:
        with tracer.installed():
            out = measure.decompose(wl, a, rss, tracer=tracer)
    finally:
        rss.close()
    assert out.failure is None
    assert Runtime.submit is submit          # wrappers removed
    on_main = [s for s in tracer.spans if s[6] == tracer._main]
    solve, layers = spans.solve_ledger(on_main)
    assert all(v >= 0.0 for v in layers.values())
    assert sum(layers.values()) == pytest.approx(solve, rel=1e-9)
    assert solve <= out.solve_s


def test_refuses_more_workers_than_cpus(monkeypatch, capsys):
    monkeypatch.setattr(run.os, "sched_getaffinity", lambda pid: {0})
    argv = ["--workload", "well_threads2", "--seed", "1", "--seconds", "0"]
    assert run.main(argv) == 2
    assert "CPUs" in capsys.readouterr().err


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "ill_eager", "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable] + cmd[1:], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
