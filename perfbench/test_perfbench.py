"""Tests of the benchmark itself, on tiny meshes.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import lsm2d  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke_run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_names_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result = smoke_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


def wrong(stats: workloads.PassStats) -> list[workloads.Check]:
    return [c for c in stats.checks if not c.ok]


def plant_wrong_displacement(outcome: workloads.Outcome) -> None:
    for result in outcome.results:
        if result.u is not None:
            result.u.flat[np.argmax(np.abs(result.u))] *= 1.01
            return


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_planted_wrong_displacement_is_counted(workload, tmp_path):
    ops = workloads.WORKLOADS[workload](tmp_path, True, workloads.Problems())
    clean = workloads.run_pass(ops)
    planted = workloads.run_pass(ops, tamper=plant_wrong_displacement)
    assert not any(c.integrity for c in wrong(clean))
    assert any(c.integrity for c in wrong(planted))
    assert len(wrong(planted)) > len(wrong(clean))


def test_solve_without_inertia_argument_gets_no_extra_argument(monkeypatch):
    monkeypatch.setattr(lsm2d, "solve", lambda reduced: None)
    assert workloads.solve_kwargs() == {}


def test_missing_function_reads_zero_and_is_not_wrapped(monkeypatch, tmp_path):
    for module in (lsm2d, lsm2d.lattice):
        monkeypatch.delattr(module, "system_inertia")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stats = workloads.run_pass(
            workloads.sparse_ops(tmp_path, True, workloads.Problems()), tracer
        )
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert stats.failed_solves == 0
    assert summary["lattice.solve.calls"] == 4
    assert summary.get("lattice.system_inertia.calls", 0.0) == 0.0


def test_self_time_excludes_child_spans(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.run_pass(workloads.verdict_ops(tmp_path, True, workloads.Problems()), tracer)
    finally:
        tracer.uninstall()
    s = tracer.summary()
    assert s["lattice.system_inertia.calls"] == s["lattice.solve.calls"] == 2
    child = s["lattice.system_inertia.busy_s"]
    assert s["lattice.solve.self_s"] == pytest.approx(s["lattice.solve.busy_s"] - child, abs=1e-9)
    # no wrapper is left behind once uninstalled
    assert not hasattr(lsm2d.lattice.solve, "__wrapped__")
