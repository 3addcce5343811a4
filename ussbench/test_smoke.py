"""Smoke test of the benchmark: every workload at tiny scale.

    python3 -m pytest ussbench/test_smoke.py -q

Checks that each run prints every metric of ``BENCHMARK.json`` with its
unit, that a traced run records each wrapped function of its workload,
and that the benchmark refuses to run without the repo's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: wrapped function -> recorded as a span (True) or a per-row aggregate
TRACED = {
    "stream_kernel": {
        "kernel.update_many": True,
        "space_saving.subset_sum_ci": True,
    },
    "weighted_decay": {
        "decay.add": False,
        "pps.splitting": False,
        "pps.probs": False,
        "result.subset_sum_ci": True,
    },
    "spark_lineitem": {
        "spark_sketch.sketch_dataframe": True,
        "spark_sketch.final_merge": True,
        "merge.reduce_counts": True,
        "priority.sample": True,
        "result.subset_sum_ci": True,
    },
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "ussbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in specs)
        return
    doc = json.loads((ROOT / ".bench_out" / f"trace-{workload}-7.json").read_text())
    span_names = {s["name"] for s in doc["spans"]}
    agg_names = {n for per in doc["aggregates"].values() for n, a in per.items() if a["calls"]}
    for name, as_span in TRACED[workload].items():
        assert name in (span_names if as_span else agg_names), name
    assert {"bench.sketch", "bench.exact", "bench.query"} <= span_names
    ids = {s["id"] for s in doc["spans"]}
    assert all(s["parent"] is None or s["parent"] in ids for s in doc["spans"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "ussbench", tmp_path / "ussbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("stream_kernel", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
