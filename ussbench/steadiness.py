#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 ussbench/steadiness.py --workloads stream_kernel --seeds 1 2 3 4 5 --log a.jsonl
    python3 ussbench/steadiness.py --compare a.jsonl b.jsonl

For every end-to-end metric, and for the raw wall-clock diagnostics
printed beside them (``op_ms``, ``rows_per_s``, ``exact_ms``), the spread
is the distance between the first and third quartile of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their
median. A metric is steady when its spread is below a third of its bound
in ``BENCHMARK.json``. Runs are appended as JSON lines to ``--log``.
``--compare`` prints, as a markdown table, two logged sets side by side
with the change of each median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = ("op_ms", "rows_per_s", "exact_ms", "host_probe_ms")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "ussbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    diag = next(
        json.loads(line)["diag"] for line in reversed(proc.stderr.splitlines())
        if line.startswith('{"diag"')
    )
    return {"workload": workload, "seed": seed, "result": result, "diag": diag}


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def _values(runs: list[dict]) -> dict[str, list[float]]:
    """Metric or raw diagnostic name -> its value in each run."""
    out = {}
    for name in runs[0]["result"]["metrics"]:
        out[name] = [r["result"]["metrics"][name]["value"] for r in runs]
    for name in RAW:
        out["raw " + name] = [r["diag"][name] for r in runs]
    return out


def report(runs: list[dict], bounds: dict[str, float]) -> None:
    for name, vals in _values(runs).items():
        s = spread(vals)
        bound = bounds.get(name)
        flag = "" if bound is None else (
            "ok" if s < bound / 3 else ("WITHIN BOUND" if s <= bound else "TOO NOISY")
        )
        print(f"{name:22s} median {statistics.median(vals):12.5g} spread {s:7.4f} "
              f"bound {bound if bound is not None else '-':>5} {flag}")
    fails = sum(r["result"]["failed"] for r in runs)
    print(f"failed ops {fails}, all correct {all(r['result']['correct'] for r in runs)}")


def compare(log_a: Path, log_b: Path, bounds: dict[str, float]) -> None:
    def load(path):
        by_wl: dict[str, list[dict]] = {}
        for line in path.read_text().splitlines():
            run = json.loads(line)
            by_wl.setdefault(run["workload"], []).append(run)
        return by_wl

    a, b = load(log_a), load(log_b)
    for wl in sorted(a.keys() & b.keys()):
        va, vb = _values(a[wl]), _values(b[wl])
        print(f"\n### {wl} ({len(a[wl])} + {len(b[wl])} runs)\n")
        print("| metric | bound | median A | spread A | median B | spread B | B vs A |")
        print("|---|---|---|---|---|---|---|")
        for name in va:
            ma, mb = statistics.median(va[name]), statistics.median(vb[name])
            bound = bounds.get(name)
            print(f"| {name} | {bound if bound is not None else '-'} | {ma:.5g} | "
                  f"{spread(va[name]):.3f} | {mb:.5g} | {spread(vb[name]):.3f} | "
                  f"{(mb - ma) / ma:+.3f} |")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--seeds", nargs="+", type=int)
    p.add_argument("--log", type=Path)
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.compare:
        compare(*args.compare, bounds)
        return 0
    if not (args.workloads and args.seeds and args.log):
        p.error("give --workloads, --seeds and --log, or --compare")
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            run = run_once(wl, seed, bench["run_seconds"])
            runs.append(run)
            with args.log.open("a") as f:
                f.write(json.dumps(run) + "\n")
        print(f"## {wl} ({len(runs)} runs)")
        report(runs, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
