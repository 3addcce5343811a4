#!/usr/bin/env python3
"""Benchmark: each Unbiased Space Saving path timed against its exact baseline.

Run from the root of a checkout of the repository:

    python3 ussbench/run.py --workload stream_kernel --seed 1 --seconds 20 --trace 0

The sketch code is imported from ``src/`` of the same checkout. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer
ones, from a run in which the repo's sketch functions are wrapped in
spans (written to ``.bench_out/``). Raw diagnostics go to standard
error. Workloads and metrics are described in ``ussbench/METRICS.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("spark_lineitem", "stream_kernel", "weighted_decay")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny inputs, for the smoke test only",
    )
    return p.parse_args(argv)


def _environment() -> None:
    """Import path for this process and Spark's workers; scratch in OUT."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-tmp")


def _workload(name: str, seed: int, tiny: bool):
    if name == "stream_kernel":
        from wl_stream_kernel import StreamKernel
        return StreamKernel(seed, tiny)
    if name == "weighted_decay":
        from wl_weighted_decay import WeightedDecay
        return WeightedDecay(seed, tiny)
    from wl_spark_lineitem import SparkLineitem
    return SparkLineitem(seed, tiny, OUT)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "core" / "__init__.py").is_file():
        print(f"ussbench: no src/repro under {ROOT}; run it from a checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = declared["per_layer" if args.trace else "end_to_end"]
    _environment()
    import harness

    seed = args.seed % (1 << 32)
    wl = _workload(args.workload, seed, args.scale == "tiny")
    try:
        setup_s = harness.setup_times(wl)
        problems = wl.verify()
        for i in range(harness.WARMUP_OPS):
            harness.run_op(wl, i, None)
        min_ops = 8 if args.trace else wl.accuracy_ops
        ops, raised, tracer = harness.run_ops(wl, args.seconds, min_ops, bool(args.trace))
    finally:
        wl.close()

    good = [o for o in ops if o.ok]
    for o in ops:
        for p in o.problems:
            print(f"op {o.index}: {p}", file=sys.stderr)
    for p in problems:
        print(f"set-up: {p}", file=sys.stderr)
    if not good:
        print("ussbench: no op succeeded", file=sys.stderr)
        return 1

    values, diag = harness.end_to_end(wl, good, setup_s)
    if getattr(wl, "start_s", None) is not None:
        diag["spark_start_s"] = wl.start_s
    if args.trace:
        values = harness.per_layer(wl, good, tracer)
        tracer.write(
            OUT / f"trace-{args.workload}-{args.seed}.json",
            {"workload": args.workload, "seed": args.seed},
        )
    names = [s["name"] for s in specs]
    if set(values) != set(names):
        raise RuntimeError(f"metrics computed {sorted(values)} != declared {sorted(names)}")
    print(json.dumps({"diag": diag}), file=sys.stderr)
    failed = raised + len(ops) - len(good)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops) + raised,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
