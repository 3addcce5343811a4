"""The operation loop and the metrics every workload reports.

One operation (op) builds a sketch with the repo's public entry point and
computes the exact aggregation it replaces, from the same input, back to
back. Which of the two runs first alternates every two ops, so drift of
the host within a pair cancels in the ratio. Each op then answers the
workload's query panel from the sketch and from the exact per-item
totals, and checks its own outputs; a failed check fails the op.

The loop is closed: one caller, the next op starts when the previous one
ends. It runs for the requested seconds and at least ``min_ops`` ops.

A workload (``wl_*.py``) has the attributes ``name``, ``accuracy_ops``,
``exact_repeats`` and ``query_repeats``, and the methods ``setup()``,
``verify()``, ``sketch(i)``, ``check(i, result)``, ``exact(i)``,
``query_sketch(i, result)``, ``query_exact(i, totals)``, ``truths(i)``,
``patch(tracer)`` and ``close()``.
"""
from __future__ import annotations

import contextlib
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from tracing import Tracer

now = time.perf_counter

#: The nominal level of every confidence interval the panels ask for.
CI_LEVEL = 0.95

#: Runs set up their inputs at least this many times, and until this many
#: seconds have passed, and report the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

#: Untimed ops before the timed loop, so caches fill, workers start and
#: the JVM compiles both weightings' plans.
WARMUP_OPS = 4


@dataclass
class Op:
    """Timings (seconds) and checks of one operation."""

    index: int
    traced: bool
    probe_s: float = 0.0
    sketch_s: float = 0.0
    exact_s: float = 0.0
    query_sketch_s: float = 0.0
    query_exact_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    #: raw per-layer numbers the workload measured inside its sketch call
    extra: dict = field(default_factory=dict)
    #: (query key, estimate, ci low, ci high, truth) per panel query
    answers: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def op_seed(seed: int, op: int) -> int:
    """Sketch seed of op ``op``: a fixed list per workload seed."""
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


def host_probe() -> float:
    """Seconds for a fixed pure-Python dict loop (host drift diagnostic)."""
    d: dict = {}
    get = d.get
    t0 = now()
    for i in range(20_000):
        k = i & 1023
        d[k] = get(k, 0) + 1
    return now() - t0


def dict_total(items, weights=None) -> dict:
    """Exact per-item totals by a plain dict aggregation."""
    d: dict = {}
    get = d.get
    if weights is None:
        for x in items:
            d[x] = get(x, 0) + 1
    else:
        for x, w in zip(items, weights):
            d[x] = get(x, 0.0) + w
    return d


def scan_subset_sums(totals: dict, subsets) -> list[float]:
    """Each subset's sum scanned from exact per-item totals.

    This is the query the sketch answers over its own ``m`` items, run
    over every distinct item instead.
    """
    out = []
    for s in subsets:
        acc = 0
        for x, c in totals.items():
            if x in s:
                acc += c
        out.append(float(acc))
    return out


def setup_times(wl) -> list[float]:
    """Seconds of each repeated ``wl.setup()``; see ``SETUP_REPEATS``."""
    times: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = now()
        wl.setup()
        times.append(now() - t0)
    return times


def _timed(fn, *args, repeats: int = 1):
    """``fn(*args)`` run ``repeats`` times: the last output and the total seconds."""
    t0 = now()
    for _ in range(repeats):
        out = fn(*args)
    return out, now() - t0


def run_op(wl, i: int, tracer: Tracer | None) -> Op:
    """One op of workload ``wl``; see the module docstring."""
    op = Op(index=i, traced=tracer is not None)
    op.probe_s = host_probe()

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    order = ("sketch", "exact") if (i // 2) % 2 == 0 else ("exact", "sketch")
    if tracer is not None:
        wl.patch(tracer)
        tracer.begin_op(i)
    try:
        for side in order:
            if side == "sketch":
                with span("bench.sketch"):
                    (result, op.extra), op.sketch_s = _timed(wl.sketch, i)
            else:
                with span("bench.exact"):
                    totals, total_s = _timed(wl.exact, i, repeats=wl.exact_repeats)
                op.exact_s = total_s / wl.exact_repeats
        for side in order:
            if side == "sketch":
                with span("bench.query"):
                    est, op.query_sketch_s = _timed(
                        wl.query_sketch, i, result, repeats=wl.query_repeats
                    )
            else:
                exact_answers, op.query_exact_s = _timed(
                    wl.query_exact, i, totals, repeats=wl.query_repeats
                )
    finally:
        if tracer is not None:
            tracer.end_op()
            tracer.unpatch()

    op.problems.extend(wl.check(i, result))
    truths = wl.truths(i)
    for (key, truth), got in zip(truths, exact_answers):
        if not math.isclose(got, truth, rel_tol=1e-9, abs_tol=1e-9):
            op.problems.append(f"exact answer for {key}: {got} != {truth}")
    if len(est) != len(truths) or len(exact_answers) != len(truths):
        op.problems.append("query panel returned the wrong number of answers")
    op.answers = [(k, e, lo, hi, t) for (k, t), (e, lo, hi) in zip(truths, est)]
    return op


def run_ops(wl, seconds: float, min_ops: int, trace: bool) -> tuple[list[Op], int, Tracer | None]:
    """Run ops for ``seconds`` (and at least ``min_ops``).

    In a traced run, ops alternate in blocks of four between traced and
    untraced, so the tracing overhead is measured within the run.
    Returns the completed ops, the number of ops that raised, and the
    tracer.
    """
    tracer = Tracer() if trace else None
    ops: list[Op] = []
    raised = 0
    deadline = now() + seconds
    i = 0
    while i < min_ops or now() < deadline:
        traced = trace and (i // 4) % 2 == 0
        try:
            ops.append(run_op(wl, i, tracer if traced else None))
        except Exception:  # an op that raises is a failed op; keep going
            traceback.print_exc(file=sys.stderr)
            raised += 1
        i += 1
    return ops, raised, tracer


# -- statistics ------------------------------------------------------------


def median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def tail(xs) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``. With fewer than 21 samples that
    percentile would fall below the median, so the median is returned.
    """
    xs = sorted(xs)
    n = len(xs)
    if n < 21:
        return median(xs), 50.0
    return float(xs[n - 11]), 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def accuracy(answers: list[tuple]) -> dict[str, float]:
    """``subset_rrmse``, ``ci_coverage`` and ``ci_width_rel`` of a panel.

    ``subset_rrmse`` is the relative error ``(estimate - truth) / truth``
    root-mean-squared over every answer of every accuracy op.
    ``ci_coverage`` is capped at the nominal level: coverage above it is
    not better, and an honest variance estimate that brings an
    over-covering interval down to the nominal level must not read as a
    regression.
    """
    sq_err = 0.0
    covered = 0
    widths = []
    for _, est, lo, hi, truth in answers:
        sq_err += ((est - truth) / truth) ** 2
        covered += lo <= truth <= hi
        widths.append((hi - lo) / 2.0 / truth)
    return {
        "subset_rrmse": math.sqrt(sq_err / len(answers)),
        "ci_coverage": min(covered / len(answers), CI_LEVEL),
        "ci_width_rel": median(widths),
    }


# -- metrics ---------------------------------------------------------------


def end_to_end(wl, good: list[Op], setup_s: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of the ops that passed their checks, and raw
    diagnostics printed beside them."""
    ratios = [o.sketch_s / o.exact_s for o in good]
    tail_value, tail_pct = tail(ratios)
    acc = accuracy([a for o in good if o.index < wl.accuracy_ops for a in o.answers])
    metrics = {
        "setup_s": median(setup_s),
        "cost_vs_exact": median(ratios),
        "cost_vs_exact_tail": tail_value,
        "query_cost_vs_exact": median(o.query_sketch_s / o.query_exact_s for o in good),
        "peak_rss_mb": peak_rss_mb(),
        **acc,
    }
    diag = {
        "ops": len(good),
        "tail_percentile": tail_pct,
        "setup_runs": len(setup_s),
        "op_ms": 1e3 * median(o.sketch_s for o in good),
        "exact_ms": 1e3 * median(o.exact_s for o in good),
        "rows_per_s": median(o.extra["rows"] / o.sketch_s for o in good),
        "host_probe_ms": 1e3 * median(o.probe_s for o in good),
        "accuracy_answers": sum(len(o.answers) for o in good if o.index < wl.accuracy_ops),
    }
    return metrics, diag


def per_layer(wl, good: list[Op], tracer: Tracer) -> dict:
    """Per-layer metrics of a traced run's ops that passed their checks.

    Raw wall-clock numbers come from the untraced ops of the run, self
    times and call counts from the traced ones. A layer the workload
    does not call reads 0.
    """
    raw = [o for o in good if not o.traced]
    traced = [o for o in good if o.traced]

    def raw_ms(attr, workload):
        return 1e3 * median(getattr(o, attr) for o in raw) if wl.name == workload else 0.0

    def extra_ms(key):
        return 1e3 * median(o.extra[key] for o in raw) if raw and key in raw[0].extra else 0.0

    def rows_per_s(workload):
        return median(o.extra["rows"] / o.sketch_s for o in raw) if wl.name == workload else 0.0

    def agg(name, col):
        """Median over traced ops of a per-op aggregate (col 0 calls, 1 total, 2 self)."""
        return median(tracer.per_op[o.index][name][col] for o in traced)

    def ms(name, col):
        return 1e3 * agg(name, col)

    def counter(name):
        return median(tracer.counters[o.index][name] for o in traced)

    def share(names, col):
        """Median over traced ops of the named layers' time over sketch time."""
        return median(
            sum(tracer.per_op[o.index][n][col] for n in names)
            / tracer.per_op[o.index]["bench.sketch"][1]
            for o in traced
        )

    def first_op(key):
        return float(good[0].extra[key]) if key in good[0].extra else 0.0

    pps_calls = agg("pps.splitting", 0)
    cost_traced = median(o.sketch_s / o.exact_s for o in traced)
    cost_raw = median(o.sketch_s / o.exact_s for o in raw)
    return {
        "host.probe_ms": 1e3 * median(o.probe_s for o in good),
        "exact.count_ms": raw_ms("exact_s", "stream_kernel"),
        "exact.groupby_ms": raw_ms("exact_s", "spark_lineitem"),
        "exact.decayed_ms": raw_ms("exact_s", "weighted_decay"),
        "kernel.hit_ms": extra_ms("hit_s"),
        "kernel.miss_ms": extra_ms("miss_s"),
        "kernel.rows_per_s": rows_per_s("stream_kernel"),
        "kernel.n_min": first_op("n_min"),
        "kernel.self_ms": ms("kernel.update_many", 2),
        "space_saving.query_ms": raw_ms("query_sketch_s", "stream_kernel"),
        "space_saving.queries": agg("space_saving.subset_sum_ci", 0),
        "result.query_ms": 0.0 if wl.name == "stream_kernel" else 1e3 * median(o.query_sketch_s for o in raw),
        "result.queries": agg("result.subset_sum_ci", 0),
        "spark_sketch.op_ms": raw_ms("sketch_s", "spark_lineitem"),
        "spark_sketch.rows_per_s": rows_per_s("spark_lineitem"),
        "spark_sketch.executor_ms": ms("spark_sketch.sketch_dataframe", 2),
        "merge.final_ms": ms("spark_sketch.final_merge", 1),
        "merge.final_share": share(["spark_sketch.final_merge"], 1),
        "merge.rows_in": counter("merge.rows_in"),
        "merge.items_in": counter("merge.items_in"),
        "merge.threshold": first_op("threshold"),
        "merge.reduce_ms": ms("merge.reduce_counts", 2),
        "priority.sample_ms": ms("priority.sample", 2),
        "decay.add_ms": raw_ms("sketch_s", "weighted_decay"),
        "decay.rows_per_s": rows_per_s("weighted_decay"),
        "decay.self_ms": ms("decay.add", 2),
        "pps.splitting_ms": ms("pps.splitting", 2),
        "pps.probs_ms": ms("pps.probs", 2),
        "pps.calls": pps_calls,
        "pps.n_mean": median(
            tracer.counters[o.index]["pps.n"] / tracer.per_op[o.index]["pps.splitting"][0]
            for o in traced
        ) if pps_calls else 0.0,
        "pps.self_share": share(["pps.splitting", "pps.probs"], 2),
        "bench.self_ms": ms("bench.sketch", 2),
        "trace.overhead": cost_traced / cost_raw,
    }
