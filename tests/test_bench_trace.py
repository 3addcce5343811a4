"""The names ``ussbench --trace 1`` patches exist and are restored.

A traced benchmark run wraps repo functions by name (``spark_sketch._final_merge``,
``merge.priority_sample``, ``weighted.splitting_pps_sample``, ...). A rename would
otherwise only show as a ``KeyError`` in a traced run; here every workload's
``patch`` runs against a real tracer, without a Spark session.
"""
import importlib
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

USSBENCH = Path(__file__).resolve().parents[1] / "ussbench"
WORKLOADS = [
    ("wl_spark_lineitem", "SparkLineitem"),
    ("wl_stream_kernel", "StreamKernel"),
    ("wl_weighted_decay", "WeightedDecay"),
]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(USSBENCH))
    return importlib.import_module


@pytest.mark.parametrize("module, cls", WORKLOADS)
def test_patch_then_unpatch_restores_originals(bench, module, cls):
    tracer = bench("tracing").Tracer()
    workload = object.__new__(getattr(bench(module), cls))  # no set-up, no Spark
    workload.patch(tracer)
    patched = list(tracer._patches)
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is not original
    tracer.unpatch()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def test_traced_stream_kernel_reaches_the_kernel_loop(bench):
    # a sketch method that shadowed the kernel's update_many would leave a
    # traced stream_kernel run with no kernel time
    from repro.core.space_saving import UnbiasedSpaceSaving

    tracer = bench("tracing").Tracer()
    object.__new__(bench("wl_stream_kernel").StreamKernel).patch(tracer)
    tracer.begin_op(0)
    try:
        sk = UnbiasedSpaceSaving(3, seed=0)
        sk.update_many(list("abcabdae"))
        est, _, lo, hi = sk.subset_sum_ci({"a"})
    finally:
        tracer.end_op()
        tracer.unpatch()
    assert sk.t == 8 and lo <= est <= hi
    calls = {name: agg[0] for name, agg in tracer.per_op[0].items()}
    assert calls == {"kernel.update_many": 1, "space_saving.subset_sum_ci": 1}


def test_traced_final_merge_reaches_the_driver_reduction(bench):
    from repro.core import spark_sketch

    tracer = bench("tracing").Tracer()
    object.__new__(bench("wl_spark_lineitem").SparkLineitem).patch(tracer)
    parts = pd.DataFrame({
        "item": np.arange(40), "estimate": np.arange(1.0, 41), "threshold": 0.0,
        "part_t": 820.0, "pid": 0,
    })
    tracer.begin_op(0)
    try:
        res = spark_sketch._final_merge(parts, 5, 0)
    finally:
        tracer.end_op()
        tracer.unpatch()
    assert len(res) == 5 and res.t == 820.0
    calls = {name: agg[0] for name, agg in tracer.per_op[0].items()}
    assert calls == {
        "spark_sketch.final_merge": 1, "merge.reduce_counts": 1, "priority.sample": 1,
    }
    assert tracer.counters[0]["merge.rows_in"] == 40


def test_traced_weighted_decay_reaches_the_reduction(bench):
    # the reduction must call splitting_pps_sample through weighted's module
    # binding, or a traced weighted_decay run records no PPS time
    from repro.core.decay import ForwardDecaySpaceSaving
    from repro.core.weighted import SPILL_FACTOR

    m = 2
    tracer = bench("tracing").Tracer()
    object.__new__(bench("wl_weighted_decay").WeightedDecay).patch(tracer)
    tracer.begin_op(0)
    try:
        sk = ForwardDecaySpaceSaving(m, rate=0.01, seed=0)
        for t in range(SPILL_FACTOR * m + 1):  # one spill past the cap
            sk.add(t, float(t))
        sk.add("new", 20.0)  # m + 1 items: the query reduces again
        est, _, lo, hi = sk.result().subset_sum_ci({"new"})
    finally:
        tracer.end_op()
        tracer.unpatch()
    assert len(sk.estimates()) == m and lo <= est <= hi
    calls = {name: agg[0] for name, agg in tracer.per_op[0].items()}
    assert calls == {
        "decay.add": SPILL_FACTOR * m + 2, "pps.splitting": 2, "pps.probs": 2,
        "result.subset_sum_ci": 1,
    }
    assert tracer.counters[0]["pps.n"] == (SPILL_FACTOR * m + 1) + (m + 1)
