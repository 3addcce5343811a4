"""pytest-benchmark target for T4: USS vs priority sampling (Fig 5).

One round at BENCH scale; writes results/t4_priority_bench.csv (the numbers
quoted in EXPERIMENTS.md) and asserts the paper's qualitative claim.
"""
from repro.experiments import t4_priority as exp
from repro.experiments.scales import params, write_tables


def test_t4_priority_bench(spark, benchmark):
    tab, totals = benchmark.pedantic(
        lambda: exp.run(spark, **params("t4", "bench")), rounds=1, iterations=1
    )
    write_tables("t4", "bench", tab, totals)
    by = tab.groupby("method")["rrmse_mean"].mean()
    # USS matches (or beats) the pre-aggregated gold standard
    assert by["unbiased_ss"] < 1.25 * by["priority"]
    t = totals.set_index("method")["total_rrmse"]
    assert t["unbiased_ss"] == 0.0 and t["priority"] > 0.0
