"""pytest-benchmark target for T2: RRMSE by skew (Fig 3).

One round at BENCH scale; writes results/t2_skew_bench.csv (the numbers
quoted in EXPERIMENTS.md) and asserts the paper's qualitative claim.
"""
from repro.experiments import t2_skew as exp
from repro.experiments.scales import params, write_tables


def test_t2_skew_bench(spark, benchmark):
    tab = benchmark.pedantic(
        lambda: exp.run(spark, **params("t2", "bench")), rounds=1, iterations=1
    )
    write_tables("t2", "bench", tab)
    by_shape = tab.groupby("shape")["rrmse_mean"].mean().sort_index()
    # more skew (lower shape) -> lower error, monotone across the sweep ends
    assert by_shape.iloc[0] < by_shape.iloc[-1]
    # bigger subsets -> lower error within each shape
    for _, grp in tab.groupby("shape"):
        g = grp.sort_values("bucket")
        assert g["rrmse_mean"].iloc[-1] < g["rrmse_mean"].iloc[0]
