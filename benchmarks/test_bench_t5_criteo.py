"""pytest-benchmark target for T5: marginals on ad impressions (Fig 6).

One round at BENCH scale; writes results/t5_criteo_bench.csv (the numbers
quoted in EXPERIMENTS.md) and asserts the paper's qualitative claim.
"""
from repro.experiments import t5_criteo as exp
from repro.experiments.scales import params, write_tables


def test_t5_criteo_bench(spark, benchmark):
    tab = benchmark.pedantic(
        lambda: exp.run(spark, **params("t5", "bench")), rounds=1, iterations=1
    )
    write_tables("t5", "bench", tab)
    for method, grp in tab.groupby("method"):
        g = grp.sort_values("bucket")
        # relative MSE falls with marginal size; big marginals are tight
        assert g["rel_mse_mean"].iloc[-1] < g["rel_mse_mean"].iloc[0]
        assert g["rel_mse_mean"].iloc[-1] < 0.01
    by = tab.groupby("method")["rel_mse_mean"].mean()
    # the disaggregated sketch is competitive with pre-aggregated priority
    assert by["unbiased_ss"] < 2.0 * by["priority"]
