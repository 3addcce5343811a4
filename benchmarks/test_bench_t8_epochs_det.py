"""pytest-benchmark target for T8: Det vs Unbiased SS per epoch (Fig 10).

One round at BENCH scale; writes results/t8_epochs_det_bench.csv (the numbers
quoted in EXPERIMENTS.md) and asserts the paper's qualitative claim.
"""
from repro.experiments import t8_epochs_det as exp
from repro.experiments.scales import params, write_tables


def test_t8_epochs_det_bench(spark, benchmark):
    tab = benchmark.pedantic(
        lambda: exp.run(spark, **params("t8", "bench")), rounds=1, iterations=1
    )
    write_tables("t8", "bench", tab)
    late = tab.iloc[-2:]
    # paper: ~50x error on the last epochs; demand at least 5x here
    assert (late["det_over_uss"] > 5.0).all()
    # det estimates early epochs as 0 -> RRMSE ~ 1 (or worse via misses)
    early = tab.iloc[:5]
    assert (early["rrmse_deterministic_ss"] > 0.9).all()
