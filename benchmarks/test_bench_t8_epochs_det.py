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
    ratio = tab["det_over_uss"]
    # paper: ~50x error on the last epochs. Epoch 9's ratio at this scale is
    # ~5.2 and its 50-rep blocks (rep seeds 0-399) read 4.75-6.56, mean 5.23,
    # SD 0.58: demand 4x there, about two SDs below the mean, and 5x on
    # epoch 10, whose blocks read 14.6-19.4
    assert ratio.iloc[-2] > 4.0
    assert ratio.iloc[-1] > 5.0
    # det estimates early epochs as 0 -> RRMSE ~ 1 (or worse via misses)
    early = tab.iloc[:5]
    assert (early["rrmse_deterministic_ss"] > 0.9).all()
