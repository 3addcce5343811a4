"""pytest-benchmark target for T7: CI coverage on sorted stream (Figs 8-9).

One round at BENCH scale; writes results/t7_epochs_ci_bench.csv (the numbers
quoted in EXPERIMENTS.md) and asserts the paper's qualitative claim.
"""
from repro.experiments import t7_epochs_ci as exp
from repro.experiments.scales import params, write_tables


def test_t7_epochs_ci_bench(spark, benchmark):
    tab = benchmark.pedantic(
        lambda: exp.run(spark, **params("t7", "bench")), rounds=1, iterations=1
    )
    write_tables("t7", "bench", tab)
    clt = tab[tab["mean_items_in_sample"] >= 10]
    # where the CLT applies, coverage is at or above the advertised 95%
    assert (clt["coverage"] >= 0.9).all()
    # the eq.-5 estimate does not underestimate the spread there
    assert (clt["estimated_sd"] >= 0.7 * clt["empirical_sd"]).all()
    # and tracks the PPS gold-standard variance within a small factor
    mid = tab[(tab["mean_items_in_sample"] >= 10) & (tab["pps_sd"] > 0)]
    assert (mid["empirical_sd"] < 4.0 * mid["pps_sd"]).all()
