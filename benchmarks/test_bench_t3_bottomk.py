"""pytest-benchmark target for T3: USS vs bottom-k uniform sampling (Fig 4).

One round at BENCH scale; writes results/t3_bottomk_bench.csv (the numbers
quoted in EXPERIMENTS.md) and asserts the paper's qualitative claim.
"""
from repro.experiments import t3_bottomk as exp
from repro.experiments.scales import params, write_tables


def test_t3_bottomk_bench(spark, benchmark):
    tab = benchmark.pedantic(
        lambda: exp.run(spark, **params("t3", "bench")), rounds=1, iterations=1
    )
    write_tables("t3", "bench", tab)
    ratios = tab["bottomk_over_uss"].dropna()
    # uniform item sampling is far worse on skewed data, in every bucket
    assert (ratios > 2.0).all()
    assert ratios.max() > 8.0
