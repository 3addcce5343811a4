"""pytest-benchmark target for T1: inclusion probabilities vs PPS (Fig 2).

One round at BENCH scale; writes results/t1_inclusion_bench.csv (the numbers
quoted in EXPERIMENTS.md) and asserts the paper's qualitative claim.
"""
from repro.experiments import t1_inclusion as exp
from repro.experiments.scales import params, write_tables


def test_t1_inclusion_bench(spark, benchmark):
    tab, per_item = benchmark.pedantic(
        lambda: exp.run(spark, **params("t1", "bench")), rounds=1, iterations=1
    )
    write_tables("t1", "bench", tab, per_item)
    # empirical inclusion tracks thresholded PPS in every count decile
    assert (tab["abs_gap"] < 0.06).all()
    # heaviest decile is sampled with certainty
    assert tab["pi_empirical"].iloc[-1] > 0.99
