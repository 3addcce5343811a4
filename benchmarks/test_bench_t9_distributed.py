"""pytest-benchmark target for T9: distributed sketch via unbiased merge (sec 5.5).

One round at BENCH scale; writes results/t9_distributed_bench.csv (the numbers
quoted in EXPERIMENTS.md) and asserts the paper's qualitative claim.
"""
from repro.experiments import t9_distributed as exp
from repro.experiments.scales import params, write_tables


def test_t9_distributed_bench(spark, benchmark):
    tab = benchmark.pedantic(
        lambda: exp.run(spark, **params("t9", "bench")), rounds=1, iterations=1
    )
    write_tables("t9", "bench", tab)
    # merged per-partition sketches stay unbiased across brand queries
    assert abs(tab["rel_bias"].mean()) < 0.05
    assert tab["coverage"].mean() >= 0.9
