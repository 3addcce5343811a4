"""pytest-benchmark target for T6: two-phase pathological stream (Fig 7).

One round at BENCH scale; writes results/t6_pathological_{inclusion,error}_bench.csv
(the numbers quoted in EXPERIMENTS.md) and asserts the paper's qualitative claim.
"""
from repro.experiments import t6_pathological as exp
from repro.experiments.scales import params, write_tables


def test_t6_pathological_bench(spark, benchmark):
    inc, err = benchmark.pedantic(
        lambda: exp.run(spark, **params("t6", "bench")), rounds=1, iterations=1
    )
    write_tables("t6", "bench", inc, err)
    e = err.set_index("method")
    # det SS is badly biased on first-half queries; USS is not
    assert e.loc["deterministic_ss", "rel_bias_mean"] < -0.5
    assert abs(e.loc["unbiased_ss", "rel_bias_mean"]) < 0.1
    assert (
        e.loc["deterministic_ss", "rrmse_mean"]
        > 1.5 * e.loc["unbiased_ss", "rrmse_mean"]
    )
