"""Experiment harnesses — one module per reproduced table (see DESIGN.md).

Each module exposes ``run(spark, **scale-params)`` returning the
table's frame(s). ``scales.py`` holds each table's parameters and CSV
names; ``jobs/run.py --table tN`` runs any table under spark-submit and
``benchmarks/test_bench_tN_*.py`` under pytest-benchmark, both writing
``results/`` through ``scales.write_tables``. Monte-Carlo replications
run in parallel across cores via Spark (``common.py``).
"""
