"""Experiment harnesses — one module per reproduced table (see DESIGN.md).

Each module exposes ``run(spark, **scale-params)`` returning the
table's frame, or its frames in the order of their CSV names in
``scales.TABLES``. ``scales.py`` is the one place where a table's
parameters live (``run()`` takes exactly its table's keys there, with
no defaults) and names its CSVs. ``jobs/run.py --table tN`` runs any
table under spark-submit and ``benchmarks/test_bench_tN_*.py`` under
pytest-benchmark, both writing ``results/`` through
``scales.write_tables``. Monte-Carlo replications run in parallel
across cores via Spark. Every streaming table (T1-T4, T6-T8) is one
replication, ``common.replicate``, given the table's stream
arrangement, queries and methods; T5 and T9 keep their own loops. Every
table measures its rows the same way (``common.py``): one row format,
``replication_rows``, and one per-query summary of bias, RRMSE, SD and
CI coverage, ``query_summary``. A table adds only its own bucketing of
queries.
"""
