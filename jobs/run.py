"""spark-submit entrypoint for every reproduced table (T1..T9).

Usage: spark-submit jobs/run.py --table t4 [--scale test|bench]
Prints the table and writes its ``results/<name>_<scale>.csv`` files, one
per name in ``TABLES``.
"""
import argparse
import importlib

import pandas as pd

from repro.experiments.scales import TABLES, get_session, params, write_tables


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--table", choices=sorted(TABLES), required=True)
    ap.add_argument("--scale", choices=["test", "bench"], default="bench")
    args = ap.parse_args()
    module = TABLES[args.table][0]
    exp = importlib.import_module(f"repro.experiments.{module}")
    spark = get_session(module)
    pd.set_option("display.width", 220)
    out = exp.run(spark, **params(args.table, args.scale))
    write_tables(args.table, args.scale, *(out if isinstance(out, tuple) else (out,)))
    spark.stop()


if __name__ == "__main__":
    main()
