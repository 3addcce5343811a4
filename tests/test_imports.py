"""Import guard and job-entrypoint checks (no linter runs on this repo).

Every module must import as the first one in a fresh interpreter: an
import cycle, such as ``result -> variance -> space_saving -> result``,
only shows when the cycle's modules are entered in a particular order.
The ``benchmarks/`` targets are collected too, so that a broken import
there fails here rather than only when the benchmarks are run.
"""
import os
import pkgutil
import runpy
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro
from repro.experiments import scales

ROOT = Path(__file__).resolve().parent.parent
JOB = ROOT / "jobs" / "run.py"
MODULES = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))


def _env() -> dict:
    """This environment with ``src`` first on ``PYTHONPATH``."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def _import_first(code: str) -> str:
    """stderr of a fresh interpreter that runs ``code`` ("" on success)."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return "" if proc.returncode == 0 else proc.stderr


def test_every_module_imports_first_in_a_fresh_interpreter():
    codes = [f"import {m}" for m in MODULES]
    codes.append(f"import runpy; runpy.run_path({str(JOB)!r})")
    with ThreadPoolExecutor(max_workers=4) as pool:
        errors = dict(zip(codes, pool.map(_import_first, codes)))
    assert len(MODULES) > 30
    assert not any(errors.values()), {c: e for c, e in errors.items() if e}


def test_no_module_needs_a_test_only_dependency():
    # the DuckDB oracle and the hypothesis properties live under tests/
    code = (
        "import importlib, sys; "
        "sys.modules['duckdb'] = sys.modules['hypothesis'] = None; "
        f"[importlib.import_module(m) for m in {MODULES!r}]"
    )
    assert _import_first(code) == ""


def test_spark_sketch_imports_without_a_jvm():
    # the JVM builder is compiled and loaded on first use, not on import
    code = (
        "import repro.core.spark_sketch as s; from pyspark import SparkContext; "
        "assert SparkContext._gateway is None and not s._LOADED"
    )
    assert _import_first(code) == ""


def test_job_tables_cover_every_table():
    tables = runpy.run_path(str(JOB))["TABLES"]
    assert set(tables) == set(scales.BENCH) == set(scales.TEST)
    for module, _ in tables.values():
        assert (ROOT / "src" / "repro" / "experiments" / f"{module}.py").is_file()


def test_job_csv_names_match_committed_results():
    tables = runpy.run_path(str(JOB))["TABLES"]
    assert tables["t1"][1] == ("t1_inclusion", "t1_inclusion_items")
    assert tables["t4"][1] == ("t4_priority", "t4_priority_totals")
    assert tables["t6"][1] == ("t6_pathological_inclusion", "t6_pathological_error")
    written = {f"{name}_bench.csv" for _, names in tables.values() for name in names}
    committed = {p.name for p in (ROOT / "results").glob("*_bench.csv")}
    assert written == committed


def test_every_table_bench_target_collects():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "benchmarks/"],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    targets = sorted((ROOT / "benchmarks").glob("test_bench_t*.py"))
    assert len(targets) == len(scales.TABLES)
    for path in targets:
        assert f"benchmarks/{path.name}::" in proc.stdout, path.name
