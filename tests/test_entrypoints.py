"""Every ``jobs/*.py`` module imports cleanly, and ``src/repro`` keeps one
executor-side Python kernel.

Tier-1 runs no job, so this is what catches one that still
imports or uses a deleted name. Importing must not start Spark: entrypoint
work belongs under ``__main__`` or in fixtures.
"""
import ast
import importlib.util
import inspect
from pathlib import Path

import pytest
from pyspark import SparkContext

from repro import experiments

ROOT = Path(__file__).resolve().parents[1]
JOBS = sorted(ROOT.glob("jobs/*.py"))
SRC = ROOT / "src" / "repro"


def load_job(path: Path):
    spec = importlib.util.spec_from_file_location(f"jobs_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("path", JOBS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_imports_without_spark(path):
    before = SparkContext._active_spark_context
    mod = load_job(path)
    assert SparkContext._active_spark_context is before
    # ``alias.name`` uses (e.g. ``experiments.load`` inside main())
    # are only resolved when the code runs; check them against the module.
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = getattr(mod, node.value.id, None)
            if (
                inspect.ismodule(target)
                and target.__name__.startswith("repro")
                and not hasattr(target, node.attr)
            ):
                missing.append(f"{node.value.id}.{node.attr}")
    assert not missing


def test_run_experiments_names_every_harness():
    names = load_job(ROOT / "jobs" / "run_experiments.py").NAMES
    harnesses = {
        name
        for name, fn in inspect.getmembers(experiments, inspect.isfunction)
        if name.startswith(("table", "fig")) and fn.__module__ == experiments.__name__
    }
    assert len(names) == len(set(names))
    assert set(names) == harnesses


#: Every PySpark entry point that runs Python code on the executors.
EXECUTOR_PYTHON = {
    "mapInPandas",
    "applyInPandas",
    "mapInArrow",
    "applyInArrow",
    "udf",
    "pandas_udf",
    "udtf",
    "rdd",
    "mapPartitions",
    "foreachPartition",
}


def test_python_kernels_only_in_p2_driver():
    """Executor-side Python (``mapInPandas``, UDFs, RDD functions, ...,
    whether called as an attribute or imported by name) runs only in the one
    P2 driver, ``repro.spark.search.p2``."""
    callers = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
            else:
                continue
            if names & EXECUTOR_PYTHON:
                callers.add(path.relative_to(SRC).as_posix())
    assert callers == {"spark/search.py"}
