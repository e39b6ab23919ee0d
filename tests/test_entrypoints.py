"""Every ``jobs/*.py`` module imports cleanly.

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
    # ``alias.name`` uses (e.g. ``synth_data.interactions`` inside main())
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
