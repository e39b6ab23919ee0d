"""Every ``jobs/*.py`` module imports cleanly, and ``src/repro`` keeps one
executor-side Python kernel.

Tier-1 runs no job, so this is what catches one that still
imports or uses a deleted name. Importing must not start Spark: entrypoint
work belongs under ``__main__`` or in fixtures.
"""
import ast
import importlib.util
import inspect
import sys
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


def test_experiments_raw_has_one_block_per_harness():
    """``experiments_raw.txt`` is what ``run_experiments.py --out`` writes:
    one block per harness, in the job's order and under its headers."""
    names = load_job(ROOT / "jobs" / "run_experiments.py").NAMES
    lines = (ROOT / "experiments_raw.txt").read_text().splitlines()
    headers = [line for line in lines if line.startswith("=== ")]
    assert headers == [f"=== {n} (sf=0.5, seed=0) ===" for n in names]


@pytest.mark.parametrize("n_random", ["0", "-3"])
def test_run_experiments_rejects_n_random_below_one(monkeypatch, n_random):
    """A bad ``--n-random`` is a usage error before any Spark session starts,
    not a failure of fig14_significance after every other harness ran."""
    job = load_job(ROOT / "jobs" / "run_experiments.py")
    monkeypatch.setattr(job, "SparkSession", None)
    monkeypatch.setattr(sys, "argv", ["run_experiments.py", "--n-random", n_random])
    with pytest.raises(SystemExit) as exc:
        job.main()
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "job, args",
    [
        ("run_experiments", "table3 --sf nan"),
        ("run_experiments", "--sf inf"),
        ("run_experiments", "--sf 0"),
        ("run_experiments", "--seed -1"),
        ("find_instances", "--mode topk --k 0"),
        ("find_instances", "--delta nan"),
        ("find_instances", "--phi inf"),
        ("find_instances", "--sf -1"),
        ("find_instances", "--sf nan"),
        ("find_instances", "--seed -1"),
    ],
)
def test_job_rejects_bad_number_before_spark(monkeypatch, job, args):
    """A bad numeric argument is a usage error before any Spark session
    starts, not a failure after session start and network generation."""
    mod = load_job(ROOT / "jobs" / f"{job}.py")
    monkeypatch.setattr(mod, "SparkSession", None)
    if job == "find_instances":
        args = f"--dataset passenger --motif M(3,2) {args}"
    monkeypatch.setattr(sys, "argv", [f"{job}.py", *args.split()])
    with pytest.raises(SystemExit) as exc:
        mod.main()
    assert exc.value.code == 2


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
    P2 driver, ``repro.spark.search.p2``, and only ``spark/search.py`` refers
    to that driver: another module reaches P2 through a query of
    ``search``, not a kernel of its own."""
    callers = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
            else:
                continue
            if names & (EXECUTOR_PYTHON | {"p2"}):
                callers.add(path.relative_to(SRC).as_posix())
    assert callers == {"spark/search.py"}


def test_dataframe_joins_only_in_p1_chain():
    """DataFrame joins (``.join`` with an ``on=`` or ``how=`` keyword;
    ``str.join`` takes none) run only in P1's join chain,
    ``repro.spark.structural.structural_matches_df``: the join baseline's
    cascade is that chain over the interval table."""
    callers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "join"
        and {k.arg for k in node.keywords} & {"on", "how"}
    }
    assert callers == {"spark/structural.py"}


#: The project directories whose code may use a name of ``src/repro``.
USERS = ("src", "tests", "perfbench", "jobs")


def _bound_names(node: ast.stmt) -> list[str]:
    """The module-level names a def, class, assignment or import binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(a.asname or a.name).split(".")[0] for a in node.names]
    return []


def _used_names(tree: ast.AST) -> set[str]:
    """Names that code reads: loaded names, attributes, imported names and
    identifier strings (``jobs/run_experiments.py`` names its harnesses)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return used


def test_no_unused_module_names():
    """Every module-level def, class and assignment in ``src/repro`` is used
    somewhere in the project, and every import there is used in its own
    module."""
    trees = {
        path: ast.parse(path.read_text())
        for d in USERS
        for path in (ROOT / d).rglob("*.py")
    }
    used_anywhere = set().union(*map(_used_names, trees.values()))
    unused = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        loaded = {
            n.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                names, used = _bound_names(node), loaded
            elif node in tree.body:
                names, used = _bound_names(node), used_anywhere
            else:
                continue
            unused += [
                f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                for name in names
                if name not in used and not name.startswith("__")
            ]
    assert not unused
