"""The committed benchmark under ``perfbench/`` imports the package and calls
``run_campaign`` positionally; these checks keep that API in place."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from touchtrace.pipeline import run_campaign

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _imported_names():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("touchtrace"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_benchmark_imports_name_the_package():
    assert list(_imported_names())


@pytest.mark.parametrize("where,module,name", list(_imported_names()))
def test_every_name_the_benchmark_imports_exists(where, module, name):
    assert hasattr(importlib.import_module(module), name), f"{where}: {module}.{name}"


def test_run_campaign_takes_jobs_positionally_and_by_name():
    signature = inspect.signature(run_campaign)
    signature.bind(42, "default", 1)
    signature.bind(42, "default", jobs=1)
