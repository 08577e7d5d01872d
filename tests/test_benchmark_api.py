"""The committed benchmark under ``perfbench/`` imports the package and calls
``run_campaign`` positionally; these checks keep that API in place."""

import ast
import importlib
import importlib.util
import inspect
import sys
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


def test_benchmark_builds_its_replay_and_fault_pools(monkeypatch):
    # the pools call simulate_trial, noise_for_preset, script_gesture_trace
    # and draw_tilt as the benchmark does
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    sessions = workloads.build_inputs("replay", 1)
    assert len(sessions) == workloads.POOL_SESSIONS
    assert {len(s.frames) for s in sessions} == {899}
    assert all(sorted(kind for kind, _, _ in s.windows) == sorted(workloads.FIXTURES) for s in sessions)
    faulted = workloads.build_inputs("faults", 1)
    assert sorted(f.disruption or "" for f in faulted) == [""] * (workloads.POOL_SESSIONS - 2) + ["reset", "wrap"]
    assert all(sum(map(len, f.chunks)) == f.n_bytes and f.intact for f in faulted)
