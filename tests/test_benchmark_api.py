"""The committed benchmark under ``perfbench/`` imports the package and calls
``run_campaign`` positionally; these checks keep that API in place, and keep
out of the package what neither it, the benchmark nor the acceptance tests use."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from touchtrace.pipeline import run_campaign

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
PACKAGE = TESTS.parent / "src" / "touchtrace"


def _parsed(paths):
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(paths)}


PERFBENCH_TREES = _parsed(PERFBENCH.glob("*.py"))


def _imported_names():
    for where, tree in PERFBENCH_TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("touchtrace"):
                for alias in node.names:
                    yield where, node.module, alias.name


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


def _names_in(node):
    """Every name a syntax tree reads, as a bare name, an attribute or an import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_public_definition_is_reached_outside_its_own_tests():
    # a public function or class of the package must be used by the package
    # (outside its own body), by the benchmark, or by the acceptance tests;
    # a module-level import inside the package does not count as a use
    package = _parsed(PACKAGE.glob("*.py"))
    defined, used = set(), set()
    for tree in package.values():
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom):
                continue
            names = set(_names_in(stmt))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if not stmt.name.startswith("_"):
                    defined.add(stmt.name)
            used |= names
    acceptance = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    for tree in [*PERFBENCH_TREES.values(), acceptance]:
        used.update(_names_in(tree))
    unreached = sorted(defined - used)
    assert not unreached, f"reached only by their own tests: {', '.join(unreached)}"


def test_the_simulator_imports_nothing_it_is_scored_against():
    # simulate is the independent oracle: the ground truth it writes must not
    # come from the code whose output that truth scores
    imported = set()
    for node in ast.walk(_parsed([PACKAGE / "simulate.py"])["simulate.py"]):
        if isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            imported.update(name.rpartition(".")[2] for name in names)
    scored = sorted(imported & {"orientation", "interaction", "pipeline", "evaluate"})
    assert not scored, f"simulate.py imports {', '.join(scored)}"
