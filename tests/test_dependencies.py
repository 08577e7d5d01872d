"""numpy is the package's only runtime dependency."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import touchtrace

# Runs with scipy unimportable: any import of it fails the script.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import touchtrace.cli
from touchtrace.evaluate import one_way_anova
assert one_way_anova([[1, 2, 3], [2, 3, 4], [3, 4, 5]]).p == 0.125
touchtrace.cli.main(["--help"])
"""


def test_cli_runs_without_scipy():
    src = str(Path(touchtrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: touchtrace" in proc.stdout


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in dependencies] == ["numpy"]
