"""Fixtures shared across test modules."""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from touchtrace.cli import main as cli_main
from touchtrace.gestures import GestureEvent
from touchtrace.simulate import CYLINDER_SHAPE, TrialSpec, draw_tilt

# The README's campaign commands, run from the directory that holds camp/.
CAMPAIGN_COMMANDS = (
    "simulate --campaign --seed 42 --noise default --out camp/",
    "campaign --dir camp/ --out summary.json",
)

# Grid cells of several repetitions over every shape (the cylinder too),
# several sizes and all three textures, then a cell of one; the cells'
# trials interleave, as a grid cell's need not be adjacent in a spec list.
_MIXED_CELLS = (
    ("mousepad", "hline", 12, 3),
    ("wood", "vline", 21, 3),
    ("jeans", "diag", 42, 2),
    ("mousepad", "triangle", 12, 2),
    ("wood", "square", 21, 3),
    ("jeans", "circle", 12, 3),
    ("wood", CYLINDER_SHAPE, 30, 2),
    ("jeans", "square", 42, 1),
)
MIXED_SPECS = [
    TrialSpec(texture, size, shape, rep, tilt_deg=draw_tilt(100 * k + rep), seed=100 * k + rep)
    for rep in range(1, 4)
    for k, (texture, shape, size, reps) in enumerate(_MIXED_CELLS)
    if rep <= reps
]


def angle_between(a, b) -> float:
    """Angle between two vectors in degrees, in [0, 180]."""
    na = a.norm()
    nb = b.norm()
    if na == 0.0 or nb == 0.0:
        raise ValueError("angle_between is undefined for zero-length vectors")
    c = a.dot(b) / (na * nb)
    c = max(-1.0, min(1.0, c))
    return math.degrees(math.acos(c))


def read_events_jsonl(path) -> list[GestureEvent]:
    """The events of a ``gestures.jsonl`` file, one per non-blank line."""
    events = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        payload = json.loads(line)
        events.append(GestureEvent(payload["kind"], payload["t_ms"], payload["x"], payload["y"]))
    return events


def run_commands(commands) -> str:
    """Run CLI commands in the working directory; return the transcript.

    Each command is echoed as ``$ touchtrace <args>`` and followed by
    what it printed to stdout. A command that does not exit 0 fails the
    calling test.
    """
    transcript = []
    for command in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(command.split())
        assert code == 0, f"touchtrace {command} exited {code}"
        transcript.append(f"$ touchtrace {command}\n{out.getvalue()}")
    return "".join(transcript)


@pytest.fixture(scope="session")
def cli_campaign(tmp_path_factory):
    """Seed-42 default-noise campaign through the real CLI file workflow.

    Returns the directory holding ``camp/`` and ``summary.json``, and the
    transcript of the two commands.
    """
    root = tmp_path_factory.mktemp("campaign")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        transcript = run_commands(CAMPAIGN_COMMANDS)
    return root, transcript
