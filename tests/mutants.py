"""Named mutants of ``src/touchtrace`` and a runner that reports which test kills each.

Every entry is ``(file, old text, new text, why)``: one small defect,
written as the text it replaces. The runner copies the repository to a
temporary directory, applies one mutant there, runs tier-1 with ``-x``
(and ``python3 -m pytest perfbench`` for a decoder mutant, since the
``faults`` workload reads the decoder's counters), and prints the first
failing test or ``SURVIVED``. It uses the standard library only and
never edits the tree it runs from. A mutant takes about 25 s on a
2-vCPU machine, the whole list about fifteen minutes::

    python3 tests/mutants.py          # every mutant
    python3 tests/mutants.py 3 14     # mutants 3 and 14 (0-based)

pytest does not collect this file (its name does not start with
``test_``); ``tests/test_mutants.py`` checks that each entry's old text
occurs exactly once in its file, so a mutant cannot silently stop
applying.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str
    new: str
    why: str


_SIM = "src/touchtrace/simulate.py"
_ORI = "src/touchtrace/orientation.py"
_PROTO = "src/touchtrace/protocol.py"

MUTANTS = (
    # -- the filter: each rule in both kernels, streaming and lockstep
    Mutant(_ORI, "- 1.0) > cfg.accel_gate:", "- 1.0) >= cfg.accel_gate:",
           "streaming accel gate refuses a reading exactly at the gate"),
    Mutant(_ORI, "accepted = np.abs(_norms(accel) - 1.0) <= cfg.accel_gate",
           "accepted = np.abs(_norms(accel) - 1.0) < cfg.accel_gate",
           "lockstep accel gate refuses a reading exactly at the gate"),
    Mutant(_ORI, "mz * mz) < 1e-9:", "mz * mz) < 1e-3:", "streaming mag update ignores a one-LSB field (1/1100 gauss)"),
    Mutant(_ORI, "_norms(mag) >= 1e-9)", "_norms(mag) >= 1e-3)",
           "lockstep mag update ignores a one-LSB field (1/1100 gauss)"),
    Mutant(_ORI, "    p = p + p.T  # not p += p.T: numpy would buffer the overlapping operand, a slower copy\n"
           "    p *= 0.5\n", "", "streaming predict drops the covariance re-symmetrization"),
    Mutant(_ORI, "_assign(p, 0.5 * (p_new + p_new.transpose(0, 2, 1)), moving)", "_assign(p, p_new, moving)",
           "lockstep predict drops the covariance re-symmetrization"),
    Mutant(_ORI, 'with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # advance',
           "with np.errstate():  # advance",
           "filter_stream lets numpy warn before it names the sample that left the float range"),
    # -- the decoder's counters
    Mutant(_PROTO, "                self.diagnostics.frames += 1\n                self._skip_run_open = False\n",
           "                self.diagnostics.frames += 1\n",
           "a good frame does not end the skip run: two runs count as one resync"),
    Mutant(_PROTO, "        self.buffer.clear()\n        self._skip_run_open = False\n", "        self.buffer.clear()\n",
           "flush does not end the skip run: junk after a flush joins the earlier run"),
    Mutant(_PROTO, "self.diagnostics.crc_failures += 1", "self.diagnostics.crc_failures += 0",
           "a CRC failure is not counted"),
    # -- replay, scoring and gestures
    Mutant("src/touchtrace/pipeline.py", "back = np.flatnonzero(t_ms[1:] < t_ms[:-1])",
           "back = np.flatnonzero(t_ms[1:] <= t_ms[:-1])", "the order check refuses a repeated timestamp"),
    Mutant("src/touchtrace/evaluate.py", "if dropped > MAX_DROPPED_SHARE * len(truth):",
           "if dropped >= MAX_DROPPED_SHARE * len(truth):", "match_truth refuses a replay lacking exactly 10% of rows"),
    Mutant("src/touchtrace/evaluate.py", "if not all(map(math.isfinite, scores.values())):", "if False:",
           "metrics_json writes a score that is not finite"),
    Mutant("src/touchtrace/gestures.py", "if t - self._onset_t > cfg.tap_window_ms or moved_too_far:",
           "if t - self._onset_t >= cfg.tap_window_ms or moved_too_far:",
           "a contact lasting exactly tap_window_ms is no tap"),
    Mutant("src/touchtrace/interaction.py", "    pos += 0.0  # a zero step", "    pos -= 0.0  # a zero step",
           "pointer_track keeps -0.0 for a zero step along a negative axis"),
    # -- the simulator's time base and geometry
    Mutant(_SIM, "np.ceil(length / step - 1e-9)", "np.ceil(length / step)",
           "a path that is a whole number of steps up to rounding gets one frame too many"),
    Mutant(_SIM, "np.ceil(length / step - 1e-9)) + 1.0", "np.ceil(length / step - 1e-9)) + 0.0",
           "the trace lacks its start frame"),
    Mutant(_SIM, "if not count <= MAX_TRACE_FRAMES:", "if not count < MAX_TRACE_FRAMES:",
           "a trace of exactly MAX_TRACE_FRAMES is refused"),
    Mutant(_SIM, "if not step < math.inf:", "if not step <= math.inf:",
           "a step that overflows to inf passes, and time_base writes NaN truth"),
    Mutant(_SIM, "if not last_ms < 2**32 - 0.5:", "if not last_ms < 2**32 + 0.5:",
           "a last timestamp that rounds to 2**32 ms passes"),
    Mutant(_SIM, "last_ms = (count - 1.0) * period_ms", "last_ms = (count - 2.0) * period_ms",
           "the last-timestamp check looks one frame short"),
    Mutant(_SIM, '"square": [o, (s, 0.0), (s, s), (0.0, s), o],', '"square": [o, (0.0, s), (s, s), (s, 0.0), o],',
           "the square is traced clockwise, the same length the other way round"),
    Mutant(_SIM, "(s / 2, s * math.sqrt(3) / 2)", "(s * math.sqrt(3) / 2, s / 2)",
           "the triangle's apex leaves the equilateral triangle"),
    Mutant(_SIM, "quat = np.repeat(tilts, len(arcs), axis=1)", "quat = np.repeat(tilts[::-1], len(arcs), axis=1)",
           "a cell's trials take each other's tilts"),
    # -- the streaming step's np.dot form, and its per-sample adapter
    Mutant(_ORI, "f[0, 3] = f[1, 4] = f[2, 5] = -dt", "f[0, 3] = f[1, 4] = f[2, 5] = dt",
           "the transition template couples the attitude to the bias with +dt"),
    Mutant(_ORI, "b * np.dot(sk, sk)).T", "b * np.dot(sk, sk))",
           "the large-angle attitude block is written untransposed"),
    Mutant(_ORI, "    p += _process_noise(cfg, dt)\n", "",
           "streaming predict drops the process noise"),
    Mutant(_ORI, "f = _transition(dt).copy()", "f = _transition(dt)",
           "each step writes its attitude block into the shared, cached template"),
    Mutant(_ORI, 'with np.errstate(over="ignore", invalid="ignore", divide="ignore"):\n            self.advance(',
           "with np.errstate():\n            self.advance(",
           "process lets numpy warn before it names the sample that left the float range"),
    # -- rotation algebra, the CSV format and the config reader
    Mutant("src/touchtrace/geom.py", "q[1 + j] = (m[i][j] + m[j][i]) / s", "q[1 + j] = (m[i][j] - m[j][i]) / s",
           "Shepperd's rule takes a difference where its non-positive-trace branch needs a sum"),
    Mutant("src/touchtrace/geom.py", "sign = np.where(w < 0, -1.0, 1.0)", "sign = np.where(w < 0, 1.0, 1.0)",
           "a relative rotation vector takes the long way round where the quaternion's sign flips"),
    Mutant("src/touchtrace/trajectory.py", "if not -(2**63) <= stamp < 2**63:", "if not -(2**63) <= stamp <= 2**63:",
           "read_csv lets a t_ms of 2**63 through its row check"),
    Mutant("src/touchtrace/trajectory.py", '_CSV_ROW = "%d" + ",%.10g" * 7', '_CSV_ROW = "%d" + ",%.9g" * 7',
           "the CSV rows keep 9 significant digits, not 10"),
    Mutant("src/touchtrace/cli.py", "target = override if prefix == texture else {}",
           "target = override if prefix == texture else base", "a key for another surface sets this surface's value"),
    Mutant("src/touchtrace/cli.py", "return cls(**{**base, **override})", "return cls(**{**override, **base})",
           "a plain key overrides the surface's own"),
    Mutant("src/touchtrace/cli.py", 'if not line or line.startswith("#"):', "if not line:",
           "the config reader parses a comment line as a key"),
)


def _killer(output: str) -> str | None:
    """The first failing or erroring test named in pytest's short summary, if any."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return found.group(1) if found else None


def run(mutant: Mutant, timeout_s: float = 900.0) -> str:
    """``killed by TEST``, ``killed (timeout)`` or ``SURVIVED`` for one mutant, run on a copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "repo"
        skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(REPO, tree, ignore=skip)
        target = tree / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.file}: the old text of {mutant.why!r} occurs {text.count(mutant.old)} times")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        # test_mutants.py reads the mutated text itself, so it would kill every mutant
        suites = [["tests", "--ignore=tests/test_mutants.py"]] + ([["perfbench"]] if mutant.file == _PROTO else [])
        for suite in suites:
            cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *suite]
            try:
                done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=timeout_s)
            except subprocess.TimeoutExpired:
                return "killed (timeout)"
            if done.returncode != 0:
                return f"killed by {_killer(done.stdout) or f'{suite[0]} (exit {done.returncode})'}"
    return "SURVIVED"


def main(argv: list[str]) -> int:
    picks = [int(a) for a in argv] or range(len(MUTANTS))
    survived = 0
    for i in picks:
        mutant = MUTANTS[i]
        outcome = run(mutant)
        survived += outcome == "SURVIVED"
        print(f"{i:2d} {mutant.file}: {mutant.why}: {outcome}", flush=True)
    print(f"{survived} of {len(picks)} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
