"""Golden outputs: the README command sequence, byte for byte.

``tests/golden/`` holds what the README commands print and write:

* ``stdout.txt``: every command and what it printed, in README order;
* ``files/``: every file the commands write, whole, except under ``camp/``;
* ``campaign.sha256``: the SHA-256 of every file under ``camp/`` (the
  360 trials), in ``sha256sum`` format;
* ``seed7_traces.sha256``: the SHA-256 of every ``sensor.3dt`` a
  default-noise campaign of seed 7 synthesizes, so synthesis cannot move
  at a second seed either;
* ``replay_streams.sha256``: one SHA-256 per replayed stream of
  ``replay_streams()`` over its pointer positions, attitudes, gesture
  events and filter counters, so the streaming filter's floats cannot
  move on clean streams, gaps, duplicate timestamps, gated accel or a
  zero mag reading;
* ``filter_states.sha256``: one SHA-256 per stream of the final filter
  state (q, gyro bias and covariance) that ``OrientationFilter`` reaches
  on it: the default filter trusts its measurements so little that a
  last-bit change in the covariance need not reach the attitudes;
* ``run_trials.sha256``: one SHA-256 per trial of ``run_campaign(42)``
  and ``run_campaign(7, "zero")`` over its ``metrics_json()``, and one
  per summary over the ``repr`` of its ``grand`` and ANOVA, so the
  in-memory campaign runner is held byte for byte, not only to 1e-9;
* ``versions.json``: the Python and numpy versions they were made with.

Under those versions, and an OpenBLAS kernel of the FMA family that
recorded them (``Haswell`` and ``SkylakeX`` measured), every byte must
match: the filter's small matmuls run in BLAS, and a kernel without fused
multiply-adds rounds them differently. Python's float ``**`` calls the C
library's ``pow``, which need not round a square as a product does, so
the C library is part of the platform too (glibc 2.36 recorded them).
Every failure message names numpy's version, the BLAS library, the
OpenBLAS core and the C library (``pinned_on``).
Under other versions the numbers in stdout and in the text files must
agree within 1e-9 relative, the ``.3dt`` traces and the seed-7 trace
digests (integers only) must match exactly, and the ``camp/``,
replay-stream, filter-state and ``run_trials`` digests are skipped.
Regenerate the files only in a change that means to alter outputs, and
list what changed:

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
import math
import platform
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import CAMPAIGN_COMMANDS, run_commands
from touchtrace.interaction import MountMode
from touchtrace.orientation import MAX_DT_S, OrientationFilter
from touchtrace.pipeline import ReplayConfig, replay_bytes, replay_frames, run_campaign
from touchtrace.protocol import FrameColumns, ScaleConfig, apply_scales, encode_frames
from touchtrace.simulate import (
    TEXTURES,
    TrialSpec,
    campaign_specs,
    draw_tilt,
    noise_for_preset,
    script_gesture_trace,
    simulate_columns,
    trial_dirname,
)

GOLDEN = Path(__file__).with_name("golden")

# The README commands before and after its campaign, which the shared
# ``cli_campaign`` fixture runs, plus a default-noise trace under every mount.
TRIAL_COMMANDS = (
    "simulate --texture mousepad --size 42 --shape circle --seed 7 --noise zero --out trial/",
    "replay --in trial/sensor.3dt --out replayed/",
    "eval --pred replayed/pointer.csv --truth trial/truth.csv --out metrics.json",
)
FIXTURE_COMMANDS = (
    "gesture --kind doubletap --out dtap.3dt",
    "replay --in dtap.3dt --out gestures/",
    "simulate --texture jeans --size 84 --shape square --seed 9 --noise default --out jeans9/",
    *(
        f"replay --in jeans9/sensor.3dt --out {mount}/ --mount {mount}"
        for mount in ("fingertip", "fingerpad", "ring")
    ),
)

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def openblas_core() -> str:
    """The OpenBLAS kernel family running numpy's matmuls, read through ctypes where the library tells it."""
    here = Path(np.__file__).parent
    for path in [*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".dylibs/*openblas*")]:
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            try:
                corename = getattr(ctypes.CDLL(str(path)), name)
            except (OSError, AttributeError):
                continue
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def pinned_on() -> str:
    """Where the golden bytes were recorded, and the platform of this run, for failure messages."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version')}"
    except (TypeError, KeyError):  # a numpy before 1.25 only prints its config
        blas = "unknown"
    return (
        f"golden files recorded under {_recorded_versions()} with an FMA OpenBLAS kernel (Haswell, SkylakeX) "
        f"and glibc 2.36; this run: numpy {np.__version__}, BLAS {blas}, OpenBLAS core {openblas_core()}, "
        f"C library {' '.join(platform.libc_ver()) or 'unknown'}"
    )


def readme_outputs(work: Path, campaign_root: Path, campaign_transcript: str):
    """Run the non-campaign commands in ``work``.

    Returns the transcript of the whole sequence and the files to keep
    whole (relative path -> bytes).
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        transcript = run_commands(TRIAL_COMMANDS) + campaign_transcript + run_commands(FIXTURE_COMMANDS)
    files = {p.relative_to(work).as_posix(): p.read_bytes() for p in work.rglob("*") if p.is_file()}
    files["summary.json"] = (campaign_root / "summary.json").read_bytes()
    return transcript, files


def campaign_digests(campaign_root: Path) -> str:
    """``sha256sum`` lines for every file under ``camp/``."""
    return "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(campaign_root).as_posix()}\n"
        for p in sorted((campaign_root / "camp").rglob("*"))
        if p.is_file()
    )


def trace_digests(campaign_seed: int) -> str:
    """``sha256sum`` lines for every trial trace of a default-noise campaign."""
    lines = []
    for i, spec in enumerate(campaign_specs(campaign_seed)):
        _, block = simulate_columns(spec, noise_for_preset("default", TEXTURES[spec.texture]))
        digest = hashlib.sha256(encode_frames(block)).hexdigest()
        lines.append(f"{digest}  {trial_dirname(i, spec)}/sensor.3dt\n")
    return "".join(lines)


def replay_streams():
    """``(name, block, mount)`` of the streams whose replay the gate digests.

    One default-noise trace under every mount; then the same trace at the
    fingerpad with a gap over ``MAX_DT_S``, a duplicate timestamp, accel
    frames outside the 0.3 g gate (halved, so about 0.5 g) or a run of
    zero mag readings, each a third of the way in; and the scripted
    double tap, for its gesture events.
    """
    spec = TrialSpec("jeans", 84, "square", rep=1, tilt_deg=draw_tilt(9), seed=9)
    _, block = simulate_columns(spec, noise_for_preset("default", TEXTURES["jeans"]))
    streams = [(f"clean-{mount.value}", block, mount) for mount in MountMode]
    k = len(block) // 3
    for name in ("gap", "duplicate", "gated-accel", "zero-mag"):
        t_ms, imu_raw = block.t_ms.copy(), block.imu_raw.copy()
        if name == "gap":
            t_ms[k:] += 4 * int(MAX_DT_S * 1000)
        elif name == "duplicate":
            t_ms[k:] -= t_ms[k] - t_ms[k - 1]
        elif name == "gated-accel":
            imu_raw[k : k + 5, 0:3] //= 2
        else:
            imu_raw[k : k + 5, 6:9] = 0
        streams.append((name, FrameColumns(t_ms, block.dxdy, block.squal, imu_raw), MountMode.FINGERPAD))
    streams.append(("doubletap", FrameColumns.of(script_gesture_trace("doubletap")), MountMode.FINGERPAD))
    return streams


def replay_digest(result) -> str:
    h = hashlib.sha256()
    h.update(result.pointer.pos_mm.tobytes())
    h.update(result.pointer.quat.tobytes())
    h.update("".join(e.to_json() + "\n" for e in result.events).encode())
    h.update(repr(result.filter_diagnostics).encode())
    return h.hexdigest()


def replay_stream_digests() -> str:
    """``sha256sum``-style lines, one per stream of ``replay_streams()``."""
    return "".join(
        f"{replay_digest(replay_frames(block.frames(), ReplayConfig(mount=mount)))}  {name}\n"
        for name, block, mount in replay_streams()
    )


def filter_state_digests() -> str:
    """``sha256sum``-style lines, one per stream of ``replay_streams()``."""
    lines = []
    for name, block, _ in replay_streams():
        filt = OrientationFilter()
        for frame in block.frames():
            state = filt.process(apply_scales(frame, ScaleConfig()))
        values = np.array(state.q.as_tuple() + state.gyro_bias_dps.as_tuple())
        lines.append(f"{hashlib.sha256(values.tobytes() + state.covariance.tobytes()).hexdigest()}  {name}\n")
    return "".join(lines)


def run_trials_digests() -> str:
    """``sha256sum``-style lines for two in-memory campaigns: one per trial
    over ``metrics_json()``, then one over the summary's grand and ANOVA."""
    lines = []
    for seed, preset in ((42, "default"), (7, "zero")):
        results, summary = run_campaign(seed, preset)
        for i, result in enumerate(results):
            digest = hashlib.sha256(result.metrics_json().encode()).hexdigest()
            lines.append(f"{digest}  seed{seed}-{preset}/{trial_dirname(i, result.spec)}\n")
        digest = hashlib.sha256(f"{summary.grand!r}\n{summary.anova!r}".encode()).hexdigest()
        lines.append(f"{digest}  seed{seed}-{preset}/summary\n")
    return "".join(lines)


def values_close(got: str, want: str, rel: float = 1e-9) -> bool:
    """Equal text between the numbers, and each number within ``rel`` relative."""
    return _NUMBER.split(got) == _NUMBER.split(want) and all(
        math.isclose(float(a), float(b), rel_tol=rel)
        for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want))
    )


def _recorded_versions() -> dict:
    return json.loads((GOLDEN / "versions.json").read_text())


def _skip_unless_recorded_versions(what: str) -> None:
    recorded = _recorded_versions()
    if recorded != versions():
        pytest.skip(
            f"digests were recorded under {recorded} and this is {versions()}; "
            f"{what} can only be compared byte for byte"
        )


def test_readme_outputs_match_golden(tmp_path, cli_campaign):
    transcript, files = readme_outputs(tmp_path, *cli_campaign)
    golden_files = GOLDEN / "files"
    want = {
        p.relative_to(golden_files).as_posix(): p.read_bytes()
        for p in golden_files.rglob("*")
        if p.is_file()
    }
    assert sorted(files) == sorted(want)
    want_transcript = (GOLDEN / "stdout.txt").read_text()
    if _recorded_versions() == versions():
        assert transcript == want_transcript, pinned_on()
        for rel, data in files.items():
            assert data == want[rel], f"{rel} differs from tests/golden/files/{rel}; {pinned_on()}"
    else:
        assert values_close(transcript, want_transcript), pinned_on()
        for rel, data in files.items():
            if rel.endswith(".3dt"):
                assert data == want[rel], f"{rel} differs from tests/golden/files/{rel}; {pinned_on()}"
            else:
                assert values_close(data.decode(), want[rel].decode()), f"{rel} differs beyond 1e-9; {pinned_on()}"


def test_campaign_files_match_golden_digests(cli_campaign):
    _skip_unless_recorded_versions("a digest")
    digests = campaign_digests(cli_campaign[0])
    assert digests.splitlines() == (GOLDEN / "campaign.sha256").read_text().splitlines(), pinned_on()


def test_seed_7_traces_match_golden_digests():
    # integers only, like the .3dt files above: exact under any version
    digests = trace_digests(7)
    assert digests.splitlines() == (GOLDEN / "seed7_traces.sha256").read_text().splitlines(), pinned_on()


def test_replay_streams_match_golden_digests():
    _skip_unless_recorded_versions("float digests")
    digests = replay_stream_digests()
    assert digests.splitlines() == (GOLDEN / "replay_streams.sha256").read_text().splitlines(), pinned_on()
    # replay_bytes replays the same block, so it gives the same digests
    for (name, block, mount), line in zip(replay_streams(), digests.splitlines()):
        result, _ = replay_bytes(encode_frames(block), ReplayConfig(mount=mount))
        assert f"{replay_digest(result)}  {name}" == line, pinned_on()


def test_filter_states_match_golden_digests():
    _skip_unless_recorded_versions("float digests")
    digests = filter_state_digests()
    assert digests.splitlines() == (GOLDEN / "filter_states.sha256").read_text().splitlines(), pinned_on()


def test_run_trials_match_golden_digests():
    _skip_unless_recorded_versions("float digests")
    digests = run_trials_digests()
    assert digests.splitlines() == (GOLDEN / "run_trials.sha256").read_text().splitlines(), pinned_on()


def test_values_close_holds_numbers_to_1e_9_relative():
    assert values_close("p=0.5000000000001, n 357\n", "p=0.5, n 357\n")
    assert not values_close("p=0.500001, n 357\n", "p=0.5, n 357\n")
    assert not values_close("F=0.5, n 357\n", "p=0.5, n 357\n")


def record() -> None:
    """Rewrite tests/golden/ from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        campaign_root, work = Path(tmp, "campaign"), Path(tmp, "work")
        campaign_root.mkdir()
        work.mkdir()
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(campaign_root)
            campaign_transcript = run_commands(CAMPAIGN_COMMANDS)
        transcript, files = readme_outputs(work, campaign_root, campaign_transcript)
        digests = campaign_digests(campaign_root)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for rel, data in files.items():
        path = GOLDEN / "files" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    (GOLDEN / "stdout.txt").write_text(transcript)
    (GOLDEN / "campaign.sha256").write_text(digests)
    (GOLDEN / "seed7_traces.sha256").write_text(trace_digests(7))
    (GOLDEN / "replay_streams.sha256").write_text(replay_stream_digests())
    (GOLDEN / "filter_states.sha256").write_text(filter_state_digests())
    (GOLDEN / "run_trials.sha256").write_text(run_trials_digests())
    (GOLDEN / "versions.json").write_text(json.dumps(versions(), indent=2) + "\n")


if __name__ == "__main__":
    record()
