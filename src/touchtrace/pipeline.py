"""Host-side replay pipeline and the campaign's trial runner.

Replay mirrors what the tethered host does with a live device: decode
the byte stream, scale the channels, fuse orientation, detect gestures,
and integrate optical deltas along the derived touch plane into a 3D
pointer track (one row per frame).

Two paths differ in how they run the orientation filter.
``replay_columns`` (``replay_bytes``, ``replay_frames``) runs one stream
through the streaming filter, then the gesture detector over its rows, in
any ``ReplayConfig``. ``replay_lockstep`` runs many streams at once, one
batched ``orientation.filter_streams`` step per sample index, in the
campaign's one configuration: the fingerpad mount, the default filter, no
gestures. Both run ``check_timestamps`` first, scale the raw IMU by the
device's fixed scales and end in ``interaction.pointer_track``, which
alone knows the touch plane and the mount rule. Both campaign runners,
``run_trials`` in memory and the CLI's ``campaign`` over files, replay
every trial through the lockstep path, bytes included, and score through
``score_trials``, a grid cell's tracks of one length as one stack against
truth their caller supplies. No float operation mixes trials, so no
result depends on its cell or its batch.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .evaluate import CampaignSummary, TrialResult, evaluate_trials, summarize_campaign
from .gestures import GestureConfig, GestureEvent, detect_rows
from .interaction import MountMode, pointer_track
from .orientation import FilterConfig, FilterDiagnostics, filter_stream, filter_streams
from .protocol import DecoderDiagnostics, FrameColumns, ScaleConfig, SensorFrame, decode_columns, encode_frames
from .simulate import (
    CYLINDER_SHAPE,
    NoiseModel,
    TrialSpec,
    campaign_specs,
    gen_trajectories,
    group_by_cell,
    noise_for_preset,
    simulate_by_cell,
    simulate_columns,
)
from .trajectory import Trajectory


@dataclass(frozen=True)
class ReplayConfig:
    scales = ScaleConfig()  # a class constant, not a setting: the one device's scales, fixed by the wire format
    filter_config: FilterConfig = field(default_factory=FilterConfig)
    gesture_config: GestureConfig = field(default_factory=GestureConfig)
    mount: MountMode = MountMode.FINGERPAD
    with_gestures: bool = True


@dataclass
class ReplayResult:
    pointer: Trajectory
    events: list[GestureEvent]
    filter_diagnostics: FilterDiagnostics


# the lockstep's one configuration, and the cylinder demo's: fingerpad, default filter, no gestures
_CAMPAIGN = ReplayConfig(with_gestures=False)


def replay_frames(frames: list[SensorFrame], config: ReplayConfig | None = None) -> ReplayResult:
    """``replay_columns`` on a list of decoded frames."""
    return replay_columns(FrameColumns.of(frames), config)


def replay_columns(columns: FrameColumns, config: ReplayConfig | None = None) -> ReplayResult:
    """Run one stream's frame block through the streaming filter, the gesture detector and pointer
    projection. Raises ValueError on an empty stream or a backward timestamp."""
    config = config or ReplayConfig()
    t_ms = columns.t_ms
    check_timestamps(t_ms)
    quat, diagnostics = filter_stream(config.filter_config, t_ms, columns.imu_raw)
    events = []
    if config.with_gestures:
        rows = zip(t_ms.tolist(), *columns.dxdy.T.tolist(), columns.squal.tolist())
        events = detect_rows(rows, config.gesture_config)
    return _replayed(t_ms, columns.dxdy, quat, config, events, diagnostics)


def _replayed(
    t_ms: np.ndarray,
    dxdy: np.ndarray,
    quat: np.ndarray,
    config: ReplayConfig,
    events: list[GestureEvent],
    diagnostics: FilterDiagnostics,
) -> ReplayResult:
    """The tail both replay paths share: one stream's pointer track and result."""
    pos = pointer_track(quat, dxdy, config.scales, config.mount)
    return ReplayResult(Trajectory(t_ms, pos, quat), events, diagnostics)


def replay_bytes(
    data: bytes, config: ReplayConfig | None = None
) -> tuple[ReplayResult | None, DecoderDiagnostics]:
    """Decode then replay; None result when nothing decodes."""
    columns, diagnostics = decode_columns(data)
    if not len(columns):
        return None, diagnostics
    return replay_columns(columns, config), diagnostics


# -- lockstep replay -------------------------------------------------------------


def replay_lockstep(streams: Sequence[FrameColumns]) -> list[ReplayResult]:
    """Replay many streams at once, in the lockstep's one configuration ``_CAMPAIGN``.

    One result per stream, in input order; each equals ``replay_columns``
    at ``_CAMPAIGN`` on that stream's frames to float rounding, with no
    gestures. The streams are packed back to back, filtered in lockstep
    by ``filter_streams`` and split again. Raises ValueError on an empty
    stream or a backward timestamp, as ``replay_columns`` does.
    """
    if not streams:
        return []
    for columns in streams:
        check_timestamps(columns.t_ms)
    lengths = [len(c) for c in streams]
    packed = FrameColumns.concat(streams)
    del streams  # a caller that keeps no reference frees the streams here
    quat, diagnostics = filter_streams(_CAMPAIGN.filter_config, packed.t_ms, packed.imu_raw, lengths)
    bounds = np.cumsum(lengths)[:-1]
    split = (np.split(a, bounds) for a in (packed.t_ms, packed.dxdy, quat))
    return [_replayed(t_ms, dxdy, q, _CAMPAIGN, [], d) for t_ms, dxdy, q, d in zip(*split, diagnostics)]


def check_timestamps(t_ms: np.ndarray) -> None:
    """The one order check of a stream, which the filter and the detector rely on."""
    if len(t_ms) == 0:
        raise ValueError("replay needs at least one frame")
    back = np.flatnonzero(t_ms[1:] < t_ms[:-1])
    if len(back):
        k = back[0] + 1
        raise ValueError(f"out-of-order timestamp: {t_ms[k]} ms arrived after {t_ms[k - 1]} ms")


# -- campaign -----------------------------------------------------------------


def run_trials(specs: list[TrialSpec], noise_preset: str = "default") -> list[TrialResult]:
    """Synthesize trials by grid cell, replay them through the wire in lockstep, score them against
    truth rebuilt a cell at a time, not kept. Each result matches replaying its trial alone at
    ``_CAMPAIGN``, to float rounding."""
    pointers = [r.pointer for r in replay_lockstep(_wire_streams(specs, noise_preset))]
    return score_trials(specs, pointers, lambda group: gen_trajectories([specs[i] for i in group]))


def score_trials(specs: list[TrialSpec], pointers: Sequence[Trajectory], truth_of: Callable) -> list[TrialResult]:
    """Score each trial's pointer track: the tracks of a grid cell that share a length are one
    ``group`` of indices into ``specs``, one ``evaluate_trials`` stack against ``truth_of(group)``,
    their truths stacked, each at its track's timestamps."""
    results: list[TrialResult] = [None] * len(specs)  # type: ignore[list-item]
    for cell in group_by_cell(specs):
        for n in {len(pointers[i]) for i in cell}:
            group = [i for i in cell if len(pointers[i]) == n]
            pred = Trajectory.stack([pointers[i] for i in group])
            for i, result in zip(group, evaluate_trials([specs[i] for i in group], pred, truth_of(group))):
                results[i] = result
    return results


def _wire_streams(specs: list[TrialSpec], noise_preset: str) -> list[FrameColumns]:
    """Each trial's frames as decoded from its own wire bytes, synthesized a grid cell at a time."""
    streams: list[FrameColumns] = [None] * len(specs)  # type: ignore[list-item]
    for i, _, block in simulate_by_cell(specs, noise_for_preset(noise_preset)):
        streams[i] = decode_columns(encode_frames(block))[0]
    return streams


def run_campaign(
    campaign_seed: int,
    noise_preset: str = "default",
    jobs: int = 1,
) -> tuple[list[TrialResult], CampaignSummary]:
    """All 360 trials of the grid in lockstep, in this process.

    ``jobs`` is kept only because the bench harness still passes 1; any
    other value is an error.
    """
    if jobs != 1:
        raise ValueError(f"a campaign runs in one process; jobs must be 1, got {jobs}")
    results = run_trials(campaign_specs(campaign_seed), noise_preset)
    return results, summarize_campaign(results)


def replay_cylinder_demo(diameter_mm: float = 30.0) -> tuple[Trajectory, ReplayResult]:
    """Zero-noise wrap around a cylinder (the curved-surface scenario)."""
    spec = TrialSpec(
        texture="mousepad",
        size_mm=int(diameter_mm),
        shape=CYLINDER_SHAPE,
        rep=1,
        tilt_deg=0.0,
        seed=7,
    )
    truth, block = simulate_columns(spec, NoiseModel.zero())
    result, _ = replay_bytes(encode_frames(block), _CAMPAIGN)
    assert result is not None
    return truth, result
