"""Host-side replay pipeline and the evaluation campaign runner.

Replay mirrors what the tethered host does with a live device: decode
the byte stream, scale the channels, fuse orientation, detect gestures,
and integrate optical deltas along the derived touch plane into a 3D
pointer track (one row per frame).

There are two ways through it, which differ in how they run the
orientation filter. ``replay_columns`` runs one stream's frame block
through the streaming filter, sample by sample on plain floats, then the
gesture detector over the block's rows, in any ``ReplayConfig``; it is
the path of ``replay`` (``replay_bytes``) and of the tests' sequential
trial reference, and ``replay_frames`` is it on a list of frames.
``replay_lockstep`` runs many streams at once through
``orientation.filter_streams``, one batched filter step per sample index
across every stream still running, in the campaign's one configuration:
the fingerpad mount, the default filter and scales, no gestures. Both
end in the same tail, ``interaction.pointer_track`` (which alone knows
the touch plane and the mount rule), and package the result. The
campaign runners (``run_campaign`` and the CLI's ``campaign``) push
every trial through the lockstep path, bytes included, so their numbers
measure the whole stack, not a shortcut; its results come back in input
order. The in-memory runner synthesizes and scores each grid cell's
trials as one stack; no float operation mixes trials, so no result
depends on its cell or its batch. A campaign runs in one process.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    scales: ScaleConfig = field(default_factory=ScaleConfig)
    filter_config: FilterConfig = field(default_factory=FilterConfig)
    gesture_config: GestureConfig = field(default_factory=GestureConfig)
    mount: MountMode = MountMode.FINGERPAD
    with_gestures: bool = True


@dataclass
class ReplayResult:
    pointer: Trajectory
    events: list[GestureEvent]
    filter_diagnostics: FilterDiagnostics


# the lockstep's one configuration, and the cylinder demo's: fingerpad, default filter and scales, no gestures
_CAMPAIGN = ReplayConfig(with_gestures=False)


def replay_frames(frames: list[SensorFrame], config: ReplayConfig | None = None) -> ReplayResult:
    """Run decoded frames through filter, gestures and pointer projection.

    Raises ValueError on an empty stream or a backward timestamp.
    """
    return replay_columns(FrameColumns.of(frames), config)


def replay_columns(columns: FrameColumns, config: ReplayConfig | None = None) -> ReplayResult:
    """``replay_frames`` on a frame block: the streaming filter and the
    gesture detector read its rows."""
    config = config or ReplayConfig()
    t_ms = columns.t_ms
    _check_timestamps(t_ms)
    quat, diagnostics = filter_stream(config.filter_config, t_ms, columns.imu_raw, config.scales.imu_units)
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

    One result per stream, in input order; each equals ``replay_frames``
    at ``_CAMPAIGN`` on that stream's frames to float rounding, with no
    gestures. The streams are packed back to back, filtered in lockstep
    by ``filter_streams`` and split again. Raises ValueError on an empty
    stream or a backward timestamp, as ``replay_frames`` does.
    """
    if not streams:
        return []
    for columns in streams:
        _check_timestamps(columns.t_ms)
    lengths = [len(c) for c in streams]
    packed = FrameColumns.concat(streams)
    del streams  # a caller that keeps no reference frees the streams here
    quat, diagnostics = filter_streams(
        _CAMPAIGN.filter_config, packed.t_ms, packed.imu_raw, _CAMPAIGN.scales.imu_units, lengths
    )
    bounds = np.cumsum(lengths)[:-1]
    split = (np.split(a, bounds) for a in (packed.t_ms, packed.dxdy, quat))
    return [_replayed(t_ms, dxdy, q, _CAMPAIGN, [], d) for t_ms, dxdy, q, d in zip(*split, diagnostics)]


def _check_timestamps(t_ms: np.ndarray) -> None:
    """Both replay paths' one order check per stream; the filter and detector rely on it."""
    if len(t_ms) == 0:
        raise ValueError("replay needs at least one frame")
    back = np.flatnonzero(t_ms[1:] < t_ms[:-1])
    if len(back):
        k = back[0] + 1
        raise ValueError(f"out-of-order timestamp: {t_ms[k]} ms arrived after {t_ms[k - 1]} ms")


# -- campaign -----------------------------------------------------------------


def run_trials(specs: list[TrialSpec], noise_preset: str = "default") -> list[TrialResult]:
    """Synthesize trials by grid cell, replay them through the wire in lockstep, score them.

    The campaign's runner; each result matches replaying its trial alone at ``_CAMPAIGN``, to float rounding.
    """
    replayed = replay_lockstep(_wire_streams(specs, noise_preset))
    results: list[TrialResult] = [None] * len(specs)  # type: ignore[list-item]
    for cell in group_by_cell(specs):
        # truth is a pure function of the specs: rebuild it rather than keep it
        group = [specs[i] for i in cell]
        pred = Trajectory.stack([replayed[i].pointer for i in cell])
        for i, result in zip(cell, evaluate_trials(group, pred, gen_trajectories(group))):
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
