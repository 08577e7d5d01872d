"""Host-side replay pipeline and the evaluation campaign runner.

Replay mirrors what the tethered host does with a live device: decode
the byte stream, scale the channels, fuse orientation, detect gestures,
and integrate optical deltas along the derived touch plane into a 3D
pointer track (one row per frame).

There are two ways through it. ``replay_frames`` runs one stream frame
by frame with the streaming filter; it is the path of ``replay`` and the
sequential reference ``run_trial``. ``replay_lockstep`` runs many
streams at once: one batched filter step per sample index across every
stream still running, then the touch plane and the pointer of each
stream as whole arrays, with no gesture detection. The campaign runners
(``run_campaign`` and the CLI's ``campaign``) push every trial through
the lockstep path, bytes included, and score each trial against its
ground truth as soon as its stream ends, so their numbers measure the
whole stack, not a shortcut. With ``jobs > 1`` each worker process runs
one contiguous chunk of the grid in lockstep; the results do not depend
on the job count.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .evaluate import CampaignSummary, TrialResult, evaluate_trial, summarize_campaign
from .gestures import GestureConfig, GestureDetector, GestureEvent
from .interaction import FINGERTIP_COMPENSATION, MountMode, derive_plane
from .orientation import FilterConfig, FilterDiagnostics, OrientationFilter, batch_step, initial_batch
from .protocol import (
    DecoderDiagnostics,
    FrameColumns,
    ScaleConfig,
    SensorFrame,
    apply_scales,
    decode_stream,
    encode_frames,
)
from .simulate import (
    CYLINDER_SHAPE,
    NoiseModel,
    TEXTURES,
    TrialSpec,
    campaign_specs,
    gen_trajectory,
    noise_for_preset,
    simulate_trial,
)
from .trajectory import Trajectory, quat_matrices, quat_multiply


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


def replay_frames(frames: list[SensorFrame], config: ReplayConfig | None = None) -> ReplayResult:
    """Run decoded frames through filter, gestures and pointer projection."""
    config = config or ReplayConfig()
    if not frames:
        raise ValueError("replay needs at least one frame")
    filt = OrientationFilter(config.filter_config)
    detector = GestureDetector(config.gesture_config) if config.with_gestures else None
    mm = config.scales.mm_per_count

    n = len(frames)
    t_ms = np.empty(n, dtype=np.int64)
    pos = np.empty((n, 3))
    quat = np.empty((n, 4))
    px = py = pz = 0.0
    events: list[GestureEvent] = []

    for i, frame in enumerate(frames):
        sample = apply_scales(frame, config.scales)
        estimate = filt.process(sample)
        plane = derive_plane(estimate.q, config.mount)
        sx = frame.dx * mm
        sy = frame.dy * mm
        px += plane.u.x * sx + plane.v.x * sy
        py += plane.u.y * sx + plane.v.y * sy
        pz += plane.u.z * sx + plane.v.z * sy
        t_ms[i] = frame.timestamp_ms
        pos[i, 0] = px
        pos[i, 1] = py
        pos[i, 2] = pz
        q = estimate.q
        quat[i, 0] = q.w
        quat[i, 1] = q.x
        quat[i, 2] = q.y
        quat[i, 3] = q.z
        if detector is not None:
            events.extend(detector.step(frame))
    if detector is not None:
        events.extend(detector.finish())

    return ReplayResult(
        pointer=Trajectory(t_ms, pos, quat),
        events=events,
        filter_diagnostics=filt.diagnostics,
    )


def replay_bytes(
    data: bytes, config: ReplayConfig | None = None
) -> tuple[ReplayResult | None, DecoderDiagnostics]:
    """Decode then replay; None result when nothing decodes."""
    frames, diagnostics = decode_stream(data)
    if not frames:
        return None, diagnostics
    return replay_frames(frames, config), diagnostics


# -- lockstep replay -------------------------------------------------------------

_FINGERTIP = np.array(FINGERTIP_COMPENSATION.as_tuple())


def replay_lockstep(
    streams: Sequence[FrameColumns], config: ReplayConfig | None = None
) -> Iterator[tuple[int, ReplayResult]]:
    """Replay many streams at once; yield ``(index, result)`` as each ends.

    Each result equals ``replay_frames`` on that stream's frames to float
    rounding, except that no gestures are detected (``events`` is empty).
    Streams are run longest first, so the streams still running at sample
    index k are a prefix of the batch; results come out shortest first.
    Raises ValueError on an empty stream or a backward timestamp, as
    ``replay_frames`` does.
    """
    config = config or ReplayConfig(with_gestures=False)
    if config.with_gestures:
        raise ValueError("lockstep replay detects no gestures; use replay_frames")
    if not streams:
        return
    for columns in streams:
        _check_timestamps(columns.t_ms)
    lengths = np.array([len(c) for c in streams], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    t_ms = np.concatenate([streams[i].t_ms for i in order])
    imu_raw = np.concatenate([streams[i].imu_raw for i in order])
    dxdy = np.concatenate([streams[i].dxdy for i in order])
    del streams  # packed now; a caller that keeps no reference frees them here
    sc = config.scales
    units = np.repeat((sc.accel_g_per_lsb, sc.gyro_dps_per_lsb, sc.mag_gauss_per_lsb), 3)

    quat = np.empty((len(t_ms), 4))
    first = imu_raw[starts] * units
    state = initial_batch(config.filter_config, first[:, 0:3], first[:, 6:9])
    quat[starts] = state.q
    running = len(order)
    for k in range(1, int(lengths[0]) + 1):
        n = int(np.searchsorted(-lengths, -k, side="left"))  # streams longer than k
        for j in range(n, running):
            rows = slice(starts[j], starts[j] + lengths[j])
            pointer = _project(t_ms[rows], quat[rows], dxdy[rows], config)
            yield int(order[j]), ReplayResult(pointer, [], state.diagnostics(j))
        running = n
        if n == 0:
            break
        rows = starts[:n] + k  # sample k of each stream still running
        imu = imu_raw[rows] * units
        dt = (t_ms[rows] - t_ms[rows - 1]) / 1000.0
        batch_step(state, config.filter_config, dt, imu[:, 3:6], imu[:, 0:3], imu[:, 6:9])
        quat[rows] = state.q[:n]


def _check_timestamps(t_ms: np.ndarray) -> None:
    if len(t_ms) == 0:
        raise ValueError("replay needs at least one frame")
    back = np.flatnonzero(t_ms[1:] < t_ms[:-1])
    if len(back):
        k = back[0] + 1
        raise ValueError(f"out-of-order timestamp: {t_ms[k]} ms arrived after {t_ms[k - 1]} ms")


def _project(t_ms: np.ndarray, quat: np.ndarray, dxdy: np.ndarray, config: ReplayConfig) -> Trajectory:
    """Pointer track of one stream: optical steps along its touch planes, summed."""
    q = quat_multiply(quat, _FINGERTIP) if config.mount is MountMode.FINGERTIP else quat
    axes = quat_matrices(q)  # columns are the plane's u, v, n
    step = dxdy * config.scales.mm_per_count
    pos = np.cumsum(axes[:, :, 0] * step[:, 0:1] + axes[:, :, 1] * step[:, 1:2], axis=0)
    return Trajectory(t_ms, pos, quat.copy())


# -- campaign -----------------------------------------------------------------


def run_trial(
    spec: TrialSpec,
    noise: NoiseModel,
    config: ReplayConfig | None = None,
) -> TrialResult:
    """Synthesize one trial, replay it through the wire, score it.

    The sequential reference for the lockstep campaign: one trial, one
    streaming filter.
    """
    config = config or ReplayConfig(with_gestures=False)
    truth, frames = simulate_trial(spec, noise, config.scales)
    result, _ = replay_bytes(encode_frames(frames), config)
    assert result is not None
    return evaluate_trial(spec, result.pointer, truth)


def map_chunks(fn: Callable[[list], list], items: list, jobs: int) -> list:
    """``fn`` over ``jobs`` contiguous chunks of ``items``, results in order.

    Each chunk runs in its own spawned worker process when jobs > 1; ``fn``
    must be picklable and its results must not depend on where a chunk
    starts.
    """
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return fn(items)
    bounds = [len(items) * j // jobs for j in range(jobs + 1)]
    chunks = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
        return [r for part in pool.map(fn, chunks) for r in part]


def run_trials(
    specs: list[TrialSpec],
    noise_preset: str = "default",
    config: ReplayConfig | None = None,
) -> list[TrialResult]:
    """Synthesize trials, replay them through the wire in lockstep, score them.

    The campaign's worker: ``run_trial`` on each spec, to float rounding.
    """
    config = config or ReplayConfig(with_gestures=False)
    streams = []
    for spec in specs:
        noise = noise_for_preset(noise_preset, TEXTURES[spec.texture])
        _, frames = simulate_trial(spec, noise, config.scales)
        streams.append(FrameColumns.of(decode_stream(encode_frames(frames))[0]))
    results: list[TrialResult] = [None] * len(specs)  # type: ignore[list-item]
    replayed_trials = replay_lockstep(streams, config)
    del streams  # the runner frees the columns once it has packed them
    for i, replayed in replayed_trials:
        # truth is a pure function of the spec: rebuild it rather than keep it
        results[i] = evaluate_trial(specs[i], replayed.pointer, gen_trajectory(specs[i]))
    return results


def run_campaign(
    campaign_seed: int,
    noise_preset: str = "default",
    jobs: int = 1,
) -> tuple[list[TrialResult], CampaignSummary]:
    """All 360 trials of the grid in lockstep; identical results for any job count."""
    specs = campaign_specs(campaign_seed)
    results = map_chunks(partial(run_trials, noise_preset=noise_preset), specs, jobs)
    return results, summarize_campaign(results)


def replay_cylinder_demo(
    diameter_mm: float = 30.0, seed: int = 7, config: ReplayConfig | None = None
) -> tuple[Trajectory, ReplayResult]:
    """Zero-noise wrap around a cylinder (the curved-surface scenario)."""
    spec = TrialSpec(
        texture="mousepad",
        size_mm=int(diameter_mm),
        shape=CYLINDER_SHAPE,
        rep=1,
        tilt_deg=0.0,
        seed=seed,
    )
    truth, frames = simulate_trial(spec, NoiseModel.zero())
    config = config or ReplayConfig(with_gestures=False)
    result, _ = replay_bytes(encode_frames(frames), config)
    assert result is not None
    return truth, result
