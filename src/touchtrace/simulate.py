"""Ground-truth trajectory generation and sensor synthesis.

This is the independent oracle for the rest of the pipeline: it writes
down where the finger really was, then fabricates the byte-for-byte
sensor stream a device would have produced while drawing that path.

The evaluation campaign covers a 3 texture x 4 size x 6 shape grid with
five repetitions per cell (360 trials, ``GRID``), each traced at constant
speed and 50 Hz on a plane tilted at a random angle in [0, 90) degrees.
A surface sets only its mean SQUAL (``TEXTURES``); the noise preset sets
the rest, slip included. A cell's repetitions share one time base
(``time_base``) and plane path, and ``simulate_by_cell``, the one walk
over the grid, synthesizes each cell as one ``(trials, frames)`` stack;
each trial keeps its own seeded generator and no float operation mixes
trials, so a trial's bytes are those it would get alone, in a cell of one
(``simulate_columns``). The synthesizer models the one device, whose
per-LSB scales are ``ScaleConfig``'s constants.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .geom import (
    _DEG, EY, GRAVITY_WORLD, MAG_FIELD_WORLD, axis_angle_quat, quat_matrices, quat_midpoints, quat_relative_rotvec
)
from .gestures import GestureConfig
from .protocol import SQUAL_MAX, FrameColumns, ScaleConfig, SensorFrame
from .trajectory import Trajectory

SIZES_MM = (12, 21, 42, 84)
SHAPE_NAMES = ("hline", "vline", "diag", "triangle", "square", "circle")
REPS = 5
CYLINDER_SHAPE = "cylinder"  # curved-surface wrap demo; not in the campaign grid
_SQUAL_JITTER = 6.0  # SQUAL standard deviation on every surface
MAX_RATE_HZ = 1000.0  # the wire's timestamps are whole ms: past 1 kHz two frames would share one
MAX_TRACE_FRAMES = 2**18  # per trial or fixture: 87 min at 50 Hz, 8.9 MB of wire frames


# each drawing surface's mean SQUAL, the one thing surfaces differ in; synthesis clips SQUAL to 50..90
TEXTURES: dict[str, float] = {"mousepad": 70.0, "wood": 60.0, "jeans": 55.0}
TEXTURE_NAMES = tuple(TEXTURES)
GRID = tuple(itertools.product(TEXTURE_NAMES, SIZES_MM, SHAPE_NAMES, range(1, REPS + 1)))  # (texture, size, shape, rep)
_SCALES = ScaleConfig()  # the one device the synthesizer models


@dataclass(frozen=True)
class NoiseModel:
    """Per-sample sensor noise; one per-trial gyro bias draw.

    All draws are Gaussian from the trial's seeded generator, so a given
    (spec, seed) pair always produces the identical byte stream. The
    default magnitudes are calibrated so the seeded campaign lands in the
    harness's target accuracy bands; they are an operating point, not a
    datasheet claim.
    """

    slip_sigma_counts: float = 0.3
    gyro_sigma_dps: float = 3.0
    gyro_bias_sigma_dps: float = 1.05
    accel_sigma_g: float = 0.045
    mag_sigma_gauss: float = 0.011

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @staticmethod
    def zero() -> "NoiseModel":
        return NoiseModel(0.0, 0.0, 0.0, 0.0, 0.0)


NOISE_PRESETS = ("zero", "default")


def noise_for_preset(preset: str, texture: float | None = None) -> NoiseModel:
    """One noise for every surface; ``texture`` is kept only because the bench harness still passes one."""
    if preset == "zero":
        return NoiseModel.zero()
    if preset == "default":
        return NoiseModel()
    raise ValueError(f"unknown noise preset {preset!r}; expected one of {NOISE_PRESETS}")


@dataclass(frozen=True)
class TrialSpec:
    texture: str
    size_mm: int
    shape: str
    rep: int
    tilt_deg: float
    seed: int
    rate_hz: float = 50.0
    speed_mm_s: float = 30.0

    def __post_init__(self) -> None:
        for name in ("size_mm", "rep", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("tilt_deg", "rate_hz", "speed_mm_s"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.texture not in TEXTURE_NAMES:
            raise ValueError(f"texture must be one of {','.join(TEXTURE_NAMES)}")
        if self.shape not in SHAPE_NAMES + (CYLINDER_SHAPE,):
            raise ValueError(f"shape must be one of {','.join(SHAPE_NAMES + (CYLINDER_SHAPE,))}")
        if self.shape == CYLINDER_SHAPE:
            # wrap demos take any positive diameter; only the grid is fixed
            if self.size_mm <= 0:
                raise ValueError("cylinder diameter must be > 0")
        elif self.size_mm not in SIZES_MM:
            raise ValueError(f"size must be one of {','.join(map(str, SIZES_MM))}")
        if not 1 <= self.rep <= REPS:
            raise ValueError(f"rep must be in 1..{REPS}")
        if not 0.0 <= self.tilt_deg <= 90.0:
            raise ValueError("tilt_deg must be in [0, 90]")
        for name in ("rate_hz", "speed_mm_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.rate_hz > MAX_RATE_HZ:
            raise ValueError(f"rate_hz must be <= {MAX_RATE_HZ:g}, the wire's 1 ms resolution, got {self.rate_hz}")
        _time_steps(self)  # the trace's own bounds


def _polyline(shape: str, size: float) -> tuple[list[tuple[float, float]], list[float]]:
    """A polyline shape's vertices in plane coordinates and the path length at each, its steps summed in
    sequence; the callers trace the circle themselves."""
    s, o, r2 = float(size), (0.0, 0.0), 1.0 / math.sqrt(2.0)
    shapes = {
        "hline": [o, (s, 0.0)],
        "vline": [o, (0.0, s)],
        "diag": [o, (s * r2, s * r2)],
        "triangle": [o, (s, 0.0), (s / 2, s * math.sqrt(3) / 2), o],
        "square": [o, (s, 0.0), (s, s), (0.0, s), o],
    }
    if shape not in shapes:
        raise ValueError(f"unknown shape {shape!r}")
    verts = shapes[shape]
    steps = ((x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in itertools.pairwise(verts))
    return verts, list(itertools.accumulate((math.sqrt(dx * dx + dy * dy) for dx, dy in steps), initial=0.0))


def shape_path_length(shape: str, size_mm: float) -> float:
    return math.pi * size_mm if shape in ("circle", CYLINDER_SHAPE) else _polyline(shape, size_mm)[1][-1]


def _local_coords(shape: str, size_mm: float, arcs: np.ndarray) -> np.ndarray:
    """Plane-frame (x, y) at the given arc lengths, (N,2)."""
    if shape == "circle":
        r = size_mm / 2.0
        theta = math.pi + arcs / r  # start at (0, 0), sweep the full circle
        return np.stack([size_mm / 2.0 + r * np.cos(theta), r * np.sin(theta)], axis=1)
    verts, cum = _polyline(shape, size_mm)
    return np.stack([np.interp(arcs, cum, axis) for axis in zip(*verts)], axis=1)


def group_by_cell(specs: list[TrialSpec]) -> list[list[int]]:
    """Indices into ``specs``, one list per grid cell (trials differing only in rep, tilt and seed)."""
    cells: dict[tuple, list[int]] = {}
    for i, s in enumerate(specs):
        cells.setdefault((s.texture, s.shape, s.size_mm, s.rate_hz, s.speed_mm_s), []).append(i)
    return list(cells.values())


def _time_steps(spec: TrialSpec) -> tuple[float, float, float, float]:
    """A trial's frame period (ms), step (mm), path length (mm) and frame count: one frame at the start
    and one per step begun. Raises ValueError, before ``time_base`` allocates anything, for a step past
    the float range, a count past ``MAX_TRACE_FRAMES`` (counted in float: inf for a step that underflows
    to 0) or a last timestamp that ``time_base`` would not round to a uint32 ms."""
    dt = 1.0 / spec.rate_hz
    step, period_ms = spec.speed_mm_s * dt, 1000.0 * dt
    length = shape_path_length(spec.shape, spec.size_mm)
    trace = f"a {spec.size_mm} mm {spec.shape} at {spec.speed_mm_s} mm/s and {spec.rate_hz} Hz"
    if not step < math.inf:
        raise ValueError(f"{trace} steps {step:.6g} mm a frame, past the float range")
    count = float(np.ceil(length / step - 1e-9)) + 1.0 if step > 0.0 else math.inf
    if not count <= MAX_TRACE_FRAMES:
        raise ValueError(f"{trace} takes {count:.6g} frames, more than the {MAX_TRACE_FRAMES} a trace may hold")
    last_ms = (count - 1.0) * period_ms  # as time_base writes it, so one frame inf ms apart reads nan
    if not last_ms < 2**32 - 0.5:
        raise ValueError(f"{trace} stamps its frames {period_ms:.6g} ms apart up to {last_ms:.6g} ms, past uint32")
    return period_ms, step, length, count


def time_base(spec: TrialSpec) -> tuple[np.ndarray, np.ndarray]:
    """A trial's frame times (ms) and the arc length (mm) traced at each: a frame per step at constant speed."""
    period_ms, step, length, count = _time_steps(spec)
    frames = np.arange(int(count))
    return np.round(frames * period_ms).astype(np.int64), np.minimum(frames * step, length)


def gen_trajectories(specs: list[TrialSpec]) -> Trajectory:
    """Trace one cell's trials at constant speed on their tilted planes, stacked ``(trials, frames)``.

    The device orientation equals the plane attitude throughout; the
    cylinder shape instead rolls the attitude along the wrap.
    """
    spec = specs[0]
    if len(group_by_cell(specs)) != 1:
        raise ValueError("the trials of a group must share one grid cell")
    t_ms, arcs = time_base(spec)

    if spec.shape == CYLINDER_SHAPE:  # one wrap, whatever the tilt
        pos, quat = (np.tile(a, (len(specs), 1, 1)) for a in _cylinder_path(spec, arcs))
    else:
        tilts = np.array([axis_angle_quat(EY, s.tilt_deg).as_tuple() for s in specs])[:, None]
        rot = quat_matrices(tilts)
        local = _local_coords(spec.shape, float(spec.size_mm), arcs)
        pos = local[:, 0:1] * rot[..., 0] + local[:, 1:2] * rot[..., 1]
        quat = np.repeat(tilts, len(arcs), axis=1)
    return Trajectory(np.tile(t_ms, (len(specs), 1)), pos, quat)


def _cylinder_path(spec: TrialSpec, arcs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions and attitudes wrapping once around a horizontal cylinder of diameter size_mm.

    The finger stays on the outer surface: position follows the cross
    section circle while the touch plane stays tangent, so the attitude
    rolls continuously along the path.
    """
    radius = spec.size_mm / 2.0
    phi = arcs / radius
    # body axes in world coordinates: x = travel tangent, y = cylinder
    # axis (world Y), z = outward normal; the path starts at the origin
    zero = np.zeros_like(phi)
    pos = np.stack([radius * np.sin(phi), zero, radius * np.cos(phi) - radius], axis=1)
    # rotation about world Y by +phi applied to the identity tangent frame
    return pos, np.stack([np.cos(0.5 * phi), zero, np.sin(0.5 * phi), zero], axis=1)


def synthesize_group(
    truth: Trajectory,
    squal_mean: float,
    noise: NoiseModel,
    rngs: list[np.random.Generator],
) -> list[FrameColumns]:
    """Fabricate the block of wire frames a device tracing each trial of
    the ``(trials, frames)`` stack ``truth`` would emit.

    Per step the in-plane displacement (taken against the step-midpoint
    plane) becomes fractional counts, quantized through a running
    accumulator so the emitted integers always sum back to the true
    path. IMU channels carry the exact body-frame gravity, rate and
    field, then noise. Trial k draws from ``rngs[k]`` in a fixed order:
    slip, dropout, squal, lift squal, gyro bias, gyro, accel, mag. No
    operation mixes trials, so a block does not depend on its group.
    """
    n = len(truth)
    rot = quat_matrices(truth.quat)
    dp = np.diff(truth.pos_mm, axis=-2)
    mid = quat_matrices(quat_midpoints(truth.quat))
    along = [np.einsum("...i,...i->...", dp, mid[..., j]) for j in range(3)]  # the plane's u, v, n
    off_plane = np.abs(along[2])
    tol = 1e-6 * np.maximum(1.0, np.sqrt(np.sum(dp * dp, axis=-1)))  # each step's length
    if np.any(off_plane > tol):
        at = np.unravel_index(np.argmax(off_plane - tol), off_plane.shape)
        raise ValueError(f"truth leaves the touch plane at step {at[-1]}: {off_plane[at]:.3g} mm off-plane")
    counts = np.stack(along[:2], axis=-1) / _SCALES.mm_per_count

    # The dropout and lift-SQUAL draws of retired model parts are still
    # made and discarded: skipping one would shift every later draw of the
    # trial's generator, and with it every byte of every stored trace.
    draws = [
        (rng.normal(0.0, noise.slip_sigma_counts, (n - 1, 2)), rng.random(n - 1),
         rng.normal(squal_mean, _SQUAL_JITTER, n), rng.uniform(0.0, 3.0, n),
         rng.normal(0.0, noise.gyro_bias_sigma_dps, 3), rng.normal(0.0, noise.gyro_sigma_dps, (n, 3)),
         rng.normal(0.0, noise.accel_sigma_g, (n, 3)), rng.normal(0.0, noise.mag_sigma_gauss, (n, 3)))
        for rng in rngs
    ]
    slip, _, squal_raw, _, bias, gyro_noise, accel_noise, mag_noise = map(np.array, zip(*draws))

    emitted = np.rint(np.cumsum(counts + slip, axis=-2))
    dxdy = np.zeros(emitted.shape[:-2] + (n, 2), dtype=np.int16)
    dxdy[..., 1:, :] = np.clip(np.diff(emitted, axis=-2, prepend=0.0).astype(np.int64), -32768, 32767)

    squal = np.rint(np.clip(squal_raw, 50, 90)).astype(np.uint8)

    gyro = np.zeros(rot.shape[:-1])
    dt_s = np.diff(truth.t_ms, axis=-1) / 1000.0
    dt_s[dt_s <= 0] = 1.0 / 50.0
    gyro[..., 1:, :] = quat_relative_rotvec(truth.quat) / dt_s[..., None] / _DEG
    accel, mag = (np.einsum("...ij,i->...j", rot, v) for v in (GRAVITY_WORLD.as_tuple(), MAG_FIELD_WORLD.as_tuple()))

    imu = np.concatenate([accel + accel_noise, gyro + bias[..., None, :] + gyro_noise, mag + mag_noise], axis=-1)
    imu_raw = np.clip(np.rint(imu / _SCALES.imu_units), -32768, 32767).astype(np.int16)
    return [FrameColumns(*columns) for columns in zip(truth.t_ms.copy(), dxdy, squal, imu_raw)]


# -- trial and campaign plumbing -------------------------------------------


def trial_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """(trial-level, synthesis) generators; both fully determined by seed."""
    children = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(children[0]), np.random.default_rng(children[1])


def draw_tilt(seed: int) -> float:
    trial_rng, _ = trial_streams(seed)
    return float(trial_rng.uniform(0.0, 90.0))


def simulate_by_cell(specs: list[TrialSpec], noise: NoiseModel) -> Iterator[tuple[int, Trajectory, FrameColumns]]:
    """Each trial's (index into ``specs``, truth, block of wire frames), cell by cell (``group_by_cell``):
    a cell's truth is one ``gen_trajectories`` stack, its blocks one ``synthesize_group`` call."""
    for cell in group_by_cell(specs):
        group = [specs[i] for i in cell]
        truth = gen_trajectories(group)
        rngs = [trial_streams(s.seed)[1] for s in group]
        for k, (i, block) in enumerate(zip(cell, synthesize_group(truth, TEXTURES[group[0].texture], noise, rngs))):
            yield i, truth.trial(k), block


def simulate_columns(spec: TrialSpec, noise: NoiseModel) -> tuple[Trajectory, FrameColumns]:
    """Ground truth plus the block of synthesized wire frames for one trial: the walk over a cell of one."""
    _, truth, block = next(simulate_by_cell([spec], noise))
    return truth, block


def simulate_trial(spec: TrialSpec, noise: NoiseModel, scales=None) -> tuple[Trajectory, list[SensorFrame]]:
    """``simulate_columns`` with the frames as a list. ``scales`` is ignored, kept only because the
    bench harness passes it: ``ScaleConfig()`` takes no setting, and the synthesizer models its one device."""
    truth, block = simulate_columns(spec, noise)
    return truth, block.frames()


def trial_seed(campaign_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((campaign_seed, index)).generate_state(1, np.uint64)[0])


def campaign_specs(campaign_seed: int) -> list[TrialSpec]:
    """The full 3 x 4 x 6 x 5 grid with per-trial seeds and tilts."""
    specs = []
    for index, (texture, size, shape, rep) in enumerate(GRID):
        seed = trial_seed(campaign_seed, index)
        specs.append(TrialSpec(texture, size, shape, rep, tilt_deg=draw_tilt(seed), seed=seed))
    return specs


def trial_dirname(index: int, spec: TrialSpec) -> str:
    return f"trial_{index:03d}_{spec.texture}_{spec.size_mm}_{spec.shape}_r{spec.rep}"


def write_manifest(path, campaign_seed: int, noise_preset: str, specs: list[TrialSpec]) -> None:
    payload = {
        "campaign_seed": campaign_seed,
        "noise": noise_preset,
        "trials": [{"index": i, **asdict(s), "dir": trial_dirname(i, s)} for i, s in enumerate(specs)],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_manifest(path) -> tuple[int, str, list[TrialSpec], list[str]]:
    """(campaign seed, noise preset, specs, trial dirs) of a ``write_manifest`` file.

    A spec field an entry leaves out takes its default, as in manifests
    written before the field existed. Raises ValueError naming ``path``
    when the manifest is malformed.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise TypeError("the top level is not a JSON object")
        names = [f.name for f in fields(TrialSpec)]
        specs = [TrialSpec(**{k: entry[k] for k in names if k in entry}) for entry in payload["trials"]]
        dirs = [entry["dir"] for entry in payload["trials"]]
        if not all(isinstance(d, str) for d in dirs):
            raise TypeError("every trial's dir must be a string")
        for d in dirs:  # the campaign reads and writes only under its own directory
            if Path(d).is_absolute() or ".." in Path(d).parts:
                raise ValueError(f"trial dir {d!r} is not a relative path inside the campaign")
        return payload["campaign_seed"], payload["noise"], specs, dirs
    except KeyError as exc:
        raise ValueError(f"{path}: malformed manifest: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past the float range
        raise ValueError(f"{path}: malformed manifest: {exc}") from exc


# -- scripted gesture fixtures ----------------------------------------------

GESTURE_KINDS = ("tap", "doubletap", "press", "moving-tap-reject")
_FRAME_MS = 20  # fixture frame period
# a level device's accel, gyro and mag channels (gravity, no rate, the field), quantized as synthesis quantizes
_LEVEL_IMU = tuple(map(tuple, np.rint(
    np.concatenate([GRAVITY_WORLD.as_tuple(), (0.0, 0.0, 0.0), MAG_FIELD_WORLD.as_tuple()]) / _SCALES.imu_units
).astype(int).reshape(3, 3).tolist()))


def _static_frame(t_ms: int, squal: int, dx: int) -> SensorFrame:
    """Frame with level-device IMU channels so the filter stays happy."""
    return SensorFrame(t_ms, dx, 0, squal, *_LEVEL_IMU)


def _no_fixture(kind: str, cfg: GestureConfig, *names: str) -> ValueError:
    thresholds = ", ".join(f"{name}={getattr(cfg, name)}" for name in names)
    return ValueError(f"no {kind} fixture of {_FRAME_MS} ms frames fits {thresholds}")


def script_gesture_trace(kind: str, cfg: GestureConfig | None = None) -> list[SensorFrame]:
    """A frame sequence the gesture detector, run with ``cfg``, classifies as ``kind``.

    Levels, contact lengths, the double tap's gap and slide and the
    moving tap's steps all follow ``cfg``. moving-tap-reject carries the
    tap squal signature and timing but exceeds the movement limit, so it
    must produce contact events only. Raises ValueError naming the
    thresholds when no sequence of 20 ms frames satisfies them.
    """
    if kind not in GESTURE_KINDS:
        raise ValueError(f"unknown gesture kind {kind!r}; expected one of {GESTURE_KINDS}")
    cfg = cfg or GestureConfig()
    hi = min(cfg.tap_squal + 5, SQUAL_MAX)
    if cfg.tap_squal < cfg.press_squal:
        hi = min(hi, cfg.press_squal - 1)  # a tap level the press timer ignores
    n = min(6 if kind == "moving-tap-reject" else 4, cfg.tap_window_ms // _FRAME_MS)  # frames of one tap
    if hi >= cfg.press_squal:
        n = min(n, -(-cfg.press_hold_ms // _FRAME_MS))  # too few for the press timer to fire
    if kind != "press" and n < 1:
        raise _no_fixture(kind, cfg, "tap_window_ms")
    # segments of (frames, squal, dx); the tail stays lifted until a withheld tap is flushed
    lead, tail = (2, 0, 0), ((cfg.doubletap_max_gap_ms + 200) // _FRAME_MS, 0, 0)

    if kind == "tap":
        segments = [lead, (n, hi, 0), tail]
    elif kind == "doubletap":
        top = cfg.doubletap_max_gap_ms // _FRAME_MS  # onset gaps in frames, with a lifted frame between taps
        n = min(n, top - 1)
        low = max(-(-cfg.doubletap_min_gap_ms // _FRAME_MS), n + 1)
        if n < 1 or low > top:
            raise _no_fixture(kind, cfg, "tap_window_ms", "doubletap_min_gap_ms", "doubletap_max_gap_ms")
        gap = min(max((cfg.doubletap_min_gap_ms + cfg.doubletap_max_gap_ms) // 2 // _FRAME_MS, low), top)
        slide = (1, 0, min(cfg.doubletap_offset_counts, 10))  # while lifted, inside the pairing offset
        segments = [lead, (n, hi, 0), slide, (gap - n - 1, 0, 0), (n, hi, 0), tail]
    elif kind == "press":
        segments = [((cfg.press_hold_ms + 100) // _FRAME_MS + 1, max(hi, cfg.press_squal), 0), (5, 0, 0)]
    else:
        moving = min(4, n - 1)  # the touchdown frame's movement does not count
        # two moving frames cross the limit at one limit each, one alone must exceed it; dx is an int16
        step = min(max(cfg.tap_move_limit_counts, 1) if moving > 1 else cfg.tap_move_limit_counts + 1, 32767)
        if moving < 1 or moving * step <= cfg.tap_move_limit_counts:
            raise _no_fixture(kind, cfg, "tap_window_ms", "press_hold_ms", "tap_move_limit_counts")
        segments = [lead, (n - moving, hi, 0), (moving, hi, step), tail]

    if sum(count for count, _, _ in segments) > MAX_TRACE_FRAMES:
        raise _no_fixture(kind, cfg, "press_hold_ms" if kind == "press" else "doubletap_max_gap_ms")
    frames: list[SensorFrame] = []
    for count, squal, dx in segments:
        for _ in range(count):
            frames.append(_static_frame(len(frames) * _FRAME_MS, squal, dx))
    return frames
