"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of ``--seed``: the same seed gives
byte-identical inputs. The program under test only ever sees the
generated inputs, never the seed.

* ``campaign``: the 360-trial default-noise grid of ``campaign_specs``.
* ``replay``: long single-device sessions, simulated strokes joined with
  the scripted tap / double-tap / press fixtures.
* ``faults``: sessions built the same way, with faults injected into the
  wire bytes, returned together with the frames that must still decode.
"""

from __future__ import annotations

import binascii
import struct
from dataclasses import dataclass, replace

import numpy as np

from touchtrace.interaction import MountMode
from touchtrace.protocol import FRAME_SIZE, SQUAL_MAX, SensorFrame, encode_frames
from touchtrace.simulate import (
    TEXTURE_NAMES,
    TEXTURES,
    TrialSpec,
    campaign_specs,
    draw_tilt,
    noise_for_preset,
    script_gesture_trace,
    simulate_trial,
)

# One session: these strokes, in a seeded order, with a fixture after each
# of the first three. Every session has the same strokes, so every session
# has the same frame count (899) and session latencies differ only by
# mount, tilt, noise and the machine.
STROKES = (("circle", 42), ("square", 21), ("triangle", 42), ("diag", 84))
FIXTURES = ("tap", "doubletap", "press")
# Gesture kinds the detector must report inside each fixture's time window.
FIXTURE_EVENTS = {"tap": ("Tap",), "doubletap": ("DoubleTap",), "press": ("PressBegin", "PressEnd")}
LIFT_FRAMES = 10  # 200 ms lifted between segments, so fixtures start from no contact
FRAME_MS = 20
MOUNTS = (MountMode.FINGERPAD, MountMode.FINGERTIP, MountMode.RING)
POOL_SESSIONS = 12  # distinct sessions per pool; a run replays the pool whole

# faults: per-frame probability of each wire fault, gaps per session, and
# which pool sessions carry a device reset or a uint32 wrap (one of each,
# so the share of disrupted sessions is the same for every seed). These
# are synthetic choices, not rates measured on a device: see README.md.
FAULT_P = 0.02
GAPS_PER_SESSION = 3
DISRUPTIONS = ("reset", "wrap")
SERIAL_READ_MAX = 64  # chunk sizes are uniform in 1..64 bytes
UINT32 = 1 << 32

_WIRE = struct.Struct("<4BIhh2B9h")


def _plain(name, frames, fn, *args):
    """Untraced stand-in for ``Tracer``-backed hooks: ``frames`` is the
    span's frame count, an int or a function of the result."""
    return fn(*args)


def _stroke_frames(result) -> int:
    return len(result[1])


# -- campaign ------------------------------------------------------------------


def campaign_inputs(seed: int):
    """Specs and per-texture noise models of the default-noise grid."""
    specs = campaign_specs(seed)
    noises = {t: noise_for_preset("default", TEXTURES[t]) for t in TEXTURE_NAMES}
    return specs, noises


# -- replay --------------------------------------------------------------------


@dataclass(frozen=True)
class Session:
    """One long single-device session."""

    frames: list[SensorFrame]
    data: bytes
    mount: MountMode
    windows: tuple[tuple[str, int, int], ...]  # (fixture kind, first t_ms, last t_ms)


def _shifted(frames: list[SensorFrame], start_ms: int) -> list[SensorFrame]:
    t0 = frames[0].timestamp_ms
    return [replace(f, timestamp_ms=start_ms + f.timestamp_ms - t0) for f in frames]


def _lift(last: SensorFrame) -> list[SensorFrame]:
    return [
        replace(last, timestamp_ms=last.timestamp_ms + FRAME_MS * (k + 1), dx=0, dy=0, squal=0)
        for k in range(LIFT_FRAMES)
    ]


def session_frames(seed: int, index: int, call=_plain):
    """Strokes and fixtures of one session, with monotonic timestamps."""
    rng = np.random.default_rng([seed, index, 0])
    fixtures = [FIXTURES[k] for k in rng.permutation(len(FIXTURES))]
    frames: list[SensorFrame] = []
    windows = []
    for k, stroke in enumerate(rng.permutation(len(STROKES))):
        shape, size = STROKES[stroke]
        texture = TEXTURE_NAMES[int(rng.integers(len(TEXTURE_NAMES)))]
        trial_seed = int(rng.integers(1 << 63))
        spec = TrialSpec(texture, size, shape, 1, draw_tilt(trial_seed), trial_seed)
        noise = noise_for_preset("default", TEXTURES[texture])
        segments = [(None, call("simulate", _stroke_frames, simulate_trial, spec, noise)[1])]
        if k < len(fixtures):
            segments.append((fixtures[k], call("simulate", len, script_gesture_trace, fixtures[k])))
        for kind, segment in segments:
            if frames:
                frames += _lift(frames[-1])
            start = frames[-1].timestamp_ms + FRAME_MS if frames else 0
            frames += _shifted(segment, start)
            if kind is not None:
                windows.append((kind, start, frames[-1].timestamp_ms))
    return frames, tuple(windows)


def replay_session(seed: int, index: int, call=_plain) -> Session:
    frames, windows = session_frames(seed, index, call)
    data = call("protocol.encode", len(frames), encode_frames, frames)
    return Session(frames, data, MOUNTS[index % len(MOUNTS)], windows)


def replay_inputs(seed: int, call=_plain) -> list[Session]:
    return [replay_session(seed, i, call) for i in range(POOL_SESSIONS)]


# -- faults --------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSession:
    """A faulted byte stream, cut into serial reads, and what must decode from it."""

    chunks: list[bytes]
    n_bytes: int
    intact: list[SensorFrame]  # every frame whose bytes reach the decoder whole, in order
    disruption: str | None  # "reset", "wrap" or None


def _field_error_frame(frame: SensorFrame, squal: int) -> bytes:
    """A frame with a valid CRC whose SQUAL is out of range."""
    body = _WIRE.pack(
        0xAA, 0x55, 0x01, 0x00, frame.timestamp_ms, frame.dx, frame.dy, squal, 0,
        *frame.accel_raw, *frame.gyro_raw, *frame.mag_raw,
    )
    return body + struct.pack("<H", binascii.crc_hqx(body, 0xFFFF))


def _decodable_outside(stream: bytes, intact_starts: list[int]) -> bool:
    """Does any sync pattern outside the intact frames open a frame the decoder accepts?

    The decoder's scanner only ever looks at sync patterns outside the
    intact frames, so if none of them passes version, CRC and field
    checks, it decodes exactly the intact frames. The CRC here is the
    stdlib one, independent of the code under test.
    """
    inside = bytearray(len(stream))
    for s in intact_starts:
        inside[s : s + FRAME_SIZE] = b"\x01" * FRAME_SIZE
    p = stream.find(b"\xaa\x55")
    while 0 <= p <= len(stream) - FRAME_SIZE:
        if (
            not inside[p]
            and stream[p + 2] == 0x01
            and stream[p + 12] <= SQUAL_MAX
            and binascii.crc_hqx(stream[p : p + 32], 0xFFFF)
            == int.from_bytes(stream[p + 32 : p + 34], "little")
        ):
            return True
        p = stream.find(b"\xaa\x55", p + 1)
    return False


def faulted_stream(
    frames: list[SensorFrame], wire: bytes, rng: np.random.Generator
) -> tuple[bytes, list[SensorFrame]]:
    """Inject wire faults into the encoded ``frames``; return (bytes, intact frames).

    Per frame, each with probability FAULT_P: a bit flip, a dropped byte
    run, truncation to a fragment, junk bytes before it, a duplicate
    right after it, or a valid-CRC frame with SQUAL > 169 before it.
    Flipped, cut and truncated frames are lost; all others are intact.
    """
    out = bytearray()
    intact: list[SensorFrame] = []
    starts: list[int] = []

    def keep(frame: SensorFrame, raw: bytes) -> None:
        starts.append(len(out))
        out.extend(raw)
        intact.append(frame)

    for i, frame in enumerate(frames):
        raw = wire[i * FRAME_SIZE : (i + 1) * FRAME_SIZE]
        fault = int(rng.random() / FAULT_P)
        if fault == 0:  # bit flip
            bit = int(rng.integers(FRAME_SIZE * 8))
            flipped = bytearray(raw)
            flipped[bit >> 3] ^= 1 << (bit & 7)
            out.extend(flipped)
        elif fault == 1:  # dropped byte run
            start = int(rng.integers(FRAME_SIZE))
            stop = start + int(rng.integers(1, FRAME_SIZE - start + 1))
            out.extend(raw[:start] + raw[stop:])
        elif fault == 2:  # truncated fragment
            out.extend(raw[: int(rng.integers(1, FRAME_SIZE))])
        elif fault == 3:  # junk bytes
            out.extend(rng.bytes(int(rng.integers(1, 41))))
            keep(frame, raw)
        elif fault == 4:  # duplicated frame
            keep(frame, raw)
            keep(frame, raw)
        elif fault == 5:  # field error
            out.extend(_field_error_frame(frame, int(rng.integers(SQUAL_MAX + 1, 256))))
            keep(frame, raw)
        else:
            keep(frame, raw)
    stream = bytes(out)
    if _decodable_outside(stream, starts):
        raise ValueError("faults opened a decodable frame")
    return stream, intact


def _retimed(frames: list[SensorFrame], rng: np.random.Generator, disruption: str | None):
    """Device uptime, time gaps over 100 ms, and a reset or uint32 wrap."""
    n = len(frames)
    t = np.array([f.timestamp_ms for f in frames], dtype=np.int64)
    for g in rng.choice(np.arange(1, n), GAPS_PER_SESSION, replace=False):
        t[g:] += int(rng.integers(101, 2000))
    at = int(rng.integers(n // 4, 3 * n // 4))
    if disruption == "wrap":
        # frame `at` lands just past zero, the frames before it just below 2**32
        t = (t + UINT32 - t[at] + int(rng.integers(FRAME_MS))) % UINT32
    else:
        t += int(rng.integers(100_000, UINT32 - 2 * int(t[-1])))
        if disruption == "reset":
            t[at:] += int(rng.integers(5_000)) - t[at]
    return [replace(f, timestamp_ms=int(ts)) for f, ts in zip(frames, t)]


def fault_session(seed: int, index: int, disruption: str | None, call=_plain) -> FaultSession:
    frames, _ = session_frames(seed, index, call)
    rng = np.random.default_rng([seed, index, 1])
    frames = _retimed(frames, rng, disruption)
    wire = call("protocol.encode", len(frames), encode_frames, frames)
    for attempt in range(8):
        # a fault can, rarely, forge a valid frame from neighbouring bytes;
        # draw the faults again so the intact frames stay the exact answer
        try:
            stream, intact = faulted_stream(frames, wire, np.random.default_rng([seed, index, 2, attempt]))
            break
        except ValueError:
            continue
    else:
        raise RuntimeError(f"could not fault session {index} of seed {seed}")
    cuts = np.cumsum(rng.integers(1, SERIAL_READ_MAX + 1, len(stream)))
    cuts = [0] + [int(c) for c in cuts[cuts < len(stream)]] + [len(stream)]
    chunks = [stream[a:b] for a, b in zip(cuts, cuts[1:])]
    return FaultSession(chunks, len(stream), intact, disruption)


def fault_disruptions(seed: int) -> list[str | None]:
    """Which pool sessions carry a reset or a wrap: seeded positions, fixed count."""
    kinds: list[str | None] = [None] * POOL_SESSIONS
    for pos, kind in zip(np.random.default_rng([seed, 2]).permutation(POOL_SESSIONS), DISRUPTIONS):
        kinds[int(pos)] = kind
    return kinds


def fault_inputs(seed: int, call=_plain) -> list[FaultSession]:
    return [fault_session(seed, i, d, call) for i, d in enumerate(fault_disruptions(seed))]


def build_inputs(workload: str, seed: int, call=_plain):
    if workload == "campaign":
        return campaign_inputs(seed)
    if workload == "replay":
        return replay_inputs(seed, call)
    return fault_inputs(seed, call)
