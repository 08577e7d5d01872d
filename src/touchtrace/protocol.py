"""Binary framing for the sensor stream, plus resync and integrity checks.

Frame layout (34 bytes, little-endian):

    [0]      0xAA   sync
    [1]      0x55   sync
    [2]      0x01   version
    [3]      0x00   flags (reserved)
    [4:8]    uint32 timestamp, ms
    [8:10]   int16  dx, optical counts
    [10:12]  int16  dy, optical counts
    [12]     uint8  SQUAL (0..169)
    [13]     0x00   pad
    [14:20]  3x int16 accel raw
    [20:26]  3x int16 gyro raw
    [26:32]  3x int16 mag raw
    [32:34]  uint16 CRC-16/CCITT-FALSE over bytes 0..31

A ``.3dt`` trace file is just concatenated frames, exactly as on the wire.
"""

from __future__ import annotations

import binascii
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .geom import Vec3

SYNC0 = 0xAA
SYNC1 = 0x55
VERSION = 0x01
FRAME_SIZE = 34
SQUAL_MAX = 169

_FRAME_STRUCT = struct.Struct("<4BIhh2B9hH")

def crc16_ccitt_false(data: bytes) -> int:
    """CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection, no xor-out.

    The stdlib's CRC-CCITT with the 0xFFFF seed is exactly this; the test
    suite cross-checks it against a bitwise reference.
    """
    return binascii.crc_hqx(data, 0xFFFF)


@dataclass(frozen=True, slots=True)
class SensorFrame:
    """One timestamped sample exactly as carried on the wire."""

    timestamp_ms: int
    dx: int
    dy: int
    squal: int
    accel_raw: tuple[int, int, int]
    gyro_raw: tuple[int, int, int]
    mag_raw: tuple[int, int, int]

    def __post_init__(self) -> None:
        if not 0 <= self.squal <= SQUAL_MAX:
            raise ValueError(f"squal must be in [0, {SQUAL_MAX}], got {self.squal}")
        if not 0 <= self.timestamp_ms <= 0xFFFFFFFF:
            raise ValueError(f"timestamp_ms out of uint32 range: {self.timestamp_ms}")
        for name, value in (("dx", self.dx), ("dy", self.dy)):
            if not -32768 <= value <= 32767:
                raise ValueError(f"{name} out of int16 range: {value}")
        for name, triple in (
            ("accel_raw", self.accel_raw),
            ("gyro_raw", self.gyro_raw),
            ("mag_raw", self.mag_raw),
        ):
            for value in triple:
                if not -32768 <= value <= 32767:
                    raise ValueError(f"{name} component out of int16 range: {value}")


@dataclass(frozen=True)
class ScaleConfig:
    """Raw-LSB to physical-unit scales for the sensor channels."""

    counts_per_inch: float = 400.0
    accel_g_per_lsb: float = 1.0 / 16384.0
    gyro_dps_per_lsb: float = 0.00875
    mag_gauss_per_lsb: float = 1.0 / 1100.0

    def __post_init__(self) -> None:
        for name in ("counts_per_inch", "accel_g_per_lsb", "gyro_dps_per_lsb", "mag_gauss_per_lsb"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def mm_per_count(self) -> float:
        return 25.4 / self.counts_per_inch


@dataclass(frozen=True, slots=True)
class CalibratedSample:
    """A frame with IMU channels scaled to physical units."""

    timestamp_ms: int
    dx: int
    dy: int
    squal: int
    accel_g: Vec3
    gyro_dps: Vec3
    mag_gauss: Vec3


def apply_scales(frame: SensorFrame, scales: ScaleConfig) -> CalibratedSample:
    """Linear per-channel scaling; optical counts stay raw."""
    ka, kg, km = scales.accel_g_per_lsb, scales.gyro_dps_per_lsb, scales.mag_gauss_per_lsb
    ax, ay, az = frame.accel_raw
    gx, gy, gz = frame.gyro_raw
    mx, my, mz = frame.mag_raw
    return CalibratedSample(
        timestamp_ms=frame.timestamp_ms,
        dx=frame.dx,
        dy=frame.dy,
        squal=frame.squal,
        accel_g=Vec3(ax * ka, ay * ka, az * ka),
        gyro_dps=Vec3(gx * kg, gy * kg, gz * kg),
        mag_gauss=Vec3(mx * km, my * km, mz * km),
    )


def encode_frame(frame: SensorFrame) -> bytes:
    body = _FRAME_STRUCT.pack(
        SYNC0,
        SYNC1,
        VERSION,
        0x00,
        frame.timestamp_ms,
        frame.dx,
        frame.dy,
        frame.squal,
        0x00,
        *frame.accel_raw,
        *frame.gyro_raw,
        *frame.mag_raw,
        0,
    )
    crc = crc16_ccitt_false(body[:32])
    return body[:32] + struct.pack("<H", crc)


def _unpack_frame(raw: bytes) -> SensorFrame:
    fields = _FRAME_STRUCT.unpack(raw)
    (_, _, _, _, t_ms, dx, dy, squal, _pad) = fields[:9]
    a = tuple(fields[9:12])
    g = tuple(fields[12:15])
    m = tuple(fields[15:18])
    return SensorFrame(t_ms, dx, dy, squal, a, g, m)


@dataclass
class DecoderDiagnostics:
    frames: int = 0
    crc_failures: int = 0
    field_errors: int = 0  # intact CRC, but a field out of range (SQUAL > 169)
    resyncs: int = 0
    bytes_skipped: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "frames": self.frames,
                "crc_failures": self.crc_failures,
                "field_errors": self.field_errors,
                "resyncs": self.resyncs,
                "bytes_skipped": self.bytes_skipped,
            }
        )


@dataclass
class DecoderState:
    """Streaming decoder state. Single-owner; one per stream."""

    buffer: bytearray = field(default_factory=bytearray)
    diagnostics: DecoderDiagnostics = field(default_factory=DecoderDiagnostics)
    _skip_run_open: bool = False

    def _skip(self, n: int) -> None:
        if n <= 0:
            return
        self.diagnostics.bytes_skipped += n
        if not self._skip_run_open:
            self.diagnostics.resyncs += 1
            self._skip_run_open = True

    def feed(self, data: bytes) -> list[SensorFrame]:
        """Consume bytes, returning every frame whose sync/version/CRC check.

        Corruption is never fatal: the scanner advances to the next sync
        pattern and keeps going, counting what it had to throw away.
        """
        self.buffer.extend(data)
        out: list[SensorFrame] = []
        buf = self.buffer
        pos = 0
        n = len(buf)
        while True:
            sync = buf.find(b"\xaa\x55", pos)
            if sync < 0:
                # keep a trailing 0xAA: the 0x55 may arrive in the next feed
                keep = n - 1 if n > pos and buf[n - 1] == SYNC0 else n
                self._skip(keep - pos)
                pos = keep
                break
            self._skip(sync - pos)
            pos = sync
            if n - pos < FRAME_SIZE:
                break
            raw = bytes(buf[pos : pos + FRAME_SIZE])
            if raw[2] != VERSION:
                # not a real frame boundary; resume scanning past the sync
                self._skip(1)
                pos += 1
                continue
            (crc_stored,) = struct.unpack_from("<H", raw, 32)
            if crc_stored != crc16_ccitt_false(raw[:32]):
                self.diagnostics.crc_failures += 1
                self._skip(1)
                pos += 1
                continue
            try:
                frame = _unpack_frame(raw)
            except ValueError:
                # intact bytes carrying an invalid field: skip it like corruption
                self.diagnostics.field_errors += 1
                self._skip(1)
                pos += 1
                continue
            out.append(frame)
            self.diagnostics.frames += 1
            self._skip_run_open = False
            pos += FRAME_SIZE
        del buf[:pos]
        return out

    def flush(self) -> None:
        """End of stream: whatever is buffered can no longer become a frame."""
        self._skip(len(self.buffer))
        self.buffer.clear()
        self._skip_run_open = False


def decode_stream(data: bytes) -> tuple[list[SensorFrame], DecoderDiagnostics]:
    """Decode a complete byte string (e.g. a whole ``.3dt`` file)."""
    state = DecoderState()
    frames = state.feed(data)
    state.flush()
    return frames, state.diagnostics


@dataclass(frozen=True, eq=False)
class FrameColumns:
    """Decoded frames as columns: what the lockstep replay reads of a stream."""

    t_ms: np.ndarray  # (n,) int64
    imu_raw: np.ndarray  # (n, 9) int16: accel, gyro, mag
    dxdy: np.ndarray  # (n, 2) int16

    def __len__(self) -> int:
        return len(self.t_ms)

    @staticmethod
    def of(frames: list[SensorFrame]) -> "FrameColumns":
        rows = np.array(
            [(f.dx, f.dy, *f.accel_raw, *f.gyro_raw, *f.mag_raw) for f in frames], dtype=np.int16
        ).reshape(len(frames), 11)
        t_ms = np.fromiter((f.timestamp_ms for f in frames), dtype=np.int64, count=len(frames))
        return FrameColumns(t_ms, rows[:, 2:], rows[:, :2])


def write_trace(path, frames) -> None:
    with open(path, "wb") as fh:
        for frame in frames:
            fh.write(encode_frame(frame))


def read_trace(path) -> tuple[list[SensorFrame], DecoderDiagnostics]:
    with open(path, "rb") as fh:
        return decode_stream(fh.read())


def encode_frames(frames) -> bytes:
    return b"".join(encode_frame(f) for f in frames)
