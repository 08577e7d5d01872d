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
No field carries a scale: ``ScaleConfig`` holds the device's, as constants.

A ``FrameColumns`` block, one integer array per channel, is what the
campaign moves: ``encode_frames`` writes a block through one record
dtype, and ``decode_columns`` reads a whole stream back through the same
dtype while it is clean, handing the rest to the resync scanner.
"""

from __future__ import annotations

import binascii
import json
import struct
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .geom import Vec3

SYNC0 = 0xAA
SYNC1 = 0x55
VERSION = 0x01
FRAME_SIZE = 34
SQUAL_MAX = 169

_FRAME = struct.Struct("<4BIhh2B9hH")  # the scanner's unpack of one frame, CRC included
FRAME_DTYPE = np.dtype(  # the layout above, one record per frame; encode and the decode fast path use it
    [("sync", "u1", (2,)), ("version", "u1"), ("flags", "u1"), ("t_ms", "<u4"), ("dxdy", "<i2", (2,)),
     ("squal", "u1"), ("pad", "u1"), ("imu_raw", "<i2", (9,)), ("crc", "<u2")]
)

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
            if len(triple) != 3:
                raise ValueError(f"{name} must have 3 components, got {len(triple)}")
            for value in triple:
                if not -32768 <= value <= 32767:
                    raise ValueError(f"{name} component out of int16 range: {value}")


@dataclass(frozen=True)
class ScaleConfig:
    """The device's raw-LSB to physical-unit scales. No frame carries a scale, so the wire format
    fixes them: class constants, not settings, and ``ScaleConfig()`` takes no argument."""

    counts_per_inch = 400.0
    accel_g_per_lsb = 1.0 / 16384.0
    gyro_dps_per_lsb = 0.00875
    mag_gauss_per_lsb = 1.0 / 1100.0
    mm_per_count = 25.4 / counts_per_inch

    @property
    def imu_units(self) -> np.ndarray:  # per-LSB scale of each raw IMU channel, (9,): accel, gyro, mag
        return np.repeat((self.accel_g_per_lsb, self.gyro_dps_per_lsb, self.mag_gauss_per_lsb), 3)


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


@dataclass
class DecoderDiagnostics:
    frames: int = 0
    crc_failures: int = 0
    field_errors: int = 0  # intact CRC, but a field out of range (SQUAL > 169)
    resyncs: int = 0
    bytes_skipped: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class DecoderState:
    """Streaming decoder state. Single-owner; one per stream."""

    buffer: bytearray = field(default_factory=bytearray, init=False)
    diagnostics: DecoderDiagnostics = field(default_factory=DecoderDiagnostics, init=False)
    _skip_run_open: bool = field(default=False, init=False)

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
            f = _FRAME.unpack_from(buf, pos)
            if f[2] != VERSION:
                pass  # not a real frame boundary
            elif f[18] != crc16_ccitt_false(buf[pos : pos + 32]):
                self.diagnostics.crc_failures += 1
            elif f[7] > SQUAL_MAX:  # every other field is in range by its wire type
                self.diagnostics.field_errors += 1  # intact bytes carrying an invalid field
            else:
                out.append(SensorFrame(f[4], f[5], f[6], f[7], f[9:12], f[12:15], f[15:18]))
                self.diagnostics.frames += 1
                self._skip_run_open = False
                pos += FRAME_SIZE
                continue
            # not a frame: skip it like corruption and resume scanning past the sync
            self._skip(1)
            pos += 1
        del buf[:pos]
        return out

    def flush(self) -> None:
        """End of stream: whatever is buffered can no longer become a frame."""
        self._skip(len(self.buffer))
        self.buffer.clear()
        self._skip_run_open = False


@dataclass(frozen=True, eq=False)
class FrameColumns:
    """A block of frames, one integer array per channel, in stream order.

    The block is what a campaign synthesizes, encodes, decodes and
    replays. Its ranges are checked once per block, with ``SensorFrame``'s
    messages; the int16 columns hold their range by dtype.
    """

    t_ms: np.ndarray  # (n,) int64, each in uint32
    dxdy: np.ndarray  # (n, 2) int16
    squal: np.ndarray  # (n,) uint8, each in 0..SQUAL_MAX
    imu_raw: np.ndarray  # (n, 9) int16: accel, gyro, mag

    def __post_init__(self) -> None:
        out = (self.t_ms < 0) | (self.t_ms > 0xFFFFFFFF)
        if out.any():
            raise ValueError(f"timestamp_ms out of uint32 range: {self.t_ms[out][0]}")
        out = (self.squal < 0) | (self.squal > SQUAL_MAX)
        if out.any():
            raise ValueError(f"squal must be in [0, {SQUAL_MAX}], got {self.squal[out][0]}")

    def __len__(self) -> int:
        return len(self.t_ms)

    @staticmethod
    def of(frames: Sequence[SensorFrame]) -> "FrameColumns":
        rows = np.array(
            [(f.timestamp_ms, f.dx, f.dy, f.squal, *f.accel_raw, *f.gyro_raw, *f.mag_raw) for f in frames],
            dtype=np.int64,
        ).reshape(len(frames), 13)
        return FrameColumns(
            rows[:, 0].copy(), rows[:, 1:3].astype(np.int16), rows[:, 3].astype(np.uint8),
            rows[:, 4:].astype(np.int16),
        )

    @staticmethod
    def concat(blocks: Sequence["FrameColumns"]) -> "FrameColumns":
        """One block holding ``blocks`` one after another."""
        names = [f.name for f in fields(FrameColumns)]
        return FrameColumns(*(np.concatenate([getattr(b, name) for b in blocks]) for name in names))

    def frames(self) -> list[SensorFrame]:
        """One ``SensorFrame`` per row, for the callers that step frame by frame."""
        return [
            SensorFrame(t, dx, dy, squal, tuple(imu[0:3]), tuple(imu[3:6]), tuple(imu[6:9]))
            for t, (dx, dy), squal, imu in zip(
                self.t_ms.tolist(), self.dxdy.tolist(), self.squal.tolist(), self.imu_raw.tolist()
            )
        ]


def encode_frames(frames: FrameColumns | Sequence[SensorFrame]) -> bytes:
    """The wire bytes of a block, or of a sequence of frames, back to back."""
    block = frames if isinstance(frames, FrameColumns) else FrameColumns.of(frames)
    rec = np.zeros(len(block), FRAME_DTYPE)
    rec["sync"] = (SYNC0, SYNC1)
    rec["version"] = VERSION
    rec["t_ms"] = block.t_ms
    rec["dxdy"] = block.dxdy
    rec["squal"] = block.squal
    rec["imu_raw"] = block.imu_raw
    raw = memoryview(rec.view(np.uint8))
    rec["crc"] = [crc16_ccitt_false(raw[k : k + 32]) for k in range(0, len(raw), FRAME_SIZE)]
    return rec.tobytes()


def encode_frame(frame: SensorFrame) -> bytes:
    return encode_frames([frame])


def decode_columns(data: bytes) -> tuple[FrameColumns, DecoderDiagnostics]:
    """Decode a complete byte string (e.g. a whole ``.3dt`` file) to one block.

    The leading run of 34-byte strides from offset 0 whose sync, version,
    CRC and SQUAL all check is read in one pass through ``FRAME_DTYPE``.
    From the first stride that fails, the rest of the bytes go to a fresh
    ``DecoderState``, the resync scanner. The scanner would have accepted
    that clean prefix frame by frame and been left as it started, so the
    block and the counters equal what the scanner alone returns.
    """
    raw = memoryview(data)
    rec = np.frombuffer(data, FRAME_DTYPE, count=len(raw) // FRAME_SIZE)
    crc = [crc16_ccitt_false(raw[k : k + 32]) for k in range(0, len(rec) * FRAME_SIZE, FRAME_SIZE)]
    ok = (
        (rec["sync"] == (SYNC0, SYNC1)).all(axis=1)
        & (rec["version"] == VERSION)
        & (rec["squal"] <= SQUAL_MAX)
        & (rec["crc"] == crc)
    )
    bad = np.flatnonzero(~ok)
    good = int(bad[0]) if len(bad) else len(rec)
    head = rec[:good]
    columns = FrameColumns(
        head["t_ms"].astype(np.int64), head["dxdy"].astype(np.int16), head["squal"].copy(),
        head["imu_raw"].astype(np.int16),
    )
    state = DecoderState()
    rest = state.feed(raw[good * FRAME_SIZE :])
    state.flush()
    state.diagnostics.frames += good
    if rest:
        columns = FrameColumns.concat([columns, FrameColumns.of(rest)])
    return columns, state.diagnostics


def decode_stream(data: bytes) -> tuple[list[SensorFrame], DecoderDiagnostics]:
    """``decode_columns`` as a list of frames."""
    columns, diagnostics = decode_columns(data)
    return columns.frames(), diagnostics


def write_trace(path, frames: FrameColumns | Sequence[SensorFrame]) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_frames(frames))
