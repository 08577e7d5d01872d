import random
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from touchtrace.protocol import (
    FRAME_SIZE,
    SQUAL_MAX,
    DecoderDiagnostics,
    DecoderState,
    FrameColumns,
    ScaleConfig,
    SensorFrame,
    apply_scales,
    crc16_ccitt_false,
    decode_columns,
    decode_stream,
    encode_frame,
    encode_frames,
)


def crc16_bitwise_reference(data: bytes) -> int:
    """Independent bit-by-bit CRC-16/CCITT-FALSE used only as an oracle."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


i16 = st.integers(min_value=-32768, max_value=32767)
triple = st.tuples(i16, i16, i16)
frames_st = st.builds(
    SensorFrame,
    timestamp_ms=st.integers(min_value=0, max_value=0xFFFFFFFF),
    dx=i16,
    dy=i16,
    squal=st.integers(min_value=0, max_value=169),
    accel_raw=triple,
    gyro_raw=triple,
    mag_raw=triple,
)


def _zero_frame(t_ms=0):
    return SensorFrame(t_ms, 0, 0, 0, (0, 0, 0), (0, 0, 0), (0, 0, 0))


def _random_frame(rng):
    r16 = lambda: rng.randint(-32768, 32767)
    return SensorFrame(
        timestamp_ms=rng.randint(0, 0xFFFFFFFF),
        dx=r16(),
        dy=r16(),
        squal=rng.randint(0, 169),
        accel_raw=(r16(), r16(), r16()),
        gyro_raw=(r16(), r16(), r16()),
        mag_raw=(r16(), r16(), r16()),
    )


def test_crc_catalogue_check_value():
    assert crc16_ccitt_false(b"123456789") == 0x29B1
    assert crc16_bitwise_reference(b"123456789") == 0x29B1


def test_crc_matches_bitwise_reference_on_random_data():
    rng = random.Random(7)
    for _ in range(200):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        assert crc16_ccitt_false(data) == crc16_bitwise_reference(data)


def test_zero_frame_layout_and_round_trip():
    raw = encode_frame(_zero_frame())
    assert len(raw) == FRAME_SIZE
    assert raw[:4] == b"\xaa\x55\x01\x00"
    frames, diag = decode_stream(raw)
    assert frames == [_zero_frame()]
    assert (diag.crc_failures, diag.resyncs, diag.bytes_skipped) == (0, 0, 0)


def test_negative_dx_twos_complement():
    raw = encode_frame(SensorFrame(0, -3, 0, 0, (0, 0, 0), (0, 0, 0), (0, 0, 0)))
    assert raw[8:10] == b"\xfd\xff"


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"squal": 170}, "squal must be in [0, 169], got 170"),
        ({"squal": -1}, "squal must be in [0, 169], got -1"),
        ({"timestamp_ms": -1}, "timestamp_ms out of uint32 range: -1"),
        ({"timestamp_ms": 2**32}, "timestamp_ms out of uint32 range: 4294967296"),
        ({"dx": 32768}, "dx out of int16 range: 32768"),
        ({"dy": -32769}, "dy out of int16 range: -32769"),
        *(
            ({name: tuple(bad if i == k else 0 for i in range(3))}, f"{name} component out of int16 range: {bad}")
            for name in ("accel_raw", "gyro_raw", "mag_raw")
            for k, bad in enumerate((32768, -32769, 40000))
        ),
        ({"mag_raw": (0, float("nan"), 0)}, "mag_raw component out of int16 range: nan"),
        *(
            ({name: (0,) * n}, f"{name} must have 3 components, got {n}")
            for name in ("accel_raw", "gyro_raw", "mag_raw")
            for n in (2, 4)
        ),
        # the length is checked before the range
        ({"gyro_raw": (40000, 0, 0, 0)}, "gyro_raw must have 3 components, got 4"),
        ({"accel_raw": (40000, 0, 0), "gyro_raw": (0, 0)}, "accel_raw component out of int16 range: 40000"),
        # several fields out: the first in check order is named
        ({"squal": 170, "timestamp_ms": -1, "dx": 32768}, "squal must be in [0, 169], got 170"),
        ({"dy": 32768, "accel_raw": (32768, 0, 0)}, "dy out of int16 range: 32768"),
        ({"gyro_raw": (32768, 0, 0), "mag_raw": (32768, 0, 0)}, "gyro_raw component out of int16 range: 32768"),
    ],
)
def test_sensor_frame_names_the_field_out_of_range(changes, message):
    with pytest.raises(ValueError) as exc:
        replace(_zero_frame(), **changes)
    assert str(exc.value) == message


def test_sensor_frame_accepts_every_int16_and_uint32_bound():
    for value in (-32768, 32767):
        for name in ("dx", "dy"):
            replace(_zero_frame(), **{name: value})
        for name in ("accel_raw", "gyro_raw", "mag_raw"):
            replace(_zero_frame(), **{name: (value, -value - 1, value)})
    replace(_zero_frame(0xFFFFFFFF), squal=SQUAL_MAX)


@given(frames_st)
def test_round_trip_property(frame):
    frames, diag = decode_stream(encode_frame(frame))
    assert frames == [frame]
    assert diag.crc_failures == 0


def test_round_trip_10k_random_frames():
    rng = random.Random(42)
    original = [_random_frame(rng) for _ in range(10_000)]
    frames, diag = decode_stream(encode_frames(original))
    assert frames == original
    assert (diag.crc_failures, diag.resyncs, diag.bytes_skipped) == (0, 0, 0)


def test_two_frames_back_to_back():
    f1, f2 = _zero_frame(0), _zero_frame(20)
    frames, diag = decode_stream(encode_frame(f1) + encode_frame(f2))
    assert frames == [f1, f2]
    assert diag.frames == 2
    assert (diag.crc_failures, diag.resyncs, diag.bytes_skipped) == (0, 0, 0)


def test_leading_garbage_resync():
    garbage = b"\x01\x02\x03\x04\x05\x06\x07"
    frames, diag = decode_stream(garbage + encode_frame(_zero_frame()))
    assert len(frames) == 1
    assert diag.resyncs == 1
    assert diag.bytes_skipped == 7


def _fed_byte_by_byte(data: bytes) -> tuple[list[SensorFrame], DecoderDiagnostics]:
    state = DecoderState()
    frames = [frame for k in range(len(data)) for frame in state.feed(data[k : k + 1])]
    state.flush()
    return frames, state.diagnostics


@pytest.mark.parametrize("decode", [decode_columns, _fed_byte_by_byte], ids=["decode_columns", "one-byte-feed"])
def test_good_frames_between_two_skip_runs_end_the_first(decode):
    # a good frame closes the skip run before it, so the junk after it is a second resync
    good = encode_frames([_zero_frame(0), _zero_frame(20)])
    frames, diag = decode(b"\x01\x02\x03" + good + b"\x04\x05" + encode_frame(_zero_frame(40)))
    assert len(frames) == 3
    assert (diag.frames, diag.resyncs, diag.bytes_skipped) == (3, 2, 5)


def test_flush_ends_the_skip_run():
    # a reader that flushes at a pause and feeds on counts the junk after the pause as a run of its own
    state = DecoderState()
    assert state.feed(b"\x01\x02") == []
    state.flush()
    assert state.feed(b"\x03" + encode_frame(_zero_frame())) == [_zero_frame()]
    assert (state.diagnostics.resyncs, state.diagnostics.bytes_skipped) == (2, 3)


def test_corrupted_byte_detected():
    raw = bytearray(encode_frame(_zero_frame()))
    raw[12] ^= 0xFF
    frames, diag = decode_stream(bytes(raw))
    assert frames == []
    assert diag.crc_failures == 1


def test_every_single_byte_corruption_detected():
    rng = random.Random(3)
    frame = _random_frame(rng)
    good = encode_frame(frame)
    for idx in range(FRAME_SIZE):
        for xor in (0x01, 0x80, 0xFF):
            raw = bytearray(good)
            raw[idx] ^= xor
            frames, _ = decode_stream(bytes(raw))
            assert frame not in frames, f"corruption at byte {idx} xor {xor:#x} not detected"


def test_stream_loses_at_most_the_corrupted_frame():
    rng = random.Random(11)
    original = [_random_frame(rng) for _ in range(10)]
    data = bytearray(encode_frames(original))
    data[5 * FRAME_SIZE + 17] ^= 0x5A
    frames, diag = decode_stream(bytes(data))
    assert len(frames) >= 9
    assert original[5] not in frames
    for i, f in enumerate(original):
        if i != 5:
            assert f in frames
    assert diag.crc_failures >= 1


def test_incremental_feed_equals_one_shot():
    rng = random.Random(99)
    original = [_random_frame(rng) for _ in range(50)]
    data = b"junk" + encode_frames(original) + b"\xaa"
    one_shot, _ = decode_stream(data)

    state = DecoderState()
    collected = []
    for start in range(0, len(data), 13):
        collected.extend(state.feed(data[start : start + 13]))
    state.flush()
    assert collected == one_shot == original


@pytest.mark.parametrize(
    "name, value", [("buffer", bytearray()), ("diagnostics", DecoderDiagnostics()), ("_skip_run_open", True)]
)
def test_decoder_state_takes_no_arguments(name, value):
    # the buffer, counters and skip-run flag are state the decoder makes for itself
    with pytest.raises(TypeError):
        DecoderState(**{name: value})
    state = DecoderState()
    assert state.buffer == bytearray() and state.diagnostics == DecoderDiagnostics()


def test_diagnostics_json_schema():
    _, diag = decode_stream(b"\x00" * 5 + encode_frame(_zero_frame()))
    import json

    payload = json.loads(diag.to_json())
    assert list(payload) == ["frames", "crc_failures", "field_errors", "resyncs", "bytes_skipped"]
    assert payload["frames"] == 1


def _with_squal(raw: bytes, squal: int) -> bytes:
    """The frame ``raw`` carrying ``squal``, under a valid CRC."""
    body = bytearray(raw[:32])
    body[12] = squal
    return bytes(body) + struct.pack("<H", crc16_ccitt_false(bytes(body)))


def test_valid_crc_with_squal_out_of_range_is_a_field_error():
    bad = _with_squal(encode_frame(_zero_frame()), SQUAL_MAX + 1)
    frames, diag = decode_stream(bad + encode_frame(_zero_frame(20)))
    assert frames == [_zero_frame(20)]
    assert (diag.field_errors, diag.crc_failures) == (1, 0)
    assert (diag.resyncs, diag.bytes_skipped) == (1, FRAME_SIZE)


FAULTS = ("none", "flip", "drop", "truncate", "junk", "duplicate", "field_error")


@st.composite
def faulted_streams(draw):
    """Valid frames, each left whole or hit by one wire fault."""
    out = bytearray()
    for frame in draw(st.lists(frames_st, max_size=10)):
        raw = encode_frame(frame)
        fault = draw(st.sampled_from(FAULTS))
        if fault == "flip":
            bit = draw(st.integers(0, FRAME_SIZE * 8 - 1))
            raw = bytearray(raw)
            raw[bit >> 3] ^= 1 << (bit & 7)
        elif fault == "drop":
            start = draw(st.integers(0, FRAME_SIZE - 1))
            raw = raw[:start] + raw[draw(st.integers(start + 1, FRAME_SIZE)) :]
        elif fault == "truncate":
            raw = raw[: draw(st.integers(1, FRAME_SIZE - 1))]
        elif fault == "junk":
            raw = draw(st.binary(min_size=1, max_size=40)) + raw
        elif fault == "duplicate":
            raw = raw + raw
        elif fault == "field_error":
            raw = _with_squal(raw, draw(st.integers(SQUAL_MAX + 1, 255))) + raw
        out += raw
    return bytes(out)


def assert_fast_path_equals_scanner(data: bytes) -> None:
    got, diagnostics = decode_columns(data)
    state = DecoderState()
    want = FrameColumns.of(state.feed(data))
    state.flush()
    for f in fields(FrameColumns):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), f.name
    assert diagnostics == state.diagnostics


@given(faulted_streams())
def test_fast_path_equals_scanner_on_faulted_streams(data):
    assert_fast_path_equals_scanner(data)


@pytest.mark.parametrize("case", ["clean", "first-stride-bad", "middle-stride-bad", "partial-trailing-frame"])
def test_fast_path_hands_over_to_scanner(case):
    rng = random.Random(5)
    data = bytearray(encode_frames([_random_frame(rng) for _ in range(6)]))
    if case == "first-stride-bad":
        data[7] ^= 0x10
    elif case == "middle-stride-bad":
        data[3 * FRAME_SIZE + 20] ^= 0x01
    elif case == "partial-trailing-frame":
        data += encode_frame(_random_frame(rng))[:20]
    assert_fast_path_equals_scanner(bytes(data))
    frames, diagnostics = decode_stream(bytes(data))
    assert diagnostics.frames == len(frames) == {"first-stride-bad": 5, "middle-stride-bad": 5}.get(case, 6)


def test_frame_columns_check_ranges_with_sensor_frame_messages():
    block = FrameColumns.of([_zero_frame(), _zero_frame(20)])
    with pytest.raises(ValueError, match="timestamp_ms out of uint32 range: 4294967296"):
        FrameColumns(np.array([0, 2**32]), block.dxdy, block.squal, block.imu_raw)
    with pytest.raises(ValueError, match=r"squal must be in \[0, 169\], got 170"):
        FrameColumns(block.t_ms, block.dxdy, np.array([0, 170], dtype=np.uint8), block.imu_raw)


def test_apply_scales():
    scales = ScaleConfig()
    frame = SensorFrame(0, 1, -2, 50, (0, 0, 16384), (0, 0, 0), (1100, 0, 0))
    cal = apply_scales(frame, scales)
    assert cal.accel_g.z == pytest.approx(1.0)
    assert cal.gyro_dps.as_tuple() == (0.0, 0.0, 0.0)
    assert cal.mag_gauss.x == pytest.approx(1.0)
    assert (cal.dx, cal.dy) == (1, -2)
    assert scales.mm_per_count == pytest.approx(0.0635)


def test_scale_config_validation():
    # the wire format fixes the scales: there is nothing to set, so nothing to check
    with pytest.raises(TypeError):
        ScaleConfig(counts_per_inch=0)
