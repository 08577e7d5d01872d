import random
import struct

import pytest
from hypothesis import given, strategies as st

from touchtrace.protocol import (
    FRAME_SIZE,
    DecoderState,
    ScaleConfig,
    SensorFrame,
    apply_scales,
    crc16_ccitt_false,
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


def test_squal_out_of_range_rejected():
    with pytest.raises(ValueError):
        SensorFrame(0, 0, 0, 170, (0, 0, 0), (0, 0, 0), (0, 0, 0))


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


def test_diagnostics_json_schema():
    _, diag = decode_stream(b"\x00" * 5 + encode_frame(_zero_frame()))
    import json

    payload = json.loads(diag.to_json())
    assert list(payload) == ["frames", "crc_failures", "field_errors", "resyncs", "bytes_skipped"]
    assert payload["frames"] == 1


def test_valid_crc_with_squal_out_of_range_is_a_field_error():
    body = bytearray(encode_frame(_zero_frame())[:32])
    body[12] = 170  # SQUAL one past its maximum
    bad = bytes(body) + struct.pack("<H", crc16_ccitt_false(bytes(body)))
    frames, diag = decode_stream(bad + encode_frame(_zero_frame(20)))
    assert frames == [_zero_frame(20)]
    assert (diag.field_errors, diag.crc_failures) == (1, 0)
    assert (diag.resyncs, diag.bytes_skipped) == (1, FRAME_SIZE)


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
    with pytest.raises(ValueError):
        ScaleConfig(counts_per_inch=0)
