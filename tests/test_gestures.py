import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import read_events_jsonl
from touchtrace.cli import load_config
from touchtrace.gestures import (
    CONTACT_BEGIN,
    CONTACT_END,
    DOUBLE_TAP,
    PRESS_BEGIN,
    PRESS_END,
    TAP,
    GestureConfig,
    GestureDetector,
    GestureEvent,
    run_detector,
    write_events_jsonl,
)
from touchtrace.simulate import GESTURE_KINDS, MAX_TRACE_FRAMES, script_gesture_trace
from touchtrace.protocol import SensorFrame, encode_frames

CFG = GestureConfig()


def frame(t, squal, dx=0, dy=0):
    return SensorFrame(t, dx, dy, squal, (0, 0, -16384), (0, 0, 0), (220, 0, -440))


def frames_from(rows):
    return [frame(*row) for row in rows]


def kinds(events):
    return [e.kind for e in events]


def tap_rows(onset_ms, duration_ms=80, squal=45, pre_ms=40, tail_ms=720, dx_during=0):
    rows = []
    t = onset_ms - pre_ms
    while t < onset_ms:
        rows.append((t, 0))
        t += 20
    end = onset_ms + duration_ms
    while t < end:
        rows.append((t, squal, dx_during))
        t += 20
    while t < end + tail_ms:
        rows.append((t, 0))
        t += 20
    return rows


def test_single_tap_fixture():
    events = run_detector(script_gesture_trace("tap"), CFG)
    assert kinds(events) == [CONTACT_BEGIN, CONTACT_END, TAP]
    tap = events[-1]
    begin, end = events[0], events[1]
    assert begin.t_ms <= tap.t_ms <= end.t_ms or tap.t_ms == end.t_ms
    assert end.t_ms - begin.t_ms <= CFG.tap_window_ms


def test_tap_emitted_only_after_pairing_window_lapses():
    det = GestureDetector(CFG)
    events = []
    emitted_at = {}
    for f in script_gesture_trace("tap"):
        for e in det.step(f):
            events.append(e)
            emitted_at[id(e)] = f.timestamp_ms
    events.extend(det.finish())
    tap = [e for e in events if e.kind == TAP][0]
    assert emitted_at[id(tap)] - tap.t_ms >= CFG.doubletap_max_gap_ms - CFG.tap_window_ms


def test_double_tap_fixture():
    events = run_detector(script_gesture_trace("doubletap"), CFG)
    assert kinds(events) == [CONTACT_BEGIN, CONTACT_END, CONTACT_BEGIN, CONTACT_END, DOUBLE_TAP]
    assert TAP not in kinds(events)


def test_press_fixture():
    events = run_detector(script_gesture_trace("press"), CFG)
    assert kinds(events) == [CONTACT_BEGIN, PRESS_BEGIN, PRESS_END, CONTACT_END]
    begin = next(e for e in events if e.kind == PRESS_BEGIN)
    contact = next(e for e in events if e.kind == CONTACT_BEGIN)
    assert begin.t_ms - contact.t_ms == CFG.press_hold_ms


def test_moving_tap_rejected():
    events = run_detector(script_gesture_trace("moving-tap-reject"), CFG)
    assert kinds(events) == [CONTACT_BEGIN, CONTACT_END]


FIXTURE_EVENTS = {
    "tap": [CONTACT_BEGIN, CONTACT_END, TAP],
    "doubletap": [CONTACT_BEGIN, CONTACT_END, CONTACT_BEGIN, CONTACT_END, DOUBLE_TAP],
    "press": [CONTACT_BEGIN, PRESS_BEGIN, PRESS_END, CONTACT_END],
    "moving-tap-reject": [CONTACT_BEGIN, CONTACT_END],
}

# sha256 of each default-config fixture's wire bytes; perfbench and the
# README's gesture commands replay these
FIXTURE_SHA256 = {
    "tap": "cda5f41ce3d2655ac260e2b733c9f66fac012b1e8efdf1765c6987751e81b2df",
    "doubletap": "0f1054fa850ef222020623e5ed56cd5baf4f7c7a00d097553db93a3726f72be3",
    "press": "ed183be74acb954cdec344a22c26efcfbfa198a6630c9457efbd3259f5b0bd17",
    "moving-tap-reject": "e9f67a3f675eb42f9e7bc8cc80f8302f3c814c3cbf3cb613bb14b8438012ecd6",
}


@pytest.mark.parametrize("kind", GESTURE_KINDS)
def test_default_fixture_bytes(kind):
    assert hashlib.sha256(encode_frames(script_gesture_trace(kind))).hexdigest() == FIXTURE_SHA256[kind]


@pytest.mark.parametrize(
    "kind, change",
    [
        ("doubletap", {"doubletap_offset_counts": 2}),
        ("moving-tap-reject", {"tap_move_limit_counts": 0}),
        ("tap", {"tap_window_ms": 50}),
        ("tap", {"press_hold_ms": 40}),
        ("press", {"press_squal": 120}),
    ],
)
def test_fixture_follows_its_config(kind, change):
    cfg = dataclasses.replace(CFG, **change)
    assert kinds(run_detector(script_gesture_trace(kind, cfg), cfg)) == FIXTURE_EVENTS[kind]


@pytest.mark.parametrize("kind", ["tap", "doubletap", "moving-tap-reject"])
def test_fixture_that_no_frame_grid_fits_names_the_threshold(kind):
    with pytest.raises(ValueError, match="tap_window_ms=10"):
        script_gesture_trace(kind, dataclasses.replace(CFG, tap_window_ms=10))


@pytest.mark.parametrize(
    "kind, key",
    [("press", "press_hold_ms"), ("tap", "doubletap_max_gap_ms"), ("doubletap", "doubletap_max_gap_ms"),
     ("moving-tap-reject", "doubletap_max_gap_ms")],
)
@pytest.mark.parametrize("value", [10**20, 20 * MAX_TRACE_FRAMES])
def test_fixture_longer_than_the_frame_cap_is_refused_before_it_is_built(kind, key, value):
    # a press holds press_hold_ms, the other kinds stay lifted past doubletap_max_gap_ms: both set the length
    with pytest.raises(ValueError, match=f"^no {kind} fixture of 20 ms frames fits {key}={value}$"):
        script_gesture_trace(kind, dataclasses.replace(CFG, **{key: value}))


@st.composite
def gesture_configs(draw):
    contact = draw(st.integers(1, 169))
    min_gap = draw(st.integers(0, 600))
    return GestureConfig(
        contact_squal=contact,
        tap_squal=draw(st.integers(contact, 169)),
        tap_window_ms=draw(st.integers(1, 400)),
        tap_move_limit_counts=draw(st.integers(0, 70000)),
        doubletap_min_gap_ms=min_gap,
        doubletap_max_gap_ms=draw(st.integers(max(min_gap, 1), 700)),
        doubletap_offset_counts=draw(st.integers(0, 30)),
        press_squal=draw(st.integers(contact, 169)),
        press_hold_ms=draw(st.integers(1, 600)),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=gesture_configs(), kind=st.sampled_from(GESTURE_KINDS))
def test_fixture_raises_or_replays_to_its_events(cfg, kind):
    try:
        frames = script_gesture_trace(kind, cfg)
    except ValueError as exc:
        assert str(exc).startswith(f"no {kind} fixture of 20 ms frames fits ")
        return
    assert kinds(run_detector(frames, cfg)) == FIXTURE_EVENTS[kind]


def test_two_taps_within_window_and_offset_pair():
    # drift (10, 4) counts while lifted: inside the +/-15 pairing offset
    rows = tap_rows(40, tail_ms=0) + [(200, 0, 10, 4)]
    rows += [(t, 0) for t in range(220, 400, 20)]
    rows += tap_rows(400, pre_ms=0)
    events = run_detector(frames_from(rows), CFG)
    assert kinds(events).count(DOUBLE_TAP) == 1
    assert TAP not in kinds(events)


def test_two_taps_far_apart_are_two_taps():
    rows = tap_rows(40, tail_ms=560) + tap_rows(740, pre_ms=0)
    events = run_detector(frames_from(rows), CFG)
    assert kinds(events).count(TAP) == 2
    assert DOUBLE_TAP not in kinds(events)


def test_two_taps_offset_too_large_are_two_taps():
    rows = tap_rows(40, tail_ms=0)
    # drift 20 counts while lifted, then a second tap in the pairing window
    rows += [(200, 0, 20), (220, 0), (240, 0), (260, 0), (280, 0), (300, 0), (320, 0), (340, 0), (360, 0), (380, 0)]
    rows += tap_rows(400, pre_ms=0)
    events = run_detector(frames_from(rows), CFG)
    assert kinds(events).count(TAP) == 2
    assert DOUBLE_TAP not in kinds(events)


def test_tap_with_excess_movement_rejected():
    rows = tap_rows(40, dx_during=6)
    events = run_detector(frames_from(rows), CFG)
    assert TAP not in kinds(events)
    assert kinds(events) == [CONTACT_BEGIN, CONTACT_END]


def test_press_not_fired_by_short_tap():
    events = run_detector(frames_from(tap_rows(40)), CFG)
    assert PRESS_BEGIN not in kinds(events)


def test_tap_press_boundary_partition():
    # fall exactly at the window edge is still a tap; one frame later the
    # hold threshold has fired first and the contact is a press instead
    tap_side = [(0, 0), (20, 0)] + [(t, 45) for t in range(40, 340, 20)] + [
        (t, 0) for t in range(340, 960, 20)
    ]
    events = run_detector(frames_from(tap_side), CFG)
    assert kinds(events) == [CONTACT_BEGIN, CONTACT_END, TAP]

    press_side = [(0, 0), (20, 0)] + [(t, 45) for t in range(40, 360, 20)] + [
        (t, 0) for t in range(360, 960, 20)
    ]
    events = run_detector(frames_from(press_side), CFG)
    assert kinds(events) == [CONTACT_BEGIN, PRESS_BEGIN, PRESS_END, CONTACT_END]
    assert TAP not in kinds(events)


def test_long_low_contact_is_contact_only():
    rows = [(t, 20) for t in range(0, 800, 20)] + [(800, 0)]
    events = run_detector(frames_from(rows), CFG)
    assert kinds(events) == [CONTACT_BEGIN, CONTACT_END]


def test_press_begin_end_alternate():
    rows = []
    t = 0
    for _ in range(3):
        for _ in range(25):  # 500 ms held
            rows.append((t, 45))
            t += 20
        for _ in range(5):  # 100 ms released
            rows.append((t, 0))
            t += 20
    events = run_detector(frames_from(rows), CFG)
    presses = [e.kind for e in events if e.kind in (PRESS_BEGIN, PRESS_END)]
    assert presses == [PRESS_BEGIN, PRESS_END] * 3


def test_events_are_timestamp_ordered_and_positions_accumulate():
    rng = random.Random(5)
    rows = []
    t = 0
    for _ in range(400):
        rows.append((t, rng.choice([0, 0, 20, 45, 60]), rng.randint(-3, 3), rng.randint(-3, 3)))
        t += 20
    trace = frames_from(rows)
    _assert_timestamp_ordered(run_detector(trace, CFG), trace)


def _assert_timestamp_ordered(events, trace):
    for a, b in zip(events, events[1:]):
        assert a.t_ms <= b.t_ms
    # a contact or press event carries the counts summed through a frame of its time
    x = y = 0
    sums_at = {}
    for f in trace:
        x, y = x + f.dx, y + f.dy
        sums_at.setdefault(f.timestamp_ms, set()).add((x, y))
    assert all(e.t_ms in sums_at for e in events)
    assert all((e.x, e.y) in sums_at[e.t_ms] for e in events if e.kind not in (TAP, DOUBLE_TAP))


def _random_trace(seed, n=300):
    """Random SQUAL and deltas; steps of 20 ms, of 0 ms (a repeated timestamp)
    and gaps past ``doubletap_max_gap_ms``, which lapse a withheld tap."""
    rng = random.Random(seed)
    rows = []
    t = 0
    squal = 0
    for _ in range(n):
        if rng.random() < 0.15:
            squal = rng.choice([0, 0, 5, 25, 45, 55])
        rows.append((t, squal, rng.randint(-4, 4), rng.randint(-4, 4)))
        step = rng.random()
        t += 0 if step < 0.1 else rng.randint(CFG.doubletap_max_gap_ms + 1, 1500) if step < 0.15 else 20
    return frames_from(rows)


@pytest.mark.parametrize("seed", range(30))
def test_determinism_and_split_invariance_sampled(seed):
    trace = _random_trace(seed)
    whole = run_detector(trace, CFG)
    assert whole == run_detector(trace, CFG)
    _assert_timestamp_ordered(whole, trace)

    # a stream split at any cut gives the whole stream's events: at every
    # cut, what the detector has returned is a prefix of them, and none it
    # still withholds is older than the longest a tap waits for its pair
    # (plus one frame); the frames after the cut and finish() return the rest
    longest_hold_ms = CFG.doubletap_max_gap_ms + CFG.tap_window_ms
    det = GestureDetector(CFG)
    split_events = []
    for cut in range(1, len(trace) + 1):
        split_events.extend(det.step(trace[cut - 1]))
        assert split_events == whole[: len(split_events)]
        withheld = whole[len(split_events) :]
        if cut > 1 and withheld:
            assert withheld[0].t_ms >= trace[cut - 2].timestamp_ms - longest_hold_ms
    split_events.extend(det.finish())
    assert split_events == whole


def test_events_jsonl_round_trip(tmp_path):
    events = [
        GestureEvent(TAP, 120, 3, -1),
        GestureEvent(DOUBLE_TAP, 460, 13, 4),
    ]
    path = tmp_path / "gestures.jsonl"
    write_events_jsonl(path, events)
    assert read_events_jsonl(path) == events
    first = path.read_text().splitlines()[0]
    import json

    assert json.loads(first) == {"t_ms": 120, "kind": "Tap", "x": 3, "y": -1}


def test_gesture_config_file_with_texture_profiles(tmp_path):
    path = tmp_path / "gestures.cfg"
    path.write_text(
        "contact_squal=12\n"
        "tap_squal=40\n"
        "jeans.tap_move_limit_counts=8\n"
        "wood.tap_squal=35\n"
    )
    jeans = load_config(path, GestureConfig, "jeans")
    assert jeans.contact_squal == 12
    assert jeans.tap_move_limit_counts == 8
    wood = load_config(path, GestureConfig, "wood")
    assert wood.tap_squal == 35
    assert wood.tap_move_limit_counts == GestureConfig().tap_move_limit_counts


@pytest.mark.parametrize("texture", ["mousepad", "wood", "jeans"])
@pytest.mark.parametrize("line", ["wood.bogus_key=3", "jeans.tap_squal=many", "mousepda.tap_squal=3"])
def test_gesture_config_checks_lines_of_every_texture(tmp_path, texture, line):
    path = tmp_path / "gestures.cfg"
    path.write_text(f"contact_squal=12\n{line}\n")
    with pytest.raises(ValueError, match=":2: (.*bogus_key|invalid literal|unknown texture 'mousepda')"):
        load_config(path, GestureConfig, texture)


def test_gesture_config_validation():
    with pytest.raises(ValueError):
        GestureConfig(contact_squal=50, tap_squal=40)
