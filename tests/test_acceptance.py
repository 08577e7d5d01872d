"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. The two campaign fixtures are session-scoped because they
dominate the runtime; everything downstream reads from them.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from touchtrace.geom import (
    EX,
    EY,
    EZ,
    IDENTITY_QUAT,
    Vec3,
    axis_angle_quat,
    integrate_gyro,
    rotate_vector,
    to_euler,
)
from touchtrace.gestures import (
    CONTACT_BEGIN,
    CONTACT_END,
    DOUBLE_TAP,
    PRESS_BEGIN,
    PRESS_END,
    TAP,
    GestureConfig,
    GestureDetector,
    run_detector,
)
from touchtrace.interaction import (
    Box,
    MountMode,
    Scene,
    SceneObject,
    Sphere,
    StrokeAccumulator,
    derive_plane,
    end_stroke_rotation,
    pointer_track,
    raycast_select,
)
from touchtrace.orientation import (
    FilterConfig,
    FilterState,
    OrientationFilter,
    initial_state,
    predict,
    update_accel,
    update_mag,
)
from touchtrace.pipeline import ReplayConfig, replay_bytes, replay_cylinder_demo, run_campaign
from touchtrace.protocol import (
    FRAME_SIZE,
    ScaleConfig,
    SensorFrame,
    crc16_ccitt_false,
    decode_stream,
    encode_frame,
    encode_frames,
)
from touchtrace.evaluate import one_way_anova
from touchtrace.simulate import script_gesture_trace
from touchtrace.trajectory import read_csv

CAMPAIGN_SEED = 42


def report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {description}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {description} {detail}"


@pytest.fixture(scope="session")
def zero_campaign():
    start = time.perf_counter()
    results, summary = run_campaign(CAMPAIGN_SEED, "zero")
    elapsed = time.perf_counter() - start
    return results, summary, elapsed


@pytest.fixture(scope="session")
def default_summary(cli_campaign):
    """Seed-42 default-noise campaign through the real CLI file workflow."""
    root, _ = cli_campaign
    return json.loads((root / "summary.json").read_text())


def test_criterion_1_zero_noise_end_to_end(zero_campaign):
    _, summary, elapsed = zero_campaign
    pos = summary.grand["mean_pos_err_mm"]
    ori = summary.grand["mean_ori_err_deg"]
    ok = pos <= 0.2 and ori <= 0.2 and elapsed < 10.0
    report(
        1,
        "zero-noise campaign fidelity",
        ok,
        f"(pos {pos:.4f} mm, ori {ori:.4f} deg, {elapsed:.1f} s)",
    )


def test_criterion_2_calibrated_operating_point(default_summary):
    pos = default_summary["grand"]["mean_pos_err_mm"]
    ori = default_summary["grand"]["mean_ori_err_deg"]
    ok = 0.6 <= pos <= 1.6 and 1.5 <= ori <= 3.5
    report(2, "calibrated error bands", ok, f"(pos {pos:.3f} mm, ori {ori:.3f} deg)")


def test_criterion_3_errors_grow_with_size(default_summary):
    sizes = ["12", "21", "42", "84"]
    pos = [default_summary["per_size"][s]["mean_pos_err_mm"] for s in sizes]
    ori = [default_summary["per_size"][s]["mean_ori_err_deg"] for s in sizes]
    ok = all(a <= b for a, b in zip(pos, pos[1:])) and all(
        a <= b for a, b in zip(ori, ori[1:])
    )
    report(
        3,
        "per-size errors nondecreasing",
        ok,
        f"(pos {[round(p, 3) for p in pos]}, ori {[round(o, 3) for o in ori]})",
    )


def test_criterion_4_texture_anova(default_summary):
    p = default_summary["anova"]["p"]
    fixture = one_way_anova([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    ok = (
        p > 0.05
        and abs(fixture.F - 3.0) <= 1e-9
        and abs(fixture.p - 0.125) <= 1e-9
        and (fixture.df_between, fixture.df_within) == (2, 6)
    )
    report(
        4,
        "texture non-significance + exact ANOVA fixture",
        ok,
        f"(campaign p {p:.3f}; fixture F {fixture.F:.10f}, p {fixture.p:.10f})",
    )


def _event_kinds(frames, cfg=None):
    return [e.kind for e in run_detector(frames, cfg or GestureConfig())]


def test_criterion_5_gesture_suite():
    cfg = GestureConfig()
    fixtures_ok = (
        _event_kinds(script_gesture_trace("tap")) == [CONTACT_BEGIN, CONTACT_END, TAP]
        and _event_kinds(script_gesture_trace("doubletap"))
        == [CONTACT_BEGIN, CONTACT_END, CONTACT_BEGIN, CONTACT_END, DOUBLE_TAP]
        and _event_kinds(script_gesture_trace("press"))
        == [CONTACT_BEGIN, PRESS_BEGIN, PRESS_END, CONTACT_END]
        and _event_kinds(script_gesture_trace("moving-tap-reject"))
        == [CONTACT_BEGIN, CONTACT_END]
    )

    def tap_frames(onset, rows):
        for t in range(onset, onset + 80, 20):
            rows.append((t, 45, 0, 0))
        return onset + 80

    rows = [(0, 0, 0, 0), (20, 0, 0, 0)]
    end = tap_frames(40, rows)
    for t in range(end, 740, 20):
        rows.append((t, 0, 0, 0))
    end = tap_frames(740, rows)
    for t in range(end, end + 700, 20):
        rows.append((t, 0, 0, 0))
    frames = [SensorFrame(t, dx, dy, s, (0, 0, -16384), (0, 0, 0), (220, 0, -440))
              for t, s, dx, dy in rows]
    kinds = _event_kinds(frames)
    far_apart_ok = kinds.count(TAP) == 2 and DOUBLE_TAP not in kinds

    rng = random.Random(2024)
    split_ok = True
    for _ in range(1000):
        trace = []
        squal = 0
        for k in range(120):
            if rng.random() < 0.2:
                squal = rng.choice([0, 0, 8, 30, 45, 60])
            trace.append(
                SensorFrame(k * 20, rng.randint(-4, 4), rng.randint(-4, 4), squal,
                            (0, 0, -16384), (0, 0, 0), (220, 0, -440))
            )
        whole = run_detector(trace, cfg)
        again = run_detector(trace, cfg)
        cut = rng.randrange(1, len(trace))
        det = GestureDetector(cfg)
        pieces = []
        for f in trace[:cut]:
            pieces.extend(det.step(f))
        for f in trace[cut:]:
            pieces.extend(det.step(f))
        pieces.extend(det.finish())
        if not (whole == again == pieces):
            split_ok = False
            break

    ok = fixtures_ok and far_apart_ok and split_ok
    report(
        5,
        "gesture fixtures, 700 ms tap pair, determinism + split invariance",
        ok,
        f"(fixtures {fixtures_ok}, far-apart {far_apart_ok}, 1000 traces {split_ok})",
    )


def test_criterion_6_filter_properties():
    q = IDENTITY_QUAT
    for _ in range(100_000):
        q = integrate_gyro(q, Vec3(13.0, -5.0, 8.0), 0.02)
    norm_ok = abs(q.norm() - 1.0) <= 1e-6

    cfg = FilterConfig()
    s = initial_state(cfg)
    for _ in range(500):
        s = predict(s, cfg, Vec3(0, 0, 9.0), 0.02)
    sweep_ok = abs(to_euler(s.q).yaw - 90.0) <= 0.5

    truth_accel = Vec3(0, 0, -1.0)
    truth_mag = cfg.mag_reference
    state = FilterState(
        q=axis_angle_quat(EY, 30.0),
        gyro_bias_dps=Vec3(0, 0, 0),
        covariance=initial_state(cfg).covariance,
    )
    psd_ok = True
    err = 180.0
    for _ in range(100):
        state = predict(state, cfg, Vec3(0, 0, 0), 0.02)
        state, _ = update_accel(state, cfg, truth_accel)
        state, _ = update_mag(state, cfg, truth_mag)
        if np.linalg.eigvalsh(state.covariance).min() < -1e-9:
            psd_ok = False
        fwd = rotate_vector(state.q, EX)
        err = math.degrees(math.acos(max(-1.0, min(1.0, fwd.dot(EX)))))
    converge_ok = err < 1.0

    ok = norm_ok and sweep_ok and converge_ok and psd_ok
    report(
        6,
        "filter norm / gyro sweep / 30-deg convergence / PSD",
        ok,
        f"(norm dev {abs(q.norm()-1):.2e}, sweep yaw err {abs(to_euler(s.q).yaw-90):.3f} deg, "
        f"converged to {err:.3f} deg)",
    )


def test_criterion_7_protocol():
    crc_ok = crc16_ccitt_false(b"123456789") == 0x29B1

    rng = random.Random(7)

    def rand_frame():
        r16 = lambda: rng.randint(-32768, 32767)
        return SensorFrame(
            rng.randint(0, 0xFFFFFFFF), r16(), r16(), rng.randint(0, 169),
            (r16(), r16(), r16()), (r16(), r16(), r16()), (r16(), r16(), r16()),
        )

    frames = [rand_frame() for _ in range(10_000)]
    decoded, diag = decode_stream(encode_frames(frames))
    round_trip_ok = decoded == frames and diag.crc_failures == 0

    probe = rand_frame()
    good = encode_frame(probe)
    corruption_ok = True
    for idx in range(FRAME_SIZE):
        for xor in range(1, 256):
            bad = bytearray(good)
            bad[idx] ^= xor
            got, _ = decode_stream(bytes(bad))
            if probe in got:
                corruption_ok = False
                break
        if not corruption_ok:
            break

    stream = [rand_frame() for _ in range(50)]
    data = bytearray(encode_frames(stream))
    data[25 * FRAME_SIZE + 9] ^= 0xA5
    recovered, _ = decode_stream(bytes(data))
    resync_ok = len(recovered) >= 49 and all(
        f in recovered for i, f in enumerate(stream) if i != 25
    )

    ok = crc_ok and round_trip_ok and corruption_ok and resync_ok
    report(
        7,
        "protocol round-trip / corruption detection / resync / CRC check value",
        ok,
        f"(10k frames {round_trip_ok}, all byte corruptions {corruption_ok}, "
        f"resync kept {len(recovered)}/50)",
    )


def _rand_quat(rng):
    v = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
    if v.norm() < 1e-6:
        v = Vec3(1, 0, 0)
    return axis_angle_quat(v, rng.uniform(-180, 180))


def test_criterion_8_interaction_algebra():
    rng = random.Random(88)
    scales = ScaleConfig()

    stroke_ok = True
    for _ in range(10_000):
        plane = derive_plane(_rand_quat(rng), MountMode.FINGERPAD)
        acc = StrokeAccumulator()
        for _ in range(rng.randint(1, 6)):
            acc.add(rng.randint(-200, 200), rng.randint(-200, 200), plane, scales)
        rot = end_stroke_rotation(acc, plane)
        if rot is None:
            continue
        d = acc.in_plane_vector
        if abs(rot.axis.dot(d)) > 1e-9 * max(1.0, d.norm()) or abs(rot.axis.dot(plane.n)) > 1e-9:
            stroke_ok = False
            break

    residency_ok = True
    for _ in range(200):
        q = _rand_quat(rng)
        deltas = np.array([(rng.randint(-80, 80), rng.randint(-80, 80)) for _ in range(25)])
        end = pointer_track(np.tile(q.as_tuple(), (25, 1)), deltas, scales, MountMode.FINGERPAD)[-1]
        if abs(Vec3(*end).dot(derive_plane(q, MountMode.FINGERPAD).n)) > 1e-9:
            residency_ok = False
            break

    ry90 = axis_angle_quat(EY, 90.0)
    ff_ok = all(
        derive_plane(q, MountMode.FINGERTIP) == derive_plane(q.multiply(ry90), MountMode.FINGERPAD)
        for q in (_rand_quat(rng) for _ in range(500))
    )

    raycast_ok = _raycast_oracle_sweep(rng, scenes=1000)

    ok = stroke_ok and residency_ok and ff_ok and raycast_ok
    report(
        8,
        "stroke axis orthogonality / plane residency / mount equivalence / raycast oracle",
        ok,
        f"(strokes {stroke_ok}, residency {residency_ok}, mounts {ff_ok}, raycast {raycast_ok})",
    )


def _raycast_oracle_sweep(rng, scenes=1000):
    """Compare against a vectorized point-sampling containment oracle."""
    step = 0.1
    ts = np.arange(step, 150.0, step)
    for _ in range(scenes):
        objects = []
        for i in range(rng.randint(1, 4)):
            c = Vec3(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20))
            if rng.random() < 0.5:
                objects.append(SceneObject(f"s{i}", Sphere(c, rng.uniform(1.0, 5.0))))
            else:
                e = Vec3(rng.uniform(1, 5), rng.uniform(1, 5), rng.uniform(1, 5))
                objects.append(SceneObject(f"b{i}", Box(c - e, c + e)))
        scene = Scene(tuple(objects))
        target = rng.choice(objects)
        if isinstance(target.shape, Sphere):
            aim = target.shape.center
        else:
            aim = (target.shape.lo + target.shape.hi).scale(0.5)
        origin = Vec3(rng.uniform(-45, -35), rng.uniform(-5, 5), rng.uniform(-5, 5))
        d = (aim - origin).normalized()
        yaw = math.degrees(math.atan2(d.y, d.x)) + rng.uniform(-4, 4)
        pitch = -math.degrees(math.asin(max(-1, min(1, d.z)))) + rng.uniform(-4, 4)
        from touchtrace.geom import EulerAngles, from_euler

        q = from_euler(EulerAngles(yaw=yaw, pitch=pitch, roll=0.0))
        direction = rotate_vector(q, EX)
        picked = raycast_select(origin, q, scene)

        pts = np.array(origin.as_tuple()) + ts[:, None] * np.array(direction.as_tuple())
        first = {}
        for obj in objects:
            if isinstance(obj.shape, Sphere):
                inside = (
                    np.linalg.norm(pts - np.array(obj.shape.center.as_tuple()), axis=1)
                    <= obj.shape.radius
                )
            else:
                lo = np.array(obj.shape.lo.as_tuple())
                hi = np.array(obj.shape.hi.as_tuple())
                inside = np.all((pts >= lo) & (pts <= hi), axis=1)
            hits = np.nonzero(inside)[0]
            if len(hits):
                first[obj.object_id] = (hits[0], len(hits))
        if not first:
            # either a clean miss, or a graze thinner than the sampling step
            continue
        best = min(v[0] for v in first.values())
        winners = {k for k, v in first.items() if v[0] == best}
        if picked not in winners:
            # a graze shorter than one step can reorder winners
            if picked in first and first[picked][1] <= 1:
                continue
            return False
    return True


def test_criterion_9_cylinder_wrap(zero_campaign):
    truth, result = replay_cylinder_demo(diameter_mm=30.0)
    pos = result.pointer.pos_mm
    closure = float(np.linalg.norm(pos[-1] - pos[0]))
    span_x = float(pos[:, 0].max() - pos[:, 0].min())
    span_z = float(pos[:, 2].max() - pos[:, 2].min())
    ok = closure <= 1.0 and abs(span_x - 30.0) <= 0.6 and abs(span_z - 30.0) <= 0.6
    report(
        9,
        "cylinder wrap closes with proportional diameter (2%)",
        ok,
        f"(closure {closure:.3f} mm, spans {span_x:.2f}/{span_z:.2f} vs 30)",
    )
