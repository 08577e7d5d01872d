import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from touchtrace.geom import (
    EX,
    EY,
    EZ,
    GRAVITY_WORLD,
    IDENTITY_QUAT,
    UnitQuat,
    Vec3,
    angle_between,
    axis_angle_quat,
    rotate_vector,
    to_euler,
)
from touchtrace.orientation import (
    MAX_DT_S,
    FilterConfig,
    FilterState,
    OrientationFilter,
    batch_step,
    initial_batch,
    initial_state,
    load_filter_config,
    predict,
    save_filter_config,
    triad_orientation,
    update_accel,
    update_mag,
)
from touchtrace.protocol import CalibratedSample

CFG = FilterConfig()


def body_measurements(q_true: UnitQuat, cfg: FilterConfig = CFG):
    """Noise-free accel/mag a device at orientation q_true would report."""
    q_conj = q_true.conjugate()
    return rotate_vector(q_conj, GRAVITY_WORLD), rotate_vector(q_conj, cfg.mag_reference)


def static_sample(t_ms: int, q_true: UnitQuat, gyro=Vec3(0, 0, 0)) -> CalibratedSample:
    accel, mag = body_measurements(q_true)
    return CalibratedSample(t_ms, 0, 0, 60, accel, gyro, mag)


def attitude_error_deg(qa: UnitQuat, qb: UnitQuat) -> float:
    dot = abs(qa.w * qb.w + qa.x * qb.x + qa.y * qb.y + qa.z * qb.z)
    return math.degrees(2.0 * math.acos(min(1.0, dot)))


def test_predict_zero_gyro_keeps_quaternion():
    s0 = initial_state(CFG)
    s1 = predict(s0, CFG, Vec3(0, 0, 0), 0.05)
    assert s1.q.as_tuple() == s0.q.as_tuple()


def test_predict_constant_rate_yaw():
    s = initial_state(CFG)
    for _ in range(20):
        s = predict(s, CFG, Vec3(0, 0, 90.0), 0.05)
    assert to_euler(s.q).yaw == pytest.approx(90.0, abs=0.5)


def test_predict_bias_cancellation():
    s = FilterState(
        q=IDENTITY_QUAT,
        gyro_bias_dps=Vec3(0, 0, 90.0),
        covariance=initial_state(CFG).covariance,
    )
    s1 = predict(s, CFG, Vec3(0, 0, 90.0), 0.05)
    assert attitude_error_deg(s1.q, IDENTITY_QUAT) == pytest.approx(0.0, abs=1e-9)


def test_predict_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        predict(initial_state(CFG), CFG, Vec3(0, 0, 0), 0.0)


def test_predict_grows_covariance_trace():
    s0 = initial_state(CFG)
    s1 = predict(s0, CFG, Vec3(5, -3, 2), 0.02)
    assert np.trace(s1.covariance) >= np.trace(s0.covariance)


def test_update_accel_zero_innovation_is_noop():
    s0 = initial_state(CFG)
    s1, accepted = update_accel(s0, CFG, Vec3(0, 0, -1.0))
    assert accepted
    assert attitude_error_deg(s1.q, s0.q) <= 1e-9
    assert s1.gyro_bias_dps.norm() <= 1e-12


def test_update_accel_gate():
    s0 = initial_state(CFG)
    s1, accepted = update_accel(s0, CFG, Vec3(0, 0, -2.5))
    assert not accepted
    assert s1 is s0


def test_update_shrinks_covariance_trace():
    s0 = initial_state(CFG)
    s1, _ = update_accel(s0, CFG, Vec3(0, 0, -1.0))
    assert np.trace(s1.covariance) <= np.trace(s0.covariance)


def test_triad_recovers_attitude_exactly():
    q_true = axis_angle_quat(Vec3(0.3, -0.5, 0.8), 72.0)
    accel, mag = body_measurements(q_true)
    q = triad_orientation(accel, mag, CFG.mag_reference)
    assert attitude_error_deg(q, q_true) <= 1e-7


def test_triad_degenerate_raises():
    with pytest.raises(ValueError):
        triad_orientation(Vec3(0, 0, -1), Vec3(0, 0, -1), Vec3(0, 0, -0.4))


def test_static_convergence_from_30_degrees():
    # truth is level; the filter starts pitched 30 deg off with full
    # initial uncertainty, then sees clean static measurements at 50 Hz
    truth = IDENTITY_QUAT
    accel, mag = body_measurements(truth)
    s = FilterState(
        q=axis_angle_quat(EY, 30.0),
        gyro_bias_dps=Vec3(0, 0, 0),
        covariance=initial_state(CFG).covariance,
    )
    err = None
    for _ in range(100):  # 2 s at 50 Hz
        s = predict(s, CFG, Vec3(0, 0, 0), 0.02)
        s, _ = update_accel(s, CFG, accel)
        s, _ = update_mag(s, CFG, mag)
        err = attitude_error_deg(s.q, truth)
    assert err < 1.0


def test_stationary_fixed_point_and_trace_decrease():
    truth = axis_angle_quat(EX, 20.0)
    filt = OrientationFilter(CFG)
    traces = []
    for k in range(150):
        est = filt.process(static_sample(k * 20, truth))
        traces.append(float(np.trace(est.covariance)))
    assert attitude_error_deg(est.q, truth) <= 1e-6
    for a, b in zip(traces, traces[1:]):
        assert b <= a + 1e-12


def test_covariance_psd_throughout():
    truth = axis_angle_quat(EY, 40.0)
    filt = OrientationFilter(CFG)
    for k in range(300):
        gyro = Vec3(10 * math.sin(k / 9.0), -5.0, 3 * math.cos(k / 17.0))
        sample = static_sample(k * 20, truth, gyro=gyro)
        est = filt.process(sample)
        eig = np.linalg.eigvalsh(est.covariance)
        assert eig.min() >= -1e-9
        assert abs(est.q.norm() - 1.0) <= 1e-6


def test_gyro_only_matches_analytic_integration():
    # updates disabled: predict-only propagation over 10 s
    s = initial_state(CFG)
    q_ref = IDENTITY_QUAT
    for k in range(500):
        rate = Vec3(0.0, 0.0, 9.0)  # 90 deg over 10 s
        s = predict(s, CFG, rate, 0.02)
        from touchtrace.geom import integrate_gyro

        q_ref = integrate_gyro(q_ref, rate, 0.02)
    assert attitude_error_deg(s.q, q_ref) <= 0.5
    assert to_euler(s.q).yaw == pytest.approx(90.0, abs=0.5)


def test_process_tracks_clean_yaw_sweep():
    # synthesized rotating stream, zero noise: 0 -> 90 deg yaw over 2 s
    import numpy as np

    from touchtrace.protocol import ScaleConfig, apply_scales
    from touchtrace.simulate import NoiseModel, TEXTURES, synthesize_sensors, trial_streams
    from touchtrace.trajectory import Trajectory

    n = 101
    half = np.radians(np.linspace(0.0, 90.0, n)) / 2.0
    quat = np.stack([np.cos(half), np.zeros(n), np.zeros(n), np.sin(half)], axis=1)
    truth = Trajectory(np.arange(n) * 20, np.zeros((n, 3)), quat)
    _, rng = trial_streams(6)
    frames = synthesize_sensors(truth, TEXTURES["mousepad"], NoiseModel.zero(), rng)
    filt = OrientationFilter(CFG)
    scales = ScaleConfig()
    for frame in frames:
        est = filt.process(apply_scales(frame, scales))
    assert to_euler(est.q).yaw == pytest.approx(90.0, abs=1.0)


def test_out_of_order_timestamp_names_both():
    filt = OrientationFilter(CFG)
    filt.process(static_sample(100, IDENTITY_QUAT))
    with pytest.raises(ValueError, match="40.*100|100.*40"):
        filt.process(static_sample(40, IDENTITY_QUAT))


def test_duplicate_timestamp_allowed():
    filt = OrientationFilter(CFG)
    filt.process(static_sample(100, IDENTITY_QUAT))
    est = filt.process(static_sample(100, IDENTITY_QUAT))
    assert est.timestamp_ms == 100


def test_gap_clamped_and_counted():
    filt = OrientationFilter(CFG)
    filt.process(static_sample(0, IDENTITY_QUAT))
    filt.process(static_sample(500, IDENTITY_QUAT))
    assert filt.diagnostics.clamped_dt == 1


def test_deterministic_estimates():
    truth = axis_angle_quat(Vec3(1, 2, 3), 25.0)

    def run():
        filt = OrientationFilter(CFG)
        out = []
        for k in range(100):
            est = filt.process(static_sample(k * 20, truth, gyro=Vec3(1.0, 0.5, -0.2)))
            out.append(est.q.as_tuple())
        return out

    assert run() == run()


def test_static_default_noise_steady_state():
    """Bench-static scenario at the shipped white-noise levels.

    The per-trial gyro-bias draw models in-use disturbance and is
    excluded here; the white-noise steady state is typically below one
    degree (median over a fixed seed population) and always bounded.
    """
    import statistics

    from touchtrace.simulate import NoiseModel, TEXTURES, synthesize_sensors, trial_streams
    from touchtrace.trajectory import Trajectory
    from touchtrace.protocol import ScaleConfig, apply_scales
    import numpy as np

    q_true = axis_angle_quat(EY, 20.0)
    noise = NoiseModel(gyro_bias_sigma_dps=0.0)
    scales = ScaleConfig()
    steady = []
    for seed in range(12):
        n = 150
        quat = np.tile([q_true.w, q_true.x, q_true.y, q_true.z], (n, 1))
        truth = Trajectory(np.arange(n) * 20, np.zeros((n, 3)), quat)
        _, rng = trial_streams(seed)
        frames = synthesize_sensors(truth, TEXTURES["mousepad"], noise, rng)
        filt = OrientationFilter(CFG)
        errs = []
        for frame in frames:
            est = filt.process(apply_scales(frame, scales))
            errs.append(attitude_error_deg(est.q, q_true))
        steady.append(statistics.mean(errs[-50:]))
    assert statistics.median(steady) <= 1.0
    assert max(steady) <= 2.0


def test_filter_config_file_round_trip(tmp_path):
    cfg = FilterConfig(accel_noise=0.123, mag_reference=Vec3(0.25, -0.01, -0.39))
    path = tmp_path / "filter.cfg"
    save_filter_config(cfg, path)
    loaded = load_filter_config(path)
    assert loaded == cfg


def test_filter_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "filter.cfg"
    path.write_text("bogus_key=1.0\n")
    with pytest.raises(ValueError, match="bogus_key"):
        load_filter_config(path)


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(accel_noise=0.0)


def ragged_stream(rng: np.random.Generator, length: int):
    """(t_ms, gyro, accel, mag) of one stream with every case the filter masks.

    About one sample in eight each repeats its timestamp, follows a step
    of exactly MAX_DT_S (not clamped), follows a gap over MAX_DT_S,
    carries accel outside the gate, or reads zero mag.
    """
    steps = rng.choice([0, 20, 20, 20, 20, 20, 20, int(MAX_DT_S * 1000)], length)
    gaps = rng.random(length) < 1 / 8
    steps[gaps] = rng.integers(int(MAX_DT_S * 1000) + 1, 2000, gaps.sum())
    t_ms = int(rng.integers(0, 10_000)) + np.cumsum(steps) - steps[0]
    q_true = axis_angle_quat(Vec3(*rng.normal(size=3)), float(rng.uniform(-180, 180)))
    accel, mag = (np.array(v.as_tuple()) for v in body_measurements(q_true))
    gyro = rng.normal(0.0, 20.0, (length, 3))
    accel = accel + rng.normal(0.0, 0.05, (length, 3))
    accel[rng.random(length) < 1 / 8] *= rng.choice([0.0, 0.5, 1.6])
    mag = mag + rng.normal(0.0, 0.01, (length, 3))
    mag[rng.random(length) < 1 / 8] = 0.0
    return t_ms, gyro, accel, mag


def scalar_run(stream):
    """Per-sample (q, bias) of the streaming filter, and its diagnostics."""
    t_ms, gyro, accel, mag = stream
    filt = OrientationFilter(CFG)
    out = []
    for k in range(len(t_ms)):
        sample = CalibratedSample(
            int(t_ms[k]), 0, 0, 60, Vec3(*accel[k]), Vec3(*gyro[k]), Vec3(*mag[k])
        )
        est = filt.process(sample)
        out.append((est.q.as_tuple(), est.gyro_bias_dps.as_tuple()))
    return out, filt.diagnostics


@settings(max_examples=25, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_step_equals_streaming_filter(lengths, seed):
    rng = np.random.default_rng(seed)
    streams = [ragged_stream(rng, n) for n in sorted(lengths, reverse=True)]
    expected = [scalar_run(s) for s in streams]

    state = initial_batch(
        CFG, np.array([s[2][0] for s in streams]), np.array([s[3][0] for s in streams])
    )
    for k in range(max(lengths)):
        active = [s for s in streams if len(s[0]) > k]
        n = len(active)
        if k > 0:
            dt = np.array([(s[0][k] - s[0][k - 1]) / 1000.0 for s in active])
            gyro, accel, mag = (np.array([s[j][k] for s in active]) for j in (1, 2, 3))
            batch_step(state, CFG, dt, gyro, accel, mag)
        for i in range(n):
            q, bias = expected[i][0][k]
            np.testing.assert_allclose(state.q[i], q, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.gyro_bias_dps[i], bias, rtol=0, atol=1e-12)
    for i, (_, diagnostics) in enumerate(expected):
        assert state.diagnostics(i) == diagnostics
