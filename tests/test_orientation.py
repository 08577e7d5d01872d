import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import angle_between
from touchtrace import orientation
from touchtrace.cli import load_config
from touchtrace.geom import (
    EX,
    EY,
    EZ,
    GRAVITY_WORLD,
    IDENTITY_QUAT,
    UnitQuat,
    Vec3,
    axis_angle_quat,
    quat_multiply,
    rotate_vector,
    to_euler,
)
from touchtrace.orientation import (
    MAX_DT_S,
    FilterConfig,
    FilterDiagnostics,
    FilterState,
    OrientationFilter,
    filter_stream,
    filter_streams,
    initial_state,
    predict,
    triad_orientation,
    update_accel,
    update_mag,
)
from touchtrace.protocol import CalibratedSample, ScaleConfig, apply_scales
from touchtrace.simulate import NoiseModel, campaign_specs, simulate_by_cell

CFG = FilterConfig()


def body_measurements(q_true: UnitQuat, cfg: FilterConfig = CFG):
    """Noise-free accel/mag a device at orientation q_true would report."""
    q_conj = UnitQuat(q_true.w, -q_true.x, -q_true.y, -q_true.z)
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


def _raw_stream(*rows):
    """(t_ms, imu_raw) of samples 20 ms apart: a level first sample facing the reference field, then ``rows``,
    each an (accel, mag) pair of raw triples with the gyro at rest."""
    level = ((0, 0, -16384), (220, 0, -440))  # (0, 0, -1) g and (0.2, 0, -0.4) gauss in LSBs
    imu = [(*accel, 0, 0, 0, *mag) for accel, mag in (level, *rows)]
    return np.arange(len(imu)) * 20, np.array(imu, dtype=np.int16)


def test_an_accel_reading_exactly_at_the_gate_is_used():
    # the gate skips a reading whose | |a| - 1 g | exceeds it, not one that equals it; with accel_gate=0.5
    # the wire reaches the edge exactly: 24576 LSBs are 1.5 g, the next LSB is past it
    cfg = FilterConfig(accel_gate=0.5)
    lsb = ScaleConfig().accel_g_per_lsb
    s0 = initial_state(cfg)
    assert update_accel(s0, cfg, Vec3(24576 * lsb, 0, 0))[1]
    assert not update_accel(s0, cfg, Vec3(24577 * lsb, 0, 0))[1]
    t_ms, imu_raw = _raw_stream(((24576, 0, 0), (220, 0, -440)), ((24577, 0, 0), (220, 0, -440)))
    assert filter_stream(cfg, t_ms, imu_raw)[1] == FilterDiagnostics(0, 1)
    assert filter_streams(cfg, t_ms, imu_raw, [3])[1] == [FilterDiagnostics(0, 1)]


def test_a_one_lsb_mag_field_is_measured():
    # the magnetometer's smallest reading, one LSB (1/1100 gauss), is a field; only a zero field is skipped
    s0 = initial_state(CFG)
    s1, accepted = update_mag(s0, CFG, Vec3(ScaleConfig().mag_gauss_per_lsb, 0, 0))
    assert accepted and s1.q != s0.q
    assert update_mag(s0, CFG, Vec3(0, 0, 0)) == (s0, False)
    for run in (lambda t, imu: filter_stream(CFG, t, imu)[0], lambda t, imu: filter_streams(CFG, t, imu, [2])[0]):
        one_lsb, zero = (run(*_raw_stream(((0, 0, -16384), mag))) for mag in ((1, 0, 0), (0, 0, 0)))
        assert not np.array_equal(one_lsb[1], zero[1])


def test_predict_leaves_the_covariance_symmetric_to_the_bit():
    s = initial_state(CFG, Vec3(0.3, -0.2, -0.93), Vec3(0.25, 0.1, -0.35))
    for i in range(5):
        s, _ = update_accel(s, CFG, Vec3(0.1 * i, -0.2, -0.97))
        s, _ = update_mag(s, CFG, Vec3(0.2, 0.05 * i, -0.4))
    assert not np.array_equal(s.covariance, s.covariance.T)  # the updates leave float noise across the diagonal
    p = predict(s, CFG, Vec3(5, -3, 2), 0.02).covariance
    assert np.array_equal(p, p.T)
    # the lockstep's predict, in place on two rows of the same state
    q, bias, p = (np.array([a, a], dtype=float) for a in (s.q.as_tuple(), s.gyro_bias_dps.as_tuple(), s.covariance))
    orientation._batch_predict(q, bias, p, CFG, np.array([[5.0, -3.0, 2.0], [1.0, 2.0, 3.0]]), np.array([0.02, 0.05]))
    assert all(np.array_equal(m, m.T) for m in p)


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
    from touchtrace.simulate import NoiseModel, TEXTURES, synthesize_group, trial_streams
    from touchtrace.trajectory import Trajectory

    n = 101
    half = np.radians(np.linspace(0.0, 90.0, n)) / 2.0
    quat = np.stack([np.cos(half), np.zeros(n), np.zeros(n), np.sin(half)], axis=1)
    truth = Trajectory(np.arange(n) * 20, np.zeros((n, 3)), quat)
    _, rng = trial_streams(6)
    [block] = synthesize_group(Trajectory.stack([truth]), TEXTURES["mousepad"], NoiseModel.zero(), [rng])
    frames = block.frames()
    filt = OrientationFilter(CFG)
    scales = ScaleConfig()
    for frame in frames:
        est = filt.process(apply_scales(frame, scales))
    assert to_euler(est.q).yaw == pytest.approx(90.0, abs=1.0)


def test_duplicate_timestamp_allowed():
    filt = OrientationFilter(CFG)
    first = filt.process(static_sample(100, IDENTITY_QUAT))
    second = filt.process(static_sample(100, IDENTITY_QUAT))
    # no predict ran at dt == 0, so only the updates touched the covariance
    assert np.trace(second.covariance) < np.trace(first.covariance)


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

    from touchtrace.simulate import NoiseModel, TEXTURES, synthesize_group, trial_streams
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
        [block] = synthesize_group(Trajectory.stack([truth]), TEXTURES["mousepad"], noise, [rng])
        frames = block.frames()
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
    path.write_text("accel_noise=0.123\nmag_reference=0.25,-0.01,-0.39\n")
    loaded = load_config(path, FilterConfig)
    assert loaded == cfg


def test_filter_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "filter.cfg"
    path.write_text("bogus_key=1.0\n")
    with pytest.raises(ValueError, match="bogus_key"):
        load_config(path, FilterConfig)


def test_filter_config_validation():
    with pytest.raises(ValueError, match="accel_noise must be > 0"):
        FilterConfig(accel_noise=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="accel_gate must be finite"):
            FilterConfig(accel_gate=bad)
        for i in range(3):
            parts = [0.2, 0.0, -0.4]
            parts[i] = bad
            with pytest.raises(ValueError, match="mag_reference must be finite"):
                FilterConfig(mag_reference=Vec3(*parts))


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
    """Per-sample attitude of the streaming filter, and its diagnostics."""
    t_ms, gyro, accel, mag = stream
    filt = OrientationFilter(CFG)
    out = []
    for k in range(len(t_ms)):
        sample = CalibratedSample(
            int(t_ms[k]), 0, 0, 60, Vec3(*accel[k]), Vec3(*gyro[k]), Vec3(*mag[k])
        )
        out.append(filt.process(sample).q.as_tuple())
    return out, filt.diagnostics


@settings(max_examples=25, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_filter_streams_equals_streaming_filter(lengths, seed):
    # packed in the order drawn, so the lockstep sort meets unsorted lengths; the lockstep reads the raw
    # counts of each stream, quantized as the device would send them, and the reference their scaled rows
    rng = np.random.default_rng(seed)
    streams = [ragged_stream(rng, n) for n in lengths]
    units = ScaleConfig().imu_units
    t_ms = np.concatenate([s[0] for s in streams])
    scaled = np.concatenate([np.hstack((accel, gyro, mag)) for _, gyro, accel, mag in streams]) / units
    imu_raw = np.clip(np.rint(scaled), -32768, 32767).astype(np.int16)
    quat, diagnostics = filter_streams(CFG, t_ms, imu_raw, lengths)
    assert len(diagnostics) == len(streams)
    bounds = np.cumsum(lengths)[:-1]
    split = (np.split(a, bounds) for a in (t_ms, imu_raw * units, quat))
    for t, imu, got, got_diagnostics in zip(*split, diagnostics):
        expected, expected_diagnostics = scalar_run((t, imu[:, 3:6], imu[:, 0:3], imu[:, 6:9]))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        assert got_diagnostics == expected_diagnostics


def test_process_and_filter_stream_agree_bit_for_bit():
    # the two streaming entry points, sample by sample and over a whole
    # stream, on clean streams, a gap over MAX_DT_S, a duplicate timestamp,
    # gated accel and zero mag readings
    from test_golden import replay_streams

    scales = ScaleConfig()
    counted = {}
    for name, block, _ in replay_streams():
        filt = OrientationFilter()
        stepped = np.array([filt.process(apply_scales(frame, scales)).q.as_tuple() for frame in block.frames()])
        quat, diagnostics = filter_stream(FilterConfig(), block.t_ms, block.imu_raw)
        assert stepped.tobytes() == quat.tobytes(), name
        assert filt.diagnostics == diagnostics, name
        counted[name] = diagnostics
    assert counted["gap"] == FilterDiagnostics(clamped_dt=1, gated_accel=0)
    assert counted["gated-accel"] == FilterDiagnostics(clamped_dt=0, gated_accel=5)


# -- the filter held to its own covariance ------------------------------------

# The FilterConfig whose noise is the simulator's default NoiseModel, field by field.
_NOISE = NoiseModel()
MATCHED = FilterConfig(
    accel_noise=_NOISE.accel_sigma_g,  # the per-axis sigma (g) the simulator adds to every accel sample
    mag_noise=_NOISE.mag_sigma_gauss,  # the per-axis sigma (gauss) it adds to every mag sample
    # white gyro noise of sigma s per sample, every dt: Q = density^2 dt = (s dt)^2, so density = s sqrt(dt)
    gyro_noise_density=_NOISE.gyro_sigma_dps * math.sqrt(1.0 / 50.0),  # the campaign's 50 Hz
    init_bias_sigma_dps=_NOISE.gyro_bias_sigma_dps,  # each trial's constant gyro bias is drawn with this sigma
)
# The rest keep their defaults: the simulated bias does not walk (and the walk must be > 0), TRIAD
# starts the attitude, the simulator's field is the default mag_reference, and its accel is never gated.


def mean_attitude_nees(cfg: FilterConfig, specs, skip: int = 10) -> float:
    """Each trial's attitude NEES (normalized estimation error squared) averaged over its samples after
    the first ``skip``, then over the trials: dθᵀ P_θθ⁻¹ dθ, with dθ the body-frame error q⁻¹ ⊗ q_true,
    the error state the filter's covariance describes."""
    units = ScaleConfig().imu_units
    means = []
    for _, truth, block in simulate_by_cell(specs, NoiseModel()):
        filt = OrientationFilter(cfg)
        q, p = [], []
        for t, row in zip(block.t_ms.tolist(), (block.imu_raw * units).tolist()):
            filt.advance(t, row[0:3], row[3:6], row[6:9])
            state = filt.state
            q.append(state.q.as_tuple())
            p.append(state.covariance[:3, :3])
        err = quat_multiply(np.array(q) * (1.0, -1.0, -1.0, -1.0), truth.quat)
        dtheta = 2.0 * err[:, 1:] * np.sign(err[:, :1])  # small-angle error, of the quaternion with w >= 0
        nees = np.einsum("ni,nij,nj->n", dtheta, np.linalg.inv(np.array(p)), dtheta)
        means.append(nees[skip:].mean())
    return float(np.mean(means))


def test_matched_filter_is_consistent_with_its_own_covariance():
    # Bar-Shalom, Li & Kirubarajan (2001), 5.4: in a consistent filter the attitude NEES is chi-square
    # with 3 dof. A trial's samples are correlated; in the widest case, perfectly, each trial's mean is
    # one chi-square(3) draw and the mean of 36 independent trials is chi-square(108) / 36, whose
    # two-sided 95% band is [2.254, 3.851]. Less correlated samples only narrow it.
    specs = campaign_specs(42)[::10]
    assert 2.254 <= mean_attitude_nees(MATCHED, specs) <= 3.851  # reads 3.47; with R x 0.25, 10.8
    # the default filter trusts its accel and mag far less than the simulator warrants, and so
    # over-states its own uncertainty: a tuning fact, reported here, not a defect (reads 0.60)
    assert mean_attitude_nees(FilterConfig(), specs) < 2.254
