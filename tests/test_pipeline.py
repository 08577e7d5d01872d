import numpy as np
import pytest

from touchtrace.evaluate import evaluate_trial
from touchtrace.gestures import DOUBLE_TAP, PRESS_BEGIN, TAP
from touchtrace.pipeline import (
    ReplayConfig,
    map_chunks,
    replay_bytes,
    replay_cylinder_demo,
    replay_frames,
    replay_lockstep,
    run_campaign,
    run_trial,
    run_trials,
)
from touchtrace.interaction import MountMode
from touchtrace.protocol import FrameColumns, encode_frames
from touchtrace.simulate import (
    NoiseModel,
    campaign_specs,
    noise_for_preset,
    script_gesture_trace,
    simulate_trial,
    TEXTURES,
)

SPECS = campaign_specs(11)


def test_replay_emits_one_row_per_frame():
    spec = [s for s in SPECS if s.shape == "circle" and s.size_mm == 21][0]
    truth, frames = simulate_trial(spec, NoiseModel.zero())
    result, diag = replay_bytes(encode_frames(frames))
    assert result is not None
    assert diag.frames == len(frames)
    assert len(result.pointer) == len(frames)
    assert np.array_equal(result.pointer.t_ms, truth.t_ms)


@pytest.mark.parametrize("shape", ["hline", "diag", "triangle", "circle"])
def test_zero_noise_trial_replays_within_quantization(shape):
    spec = [s for s in SPECS if s.shape == shape][3]
    result = run_trial(spec, NoiseModel.zero())
    assert result.mean_pos_err_mm <= 0.2
    assert result.mean_ori_err_deg <= 0.2


def test_replay_requires_frames():
    result, diag = replay_bytes(b"\x00\x01\x02")
    assert result is None
    assert diag.frames == 0


def test_replay_deterministic():
    spec = SPECS[17]
    noise = noise_for_preset("default", TEXTURES[spec.texture])
    a = run_trial(spec, noise)
    b = run_trial(spec, noise)
    assert a == b


def test_worker_matches_direct_run():
    # the lockstep runner against run_trial, the sequential reference
    sampled = SPECS[40::37]
    for mount in MountMode:
        config = ReplayConfig(mount=mount, with_gestures=False)
        for spec, trial in zip(sampled, run_trials(sampled, "default", config)):
            direct = run_trial(spec, noise_for_preset("default", TEXTURES[spec.texture]), config)
            assert trial.spec == direct.spec
            assert trial.n_samples == direct.n_samples
            for field in ("mean_pos_err_mm", "pos_err_sigma", "mean_ori_err_deg", "ori_err_sigma"):
                assert getattr(trial, field) == pytest.approx(getattr(direct, field), rel=1e-9, abs=0)


def test_lockstep_replay_matches_replay_frames():
    streams = [simulate_trial(spec, NoiseModel())[1] for spec in SPECS[::60]]
    streams.append(streams[0][:1])
    for mount in MountMode:
        config = ReplayConfig(mount=mount, with_gestures=False)
        got = dict(replay_lockstep([FrameColumns.of(f) for f in streams], config))
        assert sorted(got) == list(range(len(streams)))
        for i, frames in enumerate(streams):
            want = replay_frames(frames, config)
            assert np.array_equal(got[i].pointer.t_ms, want.pointer.t_ms)
            np.testing.assert_allclose(got[i].pointer.quat, want.pointer.quat, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got[i].pointer.pos_mm, want.pointer.pos_mm, rtol=0, atol=1e-9)
            assert got[i].filter_diagnostics == want.filter_diagnostics
            assert got[i].events == []


def test_lockstep_replay_rejects_backward_timestamps():
    _, frames = simulate_trial(SPECS[3], NoiseModel.zero())
    frames[5], frames[6] = frames[6], frames[5]
    with pytest.raises(ValueError, match="out-of-order timestamp: 100 ms arrived after 120 ms"):
        list(replay_lockstep([FrameColumns.of(frames)]))


def test_campaign_is_bitwise_independent_of_jobs():
    one, summary_one = run_campaign(11, "default", 1)
    two, summary_two = run_campaign(11, "default", 2)
    assert one == two
    assert summary_one.to_json() == summary_two.to_json()


def test_gesture_traces_through_full_replay():
    for kind, expected in (("tap", TAP), ("doubletap", DOUBLE_TAP), ("press", PRESS_BEGIN)):
        data = encode_frames(script_gesture_trace(kind))
        result, _ = replay_bytes(data, ReplayConfig(with_gestures=True))
        assert result is not None
        kinds = [e.kind for e in result.events]
        assert kinds.count(expected) == 1, (kind, kinds)
    data = encode_frames(script_gesture_trace("doubletap"))
    result, _ = replay_bytes(data, ReplayConfig(with_gestures=True))
    assert TAP not in [e.kind for e in result.events]


def test_split_feed_equals_one_shot_replay():
    # byte-stream split at an arbitrary boundary must not change events
    from touchtrace.gestures import GestureDetector
    from touchtrace.protocol import DecoderState

    data = encode_frames(script_gesture_trace("doubletap"))
    whole, _ = replay_bytes(data, ReplayConfig(with_gestures=True))

    state = DecoderState()
    det = GestureDetector()
    events = []
    cut = 5 * 34 + 17  # mid-frame
    for chunk in (data[:cut], data[cut:]):
        for frame in state.feed(chunk):
            events.extend(det.step(frame))
    state.flush()
    events.extend(det.finish())
    assert events == whole.events


def test_gap_increments_filter_diagnostic():
    spec = [s for s in SPECS if s.shape == "square" and s.size_mm == 84][0]
    _, frames = simulate_trial(spec, NoiseModel.zero())
    # open a 500 ms hole (dt clamps above 100 ms and is counted once)
    gappy = [f for f in frames if not 200 <= f.timestamp_ms < 700]
    result = replay_frames(gappy, ReplayConfig(with_gestures=False))
    assert result.filter_diagnostics.clamped_dt == 1


def test_cylinder_wrap_closes_with_proportional_diameter():
    truth, result = replay_cylinder_demo(diameter_mm=30.0)
    pos = result.pointer.pos_mm
    closure = np.linalg.norm(pos[-1] - pos[0])
    assert closure <= 1.0  # one sample step
    span_x = pos[:, 0].max() - pos[:, 0].min()
    span_z = pos[:, 2].max() - pos[:, 2].min()
    assert span_x == pytest.approx(30.0, rel=0.02)
    assert span_z == pytest.approx(30.0, rel=0.02)


def test_cylinder_scales_with_diameter():
    for d in (20.0, 40.0):
        _, result = replay_cylinder_demo(diameter_mm=d)
        span = result.pointer.pos_mm[:, 0].max() - result.pointer.pos_mm[:, 0].min()
        assert span == pytest.approx(d, rel=0.02)


def test_evaluate_trial_pipeline_consistency():
    spec = SPECS[100]
    truth, frames = simulate_trial(spec, NoiseModel.zero())
    result, _ = replay_bytes(encode_frames(frames))
    trial = evaluate_trial(spec, result.pointer, truth)
    assert trial.n_samples == len(truth)
    assert trial.spec == spec


def test_map_chunks_runs_small_inputs_in_process():
    # fewer items than jobs: no worker is spawned, so a lambda is fine
    assert map_chunks(lambda items: [x * 2 for x in items], [], 4) == []
    assert map_chunks(lambda items: [x * 2 for x in items], [3], 4) == [6]
