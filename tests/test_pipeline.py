import inspect
from pathlib import Path

import numpy as np
import pytest

import touchtrace
from touchtrace.evaluate import evaluate_trial, match_truth
from touchtrace.gestures import DOUBLE_TAP, PRESS_BEGIN, TAP
from touchtrace.pipeline import (
    ReplayConfig,
    replay_bytes,
    replay_columns,
    replay_cylinder_demo,
    replay_frames,
    replay_lockstep,
    run_campaign,
    run_trials,
    score_trials,
)
from touchtrace.interaction import MountMode
from touchtrace.orientation import FilterDiagnostics, OrientationFilter, filter_stream, filter_streams
from touchtrace.protocol import FRAME_SIZE, FrameColumns, ScaleConfig, apply_scales, decode_columns, encode_frames
from touchtrace.simulate import (
    NoiseModel,
    TrialSpec,
    campaign_specs,
    draw_tilt,
    noise_for_preset,
    script_gesture_trace,
    simulate_by_cell,
    simulate_columns,
    simulate_trial,
    TEXTURES,
)
from touchtrace.trajectory import Trajectory, read_csv

SPECS = campaign_specs(11)


def run_trial(spec, noise):
    """Synthesize one trial, replay it through the wire, score it.

    The sequential reference for the lockstep campaign: one trial, one
    streaming filter, in the lockstep's configuration.
    """
    truth, block = simulate_columns(spec, noise)
    result, _ = replay_bytes(encode_frames(block), ReplayConfig(with_gestures=False))
    assert result is not None
    return evaluate_trial(spec, result.pointer, truth)


def test_the_device_scales_are_constants_not_settings():
    # no frame carries a scale, so nothing in the package can set one
    with pytest.raises(TypeError):
        ScaleConfig(counts_per_inch=800.0)
    with pytest.raises(TypeError):
        ReplayConfig(scales=ScaleConfig())
    assert ReplayConfig().scales == ScaleConfig()
    assert list(inspect.signature(filter_stream).parameters) == ["cfg", "t_ms", "imu_raw"]
    assert list(inspect.signature(filter_streams).parameters) == ["cfg", "t_ms", "imu_raw", "lengths"]
    # the device's values, bit for bit
    assert ScaleConfig().mm_per_count.hex() == "0x1.04189374bc6a8p-4"  # 25.4 / 400 counts per inch
    units = ["0x1.0000000000000p-14"] * 3 + ["0x1.1eb851eb851ecp-7"] * 3 + ["0x1.dca01dca01dcap-11"] * 3
    assert [u.hex() for u in ScaleConfig().imu_units.tolist()] == units  # 1/16384 g, 0.00875 deg/s, 1/1100 gauss


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


def test_lockstep_runner_matches_streaming_reference():
    # the lockstep runner against run_trial, the sequential reference
    sampled = SPECS[40::37]
    for spec, trial in zip(sampled, run_trials(sampled, "default")):
        direct = run_trial(spec, noise_for_preset("default", TEXTURES[spec.texture]))
        assert trial.spec == direct.spec
        assert trial.n_samples == direct.n_samples
        for field in ("mean_pos_err_mm", "pos_err_sigma", "mean_ori_err_deg", "ori_err_sigma"):
            assert getattr(trial, field) == pytest.approx(getattr(direct, field), rel=1e-9, abs=0)


def test_lockstep_replay_matches_replay_frames():
    streams = [simulate_trial(spec, NoiseModel())[1] for spec in SPECS[::60]]
    streams.append(streams[0][:1])
    got = replay_lockstep([FrameColumns.of(f) for f in streams])
    assert len(got) == len(streams)
    for i, frames in enumerate(streams):
        want = replay_frames(frames, ReplayConfig(with_gestures=False))
        assert np.array_equal(got[i].pointer.t_ms, want.pointer.t_ms)
        np.testing.assert_allclose(got[i].pointer.quat, want.pointer.quat, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[i].pointer.pos_mm, want.pointer.pos_mm, rtol=0, atol=1e-9)
        assert got[i].filter_diagnostics == want.filter_diagnostics
        assert got[i].events == []


def test_lockstep_results_come_back_in_input_order():
    # mixed lengths, repeated and of one frame: the batch runs longest
    # first, but result i is stream i's
    _, a = simulate_trial(SPECS[85], noise_for_preset("default", TEXTURES[SPECS[85].texture]))
    _, b = simulate_trial(SPECS[200], noise_for_preset("default", TEXTURES[SPECS[200].texture]))
    streams = [a[:40], b[:1], a[:90], b[:40], a[:1], b[:90], a[:65]]
    got = replay_lockstep([FrameColumns.of(f) for f in streams])
    assert isinstance(got, list) and len(got) == len(streams)
    for result, frames in zip(got, streams):
        want = replay_frames(frames, ReplayConfig(with_gestures=False))
        assert np.array_equal(result.pointer.t_ms, want.pointer.t_ms)
        np.testing.assert_allclose(result.pointer.quat, want.pointer.quat, rtol=0, atol=1e-12)
        assert result.filter_diagnostics == want.filter_diagnostics


def test_filter_paths_count_alike_on_faulted_streams():
    # the float kernel inside replay, the OrientationFilter.process adapter
    # and the lockstep filter, on one stream with every case that a counter
    # or a skipped stage handles
    spec = TrialSpec("wood", 84, "circle", rep=1, tilt_deg=draw_tilt(5), seed=5)
    _, block = simulate_columns(spec, noise_for_preset("default", TEXTURES["wood"]))
    t_ms, imu_raw = block.t_ms.copy(), block.imu_raw.copy()
    t_ms[100:] += 450  # two gaps over MAX_DT_S, both clamped and counted
    t_ms[200:] += 700
    t_ms[300:] -= t_ms[300] - t_ms[299]  # a duplicate timestamp: no predict
    imu_raw[150:155, 0:3] //= 2  # about 0.5 g: outside the accel gate, counted
    imu_raw[250:253, 6:9] = 0  # zero mag: no mag update
    faulted = FrameColumns(t_ms, block.dxdy, block.squal, imu_raw)
    config = ReplayConfig(with_gestures=False)

    kernel = replay_columns(faulted, config)
    filt = OrientationFilter(config.filter_config)
    adapter = [filt.process(apply_scales(f, config.scales)).q.as_tuple() for f in faulted.frames()]
    lockstep, = replay_lockstep([faulted])

    want = FilterDiagnostics(clamped_dt=2, gated_accel=5)
    assert kernel.filter_diagnostics == filt.diagnostics == lockstep.filter_diagnostics == want
    assert np.array_equal(kernel.pointer.quat, np.array(adapter))
    np.testing.assert_allclose(lockstep.pointer.quat, kernel.pointer.quat, rtol=0, atol=1e-12)


def test_replay_hot_path_builds_no_per_frame_objects(tmp_path, monkeypatch):
    # replay reads the decoded block's rows: no SensorFrame, no
    # CalibratedSample and no Vec3 per frame, from bytes to pointer track
    from touchtrace import protocol
    from touchtrace.cli import main as cli_main
    from touchtrace.geom import Vec3

    frames = script_gesture_trace("doubletap")
    trace = tmp_path / "dtap.3dt"
    trace.write_bytes(encode_frames(frames))

    def refuse(*args):
        raise AssertionError("the replay hot path built a per-frame object")

    vectors = []
    vec3_init = Vec3.__init__

    def counted(self, *args):
        vectors.append(args)
        vec3_init(self, *args)

    monkeypatch.setattr(protocol, "apply_scales", refuse)
    monkeypatch.setattr(protocol.SensorFrame, "__post_init__", refuse)
    monkeypatch.setattr(Vec3, "__init__", counted)
    result, _ = replay_bytes(trace.read_bytes())
    assert [e.kind for e in result.events].count(DOUBLE_TAP) == 1
    assert len(vectors) < len(frames) // 2  # the first sample's TRIAD, not one per frame
    assert cli_main(["replay", "--in", str(trace), "--out", str(tmp_path / "out")]) == 0
    assert "DoubleTap" in (tmp_path / "out" / "gestures.jsonl").read_text()


def test_pointer_tracks_hold_no_negative_zero():
    # this trace's first optical step is 0 counts along a negative plane axis
    spec = TrialSpec("jeans", 84, "square", rep=1, tilt_deg=draw_tilt(9), seed=9)
    _, frames = simulate_trial(spec, noise_for_preset("default", TEXTURES["jeans"]))
    lockstep, = replay_lockstep([FrameColumns.of(frames)])
    streaming = [replay_frames(frames, ReplayConfig(mount=mount, with_gestures=False)) for mount in MountMode]
    for result in (*streaming, lockstep):
        pos = result.pointer.pos_mm
        assert not np.signbit(pos[pos == 0.0]).any()


REPLAY_PATHS = {
    "frames": replay_frames,
    "lockstep": lambda frames: replay_lockstep([FrameColumns.of(frames)]),
}


@pytest.mark.parametrize("path", REPLAY_PATHS)
def test_replay_paths_reject_backward_timestamps_alike(path):
    _, frames = simulate_trial(SPECS[3], NoiseModel.zero())
    frames[5], frames[6] = frames[6], frames[5]
    for stream, message in (
        (frames, "out-of-order timestamp: 100 ms arrived after 120 ms"),
        ([], "replay needs at least one frame"),
    ):
        with pytest.raises(ValueError) as exc:
            REPLAY_PATHS[path](stream)
        assert str(exc.value) == message


def test_timestamp_order_policy_is_written_once():
    sources = Path(touchtrace.__file__).parent.rglob("*.py")
    assert sum(p.read_text(encoding="utf-8").count("out-of-order timestamp") for p in sources) == 1


def test_trial_result_is_independent_of_its_batch():
    # halves, and a slice that splits grid cells, score as the whole grid does
    whole, _ = run_campaign(11)
    half = len(SPECS) // 2
    for batch in (range(half), range(half, len(SPECS)), range(0, len(SPECS), 7)):
        assert run_trials([SPECS[i] for i in batch]) == [whole[i] for i in batch]


def test_score_trials_on_file_truths_equals_evaluate_trial_on_matched_rows(tmp_path):
    # the `campaign` command's scoring: truth.csv rows matched to each track; a trial
    # that lost a frame is a stack of its own within its cell
    specs = SPECS[:10]  # two grid cells of five trials
    streams, files = [None] * len(specs), [tmp_path / f"truth_{i}.csv" for i in range(len(specs))]
    for i, truth, block in simulate_by_cell(specs, noise_for_preset("default")):
        data = encode_frames(block)
        if i == 2:
            data = data[: 3 * FRAME_SIZE] + data[4 * FRAME_SIZE :]  # frame 3 never arrives
        streams[i] = decode_columns(data)[0]
        truth.write_csv(files[i])
    pointers = [r.pointer for r in replay_lockstep(streams)]
    matched = [match_truth(pointer.t_ms, read_csv(path)) for pointer, path in zip(pointers, files)]
    assert [dropped for _, dropped in matched] == [0, 0, 1] + [0] * 7
    got = score_trials(specs, pointers, lambda group: Trajectory.stack([matched[i][0] for i in group]))
    assert got == [evaluate_trial(spec, p, truth) for spec, p, (truth, _) in zip(specs, pointers, matched)]


def test_run_campaign_refuses_more_than_one_job(monkeypatch):
    import touchtrace.pipeline

    monkeypatch.setattr(touchtrace.pipeline, "run_trials", lambda *a: pytest.fail("a trial ran"))
    with pytest.raises(ValueError, match="one process"):
        run_campaign(42, "default", 2)


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


def test_campaign_hot_path_builds_no_sensor_frame(tmp_path, monkeypatch):
    # the campaign moves frame blocks: no per-frame object on any hot path
    from touchtrace.cli import _write_trials, main
    from touchtrace.protocol import SensorFrame
    from touchtrace.simulate import trial_dirname, write_manifest

    def refuse(self):
        raise AssertionError("the campaign hot path built a SensorFrame")

    monkeypatch.setattr(SensorFrame, "__post_init__", refuse)
    specs = SPECS[::90]
    assert [r.spec for r in run_trials(specs)] == specs
    dirs = [trial_dirname(i, spec) for i, spec in enumerate(specs)]
    write_manifest(tmp_path / "manifest.json", 11, "default", specs)
    _write_trials(tmp_path, specs, dirs, "default")
    # every trial is scored, then the partial grid fails the summary
    assert main(["campaign", "--dir", str(tmp_path), "--out", str(tmp_path / "s.json")]) == 1
    assert all((tmp_path / rel / "metrics.json").exists() for rel in dirs)
