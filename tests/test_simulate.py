import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import MIXED_SPECS, angle_between
from touchtrace.protocol import ScaleConfig, encode_frames
from touchtrace.simulate import (
    CYLINDER_SHAPE,
    MAX_RATE_HZ,
    MAX_TRACE_FRAMES,
    REPS,
    SHAPE_NAMES,
    SIZES_MM,
    TEXTURE_NAMES,
    TEXTURES,
    NOISE_PRESETS,
    NoiseModel,
    TrialSpec,
    campaign_specs,
    gen_trajectories,
    group_by_cell,
    noise_for_preset,
    read_manifest,
    shape_path_length,
    simulate_by_cell,
    simulate_columns,
    simulate_trial,
    synthesize_group,
    script_gesture_trace,
    time_base,
    trial_streams,
    write_manifest,
)
from touchtrace.trajectory import Trajectory

MM_PER_COUNT = ScaleConfig().mm_per_count


def spec_for(shape="hline", size=12, tilt=0.0, seed=9, texture="mousepad"):
    return TrialSpec(texture=texture, size_mm=size, shape=shape, rep=1, tilt_deg=tilt, seed=seed)


def test_circle_sample_count_matches_perimeter_arithmetic():
    truth = gen_trajectories([spec_for("circle", 42)]).trial(0)
    expected_duration = math.pi * 42 / 30.0
    assert len(truth) == pytest.approx(expected_duration * 50, abs=2)
    assert len(truth) == 221  # ceil(pi*42/0.6) + 1


def test_hline_flat_is_straight_horizontal_segment():
    truth = gen_trajectories([spec_for("hline", 12, tilt=0.0)]).trial(0)
    assert truth.pos_mm[0] == pytest.approx([0, 0, 0])
    assert truth.pos_mm[-1] == pytest.approx([12, 0, 0], abs=1e-9)
    assert np.all(np.abs(truth.pos_mm[:, 2]) < 1e-12)


def test_constant_speed_and_continuity():
    spec = spec_for("square", 42, tilt=35.0)
    truth = gen_trajectories([spec]).trial(0)
    steps = np.linalg.norm(np.diff(truth.pos_mm, axis=0), axis=1)
    assert np.all(steps <= spec.speed_mm_s * (1.0 / spec.rate_hz) * 1.5)
    assert np.all(steps[:-1] > 0)


def test_shape_lengths():
    assert shape_path_length("hline", 12) == 12
    assert shape_path_length("diag", 12) == pytest.approx(12)
    assert shape_path_length("triangle", 10) == pytest.approx(30)
    assert shape_path_length("square", 10) == pytest.approx(40)
    assert shape_path_length("circle", 10) == pytest.approx(math.pi * 10)


@pytest.mark.parametrize(
    "shape, corners",
    [
        ("hline", [(0, 0), (12, 0)]),
        ("vline", [(0, 0), (0, 12)]),
        ("diag", [(0, 0), (12 / math.sqrt(2), 12 / math.sqrt(2))]),
        ("triangle", [(0, 0), (12, 0), (6, 6 * math.sqrt(3)), (0, 0)]),
        ("square", [(0, 0), (12, 0), (12, 12), (0, 12), (0, 0)]),
    ],
    ids=["hline", "vline", "diag", "triangle", "square"],
)
def test_polylines_visit_their_corners_in_order(shape, corners):
    # on a level plane the trace passes each corner, in order, at the path length walked to it
    truth = gen_trajectories([spec_for(shape, 12)]).trial(0)
    _, arcs = time_base(spec_for(shape, 12))
    walked = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(corners, axis=0).T))])
    assert shape_path_length(shape, 12) == pytest.approx(walked[-1], abs=1e-12)
    for corner, length in zip(corners, walked):
        k = int(np.argmin(np.abs(arcs - length)))
        assert arcs[k] == pytest.approx(length, abs=1e-9)  # a 12 mm side is 20 steps of 0.6 mm
        assert truth.pos_mm[k] == pytest.approx([*corner, 0.0], abs=1e-9)


def test_orientation_equals_plane_attitude_and_tilt():
    spec = spec_for("circle", 21, tilt=30.0)
    truth = gen_trajectories([spec]).trial(0)
    assert np.allclose(truth.quat, truth.quat[0])
    # plane normal makes the tilt angle with world up
    from touchtrace.geom import EZ, UnitQuat, rotate_vector

    n = rotate_vector(UnitQuat(*truth.quat[0]), EZ)
    assert angle_between(n, EZ) == pytest.approx(30.0, abs=1e-9)


def test_zero_noise_line_count_conservation():
    # straight 10 mm along plane u, at 400 cpi: total counts = round(10/0.0635)
    n = 31
    t_ms = np.arange(n) * 20
    pos = np.zeros((n, 3))
    pos[:, 0] = np.linspace(0.0, 10.0, n)
    quat = np.tile([1.0, 0, 0, 0], (n, 1))
    truth = Trajectory(t_ms, pos, quat)
    _, rng = trial_streams(1)
    [block] = synthesize_group(Trajectory.stack([truth]), TEXTURES["mousepad"], NoiseModel.zero(), [rng])
    assert block.dxdy.sum(axis=0).tolist() == [round(10.0 / MM_PER_COUNT), 0] == [157, 0]


def test_zero_noise_static_trial_is_quiet():
    n = 50
    truth = Trajectory(
        np.arange(n) * 20, np.zeros((n, 3)), np.tile([1.0, 0, 0, 0], (n, 1))
    )
    _, rng = trial_streams(2)
    [block] = synthesize_group(Trajectory.stack([truth]), TEXTURES["wood"], NoiseModel.zero(), [rng])
    assert not block.dxdy.any()
    assert (block.imu_raw[:, 0:6] == (0, 0, -16384, 0, 0, 0)).all()


def test_zero_noise_count_conservation_all_shapes():
    for shape in SHAPE_NAMES:
        spec = spec_for(shape, 42, tilt=25.0, seed=3)
        truth, frames = simulate_trial(spec, NoiseModel.zero())
        cum = np.array([sum(f.dx for f in frames), sum(f.dy for f in frames)])
        # project the true displacement into the (constant) plane basis
        from touchtrace.geom import quat_matrices

        rot = quat_matrices(truth.quat[:1])[0]
        dp = truth.pos_mm[-1] - truth.pos_mm[0]
        expected = np.array([dp @ rot[:, 0], dp @ rot[:, 1]]) / MM_PER_COUNT
        assert np.all(np.abs(cum - expected) <= 1.0)


def test_contact_squal_range():
    for name in TEXTURE_NAMES:
        spec = spec_for("square", 84, tilt=10.0, seed=5, texture=name)
        _, frames = simulate_trial(spec, noise_for_preset("default", TEXTURES[name]))
        squals = [f.squal for f in frames]
        assert min(squals) >= 50 and max(squals) <= 90


def test_off_plane_truth_rejected():
    n = 10
    pos = np.zeros((n, 3))
    pos[:, 0] = np.arange(n) * 0.5
    pos[5, 2] = 1.0  # hop off the plane
    truth = Trajectory(np.arange(n) * 20, pos, np.tile([1.0, 0, 0, 0], (n, 1)))
    _, rng = trial_streams(4)
    with pytest.raises(ValueError, match="plane"):
        synthesize_group(Trajectory.stack([truth]), TEXTURES["mousepad"], NoiseModel.zero(), [rng])


def test_off_plane_truth_inside_a_group_names_the_step_of_its_trial():
    n = 10
    pos = np.zeros((3, n, 3))
    pos[..., 0] = np.arange(n) * 0.5
    pos[1, 5, 2] = 1.0  # only the middle trial hops off the plane
    truth = Trajectory(np.tile(np.arange(n) * 20, (3, 1)), pos, np.tile([1.0, 0, 0, 0], (3, n, 1)))
    message = "truth leaves the touch plane at step 4: 1 mm off-plane"
    rngs = [trial_streams(seed)[1] for seed in (4, 5, 6)]
    with pytest.raises(ValueError, match=message):
        synthesize_group(truth, TEXTURES["mousepad"], NoiseModel.zero(), rngs)
    with pytest.raises(ValueError, match=message):
        synthesize_group(Trajectory.stack([truth.trial(1)]), TEXTURES["mousepad"], NoiseModel.zero(), rngs[1:2])


def test_group_by_cell_keys_on_everything_but_rep_tilt_and_seed():
    cells = group_by_cell(MIXED_SPECS)
    assert sorted(i for cell in cells for i in cell) == list(range(len(MIXED_SPECS)))
    assert [len(cell) for cell in cells] == [3, 3, 2, 2, 3, 3, 2, 1]
    for cell in cells:
        assert len({(s.texture, s.shape, s.size_mm) for s in (MIXED_SPECS[i] for i in cell)}) == 1
    for other in (spec_for(texture="jeans"), spec_for(size=21), TrialSpec("mousepad", 12, "hline", 1, 0.0, 9, rate_hz=60.0)):
        with pytest.raises(ValueError, match="share one grid cell"):
            gen_trajectories([spec_for(), other])


@pytest.mark.parametrize("preset", NOISE_PRESETS)
def test_simulate_by_cell_yields_each_trial_as_simulated_alone(preset):
    """A cell's stack gives each trial the bytes and truth of a cell of one (``simulate_columns``)."""
    noise = noise_for_preset(preset)
    indices = []
    for i, truth, block in simulate_by_cell(MIXED_SPECS, noise):
        indices.append(i)
        one_truth, one_block = simulate_columns(MIXED_SPECS[i], noise)
        assert encode_frames(block) == encode_frames(one_block)
        for name in ("t_ms", "pos_mm", "quat"):
            assert np.array_equal(getattr(truth, name), getattr(one_truth, name))
    assert sorted(indices) == list(range(len(MIXED_SPECS)))


def test_simulate_trial_models_only_the_default_device():
    spec = spec_for()
    _, frames = simulate_trial(spec, NoiseModel.zero())
    assert simulate_trial(spec, NoiseModel.zero(), ScaleConfig())[1] == frames


def test_noise_preset_is_the_same_on_every_surface():
    for preset in NOISE_PRESETS:
        for name in TEXTURE_NAMES:
            assert noise_for_preset(preset, TEXTURES[name]) == noise_for_preset(preset)


def test_same_seed_same_bytes():
    spec = spec_for("circle", 21, tilt=55.0, seed=77)
    noise = noise_for_preset("default", TEXTURES["mousepad"])
    _, frames_a = simulate_trial(spec, noise)
    _, frames_b = simulate_trial(spec, noise)
    assert encode_frames(frames_a) == encode_frames(frames_b)


def test_different_seed_different_bytes():
    noise = noise_for_preset("default", TEXTURES["mousepad"])
    _, frames_a = simulate_trial(spec_for("circle", 21, tilt=55.0, seed=77), noise)
    _, frames_b = simulate_trial(spec_for("circle", 21, tilt=55.0, seed=78), noise)
    assert encode_frames(frames_a) != encode_frames(frames_b)


def test_campaign_grid():
    specs = campaign_specs(42)
    assert len(specs) == 360
    assert len(specs) == len(TEXTURE_NAMES) * len(SIZES_MM) * len(SHAPE_NAMES) * REPS
    assert len({s.seed for s in specs}) == 360
    assert all(0.0 <= s.tilt_deg < 90.0 for s in specs)
    # regenerating gives the identical grid
    assert campaign_specs(42) == specs
    assert campaign_specs(43) != specs


def test_manifest_round_trip(tmp_path):
    specs = campaign_specs(7)[:5]
    path = tmp_path / "manifest.json"
    write_manifest(path, 7, "zero", specs)
    seed, preset, loaded, dirs = read_manifest(path)
    assert (seed, preset) == (7, "zero")
    assert loaded == specs
    assert len(dirs) == 5 and dirs[0].startswith("trial_000_")


def test_manifest_key_order_and_defaults_for_older_manifests(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, 7, "zero", campaign_specs(7)[:2])
    payload = json.loads(path.read_text())
    assert list(payload["trials"][0]) == [
        "index", "texture", "size_mm", "shape", "rep", "tilt_deg", "seed", "rate_hz", "speed_mm_s", "dir"
    ]
    for entry in payload["trials"]:  # as written before the rate and speed were recorded
        del entry["rate_hz"], entry["speed_mm_s"]
    path.write_text(json.dumps(payload))
    _, _, loaded, _ = read_manifest(path)
    assert loaded == campaign_specs(7)[:2]
    assert (loaded[0].rate_hz, loaded[0].speed_mm_s) == (50.0, 30.0)


def test_cylinder_trajectory_geometry():
    spec = spec_for(CYLINDER_SHAPE, 42, tilt=0.0)
    truth = gen_trajectories([spec]).trial(0)
    # closed loop of diameter = size in the XZ plane
    assert np.linalg.norm(truth.pos_mm[-1] - truth.pos_mm[0]) <= 0.7  # one step
    assert truth.pos_mm[:, 1] == pytest.approx(0.0)
    span_x = truth.pos_mm[:, 0].max() - truth.pos_mm[:, 0].min()
    span_z = truth.pos_mm[:, 2].max() - truth.pos_mm[:, 2].min()
    assert span_x == pytest.approx(42.0, rel=0.01)
    assert span_z == pytest.approx(42.0, rel=0.01)


def test_cylinder_synthesis_is_on_plane():
    spec = spec_for(CYLINDER_SHAPE, 30, tilt=0.0, seed=12)
    truth, block = simulate_columns(spec, NoiseModel.zero())
    assert len(block) == len(truth)
    assert not block.dxdy[:, 1].any()  # wrap direction is pure u


def test_trajectory_sampling():
    truth = gen_trajectories([spec_for("hline", 12)]).trial(0)
    assert len(truth.t_ms) == len(truth.pos_mm) == len(truth.quat) == len(truth)
    assert truth.t_ms[0] == 0
    assert np.all(np.diff(truth.t_ms) == 20)


def test_trial_spec_validation():
    with pytest.raises(ValueError, match="size"):
        spec_for(size=13)
    with pytest.raises(ValueError, match="shape"):
        spec_for(shape="star")
    with pytest.raises(ValueError, match="texture"):
        spec_for(texture="glass")
    for field in ("rate_hz", "speed_mm_s"):
        for value in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
                dataclasses.replace(spec_for(), **{field: value})
    for field, value in (("size_mm", 21.0), ("rep", 1.5), ("rep", True), ("seed", 2.5), ("seed", "7")):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            dataclasses.replace(spec_for(), **{field: value})
    for field, value in (("tilt_deg", True), ("rate_hz", np.bool_(True)), ("speed_mm_s", "30")):
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {value!r}$"):
            dataclasses.replace(spec_for(), **{field: value})
    assert spec_for(tilt=np.float32(7.5)).tilt_deg == 7.5 and spec_for(tilt=np.int64(3)).tilt_deg == 3
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        spec_for(seed=-1)
    assert spec_for(size=np.int64(21), seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


def test_trial_spec_bounds_its_rate_and_frame_count():
    # the wire's timestamps are whole ms: past 1 kHz two frames would share one
    assert np.all(np.diff(time_base(dataclasses.replace(spec_for(), rate_hz=MAX_RATE_HZ))[0]) == 1)
    with pytest.raises(ValueError, match=r"^rate_hz must be <= 1000, the wire's 1 ms resolution, got 1000.0000000000001$"):
        dataclasses.replace(spec_for(), rate_hz=math.nextafter(MAX_RATE_HZ, math.inf))
    # the cap holds time_base's own count, taken in float before anything is allocated
    circle = spec_for("circle", 42)
    at_cap = shape_path_length("circle", 42) * circle.rate_hz / (MAX_TRACE_FRAMES - 1)
    assert len(time_base(dataclasses.replace(circle, speed_mm_s=at_cap))[0]) == MAX_TRACE_FRAMES
    for speed, frames in ((at_cap * (1 - 1e-6), "262145"), (1e-6, "6.59734e+09"), (1e-308, "inf")):
        message = f"^a 42 mm circle at {speed} mm/s and 50.0 Hz takes {frames} frames, more than the 262144 a trace may hold$"
        with pytest.raises(ValueError, match=message.replace("+", r"\+")):
            dataclasses.replace(circle, speed_mm_s=speed)
    # a step that underflows to 0 takes no division
    with pytest.raises(ValueError, match="at 5e-324 mm/s and 1000 Hz takes inf frames"):
        dataclasses.replace(circle, rate_hz=1000, speed_mm_s=5e-324)


def test_trial_spec_bounds_its_step_and_last_timestamp():
    circle = spec_for("circle", 42)
    # a step past the float range is refused before time_base writes 0 * inf = NaN into the truth
    with pytest.raises(ValueError, match=r"^a 42 mm circle at 1e\+308 mm/s and 0.001 Hz steps inf mm a frame, past"):
        dataclasses.replace(circle, rate_hz=0.001, speed_mm_s=1e308)
    # one frame: its timestamp is 0 ms whatever the period, unless the period itself is inf
    t_ms, arcs = time_base(dataclasses.replace(circle, rate_hz=1e-300))
    assert t_ms.tolist() == [0] and arcs.tolist() == [0.0]
    with pytest.raises(ValueError, match="stamps its frames inf ms apart up to nan ms, past uint32$"):
        dataclasses.replace(circle, rate_hz=1e-308, speed_mm_s=1.0)
    # two frames: the last timestamp is the period, and time_base rounds it half to even
    rate = 1000.0 / (2**32 - 0.5)
    while 1000.0 * (1.0 / rate) < 2**32 - 0.5:
        rate = math.nextafter(rate, 0.0)
    below = math.nextafter(rate, math.inf)  # the largest period that rounds to 2**32 - 1 ms
    assert 1000.0 * (1.0 / below) < 2**32 - 0.5 <= 1000.0 * (1.0 / rate)
    hline = spec_for("hline", 12)
    t_ms, _ = time_base(dataclasses.replace(hline, rate_hz=below, speed_mm_s=24.0 * below))
    assert t_ms.tolist() == [0, 2**32 - 1]
    with pytest.raises(ValueError, match=r"hline at .* stamps its frames 4.29497e\+09 ms apart up to 4.29497e\+09 ms, past"):
        dataclasses.replace(hline, rate_hz=rate, speed_mm_s=24.0 * rate)


def test_gesture_trace_kind_validation():
    with pytest.raises(ValueError, match="unknown gesture kind"):
        script_gesture_trace("flick")
