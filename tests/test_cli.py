import argparse
import contextlib
import dataclasses
import io
import json
import math
import signal
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import read_events_jsonl, run_commands
from touchtrace.cli import build_parser, load_config, main
from touchtrace.evaluate import MAX_DROPPED_SHARE, evaluate_trial, match_truth
from touchtrace.geom import Vec3
from touchtrace.gestures import GestureConfig
from touchtrace.orientation import FilterConfig, OrientationFilter, filter_stream
from touchtrace.pipeline import replay_bytes
from touchtrace.protocol import FRAME_SIZE, ScaleConfig, apply_scales, decode_columns
from touchtrace.simulate import GESTURE_KINDS, NoiseModel, TrialSpec, draw_tilt, simulate_columns
from touchtrace.trajectory import CSV_HEADER, read_csv


def run(argv):
    return main(argv)


def test_simulate_single_trial(tmp_path, capsys):
    out = tmp_path / "t1"
    code = run(
        ["simulate", "--texture", "mousepad", "--size", "42", "--shape", "circle",
         "--seed", "7", "--noise", "zero", "--out", str(out)]
    )
    assert code == 0
    assert (out / "sensor.3dt").exists()
    assert (out / "truth.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["trials"][0]["shape"] == "circle"
    assert len(read_csv(out / "truth.csv")) == 221


def test_simulate_rejects_bad_size(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--size", "13", "--seed", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--size" in err and "12" in err


def test_simulate_outputs_are_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["simulate", "--seed", "5", "--shape", "square", "--size", "21",
                    "--out", str(out)]) == 0
    assert (a / "sensor.3dt").read_bytes() == (b / "sensor.3dt").read_bytes()
    assert (a / "truth.csv").read_text() == (b / "truth.csv").read_text()


def test_replay_and_eval_round_trip(tmp_path, capsys):
    trial = tmp_path / "trial"
    assert run(["simulate", "--seed", "9", "--shape", "hline", "--size", "12",
                "--noise", "zero", "--out", str(trial)]) == 0
    capsys.readouterr()
    rep = tmp_path / "replayed"
    assert run(["replay", "--in", str(trial / "sensor.3dt"), "--out", str(rep)]) == 0
    out = capsys.readouterr().out
    diag = json.loads(out.splitlines()[0])
    assert diag["crc_failures"] == 0
    pointer = read_csv(rep / "pointer.csv")
    truth = read_csv(trial / "truth.csv")
    assert len(pointer) == len(truth)
    assert (rep / "gestures.jsonl").exists()

    metrics_path = tmp_path / "metrics.json"
    assert run(["eval", "--pred", str(rep / "pointer.csv"), "--truth", str(trial / "truth.csv"),
                "--out", str(metrics_path)]) == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["mean_pos_err_mm"] <= 0.2
    assert metrics["mean_ori_err_deg"] <= 0.2
    assert "mean position error" in capsys.readouterr().out


def test_eval_on_identical_files(tmp_path, capsys):
    trial = tmp_path / "trial"
    run(["simulate", "--seed", "3", "--noise", "zero", "--out", str(trial)])
    assert run(["eval", "--pred", str(trial / "truth.csv"), "--truth", str(trial / "truth.csv")]) == 0
    out = capsys.readouterr().out
    assert "0.0000 mm" in out


def test_eval_length_mismatch_is_data_error(tmp_path, capsys):
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    run(["simulate", "--seed", "3", "--shape", "hline", "--size", "12", "--out", str(t1)])
    run(["simulate", "--seed", "3", "--shape", "square", "--size", "84", "--out", str(t2)])
    code = run(["eval", "--pred", str(t1 / "truth.csv"), "--truth", str(t2 / "truth.csv")])
    assert code == 1
    assert "mismatch" in capsys.readouterr().err


def test_eval_of_two_header_only_files_is_data_error(tmp_path, capsys):
    pred, truth, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "m.json"
    for path in (pred, truth):
        path.write_text(CSV_HEADER + "\n")
    assert run(["eval", "--pred", str(pred), "--truth", str(truth), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {pred} vs {truth}: cannot align empty trajectories\n"
    assert not out.exists()


def test_eval_names_a_prediction_time_with_no_truth_row(tmp_path, capsys):
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    run(["simulate", "--seed", "3", "--shape", "hline", "--size", "12", "--out", str(t1)])
    run(["simulate", "--seed", "3", "--shape", "square", "--size", "84", "--out", str(t2)])
    capsys.readouterr()
    assert run(["eval", "--pred", str(t2 / "truth.csv"), "--truth", str(t1 / "truth.csv")]) == 1
    assert capsys.readouterr().err.endswith("timestamp mismatch at sample 21: pred 420 ms has no truth row\n")


@pytest.fixture(scope="module")
def zero_noise_trial(tmp_path_factory):
    """The README's seed-7 zero-noise trial (221 frames)."""
    trial = tmp_path_factory.mktemp("zero_noise") / "trial"
    assert run(["simulate", "--seed", "7", "--noise", "zero", "--out", str(trial)]) == 0
    return trial


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_eval_scores_the_frames_a_damaged_trace_keeps(zero_noise_trial, data):
    trace = (zero_noise_trial / "sensor.3dt").read_bytes()
    n = len(trace) // FRAME_SIZE
    lost = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=int(MAX_DROPPED_SHARE * n)), "lost frames")
    damaged = bytearray()
    for k in range(n):
        frame = bytearray(trace[k * FRAME_SIZE:(k + 1) * FRAME_SIZE])
        if k in lost:
            flip = data.draw(st.none() | st.integers(0, FRAME_SIZE - 1), f"frame {k}: byte flipped, or None to drop")
            if flip is None:
                continue
            frame[flip] ^= 0xFF
        damaged += frame
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "damaged.3dt").write_bytes(damaged)
        truth = zero_noise_trial / "truth.csv"
        transcript = run_commands([  # each must exit 0
            f"replay --in {root / 'damaged.3dt'} --out {root / 'rep'}",
            f"eval --pred {root / 'rep' / 'pointer.csv'} --truth {truth} --out {root / 'm.json'}",
        ])
        assert json.loads((root / "m.json").read_text())["n"] == n - len(lost)
    eval_out = transcript.split("$ touchtrace eval")[1].splitlines()[1]
    assert eval_out == f"dropped frames: {len(lost)} of {n} truth rows have no prediction and are not scored"


@pytest.mark.parametrize(
    "order, message",
    [
        ([*range(5), *range(7, 11), 10, *range(11, 221)], "timestamp order at sample 9: pred 200 ms after 200 ms"),
        ([0, 1, 2, 4, 3, *range(5, 221)], "timestamp order at sample 4: pred 60 ms after 80 ms"),
    ],
    ids=["rows-5-6-lost-row-10-repeated", "rows-3-4-swapped"],
)
def test_eval_refuses_prediction_rows_out_of_order(zero_noise_trial, tmp_path, capsys, order, message):
    header, *rows = (zero_noise_trial / "truth.csv").read_text().splitlines()
    pred = tmp_path / "pred.csv"
    pred.write_text("\n".join([header, *(rows[k] for k in order)]) + "\n")
    capsys.readouterr()
    assert run(["eval", "--pred", str(pred), "--truth", str(zero_noise_trial / "truth.csv")]) == 1
    assert capsys.readouterr().err.endswith(f"{message}\n")


def _score(pointer, truth):
    """What ``eval`` scores: the pointer against its matched truth rows, and the dropped frames."""
    matched, dropped = match_truth(pointer.t_ms, truth)
    return evaluate_trial(None, pointer, matched), dropped


def test_a_dropped_frame_moves_the_score_by_at_most_its_counts(zero_noise_trial):
    # the lost optical counts stay in the score as drift, and nothing else moves it further;
    # frame 0 carries no counts, but losing it moves the alignment to frame 1
    data = (zero_noise_trial / "sensor.3dt").read_bytes()
    truth = read_csv(zero_noise_trial / "truth.csv")
    dxdy = decode_columns(data)[0].dxdy
    clean, dropped = _score(replay_bytes(data)[0].pointer, truth)
    assert dropped == 0
    n = len(data) // FRAME_SIZE
    for k in [*range(1, n, 11), n - 1]:
        damaged = replay_bytes(data[:k * FRAME_SIZE] + data[(k + 1) * FRAME_SIZE:])[0]
        score, dropped = _score(damaged.pointer, truth)
        assert dropped == 1
        lost_mm = math.hypot(*dxdy[k].tolist()) * ScaleConfig().mm_per_count
        assert abs(score.mean_pos_err_mm - clean.mean_pos_err_mm) <= lost_mm, k


@pytest.mark.parametrize(
    "column,value,message",
    [
        (1, "nan", "non-finite value"),
        (5, "-inf", "non-finite value"),
        (0, str(2**70), "t_ms out of int64 range"),
        (0, "40.5", "invalid literal for int() with base 10: '40.5'"),
    ],
    ids=["nan-x", "inf-qx", "huge-time", "fractional-time"],
)
def test_eval_rejects_a_truth_value_it_cannot_score(tmp_path, capsys, column, value, message):
    trial = tmp_path / "trial"
    run(["simulate", "--seed", "7", "--noise", "zero", "--out", str(trial)])
    lines = (trial / "truth.csv").read_text().splitlines()
    row = lines[3].split(",")
    row[column] = value
    lines[3] = ",".join(row)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "m.json"
    assert run(["eval", "--pred", str(trial / "truth.csv"), "--truth", str(bad), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: {message} in row {lines[3]!r}\n"
    assert captured.out == ""
    assert not out.exists()


def _alternate_x(src, dst):
    """``src``'s rows with x alternating +-1e308: finite, so ``read_csv`` takes them, but the alignment overflows."""
    header, *rows = Path(src).read_text().splitlines()
    for k, row in enumerate(rows):
        t, _, rest = row.split(",", 2)
        rows[k] = f"{t},{'1e308' if k % 2 == 0 else '-1e308'},{rest}"
    Path(dst).write_text("\n".join([header, *rows]) + "\n")


def test_eval_refuses_a_score_that_is_not_finite(zero_noise_trial, tmp_path, capsys):
    pred, truth, out = tmp_path / "pointer.csv", zero_noise_trial / "truth.csv", tmp_path / "m.json"
    _alternate_x(truth, pred)
    capsys.readouterr()
    assert run(["eval", "--pred", str(pred), "--truth", str(truth), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {pred} vs {truth}: score is not finite: {{'mean_pos_err_mm': inf, ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_campaign_refuses_a_score_that_is_not_finite(tmp_path, capsys):
    from touchtrace.simulate import trial_dirname

    camp, specs = _partial_campaign(tmp_path, 3)
    bad = trial_dirname(1, specs[1])
    _alternate_x(camp / bad / "truth.csv", camp / bad / "truth.csv")
    capsys.readouterr()
    assert run(["campaign", "--dir", str(camp), "--out", str(tmp_path / "s.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: score is not finite: {{'mean_pos_err_mm': inf, ")
    assert captured.out == ""
    assert not list(camp.rglob("metrics.json"))
    assert not (tmp_path / "s.json").exists()


def test_eval_names_a_truth_file_that_is_not_utf8(tmp_path, capsys):
    trial = tmp_path / "trial"
    run(["simulate", "--seed", "7", "--noise", "zero", "--out", str(trial)])
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert run(["eval", "--pred", str(trial / "truth.csv"), "--truth", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0")
    assert captured.out == ""


@pytest.mark.parametrize("cls, texture", [(FilterConfig, None), (GestureConfig, "jeans")])
def test_load_config_reads_back_every_default(tmp_path, cls, texture):
    # every field type the reader parses, with blank and comment lines between
    lines = []
    for field in dataclasses.fields(cls):
        value = field.default
        text = ",".join(map(repr, value.as_tuple())) if isinstance(value, Vec3) else repr(value)
        lines += [f"{field.name}={text}", "", f"# after {field.name}"]
    path = tmp_path / "defaults.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert load_config(path, cls, texture) == cls()


def test_replay_truncated_input_exits_1(tmp_path, capsys):
    trial = tmp_path / "trial"
    run(["simulate", "--seed", "4", "--noise", "zero", "--out", str(trial)])
    data = (trial / "sensor.3dt").read_bytes()
    bad = tmp_path / "bad.3dt"
    bad.write_bytes(data[:20])  # under one frame
    capsys.readouterr()
    code = run(["replay", "--in", str(bad), "--out", str(tmp_path / "rep")])
    assert code == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out.splitlines()[0])["frames"] == 0
    assert "no frames" in captured.err


def test_gesture_command_writes_classifiable_trace(tmp_path, capsys):
    trace = tmp_path / "dtap.3dt"
    assert run(["gesture", "--kind", "doubletap", "--out", str(trace)]) == 0
    rep = tmp_path / "rep"
    assert run(["replay", "--in", str(trace), "--out", str(rep)]) == 0
    events = read_events_jsonl(rep / "gestures.jsonl")
    kinds = [e.kind for e in events]
    assert kinds.count("DoubleTap") == 1
    assert "Tap" not in kinds


def test_gesture_fixture_no_frame_grid_fits_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "gestures.cfg"
    cfg.write_text("tap_window_ms=10\n")
    trace = tmp_path / "tap.3dt"
    assert run(["gesture", "--kind", "tap", "--gesture-config", str(cfg), "--out", str(trace)]) == 1
    assert capsys.readouterr().err == "error: no tap fixture of 20 ms frames fits tap_window_ms=10\n"
    assert not trace.exists()


@contextlib.contextmanager
def _returns_within(seconds):
    """Fail the test, rather than hang it, when its body runs past ``seconds``."""

    def stop(signum, frame):
        pytest.fail(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "kind, key", [("press", "press_hold_ms"), ("tap", "doubletap_max_gap_ms"), ("moving-tap-reject", "doubletap_max_gap_ms")]
)
def test_gesture_refuses_a_fixture_past_the_frame_cap_at_once(tmp_path, capsys, kind, key):
    cfg = tmp_path / "gestures.cfg"
    cfg.write_text(f"{key}=99999999999999999999\n")
    trace = tmp_path / "g.3dt"
    with _returns_within(2.0):  # the length is summed before the first frame is built
        code = run(["gesture", "--kind", kind, "--gesture-config", str(cfg), "--out", str(trace)])
    assert code == 1
    assert capsys.readouterr().err == f"error: no {kind} fixture of 20 ms frames fits {key}=99999999999999999999\n"
    assert not trace.exists()


def test_missing_input_file_is_data_error(tmp_path, capsys):
    code = run(["replay", "--in", str(tmp_path / "nope.3dt"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def _partial_campaign(root, n, noise="zero"):
    """A campaign dir holding the first n trials of the seed-6 grid."""
    from touchtrace.simulate import campaign_specs, trial_dirname, write_manifest

    camp = root / "camp"
    camp.mkdir()
    specs = campaign_specs(6)[:n]
    write_manifest(camp / "manifest.json", 6, noise, specs)
    for i, spec in enumerate(specs):
        trial = camp / trial_dirname(i, spec)
        run(["simulate", "--texture", spec.texture, "--size", str(spec.size_mm),
             "--shape", spec.shape, "--rep", str(spec.rep), "--tilt", str(spec.tilt_deg),
             "--seed", str(spec.seed), "--noise", noise, "--out", str(trial)])
    return camp, specs


def test_campaign_partial_grid_scores_then_reports_missing(tmp_path, capsys):
    """A partial campaign dir exercises scoring and must exit 1 naming the
    missing cells."""
    from touchtrace.simulate import trial_dirname

    camp, specs = _partial_campaign(tmp_path, 4)
    capsys.readouterr()
    code = run(["campaign", "--dir", str(camp), "--out", str(tmp_path / "summary.json")])
    assert code == 1
    assert "missing" in capsys.readouterr().err
    # the trials that do exist were scored before the grid check failed
    for i, spec in enumerate(specs):
        metrics = json.loads((camp / trial_dirname(i, spec) / "metrics.json").read_text())
        assert metrics["mean_pos_err_mm"] <= 0.2


def test_a_refused_campaign_leaves_no_summary_of_an_earlier_run(tmp_path, capsys, cli_campaign):
    import shutil

    camp, out = tmp_path / "camp", tmp_path / "s.json"
    shutil.copytree(cli_campaign[0] / "camp", camp)
    shutil.copy(cli_campaign[0] / "summary.json", out)  # a whole run's summary
    manifest = json.loads((camp / "manifest.json").read_text())
    manifest["trials"].pop()
    (camp / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["campaign", "--dir", str(camp), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: campaign is missing 1 cells: jeans/84/circle/rep5\n"
    assert not out.exists()  # the first run's summary would describe a grid this run did not score


def test_a_campaign_refused_by_a_trial_error_leaves_no_summary_of_an_earlier_run(tmp_path, capsys, cli_campaign):
    import shutil

    camp, out = tmp_path / "camp", tmp_path / "s.json"
    shutil.copytree(cli_campaign[0] / "camp", camp)
    assert run(["campaign", "--dir", str(camp), "--out", str(out)]) == 0
    assert out.exists()
    (camp / "trial_005_mousepad_12_vline_r1" / "sensor.3dt").write_bytes(b"")
    capsys.readouterr()
    assert run(["campaign", "--dir", str(camp), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: trial_005_mousepad_12_vline_r1: no frames decoded\n"
    assert not out.exists()  # the check pass refused the trial before any score of this run
    assert not list(camp.rglob("metrics.json"))  # nor does any trial keep the first run's score


def test_campaign_scores_a_trial_that_lost_a_frame(tmp_path, capsys, cli_campaign):
    import shutil

    from touchtrace.simulate import read_manifest

    camp = tmp_path / "camp"
    shutil.copytree(cli_campaign[0] / "camp", camp)
    _, _, _, dirs = read_manifest(camp / "manifest.json")
    clean = {d: (camp / d / "metrics.json").read_text() for d in dirs}
    for d in dirs:
        (camp / d / "metrics.json").unlink()
    trace = camp / dirs[100] / "sensor.3dt"
    data = bytearray(trace.read_bytes())
    data[3 * FRAME_SIZE + 10] ^= 0xFF  # frame 3 fails its CRC
    trace.write_bytes(data)
    capsys.readouterr()
    assert run(["campaign", "--dir", str(camp), "--out", str(tmp_path / "summary.json")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "dropped frames: 1 of 52605 truth rows have no prediction and are not scored"
    assert "grand mean position error" in out
    assert json.loads((tmp_path / "summary.json").read_text())["grand"]["n"] == 52604
    for d in dirs:
        metrics = (camp / d / "metrics.json").read_text()
        if d == dirs[100]:
            assert json.loads(metrics)["n"] == json.loads(clean[d])["n"] - 1
        else:
            assert metrics == clean[d]


def test_campaign_refuses_a_truth_file_from_another_trial(tmp_path, capsys, cli_campaign):
    # both trials are 42 mm wood trials on the 20 ms time base; only the
    # row count tells the circle's truth (221 rows) from the triangle's (211)
    import shutil

    camp = tmp_path / "camp"
    shutil.copytree(cli_campaign[0] / "camp", camp)
    wrong = "trial_195_wood_42_triangle_r1"
    shutil.copyfile(camp / "trial_205_wood_42_circle_r1" / "truth.csv", camp / wrong / "truth.csv")
    for metrics in camp.rglob("metrics.json"):
        metrics.unlink()
    capsys.readouterr()
    assert run(["campaign", "--dir", str(camp), "--out", str(tmp_path / "summary.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {wrong}: truth.csv is not on its spec's time base: 221 rows against 211\n"
    assert "grand mean" not in captured.out
    # every trial's files are checked before any is scored: the 195 trials before it write nothing either
    assert not list(camp.rglob("metrics.json"))
    assert not (tmp_path / "summary.json").exists()


def _rewrite_x(path, x_of):
    """Rewrite the x of each row k of the truth file ``path`` as ``x_of(k, x)``."""
    header, *rows = Path(path).read_text().splitlines()
    for k, row in enumerate(rows):
        t, x, rest = row.split(",", 2)
        rows[k] = f"{t},{x_of(k, float(x))!r},{rest}"
    Path(path).write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize(
    "trials, x_of, field",
    [
        # five short trials alternate x between 0 and 3e153: the 12 mm cell's sum of squares overflows fsum
        (range(5), lambda k, x: 0.0 if k % 2 == 0 else 3e153, "per_size.12.pos_sigma"),
        # one 84 mm circle moves 3e153 mm after its first row: its scores are finite, its cell's sigma is not
        ([115], lambda k, x: x if k == 0 else x + 3e153, "per_size.84.pos_sigma"),
    ],
    ids=["fsum-overflow", "sigma-overflow"],
)
def test_campaign_writes_no_summary_with_a_number_json_cannot_hold(tmp_path, capsys, cli_campaign, trials, x_of, field):
    import shutil

    from touchtrace.simulate import read_manifest

    camp = tmp_path / "camp"
    shutil.copytree(cli_campaign[0] / "camp", camp)
    _, _, _, dirs = read_manifest(camp / "manifest.json")
    for d in dirs:
        (camp / d / "metrics.json").unlink()
    for i in trials:
        _rewrite_x(camp / dirs[i] / "truth.csv", x_of)
    capsys.readouterr()
    assert run(["campaign", "--dir", str(camp), "--out", str(tmp_path / "summary.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: summary {field} is not finite: inf\n"
    assert captured.out == ""
    assert not (tmp_path / "summary.json").exists()
    # the summary is built after every trial's metrics.json is written, and each of those is finite
    for d in dirs:
        assert all(map(math.isfinite, json.loads((camp / d / "metrics.json").read_text()).values()))


def test_campaign_names_a_trial_whose_trace_decodes_no_frame(tmp_path, capsys):
    from touchtrace.simulate import trial_dirname

    camp, specs = _partial_campaign(tmp_path, 2)
    bad = trial_dirname(1, specs[1])
    (camp / bad / "sensor.3dt").write_bytes(b"\x00" * 100)
    capsys.readouterr()
    assert run(["campaign", "--dir", str(camp), "--out", str(tmp_path / "s.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: no frames decoded\n"
    assert captured.out == ""
    assert not list(camp.rglob("metrics.json"))
    assert not (tmp_path / "s.json").exists()


def test_campaign_without_manifest_is_data_error(tmp_path, capsys):
    code = run(["campaign", "--dir", str(tmp_path), "--out", str(tmp_path / "s.json")])
    assert code == 1
    assert "manifest" in capsys.readouterr().err


def test_campaign_backward_timestamp_exits_1(tmp_path, capsys):
    from touchtrace.protocol import decode_stream, write_trace
    from touchtrace.simulate import trial_dirname

    camp, specs = _partial_campaign(tmp_path, 2)
    trace = camp / trial_dirname(1, specs[1]) / "sensor.3dt"
    frames, _ = decode_stream(trace.read_bytes())
    frames[3], frames[4] = frames[4], frames[3]
    write_trace(trace, frames)
    capsys.readouterr()
    assert run(["campaign", "--dir", str(camp), "--out", str(tmp_path / "s.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: {trial_dirname(1, specs[1])}: out-of-order timestamp: "
        f"{frames[4].timestamp_ms} ms arrived after {frames[3].timestamp_ms} ms\n"
    )
    assert not list(camp.rglob("metrics.json"))


def _set_dir(value):
    def damage(payload, outside):
        payload["trials"][0]["dir"] = value(outside) if callable(value) else value
        return payload

    return damage


def _drop_dir(payload, outside):
    del payload["trials"][0]["dir"]
    return payload


def _set_field(name, value):
    def damage(payload, outside):
        payload["trials"][0][name] = value
        return payload

    return damage


@pytest.mark.parametrize(
    "damage",
    [_drop_dir, lambda p, _: {"campaign_seed": 6, "noise": "zero"}, _set_field("rep", "1"), lambda p, _: p["trials"],
     _set_field("speed_mm_s", float("inf")),  # json writes Infinity
     _set_dir(5), _set_dir(str), _set_dir("../elsewhere"), _set_dir("a/../../elsewhere"),
     _set_field("rep", 1.5), _set_field("rep", True), _set_field("seed", 2.5),
     _set_field("tilt_deg", True), _set_field("rate_hz", True), _set_field("speed_mm_s", True),
     # values of the right type that TrialSpec refuses
     _set_field("rep", 6), _set_field("tilt_deg", 91),
     lambda p, _: {**p, "trials": [{**p["trials"][0], "shape": "cylinder", "size_mm": 0}]},
     lambda p, _: {**p, "trials": [{**p["trials"][0], "shape": "cylinder", "size_mm": 10**400}]}],
    ids=["trial-without-dir", "no-trials", "rep-as-text", "top-level-array", "speed-as-infinity", "dir-as-number",
         "dir-absolute", "dir-parent", "dir-parent-inside", "rep-as-float", "rep-as-bool", "seed-as-float",
         "tilt-as-bool", "rate-as-bool", "speed-as-bool", "rep-past-the-grid", "tilt-past-90",
         "cylinder-of-no-diameter", "cylinder-past-the-float-range"],
)
def test_campaign_malformed_manifest_is_data_error(tmp_path, capsys, damage):
    import shutil

    camp, _ = _partial_campaign(tmp_path, 1)
    manifest = camp / "manifest.json"
    payload = json.loads(manifest.read_text())
    outside = tmp_path / "elsewhere"  # a whole trial, outside the campaign
    shutil.copytree(camp / payload["trials"][0]["dir"], outside)
    manifest.write_text(json.dumps(damage(payload, outside)))
    capsys.readouterr()
    assert run(["campaign", "--dir", str(camp), "--out", str(tmp_path / "s.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(manifest) in err
    assert "Traceback" not in err
    assert not (outside / "metrics.json").exists()
    assert not list(camp.rglob("metrics.json"))


def test_campaign_with_no_trials_reports_every_cell_missing(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text(json.dumps({"campaign_seed": 6, "noise": "zero", "trials": []}))
    assert run(["campaign", "--dir", str(tmp_path), "--out", str(tmp_path / "s.json")]) == 1
    assert capsys.readouterr().err.startswith("error: campaign is missing 360 cells: mousepad/12/hline/rep1, ")
    assert not (tmp_path / "s.json").exists()


def test_campaign_rejects_a_cell_listed_twice(tmp_path, capsys):
    camp, _ = _partial_campaign(tmp_path, 2)
    manifest = json.loads((camp / "manifest.json").read_text())
    manifest["trials"].append(manifest["trials"][0])
    (camp / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["campaign", "--dir", str(camp), "--out", str(tmp_path / "s.json")]) == 1
    assert "campaign has cell mousepad/12/hline/rep1 more than once" in capsys.readouterr().err


TEXTURE_CHOICES = ["mousepad", "wood", "jeans"]
# every subcommand's options: flag -> (value type, or "switch"; choices; default; required)
CLI_OPTIONS = {
    "simulate": {
        "--texture": ("str", TEXTURE_CHOICES, None, False),
        "--size": ("int", [12, 21, 42, 84], None, False),
        "--shape": ("str", ["hline", "vline", "diag", "triangle", "square", "circle"], None, False),
        "--rep": ("int", None, None, False),
        "--tilt": ("float", None, None, False),
        "--seed": ("int", None, None, True),
        "--noise": ("str", ["zero", "default"], "default", False),
        "--rate": ("float", None, None, False),
        "--speed": ("float", None, None, False),
        "--campaign": ("switch", None, False, False),
        "--out": ("str", None, None, True),
    },
    "replay": {
        "--in": ("str", None, None, True),
        "--out": ("str", None, None, True),
        "--mount": ("str", ["fingertip", "fingerpad", "ring"], "fingerpad", False),
        "--filter-config": ("str", None, None, False),
        "--gesture-config": ("str", None, None, False),
        "--texture": ("str", TEXTURE_CHOICES, "mousepad", False),
    },
    "eval": {
        "--pred": ("str", None, None, True),
        "--truth": ("str", None, None, True),
        "--out": ("str", None, None, False),
    },
    "campaign": {"--dir": ("str", None, None, True), "--out": ("str", None, None, True)},
    "gesture": {
        "--kind": ("str", ["tap", "doubletap", "press", "moving-tap-reject"], None, True),
        "--out": ("str", None, None, True),
        "--gesture-config": ("str", None, None, False),
        "--texture": ("str", TEXTURE_CHOICES, "mousepad", False),
    },
}


def test_cli_options_are_exactly_the_listed_ones():
    # a change that adds or drops a flag, a choice or a default must change this list too
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        command: {
            "/".join(a.option_strings): (
                "switch" if isinstance(a, argparse._StoreTrueAction) else (a.type or str).__name__,
                None if a.choices is None else list(a.choices), a.default, a.required,
            )
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        }
        for command, parser in sub.choices.items()
    }
    assert found == CLI_OPTIONS


@pytest.mark.parametrize("option", [["--jobs", "1"], ["--mount", "ring"]], ids=["jobs", "mount"])
def test_campaign_has_no_jobs_or_mount_option(tmp_path, capsys, option):
    # a campaign runs in one process, and its simulated truth is the fingerpad mount's
    with pytest.raises(SystemExit) as exc:
        run(["campaign", "--dir", str(tmp_path), "--out", str(tmp_path / "s.json"), *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_replay_mount_must_be_a_known_form_factor(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["replay", "--in", str(tmp_path / "x.3dt"), "--out", str(tmp_path / "r"), "--mount", "palm"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --mount: invalid choice: 'palm' (choose from" in err
    assert all(name in err for name in ("fingertip", "fingerpad", "ring"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags",
    [["--texture", "wood"], ["--size", "12"], ["--shape", "square"], ["--rep", "2"], ["--tilt", "10"],
     ["--rate", "100"], ["--speed", "60"], ["--rate", "100", "--speed", "60", "--shape", "square"]],
    ids=lambda flags: "".join(flags[::2]),
)
def test_simulate_campaign_rejects_single_trial_flags(tmp_path, capsys, flags):
    out = tmp_path / "camp"
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--campaign", "--seed", "1", *flags, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("touchtrace simulate: error: argument --campaign: not allowed with --")
    assert all(flag in err for flag in flags[::2])
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--rate", "--speed"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_simulate_rejects_non_finite_rate_and_speed(tmp_path, capsys, flag, value):
    out = tmp_path / "t"
    assert run(["simulate", "--seed", "1", flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    field = {"--rate": "rate_hz", "--speed": "speed_mm_s"}[flag]
    assert err.startswith(f"error: {field} must be finite and > 0")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "values, message",
    [
        ({"rate_hz": 1e308, "speed_mm_s": 1e-308}, "rate_hz must be <= 1000, the wire's 1 ms resolution, got 1e+308"),
        ({"speed_mm_s": 1e-6},
         "a 42 mm circle at 1e-06 mm/s and 50.0 Hz takes 6.59734e+09 frames, more than the 262144 a trace may hold"),
        # one frame, whose truth row was 0 * inf = NaN
        ({"rate_hz": 0.001, "speed_mm_s": 1e308},
         "a 42 mm circle at 1e+308 mm/s and 0.001 Hz steps inf mm a frame, past the float range"),
        ({"rate_hz": 1e-6, "speed_mm_s": 1e308},
         "a 42 mm circle at 1e+308 mm/s and 1e-06 Hz steps inf mm a frame, past the float range"),
        # frames 1e311 ms apart: the cast of a NaN or inf timestamp was refused only after numpy warned
        ({"rate_hz": 1e-308, "speed_mm_s": 1.0},
         "a 42 mm circle at 1.0 mm/s and 1e-308 Hz stamps its frames inf ms apart up to nan ms, past uint32"),
        ({"rate_hz": 1e-308, "speed_mm_s": 1e-308},
         "a 42 mm circle at 1e-308 mm/s and 1e-308 Hz stamps its frames inf ms apart up to inf ms, past uint32"),
        ({"rate_hz": 0.001, "speed_mm_s": 1e-5},
         "a 42 mm circle at 1e-05 mm/s and 0.001 Hz stamps its frames 1e+06 ms apart up to 1.3195e+10 ms, past uint32"),
    ],
    ids=["rate-past-the-wire-clock", "frames-past-the-cap", "step-past-the-float-range", "step-past-the-float-range-2",
         "one-frame-inf-ms-apart", "frames-inf-ms-apart", "last-frame-past-uint32"],
)
def test_simulate_and_campaign_refuse_a_trace_past_the_bounds(tmp_path, capsys, values, message):
    flags = [arg for name, value in values.items() for arg in ({"rate_hz": "--rate"}.get(name, "--speed"), repr(value))]
    out = tmp_path / "t"
    assert run(["simulate", "--seed", "1", "--tilt", "10", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    # the manifest reader builds the same TrialSpec, so a campaign refuses such an entry in the same words
    entry = {"index": 0, **dataclasses.asdict(TrialSpec("mousepad", 42, "circle", 1, 10.0, 1)), **values, "dir": "t"}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"campaign_seed": 1, "noise": "default", "trials": [entry]}))
    assert run(["campaign", "--dir", str(tmp_path), "--out", str(tmp_path / "s.json")]) == 1
    assert capsys.readouterr().err == f"error: {manifest}: malformed manifest: {message}\n"
    assert sorted(tmp_path.iterdir()) == [manifest]


@pytest.mark.parametrize("flags", [[], ["--tilt", "10"], ["--campaign"]], ids=["drawn-tilt", "given-tilt", "campaign"])
def test_simulate_rejects_a_negative_seed(tmp_path, capsys, flags):
    out = tmp_path / "t"
    assert run(["simulate", "--seed", "-1", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "option, text, where",
    [
        ("--filter-config", "accel_gate=0.3\naccel_noise=abc\n", ":2: "),
        ("--filter-config", "accel_gate=0.3\nmag_reference=0.2,x,-0.4\n", ":2: "),
        ("--filter-config", "accel_gate=0.3\nbogus_key=1\n", ":2: "),
        ("--filter-config", "accel_gate=0.3\naccel_noise 0.1\n", ":2: expected key=value, got 'accel_noise 0.1'\n"),
        ("--filter-config", "mag_reference=0.2,-0.4\n", ":1: mag_reference needs 3 components\n"),
        ("--gesture-config", "contact_squal=12\njeans.tap_squal=x\n", ":2: "),
        ("--gesture-config", "contact_squal=12\nmousepda.tap_squal=3\n", ":2: "),
        # a texture prefix is read in gesture files only
        ("--filter-config", "jeans.accel_noise=0.1\n", ":1: "),
        # a file that is not UTF-8 names the file
        ("--filter-config", b"accel_gate=0.3\naccel_noise=\xff\n", ": 'utf-8' codec can't decode byte 0xff"),
        ("--gesture-config", b"contact_squal=12\n\xfe\n", ": 'utf-8' codec can't decode byte 0xfe"),
        # values that parse but fail validation name the file only
        ("--filter-config", "mag_reference=nan,0,-0.4\n", ": mag_reference must be finite"),
        ("--filter-config", "accel_noise=inf\n", ": accel_noise must be finite"),
        ("--filter-config", "accel_noise=0\n", ": accel_noise must be > 0"),
        ("--filter-config", "mag_reference=0,0,-0.4\n", ": mag_reference gives no heading"),
        ("--filter-config", "mag_reference=0,0,0\n", ": mag_reference gives no heading"),
        ("--gesture-config", "contact_squal=50\n", ": need 0 < contact_squal <= tap_squal <= 169"),
        ("--gesture-config", "press_squal=0\n", ": need contact_squal <= press_squal <= 169"),
        ("--gesture-config", "press_squal=500\n", ": need contact_squal <= press_squal <= 169"),
        ("--gesture-config", "tap_move_limit_counts=-1\n", ": tap_move_limit_counts must be >= 0"),
        ("--gesture-config", "doubletap_offset_counts=-3\n", ": doubletap_offset_counts must be >= 0"),
        ("--gesture-config", "tap_window_ms=0\n", ": tap_window_ms must be > 0"),
        ("--gesture-config", "doubletap_min_gap_ms=600\n", ": need 0 <= doubletap_min_gap_ms <= doubletap_max_gap_ms"),
    ],
    ids=[
        "filter-value",
        "filter-vector",
        "filter-unknown-key",
        "filter-no-equals",
        "filter-vector-of-two",
        "gesture-value",
        "gesture-unknown-texture",
        "filter-texture-prefix",
        "filter-not-utf8",
        "gesture-not-utf8",
        "filter-nan-vector",
        "filter-inf",
        "filter-zero",
        "filter-mag-along-gravity",
        "filter-mag-zero",
        "gesture-thresholds",
        "gesture-press-below-contact",
        "gesture-press-above-max",
        "gesture-negative-move-limit",
        "gesture-negative-offset",
        "gesture-zero-tap-window",
        "gesture-min-gap-above-max",
    ],
)
def test_replay_config_errors_name_file_and_line(tmp_path, capsys, option, text, where):
    trace = tmp_path / "tap.3dt"
    assert run(["gesture", "--kind", "tap", "--out", str(trace)]) == 0
    config = tmp_path / "bad.cfg"
    config.write_bytes(text if isinstance(text, bytes) else text.encode())
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["replay", "--in", str(trace), "--out", str(out), option, str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}{where}")
    assert "Traceback" not in err
    assert not out.exists()


# valid but extreme filter configs, with the time of the sample whose step breaks the filter
_EXTREME_FILTER_CASES = [
    pytest.param("accel_noise=1e-9\n", 20, id="zero-division-accel-noise"),
    pytest.param("mag_reference=1e10,0,-4e10\n", 40, id="zero-division-mag-reference"),
    pytest.param("init_attitude_sigma_deg=1e200\n", 0, id="overflow-init-attitude"),
    pytest.param("init_bias_sigma_dps=1e160\n", 0, id="overflow-init-bias"),
    pytest.param("bias_random_walk=1e170\n", 20, id="overflow-bias-walk"),
    pytest.param("accel_noise=1e150\n", 20, id="nan-accel-noise"),
    pytest.param("init_attitude_sigma_deg=1e150\n", 20, id="nan-init-attitude"),
    # numpy's np.dot overflows here; filter_stream and OrientationFilter.process keep its warning off stderr
    pytest.param("mag_reference=1e308,0,-0.4\n", 20, id="matmul-overflow-mag-reference"),
    pytest.param("mag_reference=-1e308,0,-0.4\n", 20, id="matmul-overflow-negative-mag-reference"),
]
_EXTREME_FILTER_CONFIGS = pytest.mark.parametrize("text, t_ms", _EXTREME_FILTER_CASES)


@_EXTREME_FILTER_CONFIGS
def test_replay_stops_when_an_extreme_filter_config_breaks_the_filter(tmp_path, capsys, text, t_ms):
    # valid but extreme values: the filter's arithmetic divides by zero,
    # overflows or turns the attitude to NaN at the named sample, and stderr holds that one line
    trial = tmp_path / "trial"
    assert run(["simulate", "--seed", "7", "--noise", "zero", "--out", str(trial)]) == 0
    config = tmp_path / "extreme.cfg"
    config.write_text(text)
    capsys.readouterr()
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["replay", "--in", str(trial / "sensor.3dt"), "--out", str(out), "--filter-config", str(config)]) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        f"error: orientation filter left the float range at {t_ms} ms; the filter config is too extreme\n"
    )
    assert not out.exists()


@_EXTREME_FILTER_CONFIGS
def test_streaming_filter_stops_where_filter_stream_does(tmp_path, text, t_ms):
    # the same frames as the replay above, through the whole-stream kernel and the sample-by-sample adapter
    config = tmp_path / "extreme.cfg"
    config.write_text(text)
    cfg = load_config(config, FilterConfig)
    _, block = simulate_columns(TrialSpec("mousepad", 42, "circle", 1, draw_tilt(7), 7), NoiseModel.zero())
    with pytest.raises(ValueError) as streamed:
        filter_stream(cfg, block.t_ms, block.imu_raw)
    filt = OrientationFilter(cfg)
    with pytest.raises(ValueError) as stepped:
        for frame in block.frames():
            filt.process(apply_scales(frame, ScaleConfig()))
    assert str(streamed.value) == str(stepped.value)
    assert str(stepped.value).startswith(f"orientation filter left the float range at {t_ms} ms;")


# Every numeric input a command reads, at the extremes of the float and int ranges. Each call must end
# in exit 0, or in exit 1 with one ``error:`` line, warn nothing and return within _CALL_BOUND_S: the frame
# cap bounds the work a trace or fixture may ask for; the slowest call here, `simulate --speed=1` (6,599
# frames), takes about 0.03 s on a 2-vCPU machine.
_EXTREMES = ("0", "1e-308", "-1e-308", "1e308", "-1e308", str(2**63), str(10**20), "nan", "inf", "-1", "1")
_CALL_BOUND_S = 5.0


def _ends_cleanly(argv):
    """``main(argv)`` in process: exit 0 with nothing on stderr, or exit 1 with one ``error:`` line; no warning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, _returns_within(_CALL_BOUND_S):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert [str(w.message) for w in caught] == [], argv
    assert code in (0, 1), argv
    lines = err.getvalue().splitlines()
    assert lines == [] if code == 0 else len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


@settings(max_examples=150, deadline=None)
@given(
    rate=st.none() | st.sampled_from(_EXTREMES),
    speed=st.none() | st.sampled_from(_EXTREMES),
    tilt=st.none() | st.sampled_from(_EXTREMES),
    seed=st.sampled_from([v for v in _EXTREMES if v.lstrip("-").isdigit()]),  # argparse reads --seed as an int
)
def test_every_simulate_number_ends_in_exit_0_or_one_error_line(rate, speed, tilt, seed):
    flags = [f"--{name}={value}" for name, value in (("rate", rate), ("speed", speed), ("tilt", tilt)) if value]
    with tempfile.TemporaryDirectory() as tmp:
        _ends_cleanly(["simulate", f"--seed={seed}", *flags, "--out", str(Path(tmp) / "t")])


@pytest.fixture(scope="module")
def tap_trace(tmp_path_factory):
    """A 41-frame scripted tap."""
    trace = tmp_path_factory.mktemp("tap") / "tap.3dt"
    assert run(["gesture", "--kind", "tap", "--out", str(trace)]) == 0
    return trace


def _config_lines(cls):
    """One ``key=value`` line per key of ``cls`` and extreme value; a vector takes it in one component at a time."""
    for f in dataclasses.fields(cls):
        for value in _EXTREMES:
            if not isinstance(f.default, Vec3):
                yield f"{f.name}={value}"
                continue
            for i in range(3):
                parts = [repr(c) for c in f.default.as_tuple()]
                parts[i] = value
                yield f"{f.name}={','.join(parts)}"


@pytest.mark.parametrize("command", ("replay",) + GESTURE_KINDS)
def test_every_config_number_ends_in_exit_0_or_one_error_line(tap_trace, tmp_path, command):
    # the whole space, about 600 calls of 4 ms: each key of each config file a command reads, at each extreme
    if command == "replay":
        argv = ["replay", "--in", str(tap_trace), "--out", str(tmp_path / "out")]
        configs = [("--gesture-config", GestureConfig), ("--filter-config", FilterConfig)]
    else:
        argv = ["gesture", "--kind", command, "--out", str(tmp_path / "g.3dt")]
        configs = [("--gesture-config", GestureConfig)]
    config = tmp_path / "config"
    for option, cls in configs:
        for line in _config_lines(cls):
            config.write_text(line + "\n")
            _ends_cleanly([*argv, option, str(config)])
