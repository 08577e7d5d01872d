import json

import numpy as np
import pytest

from touchtrace.cli import main
from touchtrace.gestures import read_events_jsonl
from touchtrace.trajectory import read_csv


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
    """A partial campaign dir exercises scoring (parallel branch included)
    and must exit 1 naming the missing cells."""
    from touchtrace.simulate import trial_dirname

    camp, specs = _partial_campaign(tmp_path, 4)
    capsys.readouterr()
    code = run(["campaign", "--dir", str(camp), "--out", str(tmp_path / "summary.json"),
                "--jobs", "2"])
    assert code == 1
    assert "missing" in capsys.readouterr().err
    # the trials that do exist were scored before the grid check failed
    for i, spec in enumerate(specs):
        metrics = json.loads((camp / trial_dirname(i, spec) / "metrics.json").read_text())
        assert metrics["mean_pos_err_mm"] <= 0.2


def test_campaign_without_manifest_is_data_error(tmp_path, capsys):
    code = run(["campaign", "--dir", str(tmp_path), "--out", str(tmp_path / "s.json")])
    assert code == 1
    assert "manifest" in capsys.readouterr().err


def test_campaign_metrics_are_identical_for_any_job_count(tmp_path, capsys):
    from touchtrace.simulate import trial_dirname

    camp, specs = _partial_campaign(tmp_path, 5, noise="default")
    written = []
    for jobs in ("1", "2", "3"):
        assert run(["campaign", "--dir", str(camp), "--out", str(tmp_path / "s.json"),
                    "--jobs", jobs]) == 1  # scored, then the grid check fails
        written.append([(camp / trial_dirname(i, s) / "metrics.json").read_bytes()
                        for i, s in enumerate(specs)])
    assert written[0] == written[1] == written[2]


def test_campaign_backward_timestamp_exits_1(tmp_path, capsys):
    from touchtrace.protocol import read_trace, write_trace
    from touchtrace.simulate import trial_dirname

    camp, specs = _partial_campaign(tmp_path, 2)
    trace = camp / trial_dirname(1, specs[1]) / "sensor.3dt"
    frames, _ = read_trace(trace)
    frames[3], frames[4] = frames[4], frames[3]
    write_trace(trace, frames)
    capsys.readouterr()
    assert run(["campaign", "--dir", str(camp), "--out", str(tmp_path / "s.json")]) == 1
    assert "out-of-order timestamp" in capsys.readouterr().err
