"""Tests of the benchmark's own parts: input generators, checks, tracer, entry point.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run
import workloads
from tracing import Tracer, layer_totals, self_times
from touchtrace.evaluate import TrialResult, summarize_campaign
from touchtrace.protocol import DecoderState, decode_stream
from touchtrace.simulate import campaign_specs

SEED = 5


@pytest.fixture(scope="module")
def fault_pool():
    return workloads.fault_inputs(SEED)


def _stream(session) -> bytes:
    return b"".join(session.chunks)


def test_fault_sessions_are_deterministic_per_seed(fault_pool):
    again = workloads.fault_session(SEED, 0, fault_pool[0].disruption)
    assert again == fault_pool[0]
    other = workloads.fault_session(SEED + 1, 0, fault_pool[0].disruption)
    assert _stream(other) != _stream(fault_pool[0])
    assert workloads.fault_disruptions(SEED) == [s.disruption for s in fault_pool]


def test_replay_sessions_are_deterministic_per_seed():
    a, b = workloads.replay_session(SEED, 4), workloads.replay_session(SEED, 4)
    assert a == b
    assert workloads.replay_session(SEED + 1, 4).data != a.data


def test_faulted_streams_decode_to_exactly_the_intact_frames(fault_pool):
    for session in fault_pool:
        frames, diagnostics = decode_stream(_stream(session))
        assert frames == session.intact
        assert run.feed_all(DecoderState(), session.chunks) == session.intact
        assert diagnostics.crc_failures > 0 and diagnostics.resyncs > 0
    assert sum(s.disruption is None for s in fault_pool) == workloads.POOL_SESSIONS - 2
    assert {s.disruption for s in fault_pool} == {None, "reset", "wrap"}


class _Scripted:
    """A generator whose ``random()`` draws are scripted; other draws are real."""

    def __init__(self, draws, seed=0):
        self._draws = list(draws)
        self._rng = np.random.default_rng(seed)

    def random(self):
        return self._draws.pop(0)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize(
    "fault, middle",
    [(0, 0), (1, 0), (2, 0), (3, 1), (4, 2), (5, 1)],
    ids=["bitflip", "drop", "truncate", "junk", "duplicate", "field-error"],
)
def test_each_fault_kind_loses_or_keeps_the_right_frames(fault, middle):
    frames = workloads.replay_session(SEED, 0).frames[:3]
    wire = workloads.encode_frames(frames)
    for seed in range(20):
        draws = [0.99, (fault + 0.5) * workloads.FAULT_P, 0.99]
        stream, intact = workloads.faulted_stream(frames, wire, _Scripted(draws, seed))
        assert intact == [frames[0]] + [frames[1]] * middle + [frames[2]]
        assert decode_stream(stream)[0] == intact


def test_retiming_adds_gaps_and_the_requested_disruption():
    frames = workloads.replay_session(SEED, 0).frames
    rng = np.random.default_rng(1)
    plain = [f.timestamp_ms for f in workloads._retimed(frames, rng, None)]
    steps = np.diff(plain)
    assert (steps > 0).all() and (steps > 100).sum() == workloads.GAPS_PER_SESSION
    for disruption in ("reset", "wrap"):
        t = [f.timestamp_ms for f in workloads._retimed(frames, np.random.default_rng(1), disruption)]
        backward = [b - a for a, b in zip(t, t[1:]) if b < a]
        assert len(backward) == 1
        if disruption == "wrap":
            assert max(t) > (1 << 32) - 200_000 and min(t) < 200_000


def test_only_reset_and_wrap_sessions_fail(fault_pool):
    # Replay raises on a backward timestamp, so a device reset or the uint32
    # wrap fails its session. Once replay handles both, expect no failures.
    bench = run.Bench("faults", SEED, fault_pool)
    outcomes = bench.round()
    failed = [i for i, o in enumerate(outcomes) if o.failed]
    assert failed == [i for i, s in enumerate(fault_pool) if s.disruption]
    assert all(o.wrong == 0 for o in outcomes)
    assert dict(bench.errors.counts) == {"ValueError: out-of-order timestamp": 2}


def test_a_traced_pass_runs_the_untraced_path_under_spans(fault_pool):
    bench = run.Bench("faults", SEED, fault_pool)
    tr = Tracer()
    traced, untraced = bench.round(tr), bench.round()
    assert [o.failed for o in traced] == [o.failed for o in untraced]
    assert [o.frames for o in traced] == [o.frames for o in untraced]
    # one span per call on the timed path, a replay that raises included
    timed = [(s[0], s[4]) for s in tr.spans if s[3] == -1 and s[0] != "pipeline.split"]
    assert timed == [(name, o.session) for o in traced for name in ("protocol.decode", "pipeline.replay")]
    split = {s[4] for s in tr.spans if s[0] == "pipeline.split"}
    assert split == {o.session for o in traced if not o.failed}


def test_a_wrong_decode_counts_whether_or_not_replay_raises(fault_pool):
    tampered = [replace(s, intact=s.intact[1:]) for s in fault_pool]
    outcomes = run.Bench("faults", SEED, tampered).round()
    assert all(o.failed == 1 and o.wrong == 1 for o in outcomes)


def test_campaign_check_holds_trials_to_the_reference():
    specs = campaign_specs(run.REFERENCE_SEED)
    reference = [tuple(r) for r in json.loads(run.REFERENCE.read_text())["trials"]]
    results = [TrialResult(spec, *row) for spec, row in zip(specs, reference)]
    summary = summarize_campaign(results)
    assert summary.grand["mean_pos_err_mm"] == pytest.approx(1.4102608757355144, rel=1e-12)
    assert run.check_campaign(specs, results, summary, reference) == set()
    nudged = list(results)
    nudged[7] = replace(results[7], mean_ori_err_deg=results[7].mean_ori_err_deg * (1 + 1e-8))
    assert run.check_campaign(specs, nudged, summary, reference) == {7}


def test_self_time_subtracts_children():
    spans = [
        ("session", 0, 100, -1, 1, 0),
        ("protocol.decode", 10, 30, 0, 1, 5),
        ("pipeline.replay", 30, 90, 0, 1, 5),
        ("session", 100, 150, -1, 2, 0),
        ("protocol.decode", 100, 140, 3, 2, 4),
    ]
    assert self_times(spans) == [20, 20, 60, 10, 40]
    totals = layer_totals(spans, skip_sessions={2})
    assert totals["protocol.decode"] == {"self_ns": 20, "frames": 5, "spans": 1}


def test_tracer_keeps_failed_calls_and_frame_counts():
    tr = Tracer()
    outer = tr.open("session", -1, 1)
    assert tr.call("simulate", outer, 1, len, list, range(3)) == [0, 1, 2]
    with pytest.raises(ZeroDivisionError):
        tr.call("pipeline.replay", outer, 1, 7, lambda: 1 / 0)
    tr.close(outer)
    names = [(s[0], s[3], s[5]) for s in tr.spans]
    assert names == [("session", -1, 0), ("simulate", 0, 3), ("pipeline.replay", 0, 0)]
    assert all(s[2] >= s[1] for s in tr.spans)


def test_tail_has_ten_samples_beyond_it_or_as_many_as_beyond_the_median():
    assert run.tail(list(range(100))) == (89, 100.0 * 89 / 99)
    assert run.tail(list(range(21))) == (10, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert run.tail([4.0, 1.0, 3.0, 2.0]) == (3.0, 100.0 * 2 / 3)
    assert run.tail([5.0]) == (5.0, 0.0)


def test_p50_averages_the_median_of_each_pass():
    def outcome(ms, failed=0):
        return run.Outcome(ms / 1000.0, 0 if failed else 100, 1, failed, 0)

    passes = [[outcome(10), outcome(11), outcome(50, failed=1)], [outcome(20), outcome(22), outcome(30)]]
    metrics, detail = run.end_to_end(passes, [1.0])
    assert metrics["session_ms_p50"] == pytest.approx((10.5 + 22) / 2)
    assert detail["sessions_timed"] == 5 and metrics["ok_ratio"] == pytest.approx(5 / 6)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_faults_run_counts_failures_without_crashing():
    proc = _run(run.ROOT, "--workload", "faults", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] * 6 == result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(5 / 6)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "replay", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
