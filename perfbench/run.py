"""touchtrace benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload campaign|replay|faults --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The run replays the workload's input pool as many whole times
as fit in ``--seconds`` (at least once), checks every output, and prints
as its last stdout line ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, from
spans kept in memory. The line before it is a JSON record with machine
context and detail; the record and the spans are also written under
``.perfbench_out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

import touchtrace  # noqa: E402
from touchtrace.evaluate import evaluate_trial, summarize_campaign  # noqa: E402
from touchtrace.gestures import run_detector  # noqa: E402
from touchtrace.interaction import derive_plane  # noqa: E402
from touchtrace.orientation import OrientationFilter  # noqa: E402
from touchtrace.pipeline import ReplayConfig, replay_frames, run_campaign  # noqa: E402
from touchtrace.protocol import DecoderState, apply_scales, decode_stream, encode_frames  # noqa: E402
from touchtrace.simulate import simulate_trial  # noqa: E402

from tracing import Tracer, layer_totals, write_spans  # noqa: E402
from workloads import FIXTURE_EVENTS, MOUNTS, build_inputs  # noqa: E402

WORKLOADS = ("campaign", "replay", "faults")
SETUP_RUNS = 5  # fresh processes timed for setup_s; the median is reported
POS_BAND_MM = (0.6, 1.6)  # README accuracy bands for the campaign grand means
ORI_BAND_DEG = (1.5, 3.5)
REFERENCE_SEED = 42
REFERENCE = HERE / "campaign_seed42.json"
REL_TOL = 1e-9
TAIL_BEYOND = 10  # the tail is the slowest session with this many beyond it

SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "run.build_inputs(sys.argv[2], int(sys.argv[3]))"
)


@dataclass
class Outcome:
    """One timed session, trial or campaign grid."""

    seconds: float
    frames: int  # frames carried through the full path; 0 unless it passed
    attempted: int
    failed: int  # raised or failed the output check
    wrong: int  # returned output that failed the check
    session: int = -1


class Errors:
    """Counts raised exceptions by kind; keeps the first traceback of each."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.first: dict[str, str] = {}

    def record(self, exc: Exception) -> None:
        kind = f"{type(exc).__name__}: {str(exc).split(':')[0]}"
        self.counts[kind] += 1
        self.first.setdefault(kind, traceback.format_exc())


def session_outcome(seconds: float, frames: int, session: int, ok: bool = True, raised: bool = False) -> Outcome:
    """A session that raised, or whose output passed (``ok``) or failed its check."""
    passed = ok and not raised
    return Outcome(seconds, frames if passed else 0, 1, int(not passed), int(not ok), session)


# -- output checks ---------------------------------------------------------------


def trial_row(result) -> tuple:
    return (result.mean_pos_err_mm, result.pos_err_sigma, result.mean_ori_err_deg,
            result.ori_err_sigma, result.n_samples)


def check_campaign(specs, results, summary, reference) -> set[int]:
    """Indices of the trials whose output fails the check.

    The grid's grand means must lie in the README bands (else every trial
    fails). Each trial must match ``reference`` within REL_TOL when there
    is one, else carry finite metrics.
    """
    every = set(range(len(specs)))
    if len(results) != len(specs) or any(r.spec != s for r, s in zip(results, specs)):
        return every
    grand = summary.grand
    if not (POS_BAND_MM[0] <= grand["mean_pos_err_mm"] <= POS_BAND_MM[1]
            and ORI_BAND_DEG[0] <= grand["mean_ori_err_deg"] <= ORI_BAND_DEG[1]):
        return every
    bad = set()
    for i, result in enumerate(results):
        row = trial_row(result)
        if reference is None:
            ok = all(math.isfinite(v) for v in row) and row[4] > 1
        else:
            ref = reference[i]
            ok = row[4] == ref[4] and all(
                math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0) for a, b in zip(row[:4], ref[:4])
            )
        if not ok:
            bad.add(i)
    return bad


def check_replay(session, result, diagnostics) -> bool:
    """Every frame decoded, one pointer row per frame, every fixture's gestures present."""
    if result is None or diagnostics.frames != len(session.frames) or diagnostics.crc_failures:
        return False
    if len(result.pointer) != diagnostics.frames:
        return False
    for kind, first, last in session.windows:
        seen = {e.kind for e in result.events if first <= e.t_ms <= last}
        if not seen.issuperset(FIXTURE_EVENTS[kind]):
            return False
    return True


def check_decoded(session, frames) -> bool:
    """The decoder returned exactly the intact frames the generator wrote."""
    return frames == session.intact


# -- workloads ------------------------------------------------------------------


def feed_all(state: DecoderState, chunks) -> list:
    frames = []
    for chunk in chunks:
        frames.extend(state.feed(chunk))
    state.flush()
    return frames


def untraced(name, parent, session, frames, fn, *args):
    """``Tracer.call`` without the span: how an untraced pass calls the package."""
    return fn(*args)


class Bench:
    """One workload's inputs, configs and checks.

    ``round(tr)`` makes one pass over the inputs. Untraced (``tr`` None)
    and traced passes run the same code: the calls into the package go
    through ``untraced`` or ``tr.call``. A traced pass then drives what it
    decoded once more through the layers inside ``replay_frames`` (and,
    on ``campaign``, inside ``run_campaign``), timing each call; that part
    is traced-only and is not part of the workload's timed path.
    """

    def __init__(self, workload: str, seed: int, inputs) -> None:
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.errors = Errors()
        self.next_session = 0
        self.reference = None
        if workload == "campaign" and seed == REFERENCE_SEED:
            self.reference = [tuple(row) for row in json.loads(REFERENCE.read_text())["trials"]]
        self.replay_configs = {m: ReplayConfig(mount=m) for m in MOUNTS}
        self.no_gestures = ReplayConfig(with_gestures=False)
        # per traced pass over the inputs, summed then divided by the passes
        self.counts: Counter[str] = Counter()

    def _sid(self) -> int:
        self.next_session += 1
        return self.next_session

    def _campaign_checked(self, specs, results, summary) -> set[int]:
        wrong = check_campaign(specs, results, summary, self.reference)
        if self.reference is None and not wrong:
            # later passes must repeat the first one
            self.reference = [trial_row(r) for r in results]
        return wrong

    def round(self, tr: Tracer | None = None) -> list[Outcome]:
        return getattr(self, f"_{self.workload}_round")(tr)

    def _campaign_round(self, tr: Tracer | None) -> list[Outcome]:
        call = tr.call if tr else untraced
        specs, _ = self.inputs
        sid = self._sid()
        start = perf_counter()
        try:
            results, summary = call("campaign", -1, sid, lambda r: sum(t.n_samples for t in r[0]),
                                    run_campaign, self.seed, "default", 1)
        except Exception as exc:
            self.errors.record(exc)
            return [Outcome(perf_counter() - start, 0, len(specs), len(specs), 0, sid)]
        seconds = perf_counter() - start
        wrong = len(self._campaign_checked(specs, results, summary))
        frames = 0 if wrong else sum(r.n_samples for r in results)
        outcomes = [Outcome(seconds, frames, len(specs), wrong, wrong, sid)]
        if tr:
            outcomes += self._campaign_layers(tr)
        return outcomes

    def _replay_round(self, tr: Tracer | None) -> list[Outcome]:
        call = tr.call if tr else untraced
        outcomes = []
        for session in self.inputs:
            sid = self._sid()
            config = self.replay_configs[session.mount]
            start = perf_counter()
            try:
                # replay_bytes is exactly these two calls
                frames, diagnostics = call("protocol.decode", -1, sid, len(session.frames),
                                           decode_stream, session.data)
                result = call("pipeline.replay", -1, sid, len(frames), replay_frames, frames, config)
            except Exception as exc:
                self.errors.record(exc)
                outcomes.append(session_outcome(perf_counter() - start, 0, sid, raised=True))
                continue
            seconds = perf_counter() - start
            ok = check_replay(session, result, diagnostics)
            outcomes.append(session_outcome(seconds, len(frames), sid, ok))
            if tr:
                self._count(diagnostics, len(session.data), result)
                self._split(tr, -1, sid, frames, config)
        return outcomes

    def _faults_round(self, tr: Tracer | None) -> list[Outcome]:
        call = tr.call if tr else untraced
        config = self.no_gestures
        outcomes = []
        for session in self.inputs:
            sid = self._sid()
            state = DecoderState()
            frames = result = None
            start = perf_counter()
            try:
                frames = call("protocol.decode", -1, sid, len(session.intact), feed_all, state, session.chunks)
                result = call("pipeline.replay", -1, sid, len(frames), replay_frames, frames, config)
            except Exception as exc:
                seconds = perf_counter() - start
                self.errors.record(exc)
                ok = frames is None or check_decoded(session, frames)
                outcomes.append(session_outcome(seconds, 0, sid, ok, raised=True))
            else:
                seconds = perf_counter() - start
                ok = check_decoded(session, frames) and len(result.pointer) == len(frames)
                outcomes.append(session_outcome(seconds, len(frames), sid, ok))
            if tr:
                self._count(state.diagnostics, session.n_bytes, result)
                if result is not None:
                    self._split(tr, -1, sid, frames, config)
        return outcomes

    # -- traced-only layer breakdown -------------------------------------------

    def _split(self, tr: Tracer, parent: int, sid: int, frames, config: ReplayConfig) -> None:
        """Drive decoded frames once more through the calls replay_frames makes.

        Scale, orientation and interaction are timed per call, in the
        order replay_frames interleaves them; the gesture detector, about
        1 us a frame, is timed per session through run_detector so the
        timer does not swamp it.
        """
        span = tr.open("pipeline.split", parent, sid)
        scales, mount, append = config.scales, config.mount, tr.spans.append
        filt = OrientationFilter(config.filter_config)
        for frame in frames:
            t0 = perf_counter_ns()
            sample = apply_scales(frame, scales)
            t1 = perf_counter_ns()
            estimate = filt.process(sample)
            t2 = perf_counter_ns()
            derive_plane(estimate.q, mount)
            t3 = perf_counter_ns()
            append(("protocol.scale", t0, t1, span, sid, 1))
            append(("orientation", t1, t2, span, sid, 1))
            append(("interaction", t2, t3, span, sid, 1))
        if config.with_gestures:
            tr.call("gestures", span, sid, len(frames), run_detector, frames, config.gesture_config)
        tr.close(span)

    def _campaign_layers(self, tr: Tracer) -> list[Outcome]:
        """Run the grid once more, one trial at a time through the calls
        run_campaign makes, timing each, then split each trial's replay.

        Its trials are checked like the timed grid's but carry no frames,
        so they count in ``failed``, never in a throughput.
        """
        specs, noises = self.inputs
        config = self.no_gestures
        outcomes, results = [], []
        grid = tr.open("campaign.layers")
        for spec in specs:
            sid = self._sid()
            trial = tr.open("trial", grid, sid)
            try:
                truth, frames = tr.call("simulate", trial, sid, lambda r: len(r[1]),
                                        simulate_trial, spec, noises[spec.texture], config.scales)
                data = tr.call("protocol.encode", trial, sid, len(frames), encode_frames, frames)
                decoded, diagnostics = tr.call("protocol.decode", trial, sid, len(frames), decode_stream, data)
                result = tr.call("pipeline.replay", trial, sid, len(decoded), replay_frames, decoded, config)
                results.append(tr.call("evaluate", trial, sid, len(truth), evaluate_trial, spec, result.pointer, truth))
            except Exception as exc:
                self.errors.record(exc)
                outcomes.append(session_outcome(0.0, 0, sid, raised=True))
                continue
            finally:
                tr.close(trial)
            self._count(diagnostics, len(data), result)
            outcomes.append(session_outcome(0.0, 0, sid))
            self._split(tr, grid, sid, decoded, config)
        try:
            summary = tr.call("evaluate.summary", grid, -1, 0, summarize_campaign, results)
        except Exception as exc:
            self.errors.record(exc)
            summary = None
        tr.close(grid)
        if summary is not None:
            for i in self._campaign_checked(specs, results, summary):
                outcomes[i] = session_outcome(0.0, 0, outcomes[i].session, ok=False)
        return outcomes

    def _count(self, diagnostics, n_bytes: int, result) -> None:
        c = self.counts
        c["protocol.frames"] += diagnostics.frames
        c["protocol.crc_failures"] += diagnostics.crc_failures
        c["protocol.resyncs"] += diagnostics.resyncs
        c["protocol.bytes_skipped"] += diagnostics.bytes_skipped
        c["bytes_fed"] += n_bytes
        if result is not None:
            c["orientation.clamped_dt"] += result.filter_diagnostics.clamped_dt
            c["orientation.gated_accel"] += result.filter_diagnostics.gated_accel
            c["gestures.events"] += len(result.events)


# -- measuring -------------------------------------------------------------------


def timed_rounds(seconds: float, *round_fns):
    """Whole passes over the inputs until ``seconds`` have passed.

    The functions in ``round_fns`` take turns, one pass each, so an
    untraced and a traced pass see the same machine conditions; each
    runs at least once. Returns the outcomes of each pass, per function.
    """
    passes: list[list[list[Outcome]]] = [[] for _ in round_fns]
    start, cpu_start = perf_counter(), process_time()
    turn = 0
    while not passes[-1] or perf_counter() - start < seconds:
        passes[turn].append(round_fns[turn]())
        turn = (turn + 1) % len(round_fns)
    return passes, perf_counter() - start, process_time() - cpu_start


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest sample with TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND + 1 samples, the slowest sample with as
    many beyond it as lie beyond the median: with three or four campaign
    grids a run has too few for a tail, and their maximum is noise.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - 1 - min(TAIL_BEYOND, (n - 1) // 2)
    return ordered[k], 100.0 * k / (n - 1) if n > 1 else 0.0


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import the package and build the inputs."""
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(HERE), workload, str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return times


def frames_per_s(outcomes: list[Outcome]) -> float:
    """Frames carried by passed sessions per second of all sessions' timed wall time."""
    return sum(o.frames for o in outcomes) / sum(o.seconds for o in outcomes)


def end_to_end(passes: list[list[Outcome]], setup: list[float]) -> tuple[dict, dict]:
    outcomes = [o for p in passes for o in p]

    def latencies(group: list[Outcome]) -> list[float]:
        passed = [o.seconds * 1000.0 for o in group if o.failed == 0]
        # if nothing passed, time what was attempted, so the metric stays defined
        return passed or [o.seconds * 1000.0 for o in group]

    tail_ms, tail_pct = tail(latencies(outcomes))
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup),
        "frames_per_s": frames_per_s(outcomes),
        # The host runs fast or slow for minutes at a time. The median of a
        # whole run snaps to whichever speed held more of it; the median of
        # each pass (one speed) averaged over passes moves smoothly instead.
        "session_ms_p50": statistics.fmean(statistics.median(latencies(p)) for p in passes),
        "session_ms_tail": tail_ms,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "sessions_timed": len(latencies(outcomes)),
        "session_ms_tail_percentile": tail_pct,
        "failed_ratio": failed / attempted,
        "setup_runs_s": setup,
    }
    return metrics, detail


LAYER_SPANS = {
    "simulate.us_per_frame": "simulate",
    "protocol.encode.us_per_frame": "protocol.encode",
    "protocol.decode.us_per_frame": "protocol.decode",
    "protocol.scale.us_per_frame": "protocol.scale",
    "orientation.us_per_frame": "orientation",
    "interaction.us_per_frame": "interaction",
    "gestures.us_per_frame": "gestures",
    "pipeline.replay.us_per_frame": "pipeline.replay",
    "evaluate.us_per_frame": "evaluate",
}
SPLIT_LAYERS = ("protocol.scale", "orientation", "interaction", "gestures")
COUNTS = ("protocol.frames", "protocol.crc_failures", "protocol.resyncs", "protocol.bytes_skipped",
          "orientation.clamped_dt", "orientation.gated_accel", "gestures.events")


def glue_us_per_frame(spans, skip_sessions) -> float:
    """Median over sessions of replay_frames minus its split layers, per frame.

    A session's replay and its split run a moment apart, yet the host
    moves their difference by tens of us a frame now and then; the median
    over sessions resists that where a total would not.
    """
    replay, frames, parts = {}, {}, Counter()
    for name, start, end, _, session, n in spans:
        if session in skip_sessions:
            continue
        if name == "pipeline.replay":
            replay[session], frames[session] = end - start, n
        elif name in SPLIT_LAYERS:
            parts[session] += end - start
    diffs = [(replay[s] - parts[s]) / frames[s] / 1000.0 for s in replay if frames[s]]
    return statistics.median(diffs) if diffs else 0.0


def per_layer(tr: Tracer, outcomes: list[Outcome], counts: Counter, rounds: int,
              untraced_fps: float) -> tuple[dict, dict]:
    failed = frozenset(o.session for o in outcomes if o.failed)
    totals = layer_totals(tr.spans, failed)

    def us_per_frame(name: str) -> float:
        entry = totals.get(name)
        return entry["self_ns"] / 1000.0 / entry["frames"] if entry and entry["frames"] else 0.0

    metrics = {metric: us_per_frame(name) for metric, name in LAYER_SPANS.items()}
    metrics["pipeline.self_us_per_frame"] = glue_us_per_frame(tr.spans, failed)
    summary = totals.get("evaluate.summary")
    metrics["evaluate.summary_ms"] = summary["self_ns"] / 1e6 / summary["spans"] if summary else 0.0
    for name in COUNTS:
        metrics[name] = counts[name] / rounds
    metrics["protocol.frame_yield"] = counts["protocol.frames"] * 34 / counts["bytes_fed"]
    # the workload's timed path in the traced passes; the layer breakdown
    # carries no frames and no time there
    traced_fps = frames_per_s(outcomes)
    metrics["trace.overhead_pct"] = 100.0 * (untraced_fps - traced_fps) / untraced_fps
    detail = {"traced_frames_per_s": traced_fps, "untraced_frames_per_s": untraced_fps,
              "self_ms": {name: e["self_ns"] / 1e6 for name, e in sorted(totals.items())}}
    return metrics, detail


# -- entry point -----------------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(touchtrace.__file__).resolve().parent != SRC / "touchtrace":
        print(f"perfbench: touchtrace imported from {touchtrace.__file__}, not {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()

    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    build_start = perf_counter()
    bench = Bench(args.workload, args.seed, build_inputs(args.workload, args.seed))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(),
              "setup_in_process_s": perf_counter() - build_start}

    if args.trace:
        tr = Tracer()
        setup_span = tr.open("setup")
        if args.workload != "campaign":
            # a traced copy of the inputs gives the simulate and encode spans
            bench.inputs = build_inputs(args.workload, args.seed, tr.hook(setup_span))
        tr.close(setup_span)
        (untraced, passes), wall, cpu = timed_rounds(args.seconds, bench.round, lambda: bench.round(tr))
        untraced = [o for p in untraced for o in p]
        outcomes = [o for p in passes for o in p]
        metrics, detail = per_layer(tr, outcomes, bench.counts, len(passes), frames_per_s(untraced))
        record.update(detail, spans=len(tr.spans))
        units = layer_units
        outcomes += untraced
    else:
        (passes,), wall, cpu = timed_rounds(args.seconds, bench.round)
        outcomes = [o for p in passes for o in p]
        metrics, detail = end_to_end(passes, setup)
        record.update(detail)
        units = e2e_units
    record.update(passes=len(passes), wall_s=wall, cpu_s=cpu)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    wrong = sum(o.wrong for o in outcomes)
    record.update(errors=dict(bench.errors.counts), tracebacks=bench.errors.first, wrong_outputs=wrong)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_spans(tr.spans, OUT / f"{stem}-spans.csv")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
