"""Command line entry point.

Commands:

    simulate   write sensor.3dt + truth.csv (+ manifest) for one trial or
               the whole 360-trial campaign grid
    replay     decode a .3dt stream into pointer.csv + gestures.jsonl
    eval       score a pointer.csv against a truth.csv
    campaign   replay + score every trial of a simulated campaign
    gesture    write a scripted gesture fixture trace

Every command is deterministic given its flags and seed: re-running
writes byte-identical output. Exit codes: 0 success, 1 data error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from .evaluate import (
    TrajectoryMismatchError,
    evaluate_trial,
    summarize_campaign,
    trial_metrics,
    write_summary,
)
from .gestures import GestureConfig, load_gesture_config, write_events_jsonl
from .interaction import MountMode
from .orientation import FilterConfig, load_filter_config
from .pipeline import ReplayConfig, map_chunks, replay_bytes, replay_lockstep
from .protocol import FrameColumns, ScaleConfig, decode_stream, write_trace
from .simulate import (
    GESTURE_KINDS,
    NOISE_PRESETS,
    SHAPE_NAMES,
    SIZES_MM,
    TEXTURE_NAMES,
    TEXTURES,
    TrialSpec,
    campaign_specs,
    draw_tilt,
    noise_for_preset,
    read_manifest,
    script_gesture_trace,
    simulate_trial,
    trial_dirname,
    write_manifest,
)
from .trajectory import read_csv


class DataError(Exception):
    """Input data problem: reported on stderr, exit code 1."""


def _replay_config(args) -> ReplayConfig:
    filter_config = (
        load_filter_config(args.filter_config) if args.filter_config else FilterConfig()
    )
    if args.gesture_config:
        gesture_config = load_gesture_config(args.gesture_config, args.texture)
    else:
        gesture_config = GestureConfig()
    return ReplayConfig(
        scales=ScaleConfig(),
        filter_config=filter_config,
        gesture_config=gesture_config,
        mount=MountMode.from_name(args.mount),
        with_gestures=True,
    )


def _write_trial(out_dir: Path, spec: TrialSpec, noise_preset: str) -> int:
    noise = noise_for_preset(noise_preset, TEXTURES[spec.texture])
    truth, frames = simulate_trial(spec, noise)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace(out_dir / "sensor.3dt", frames)
    truth.write_csv(out_dir / "truth.csv")
    return len(frames)


def cmd_simulate(args) -> int:
    out = Path(args.out)
    if args.campaign:
        specs = campaign_specs(args.seed)
        out.mkdir(parents=True, exist_ok=True)
        write_manifest(out / "manifest.json", args.seed, args.noise, specs)
        total = 0
        for i, spec in enumerate(specs):
            total += _write_trial(out / trial_dirname(i, spec), spec, args.noise)
        print(f"wrote {len(specs)} trials ({total} frames) under {out}")
        return 0

    tilt = args.tilt if args.tilt is not None else draw_tilt(args.seed)
    spec = TrialSpec(
        texture=args.texture,
        size_mm=args.size,
        shape=args.shape,
        rep=args.rep,
        tilt_deg=tilt,
        seed=args.seed,
        rate_hz=args.rate,
        speed_mm_s=args.speed,
    )
    n = _write_trial(out, spec, args.noise)
    write_manifest(out / "manifest.json", args.seed, args.noise, [spec])
    print(f"wrote {n} frames to {out / 'sensor.3dt'}")
    return 0


def cmd_replay(args) -> int:
    data = Path(args.input).read_bytes()
    result, diagnostics = replay_bytes(data, _replay_config(args))
    print(diagnostics.to_json())
    if result is None:
        raise DataError(f"no frames decoded from {args.input}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.pointer.write_csv(out / "pointer.csv")
    write_events_jsonl(out / "gestures.jsonl", result.events)
    print(f"wrote {len(result.pointer)} pointer rows, {len(result.events)} gesture events")
    return 0


def cmd_eval(args) -> int:
    pred = read_csv(args.pred)
    truth = read_csv(args.truth)
    try:
        metrics = trial_metrics(pred, truth)
    except TrajectoryMismatchError as exc:
        raise DataError(f"{args.pred} vs {args.truth}: {exc}") from exc
    if args.out:
        Path(args.out).write_text(json.dumps(metrics) + "\n", encoding="utf-8")
    print(
        f"mean position error {metrics['mean_pos_err_mm']:.4f} mm, "
        f"mean orientation error {metrics['mean_ori_err_deg']:.4f} deg "
        f"over {metrics['n']} samples"
    )
    return 0


def _score_chunk(root: str, mount: str, trials: list[tuple[str, TrialSpec]]) -> list:
    """Replay a chunk of campaign trials in lockstep; score and write each as it ends."""
    streams = []
    for rel, _ in trials:
        frames, _ = decode_stream((Path(root) / rel / "sensor.3dt").read_bytes())
        if not frames:
            raise DataError(f"{rel}: no frames decoded")
        streams.append(FrameColumns.of(frames))
    config = ReplayConfig(mount=MountMode.from_name(mount), with_gestures=False)
    results = [None] * len(trials)
    for i, replayed in replay_lockstep(streams, config):
        rel, spec = trials[i]
        trial_dir = Path(root) / rel
        truth = read_csv(trial_dir / "truth.csv")
        try:
            trial = evaluate_trial(spec, replayed.pointer, truth)
        except TrajectoryMismatchError as exc:
            raise DataError(f"{rel}: {exc}") from exc
        (trial_dir / "metrics.json").write_text(trial.metrics_json() + "\n", encoding="utf-8")
        results[i] = trial
    return results


def cmd_campaign(args) -> int:
    root = Path(args.dir)
    manifest = root / "manifest.json"
    if not manifest.exists():
        raise DataError(f"{manifest} not found; run `simulate --campaign` first")
    _, _, specs, dirs = read_manifest(manifest)
    results = map_chunks(partial(_score_chunk, str(root), args.mount), list(zip(dirs, specs)), args.jobs)
    try:
        summary = summarize_campaign(results)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    write_summary(summary, Path(args.out))
    g = summary.grand
    print(
        f"grand mean position error {g['mean_pos_err_mm']:.4f} mm, "
        f"orientation error {g['mean_ori_err_deg']:.4f} deg over {g['n']} samples"
    )
    print(
        f"texture ANOVA: F={summary.anova.F:.4f} "
        f"df=({summary.anova.df_between},{summary.anova.df_within}) p={summary.anova.p:.4f}"
    )
    return 0


def cmd_gesture(args) -> int:
    cfg = load_gesture_config(args.gesture_config, args.texture) if args.gesture_config else GestureConfig()
    frames = script_gesture_trace(args.kind, cfg)
    write_trace(args.out, frames)
    print(f"wrote {len(frames)} frames of a scripted {args.kind} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="touchtrace", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a trial or campaign")
    p.add_argument("--texture", choices=TEXTURE_NAMES, default="mousepad")
    p.add_argument("--size", type=int, choices=SIZES_MM, default=42)
    p.add_argument("--shape", choices=SHAPE_NAMES, default="circle")
    p.add_argument("--rep", type=int, default=1)
    p.add_argument("--tilt", type=float, default=None, help="plane tilt in degrees; default: drawn from seed")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--noise", choices=NOISE_PRESETS, default="default")
    p.add_argument("--rate", type=float, default=50.0)
    p.add_argument("--speed", type=float, default=30.0)
    p.add_argument("--campaign", action="store_true", help="generate the full 3x4x6x5 grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="decode + fuse + detect gestures")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mount", choices=[m.value for m in MountMode], default="fingerpad")
    p.add_argument("--filter-config", default=None)
    p.add_argument("--gesture-config", default=None)
    p.add_argument("--texture", choices=TEXTURE_NAMES, default="mousepad")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("eval", help="score a replayed pointer against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("campaign", help="replay + score every trial in a campaign dir")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes; each replays one contiguous chunk of the grid in lockstep",
    )
    p.add_argument("--mount", choices=[m.value for m in MountMode], default="fingerpad")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("gesture", help="write a scripted gesture fixture")
    p.add_argument("--kind", choices=GESTURE_KINDS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gesture-config", default=None)
    p.add_argument("--texture", choices=TEXTURE_NAMES, default="mousepad")
    p.set_defaults(func=cmd_gesture)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
