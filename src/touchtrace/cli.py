"""Command line entry point.

Commands:

    simulate   write sensor.3dt + truth.csv (+ manifest) for one trial or
               the whole 360-trial campaign grid
    replay     decode a .3dt stream into pointer.csv + gestures.jsonl
    eval       score a pointer.csv against a truth.csv
    campaign   check every trial of a simulated campaign, then replay them
               in lockstep, score them and write; a bad trial writes nothing
    gesture    write a scripted gesture fixture trace

Every command is deterministic given its flags and seed: re-running
writes byte-identical output. Exit codes: 0 success, 1 data error,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .evaluate import evaluate_trial, match_truth, summarize_campaign
from .geom import Vec3
from .gestures import GestureConfig, write_events_jsonl
from .interaction import MountMode
from .orientation import FilterConfig
from .pipeline import ReplayConfig, check_timestamps, replay_bytes, replay_lockstep, score_trials
from .protocol import FrameColumns, decode_columns, write_trace
from .simulate import (
    GESTURE_KINDS,
    NOISE_PRESETS,
    SHAPE_NAMES,
    SIZES_MM,
    TEXTURE_NAMES,
    TrialSpec,
    campaign_specs,
    draw_tilt,
    noise_for_preset,
    read_manifest,
    script_gesture_trace,
    simulate_by_cell,
    time_base,
    trial_dirname,
    write_manifest,
)
from .trajectory import Trajectory, read_csv


# `simulate` flags that set up one trial, with their defaults; no --tilt
# draws the tilt from the seed
_TRIAL_FLAGS = {
    "texture": "mousepad", "size": 42, "shape": "circle", "rep": 1, "tilt": None, "rate": 50.0, "speed": 30.0
}


def load_config(path, cls, texture=None) -> FilterConfig | GestureConfig:
    """Read a flat key=value file into a ``cls`` (FilterConfig or GestureConfig).

    Keys are the field names of ``cls``; a value parses as the type of the
    field's default, and a Vec3 as three comma-separated floats. Given a
    ``texture``, a ``texture.key`` line sets a key for that surface only;
    every line is checked, whichever surface it names.
    """
    kinds = {f.name: type(f.default) for f in fields(cls)}
    base: dict[str, object] = {}
    override: dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if "=" not in line:
                raise ValueError(f"expected key=value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            target = base
            if texture is not None and "." in key:
                prefix, _, key = key.partition(".")
                if prefix not in TEXTURE_NAMES:
                    raise ValueError(f"unknown texture {prefix!r}")
                target = override if prefix == texture else {}
            if key not in kinds:
                raise ValueError(f"unknown config key {key!r}")
            if kinds[key] is Vec3:
                parts = value.split(",")
                if len(parts) != 3:
                    raise ValueError(f"{key} needs 3 components")
                target[key] = Vec3(*map(float, parts))
            else:
                target[key] = kinds[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    try:
        return cls(**{**base, **override})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _gesture_config(args) -> GestureConfig:
    return load_config(args.gesture_config, GestureConfig, args.texture) if args.gesture_config else GestureConfig()


def _replay_config(args) -> ReplayConfig:
    return ReplayConfig(
        filter_config=load_config(args.filter_config, FilterConfig) if args.filter_config else FilterConfig(),
        gesture_config=_gesture_config(args),
        mount=MountMode(args.mount),
    )


def _write_trials(out: Path, specs: list[TrialSpec], dirs: list[str], noise_preset: str) -> int:
    """Synthesize by grid cell; write trial i's sensor.3dt and truth.csv under out/dirs[i]."""
    total = 0
    for i, truth, block in simulate_by_cell(specs, noise_for_preset(noise_preset)):
        (out / dirs[i]).mkdir(parents=True, exist_ok=True)
        write_trace(out / dirs[i] / "sensor.3dt", block)
        truth.write_csv(out / dirs[i] / "truth.csv")
        total += len(block)
    return total


def cmd_simulate(args) -> int:
    if args.seed < 0:  # checked before the seed reaches numpy, whose error names no seed
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    out = Path(args.out)
    given = {name: value for name in _TRIAL_FLAGS if (value := getattr(args, name)) is not None}
    if args.campaign:
        if given:
            args.parser.error(f"argument --campaign: not allowed with {', '.join('--' + name for name in given)}")
        specs = campaign_specs(args.seed)
        out.mkdir(parents=True, exist_ok=True)
        write_manifest(out / "manifest.json", args.seed, args.noise, specs)
        total = _write_trials(out, specs, [trial_dirname(i, spec) for i, spec in enumerate(specs)], args.noise)
        print(f"wrote {len(specs)} trials ({total} frames) under {out}")
        return 0

    t = {**_TRIAL_FLAGS, **given}
    tilt = draw_tilt(args.seed) if t["tilt"] is None else t["tilt"]
    spec = TrialSpec(t["texture"], t["size"], t["shape"], t["rep"], tilt, args.seed, t["rate"], t["speed"])
    n = _write_trials(out, [spec], [""], args.noise)
    write_manifest(out / "manifest.json", args.seed, args.noise, [spec])
    print(f"wrote {n} frames to {out / 'sensor.3dt'}")
    return 0


def cmd_replay(args) -> int:
    data = Path(args.input).read_bytes()
    result, diagnostics = replay_bytes(data, _replay_config(args))
    print(diagnostics.to_json())
    if result is None:
        raise ValueError(f"no frames decoded from {args.input}")
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
        matched, dropped = match_truth(pred.t_ms, truth)
        trial = evaluate_trial(None, pred, matched)
        text = trial.metrics_json() + "\n"
    except ValueError as exc:
        raise ValueError(f"{args.pred} vs {args.truth}: {exc}") from exc
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    _print_dropped(dropped, len(truth))
    print(
        f"mean position error {trial.mean_pos_err_mm:.4f} mm, "
        f"mean orientation error {trial.mean_ori_err_deg:.4f} deg "
        f"over {trial.n_samples} samples"
    )
    return 0


def _print_dropped(dropped: int, rows: int) -> None:
    if dropped:
        print(f"dropped frames: {dropped} of {rows} truth rows have no prediction and are not scored")


def cmd_campaign(args) -> int:
    root = Path(args.dir)
    manifest = root / "manifest.json"
    if not manifest.exists():
        raise ValueError(f"{manifest} not found; run `simulate --campaign` first")
    _, _, specs, dirs = read_manifest(manifest)
    for path in [Path(args.out), *(root / rel / "metrics.json" for rel in dirs)]:
        path.unlink(missing_ok=True)  # a campaign refused below leaves no scores, not the last run's
    # four passes: check every trial's files, replay them in lockstep, score them, then write
    checked = [_named(rel, _checked_trial, root / rel, spec) for rel, spec in zip(dirs, specs)]
    pointers = [r.pointer for r in replay_lockstep([columns for columns, _, _ in checked])]
    results = score_trials(specs, pointers, lambda group: Trajectory.stack([checked[i][1] for i in group]))
    texts = [_named(rel, result.metrics_json) for rel, result in zip(dirs, results)]
    for rel, text in zip(dirs, texts):
        (root / rel / "metrics.json").write_text(text + "\n", encoding="utf-8")
    summary = summarize_campaign(results)  # the grid check: a partial campaign's trials are scored and written
    Path(args.out).write_text(summary.to_json() + "\n", encoding="utf-8")
    dropped = sum(lost for _, _, lost in checked)
    _print_dropped(dropped, dropped + sum(len(truth) for _, truth, _ in checked))
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


def _named(rel: str, step, *args):
    """``step(*args)`` for the trial in dir ``rel``; an error names the dir."""
    try:
        return step(*args)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{rel}: {exc}") from exc


def _checked_trial(trial_dir: Path, spec: TrialSpec) -> tuple[FrameColumns, Trajectory, int]:
    """A trial's decoded frames, the rows of its ``truth.csv`` at their times, and how many frames it lost."""
    columns, _ = decode_columns((trial_dir / "sensor.3dt").read_bytes())
    if not len(columns):
        raise ValueError("no frames decoded")
    check_timestamps(columns.t_ms)
    truth = read_csv(trial_dir / "truth.csv")
    t_ms, _ = time_base(spec)
    if truth.t_ms.tolist() != t_ms.tolist():
        raise ValueError(f"truth.csv is not on its spec's time base: {len(truth)} rows against {len(t_ms)}")
    return (columns, *match_truth(columns.t_ms, truth))


def cmd_gesture(args) -> int:
    frames = script_gesture_trace(args.kind, _gesture_config(args))
    write_trace(args.out, frames)
    print(f"wrote {len(frames)} frames of a scripted {args.kind} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="touchtrace", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a trial or campaign")
    p.add_argument("--texture", choices=TEXTURE_NAMES)
    p.add_argument("--size", type=int, choices=SIZES_MM)
    p.add_argument("--shape", choices=SHAPE_NAMES)
    p.add_argument("--rep", type=int)
    p.add_argument("--tilt", type=float, help="plane tilt in degrees; default: drawn from seed")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--noise", choices=NOISE_PRESETS, default="default")
    p.add_argument("--rate", type=float)
    p.add_argument("--speed", type=float)
    p.add_argument("--campaign", action="store_true", help="generate the full 3x4x6x5 grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate, parser=p)

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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
