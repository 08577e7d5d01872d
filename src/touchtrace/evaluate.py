"""Accuracy metrics, per-cell aggregation and one-way ANOVA.

``evaluate_trials`` scores in one pass: it checks that prediction and
truth share their timestamps, aligns, and measures. The device reports
only relative position, so predicted trajectories are aligned to ground
truth by translating the first sample onto it; no rotation or scale
correction is ever applied. Position error is then the per-sample 3D
Euclidean distance, orientation error the angle between the
finger-forward axes R(q)·x̂.

Per-trial statistics use the population sigma; the ANOVA across the
three textures uses the classical between/within mean squares and the
closed form of the F survival function at two between-group dfs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .geom import EX, rotate_vectors
from .simulate import GRID, SHAPE_NAMES, SIZES_MM, TEXTURE_NAMES, TrialSpec
from .trajectory import Trajectory


@dataclass(frozen=True)
class TrialResult:
    spec: TrialSpec | None
    mean_pos_err_mm: float
    pos_err_sigma: float
    mean_ori_err_deg: float
    ori_err_sigma: float
    n_samples: int

    def metrics_json(self) -> str:
        """The scores as one JSON object; a score that is not finite is an error: RFC 8259 has no number for it."""
        scores = {
            "mean_pos_err_mm": self.mean_pos_err_mm,
            "pos_sigma": self.pos_err_sigma,
            "mean_ori_err_deg": self.mean_ori_err_deg,
            "ori_sigma": self.ori_err_sigma,
            "n": self.n_samples,
        }
        if not all(map(math.isfinite, scores.values())):
            raise ValueError(f"score is not finite: {scores}")
        return json.dumps(scores)


def evaluate_trials(specs: list[TrialSpec | None], pred: Trajectory, truth: Trajectory) -> list[TrialResult]:
    """Check, align and score each trial of a stack in one pass; every
    statistic runs along one trial's frames, so no result depends on the others."""
    if len(pred) != len(truth):
        raise ValueError(
            f"sample count mismatch: pred has {len(pred)}, truth has {len(truth)}"
        )
    if len(pred) == 0:
        raise ValueError("cannot align empty trajectories")
    mismatch = pred.t_ms != truth.t_ms
    if mismatch.any():
        at = np.unravel_index(np.argmax(mismatch), mismatch.shape)
        raise ValueError(
            f"timestamp mismatch at sample {at[-1]}: pred {pred.t_ms[at]} ms vs truth {truth.t_ms[at]} ms"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # huge inputs score inf or nan; metrics_json refuses them
        aligned = pred.pos_mm + (truth.pos_mm[..., :1, :] - pred.pos_mm[..., :1, :])
        pos_err = np.linalg.norm(aligned - truth.pos_mm, axis=-1)
        fa, fb = (rotate_vectors(q.reshape(-1, 4), EX.as_tuple()) for q in (pred.quat, truth.quat))
        dots = np.clip(np.einsum("...i,...i->...", fa, fb), -1.0, 1.0).reshape(pred.t_ms.shape)
        ori_err = np.degrees(np.arccos(dots))
        stats = [np.reshape(v, -1).tolist() for err in (pos_err, ori_err) for v in (err.mean(-1), err.std(-1))]
        return [TrialResult(spec, *values, len(truth)) for spec, *values in zip(specs, *stats, strict=True)]


def evaluate_trial(spec: TrialSpec | None, pred: Trajectory, truth: Trajectory) -> TrialResult:
    """Align pred to truth and score it; ``spec`` only labels the result."""
    return evaluate_trials([spec], pred, truth)[0]


MAX_DROPPED_SHARE = 0.1  # a policy, not a measurement: the largest share of its truth's rows a scored replay may lack


def match_truth(t_ms: np.ndarray, truth: Trajectory) -> tuple[Trajectory, int]:
    """The rows of ``truth`` at a replay's times ``t_ms``, and the count of frames the replay dropped.

    Every time must appear in the truth, in order; an error names the first
    that does not. The truth rows the replay lacks are its dropped frames,
    and a replay lacking more than ``MAX_DROPPED_SHARE`` of them is refused.
    """
    at = np.searchsorted(truth.t_ms, t_ms)
    unmatched = at == len(truth)
    unmatched[~unmatched] = truth.t_ms[at[~unmatched]] != t_ms[~unmatched]
    if unmatched.any():
        k = int(np.argmax(unmatched))
        raise ValueError(f"timestamp mismatch at sample {k}: pred {t_ms[k]} ms has no truth row")
    backward = np.diff(at) <= 0
    if backward.any():
        k = int(np.argmax(backward)) + 1
        raise ValueError(f"timestamp order at sample {k}: pred {t_ms[k]} ms after {t_ms[k - 1]} ms")
    dropped = len(truth) - len(t_ms)
    if dropped > MAX_DROPPED_SHARE * len(truth):
        raise ValueError(
            f"sample count mismatch: pred has {len(t_ms)}, truth has {len(truth)}; "
            f"{dropped} truth rows have no prediction, more than {MAX_DROPPED_SHARE:.0%} of them"
        )
    return Trajectory(truth.t_ms[at], truth.pos_mm[at], truth.quat[at]), dropped


@dataclass(frozen=True)
class AnovaResult:
    F: float
    df_between: int
    df_within: int
    p: float


def one_way_anova(groups) -> AnovaResult:
    """Classical one-way F test over three groups of observations.

    F = MSB / MSW; p = survival of F(2, df_within), which is exactly
    x ** (df_within / 2) at x = df_within / (df_within + 2 F). Completely
    degenerate input (every observation identical) yields F = 0, p = 1.
    """
    groups = [np.asarray(g, dtype=float) for g in groups]
    if len(groups) != 3:
        raise ValueError(f"one_way_anova needs 3 groups, got {len(groups)}")
    if any(len(g) < 2 for g in groups):
        raise ValueError("one_way_anova needs >= 2 values in each group")
    n_total = sum(len(g) for g in groups)
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range numpy gives inf, as ``_moments`` does
        grand = sum(float(g.sum()) for g in groups) / n_total
        ssw = sum(float(((g - g.mean()) ** 2).sum()) for g in groups)
        try:
            ssb = sum(len(g) * (float(g.mean()) - grand) ** 2 for g in groups)
        except OverflowError:  # the float power raises where numpy's gives inf
            ssb = math.inf
    df_b = 2
    df_w = n_total - 3
    msb = ssb / df_b
    msw = ssw / df_w
    if msw == 0.0:
        if msb == 0.0:
            return AnovaResult(F=0.0, df_between=df_b, df_within=df_w, p=1.0)
        return AnovaResult(F=math.inf, df_between=df_b, df_within=df_w, p=0.0)
    f = msb / msw
    p = (df_w / (df_w + 2 * f)) ** (df_w / 2)
    return AnovaResult(F=f, df_between=df_b, df_within=df_w, p=p)


@dataclass(frozen=True)
class CampaignSummary:
    per_size: dict
    per_texture: dict
    per_shape: dict
    grand: dict
    anova: AnovaResult

    def to_json(self) -> str:
        """The summary as one JSON object; a number that is not finite is an error naming its table and
        field, as in ``TrialResult.metrics_json``."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}  # the tables and grand, in field order
        payload["anova"] = {"F": self.anova.F, "df": [self.anova.df_between, self.anova.df_within], "p": self.anova.p}
        for table, entries in payload.items():
            for key, value in entries.items():
                for field, number in value.items() if isinstance(value, dict) else [("", value)]:
                    if isinstance(number, float) and not math.isfinite(number):
                        raise ValueError(f"summary {table}.{key}{field and '.' + field} is not finite: {number}")
        return json.dumps(payload, indent=2)


def _cell_stats(results) -> dict:
    """Sample-weighted mean and sigma reconstructed from per-trial moments."""
    n = sum(r.n_samples for r in results)
    pos_mean, pos_sigma = _moments(results, n, "mean_pos_err_mm", "pos_err_sigma")
    ori_mean, ori_sigma = _moments(results, n, "mean_ori_err_deg", "ori_err_sigma")
    return {"n": n, "trials": len(results), "mean_pos_err_mm": pos_mean, "pos_sigma": pos_sigma,
            "mean_ori_err_deg": ori_mean, "ori_sigma": ori_sigma}


def _moments(results, n: int, mean: str, sigma: str) -> tuple[float, float]:
    """One score's mean and sigma over the ``n`` samples of ``results``; a moment past the float range is inf."""
    m = math.inf  # if the sum of the means overflows
    try:
        m = math.fsum(getattr(r, mean) * r.n_samples for r in results) / n
        sq = math.fsum((getattr(r, sigma) ** 2 + getattr(r, mean) ** 2) * r.n_samples for r in results)
        return m, math.sqrt(max(0.0, sq / n - m**2))
    except OverflowError:  # fsum's intermediate overflow, or a square past the float range
        return m, math.inf


def summarize_campaign(results) -> CampaignSummary:
    """Aggregate the full 360-trial grid; a missing or repeated cell is an error."""
    results = list(results)
    seen = set()
    for r in results:
        key = (r.spec.texture, r.spec.size_mm, r.spec.shape, r.spec.rep)
        if key in seen:
            raise ValueError("campaign has cell {}/{}/{}/rep{} more than once".format(*key))
        seen.add(key)
    missing = ["{}/{}/{}/rep{}".format(*cell) for cell in GRID if cell not in seen]
    if missing:
        preview = ", ".join(missing[:6]) + ("..." if len(missing) > 6 else "")
        raise ValueError(f"campaign is missing {len(missing)} cells: {preview}")

    tables = {
        name: {str(value): _cell_stats([r for r in results if getattr(r.spec, field) == value]) for value in values}
        for name, field, values in (
            ("per_size", "size_mm", SIZES_MM),
            ("per_texture", "texture", TEXTURE_NAMES),
            ("per_shape", "shape", SHAPE_NAMES),
        )
    }
    anova = one_way_anova(
        [
            [r.mean_pos_err_mm for r in results if r.spec.texture == tex]
            for tex in TEXTURE_NAMES
        ]
    )
    return CampaignSummary(**tables, grand=_cell_stats(results), anova=anova)

