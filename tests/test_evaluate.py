import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from conftest import MIXED_SPECS
from touchtrace.evaluate import (
    AnovaResult,
    TrialResult,
    evaluate_trial,
    evaluate_trials,
    one_way_anova,
    summarize_campaign,
)
from touchtrace.pipeline import replay_lockstep
from touchtrace.simulate import NOISE_PRESETS, campaign_specs, gen_trajectories, group_by_cell, noise_for_preset, simulate_by_cell
from touchtrace.trajectory import CSV_HEADER, Trajectory, read_csv


def traj(n=10, offset=(0.0, 0.0, 0.0), yaw_deg=0.0):
    t = np.arange(n) * 20
    pos = np.zeros((n, 3))
    pos[:, 0] = np.linspace(0, 9, n)
    pos += np.asarray(offset)
    half = math.radians(yaw_deg) / 2
    quat = np.tile([math.cos(half), 0.0, 0.0, math.sin(half)], (n, 1))
    return Trajectory(t, pos, quat)


def test_align_identity():
    a = traj()
    r = evaluate_trial(None, a, a)
    assert r.mean_pos_err_mm == 0.0 and r.pos_err_sigma == 0.0


def test_align_removes_constant_offset():
    truth = traj()
    pred = traj(offset=(1.0, 0.0, 0.0))
    r = evaluate_trial(None, pred, truth)
    assert r.mean_pos_err_mm == pytest.approx(0.0, abs=1e-12)


def test_align_keeps_drift():
    n = 10
    truth = traj(n)
    pred = traj(n)
    pred.pos_mm[5:, 1] += 2.0  # drift after t0 must survive alignment
    r = evaluate_trial(None, pred, truth)
    assert r.mean_pos_err_mm == pytest.approx(2.0 * (n - 5) / n)


def test_align_timestamp_mismatch_raises():
    truth = traj()
    pred = traj()
    pred.t_ms[3] += 1
    with pytest.raises(ValueError, match="sample 3"):
        evaluate_trial(None, pred, truth)


def test_position_error_identical():
    a = traj()
    r = evaluate_trial(None, a, a)
    assert r.mean_pos_err_mm == 0.0 and r.pos_err_sigma == 0.0
    assert r.n_samples == len(a)


def test_position_error_offset_after_alignment():
    n = 10
    truth = traj(n)
    pred = traj(n)
    pred.pos_mm[1:, 0] += 1.0
    r = evaluate_trial(None, pred, truth)
    assert r.mean_pos_err_mm == pytest.approx((n - 1) / n)


def test_position_error_symmetric():
    a = traj()
    b = traj()
    b.pos_mm[:, 1] += np.linspace(0, 2, len(b))
    assert evaluate_trial(None, a, b).mean_pos_err_mm == pytest.approx(evaluate_trial(None, b, a).mean_pos_err_mm)


def test_orientation_error_identical_and_offset():
    a = traj()
    assert evaluate_trial(None, a, a).mean_ori_err_deg == 0.0
    b = traj(yaw_deg=90.0)
    r = evaluate_trial(None, a, b)
    assert r.mean_ori_err_deg == pytest.approx(90.0, abs=1e-9)
    assert r.ori_err_sigma == pytest.approx(0.0, abs=1e-9)


def test_length_mismatch_raises():
    with pytest.raises(ValueError, match="^sample count mismatch: pred has 5, truth has 6$"):
        evaluate_trial(None, traj(5), traj(6))


def test_anova_hand_computed_fixture():
    res = one_way_anova([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    assert res.F == pytest.approx(3.0, abs=1e-12)
    assert (res.df_between, res.df_within) == (2, 6)
    # closed form: I_{0.5}(3, 1) = 0.5^3
    assert res.p == pytest.approx(0.125, abs=1e-9)


def test_anova_identical_groups_degenerate():
    res = one_way_anova([[2, 2], [2, 2], [2, 2]])
    assert res.F == 0.0
    assert res.p == 1.0


def test_anova_translation_and_scale_invariance():
    base = [[1.0, 2, 3], [2, 3, 4], [3, 4, 5]]
    shifted = [[x + 17.5 for x in g] for g in base]
    scaled = [[x * 3.25 for x in g] for g in base]
    f0 = one_way_anova(base).F
    assert one_way_anova(shifted).F == pytest.approx(f0, abs=1e-9)
    assert one_way_anova(scaled).F == pytest.approx(f0, abs=1e-9)


@pytest.mark.parametrize("groups", [3])
def test_anova_p_monotone_in_f(groups):
    """p must fall as F rises for fixed dfs."""
    results = [one_way_anova([[j * k, j * k + 1, j * k + 2, j * k + 4] for j in range(groups)])
               for k in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)]
    assert results[0].F == 0.0 and results[0].p == 1.0
    assert all(a.F < b.F and a.p > b.p for a, b in zip(results, results[1:]))


def test_anova_three_groups_p_is_the_closed_form():
    """df_between = 2: p = I_x(df_w / 2, 1) = x ** (df_w / 2), bit for bit."""
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 120):
        res = one_way_anova([rng.normal(mu, 1.0, n) for mu in (0.0, 0.3, 0.6)])
        x = res.df_within / (res.df_within + 2 * res.F)
        assert res.p == x ** (res.df_within / 2)


def test_anova_extreme_f():
    assert 0.0 < one_way_anova([[0, 1], [1e8, 1e8 + 1], [2e8, 2e8 + 1]]).p < 1e-20
    assert one_way_anova([[0, 2], [1e-12, 2], [0, 2 + 1e-12]]).p == 1.0


def test_anova_past_the_float_range_is_not_finite_and_the_summary_refuses_it():
    # a group mean's square past the float range: F is inf, or nan where the spread within overflows too,
    # with no OverflowError and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        between = one_way_anova([[1e200, 1e200, 1e200], [1, 2, 3], [4, 5, 6]])
        both = one_way_anova([[1e200, 2e200, 3e200], [1, 2, 3], [4, 5, 6]])
    assert (between.F, between.p) == (math.inf, 0.0)
    assert math.isnan(both.F) and math.isnan(both.p)
    summary = dataclasses.replace(summarize_campaign(_fake_results()), anova=both)
    with pytest.raises(ValueError, match=r"^summary anova\.F is not finite: nan$"):
        summary.to_json()


@pytest.mark.parametrize("count", [2, 4])
def test_anova_takes_exactly_three_groups(count):
    with pytest.raises(ValueError, match=f"^one_way_anova needs 3 groups, got {count}$"):
        one_way_anova([[k, k + 1.0, k + 3.0] for k in range(count)])


def test_anova_validates_input():
    with pytest.raises(ValueError):
        one_way_anova([[1, 2]])
    with pytest.raises(ValueError):
        one_way_anova([[1], [2]])
    with pytest.raises(ValueError, match="^one_way_anova needs >= 2 values in each group$"):
        one_way_anova([[1, 2], [3], [4, 5]])


def _fake_results(campaign_seed=1):
    results = []
    for spec in campaign_specs(campaign_seed):
        n = 100 + spec.size_mm
        results.append(
            TrialResult(
                spec=spec,
                mean_pos_err_mm=0.01 * spec.size_mm,
                pos_err_sigma=0.005 * spec.size_mm,
                mean_ori_err_deg=0.02 * spec.size_mm,
                ori_err_sigma=0.01,
                n_samples=n,
            )
        )
    return results


def test_summarize_campaign_structure_and_weighting():
    results = _fake_results()
    summary = summarize_campaign(results)
    assert set(summary.per_size) == {"12", "21", "42", "84"}
    assert set(summary.per_texture) == {"mousepad", "wood", "jeans"}
    assert len(summary.per_shape) == 6
    # grand mean equals the sample-weighted mean of per-trial means
    n_total = sum(r.n_samples for r in results)
    expected = sum(r.mean_pos_err_mm * r.n_samples for r in results) / n_total
    assert summary.grand["mean_pos_err_mm"] == pytest.approx(expected, abs=1e-9)
    assert summary.grand["n"] == n_total
    # identical per-texture populations: no significance
    assert summary.anova.p > 0.05
    assert summary.anova.df_between == 2
    assert summary.anova.df_within == 357


def test_summarize_campaign_missing_cells():
    results = _fake_results()[:-3]
    with pytest.raises(ValueError, match="missing 3 cells"):
        summarize_campaign(results)


def test_summarize_campaign_rejects_a_repeated_cell():
    results = _fake_results()
    with pytest.raises(ValueError, match="cell wood/21/vline/rep3 more than once"):
        summarize_campaign(results + [results[157]])


def test_summary_json_schema():
    summary = summarize_campaign(_fake_results())
    payload = json.loads(summary.to_json())
    assert set(payload) == {"per_size", "per_texture", "per_shape", "grand", "anova"}
    assert set(payload["anova"]) == {"F", "df", "p"}
    assert payload["anova"]["df"] == [2, 357]


def test_summary_json_refuses_a_number_that_is_not_finite():
    results = _fake_results()
    # each texture's trials share one mean and the textures differ: F is inf, which JSON cannot carry
    level = {"mousepad": 1.0, "wood": 2.0, "jeans": 3.0}
    summary = summarize_campaign([dataclasses.replace(r, mean_pos_err_mm=level[r.spec.texture]) for r in results])
    assert summary.anova.F == math.inf
    with pytest.raises(ValueError, match=r"^summary anova\.F is not finite: inf$"):
        summary.to_json()
    # a cell's moments past the float range: fsum's intermediate overflow, a square, a product
    for damage, field in (
        (dict(pos_err_sigma=1.2e153), "per_size.12.pos_sigma"),
        (dict(ori_err_sigma=1e155), "per_size.12.ori_sigma"),
        (dict(mean_ori_err_deg=1e307), "per_size.12.mean_ori_err_deg"),
    ):
        wide = [dataclasses.replace(r, **damage) if r.spec.size_mm == 12 else r for r in results]
        with pytest.raises(ValueError, match=rf"^summary {re.escape(field)} is not finite: inf$"):
            summarize_campaign(wide).to_json()


def test_metrics_json_schema():
    r = _fake_results()[0]
    payload = json.loads(r.metrics_json())
    assert set(payload) == {"mean_pos_err_mm", "pos_sigma", "mean_ori_err_deg", "ori_sigma", "n"}


def test_evaluate_trial_perfect_prediction():
    spec = campaign_specs(3)[0]
    truth = gen_trajectories([spec]).trial(0)
    pred = Trajectory(truth.t_ms.copy(), truth.pos_mm + 5.0, truth.quat.copy())
    result = evaluate_trial(spec, pred, truth)
    assert result.mean_pos_err_mm == pytest.approx(0.0, abs=1e-9)
    assert result.mean_ori_err_deg == pytest.approx(0.0, abs=1e-5)
    assert result.n_samples == len(truth)


def test_trajectory_csv_round_trip(tmp_path):
    t = traj(7, offset=(0.25, -1.5, 3.0), yaw_deg=33.0)
    path = tmp_path / "truth.csv"
    t.write_csv(path)
    back = read_csv(path)
    assert np.array_equal(back.t_ms, t.t_ms)
    assert np.allclose(back.pos_mm, t.pos_mm, atol=1e-9)
    assert np.allclose(back.quat, t.quat, atol=1e-9)


@pytest.mark.parametrize("preset", NOISE_PRESETS)
def test_group_scoring_equals_groups_of_one(preset):
    blocks = {i: block for i, _, block in simulate_by_cell(MIXED_SPECS, noise_for_preset(preset))}
    for cell in group_by_cell(MIXED_SPECS):
        group = [MIXED_SPECS[i] for i in cell]
        truth = gen_trajectories(group)
        replayed = replay_lockstep([blocks[i] for i in cell])
        pred = Trajectory.stack([replayed[k].pointer for k in range(len(group))])
        results = evaluate_trials(group, pred, truth)
        assert results == [evaluate_trial(spec, pred.trial(k), truth.trial(k)) for k, spec in enumerate(group)]
        assert all(r.mean_pos_err_mm > 0.0 for r in results)


def test_group_scoring_names_a_timestamp_mismatch_in_any_trial():
    truth = Trajectory.stack([traj(), traj(offset=(1.0, 0.0, 0.0))])
    pred = Trajectory.stack([traj(), traj()])
    pred.t_ms[1, 3] += 1
    with pytest.raises(ValueError, match="^timestamp mismatch at sample 3: pred 61 ms vs truth 60 ms$"):
        evaluate_trials([None, None], pred, truth)


def test_write_csv_formats_every_value_to_10_significant_digits(tmp_path):
    pos = [[-0.0, 1e-300, 123456789.123456], [math.nan, math.inf, -math.inf], [1 / 3, -2 / 3, 1e22]]
    t = Trajectory([0, 20, 2**40 + 1], pos, [[1.0, 0.0, 0.0, 0.0], [0.5, -0.5, 0.5, -0.5], [0.1, 0.2, 0.3, 0.9]])
    path = tmp_path / "t.csv"
    t.write_csv(path)
    rows = [",".join([str(ms)] + [f"{v:.10g}" for v in p + q]) for ms, p, q in zip(t.t_ms.tolist(), pos, t.quat.tolist())]
    assert path.read_text() == "\n".join([CSV_HEADER, *rows]) + "\n"
    assert rows[1] == "20,nan,inf,-inf,0.5,-0.5,0.5,-0.5"


def test_read_csv_names_a_bad_header_or_the_first_malformed_row(tmp_path):
    path = tmp_path / "t.csv"
    good = "0,1,2,3,1,0,0,0"
    cases = {
        "t,x,y\n" + good: f"{path}: expected header 't_ms,x_mm,y_mm,z_mm,qw,qx,qy,qz'",
        "": f"{path}: expected header 't_ms,x_mm,y_mm,z_mm,qw,qx,qy,qz'",
        # a short row then a long one: as many fields as two good rows
        f"{CSV_HEADER}\n{good}\n20,1,2,3,1,0,0\n40,1,2,3,1,0,0,0,9": f"{path}: malformed row '20,1,2,3,1,0,0'",
        f"{CSV_HEADER}\n{good}\n20,1,2,3,1,0,0,0,": f"{path}: malformed row '20,1,2,3,1,0,0,0,'",
        f"{CSV_HEADER}\n{good}\n20.5,1,2,3,1,0,0,0": (
            f"{path}: invalid literal for int() with base 10: '20.5' in row '20.5,1,2,3,1,0,0,0'"
        ),
        f"{CSV_HEADER}\n{good}\n20,1,2,x,1,0,0,0\n40,1,2": (
            f"{path}: could not convert string to float: 'x' in row '20,1,2,x,1,0,0,0'"
        ),
        f"{CSV_HEADER}\n{good}\n{2**70},1,2,3,1,0,0,0": f"{path}: t_ms out of int64 range in row '{2**70},1,2,3,1,0,0,0'",
        f"{CSV_HEADER}\n{good}\n{2**63},1,2,3,1,0,0,0": f"{path}: t_ms out of int64 range in row '{2**63},1,2,3,1,0,0,0'",
        f"{CSV_HEADER}\n{good}\n{-(2**63) - 1},1,2,3,1,0,0,0": (
            f"{path}: t_ms out of int64 range in row '{-(2**63) - 1},1,2,3,1,0,0,0'"
        ),
        # the first offending row is named, whichever check it fails
        f"{CSV_HEADER}\n{good}\n20,nan,2,3,1,0,0,0\n{2**70},1,2,3,1,0,0,0": f"{path}: non-finite value in row '20,nan,2,3,1,0,0,0'",
        f"{CSV_HEADER}\n{good}\n{2**70},1,2,3,1,0,0,0\n40,nan,2,3,1,0,0,0": (
            f"{path}: t_ms out of int64 range in row '{2**70},1,2,3,1,0,0,0'"
        ),
        **{
            f"{CSV_HEADER}\n{good}\n{row}\n40,1,2,3,1,0,0,0": f"{path}: non-finite value in row {row!r}"
            for bad in ("nan", "inf", "-inf", "NaN", "Infinity")
            for row in (f"20,1,{bad},3,1,0,0,0", f"20,1,2,3,1,0,{bad},0")  # a position and a quaternion column
        },
    }
    for text, message in cases.items():
        path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            read_csv(path)
        assert str(excinfo.value) == message
    path.write_text(f"{CSV_HEADER}\n\n{good}\n  \n20,4,5,6,0,1,0,0\n")
    back = read_csv(path)
    assert back.t_ms.tolist() == [0, 20]
    assert back.pos_mm.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert back.quat.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
