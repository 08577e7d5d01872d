"""Write the per-trial campaign reference that run.py checks seed 42 against.

    python3 perfbench/record_reference.py

Run it only at a commit whose campaign output is the accepted reference;
the benchmark then holds every later commit to it within 1e-9 relative.
"""

import json

from run import REFERENCE, REFERENCE_SEED, trial_row
from touchtrace.pipeline import run_campaign

if __name__ == "__main__":
    results, summary = run_campaign(REFERENCE_SEED, "default", jobs=1)
    payload = {
        "campaign_seed": REFERENCE_SEED,
        "noise": "default",
        "columns": ["mean_pos_err_mm", "pos_err_sigma", "mean_ori_err_deg", "ori_err_sigma", "n_samples"],
        "grand": {k: summary.grand[k] for k in ("mean_pos_err_mm", "mean_ori_err_deg")},
        "trials": [list(trial_row(r)) for r in results],
    }
    # one trial per line keeps the file reviewable in a diff
    text = json.dumps(payload, indent=1).split('\n "trials"')[0]
    rows = ",\n  ".join(json.dumps(row) for row in payload["trials"])
    REFERENCE.write_text(f'{text}\n "trials": [\n  {rows}\n ]\n}}\n', encoding="utf-8")
