"""Seeded generator for the `wide-mixed` workload's dataset.

Writes one adult-like CSV with 8 numeric and 3 categorical columns (19
encoded columns once one-hot encoded, so KernelSHAP takes its sampled path)
plus the dataset config that `xplain evaluate --dataset` reads. Python's own
`random` drives it, so the same seed gives byte-identical files whatever the
numpy version.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

ROWS = 400
# 32 test rows: every sampled KernelSHAP explanation scores about 300k rows
# (see NOTES.md), so the split is kept small to bound a run's time
TEST_FRACTION = 0.08

# (name, mean, std, weight of the standardized value in the label's log-odds)
NUMERIC = [
    ("age", 39.0, 12.0, 0.9),
    ("hours_per_week", 40.0, 11.0, 0.6),
    ("education_years", 11.0, 2.5, 1.1),
    ("capital_gain", 1200.0, 900.0, 0.7),
    ("capital_loss", 90.0, 60.0, -0.3),
    ("tenure_years", 7.0, 4.0, 0.4),
    ("commute_km", 14.0, 8.0, -0.2),
    ("dependents", 1.5, 1.1, -0.5),
]

# (name, categories, draw probabilities, log-odds effect per category)
CATEGORICAL = [
    ("workclass", ("private", "self_emp", "government", "nonprofit"),
     (0.45, 0.2, 0.2, 0.15), (0.0, 0.6, 0.3, -0.4)),
    ("marital", ("married", "single", "divorced"),
     (0.45, 0.35, 0.2), (0.7, -0.6, -0.2)),
    ("occupation", ("clerical", "technical", "sales", "manual"),
     (0.25, 0.25, 0.25, 0.25), (-0.2, 0.6, 0.2, -0.6)),
]

TARGET = "income_high"


def generate(seed: int, out_dir: Path) -> Path:
    """Write wide_mixed.csv and wide_mixed.json into out_dir; return the config path."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = [n for n, *_ in NUMERIC] + [n for n, *_ in CATEGORICAL] + [TARGET]
    rows = []
    for _ in range(ROWS):
        logit = -0.3
        row = []
        for _name, mean, std, weight in NUMERIC:
            z = rng.gauss(0.0, 1.0)
            logit += weight * z
            row.append(f"{mean + std * z:.3f}")
        for _name, cats, probs, effects in CATEGORICAL:
            k = rng.choices(range(len(cats)), weights=probs)[0]
            logit += effects[k]
            row.append(cats[k])
        p = 1.0 / (1.0 + math.exp(-logit))
        row.append("yes" if rng.random() < p else "no")
        rows.append(row)

    csv_path = out_dir / "wide_mixed.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    config = {
        "name": "wide_mixed",
        "csv_path": csv_path.name,
        "target_column": TARGET,
        "positive_label": "yes",
        "categorical_columns": [n for n, *_ in CATEGORICAL],
        "test_fraction": TEST_FRACTION,
        "seed": seed,
    }
    config_path = out_dir / "wide_mixed.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path
