"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavyweight benchmark grid (criteria 5/6/8) is
computed once in a module-scoped fixture.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from xplain import data
from xplain.evaluation import evaluate_dataset, rank_techniques, spearman
from xplain.explainers import ExplainerConfig, explain
from xplain.models import ground_truth
from xplain.models import (
    GaussianNBModel,
    LogisticModel,
    accuracy,
    predict_logodds,
    train_gnb,
    train_logistic,
)

from conftest import BUNDLED, DATASETS_DIR, linear_model, numeric_dataset, permutation_shapley

EVAL_SEED = 42


def report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status} - {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def standardized(name: str):
    config = data.DatasetConfig.from_json(DATASETS_DIR / f"{name}.json")
    ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
    return ds


@pytest.fixture(scope="module")
def benchmark_grid():
    """GNB over every bundled dataset at the default sampling settings,
    evaluated in both target spaces."""
    config = ExplainerConfig()  # 5000 LIME/SHAP samples, LPI = training size
    tables = {}
    sets = {}
    start = time.time()
    for target in ("logodds", "probability"):
        collected = []
        for name in BUNDLED:
            ds = standardized(name)
            model = train_gnb(ds.X_train, ds.y_train)
            collected.extend(
                evaluate_dataset(
                    ds, model, ["lime", "shap", "lpi"], target,
                    config, seed=EVAL_SEED,
                )
            )
        sets[target] = collected
        tables[target] = rank_techniques(collected)
    return {"tables": tables, "sets": sets, "runtime": time.time() - start}


def test_criterion_1_additivity_oracles():
    start = time.time()
    rng = np.random.default_rng(0)
    worst_gnb = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        lr = LogisticModel(rng.normal(0, 2, n), float(rng.normal()), "l2", 0.0)
        x = rng.normal(0, 3, n)
        gt = ground_truth(lr, x)
        assert gt.total() - predict_logodds(lr, x) == 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        gnb = GaussianNBModel(
            mean0=rng.normal(0, 1, n), mean1=rng.normal(0, 1, n),
            var0=rng.uniform(0.1, 4, n), var1=rng.uniform(0.1, 4, n),
            prior0=0.3, prior1=0.7,
        )
        x = rng.normal(0, 3, n)
        gt = ground_truth(gnb, x)
        worst_gnb = max(worst_gnb, abs(gt.total() - predict_logodds(gnb, x)))
    elapsed = time.time() - start
    report(1, "additivity identities (LR exact, GNB < 1e-9, 1000 pairs each)",
           worst_gnb < 1e-9 and elapsed < 5.0,
           f"gnb worst {worst_gnb:.2e}, {elapsed:.1f}s")


def test_criterion_2_exact_shapley_equivalence():
    start = time.time()
    rng = np.random.default_rng(1)
    worst_oracle = worst_closed = 0.0
    for n in (3, 4, 5, 6):
        for _ in range(3):
            ds = numeric_dataset(rng.normal(0, 1, (60, n)))
            w = rng.normal(0, 1.5, n)
            model = linear_model(w, float(rng.normal()))
            x = rng.normal(0, 1, n)
            e = explain("shap", "logodds", model, x, ds, seed=int(rng.integers(1 << 30)))
            f = lambda Z: np.atleast_1d(predict_logodds(model, Z))
            oracle = permutation_shapley(f, x, ds.X_train, n)
            closed = w * (x - ds.X_train.mean(axis=0))
            worst_oracle = max(worst_oracle, float(np.max(np.abs(e.phi - oracle))))
            worst_closed = max(worst_closed, float(np.max(np.abs(e.phi - closed))))
    elapsed = time.time() - start
    report(2, "exhaustive KernelSHAP vs permutation oracle and closed form (1e-6)",
           worst_oracle < 1e-6 and worst_closed < 1e-6 and elapsed < 30.0,
           f"oracle {worst_oracle:.2e}, closed {worst_closed:.2e}, {elapsed:.1f}s")


def test_criterion_3_lpi_closed_form():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(20, 120))
        ds = numeric_dataset(rng.normal(rng.normal(), rng.uniform(0.5, 3), (m, n)))
        w = rng.normal(0, 2, n)
        model = linear_model(w, float(rng.normal()))
        x = rng.normal(0, 2, n)
        e = explain("lpi", "logodds", model, x, ds, seed=int(rng.integers(1 << 30)))
        closed = w * (x - ds.X_train.mean(axis=0))
        worst = max(worst, float(np.max(np.abs(e.phi - closed))))
    report(3, "LPI linear closed form over 100 fuzz cases (1e-9)",
           worst < 1e-9, f"worst {worst:.2e}")


def test_criterion_4_spearman_oracle():
    def brute(a, b):
        def ranks(v):
            out = np.empty(len(v))
            for i in range(len(v)):
                less = sum(1 for u in v if u < v[i])
                eq = sum(1 for u in v if u == v[i])
                out[i] = less + (eq + 1) / 2.0
            return out

        ra, rb = ranks(a), ranks(b)
        da, db = ra - ra.mean(), rb - rb.mean()
        den = math.sqrt(float(da @ da) * float(db @ db))
        return None if den == 0.0 else float(da @ db) / den

    rng = np.random.default_rng(3)
    worst = 0.0
    tested = 0
    while tested < 1000:
        n = int(rng.integers(2, 40))
        a = rng.normal(0, 1, n)
        b = rng.normal(0, 1, n)
        if rng.random() < 0.5 and n > 3:  # inject ties on both sides
            a[: n // 3] = a[0]
            b[-(n // 3) :] = b[-1]
        expected = brute(a, b)
        got = spearman(a, b)
        if expected is None:
            assert got.degenerate and got.r == 0.0
            continue
        worst = max(worst, abs(got.r - expected))
        tested += 1
    hand = spearman(np.array([1.0, 3.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0])).r
    report(4, "rank correlation vs brute-force oracle (1e-12) and 0.8 hand case",
           worst < 1e-12 and hand == 0.8, f"worst {worst:.2e}, hand {hand!r}")


def test_criterion_5_rank_direction_logodds(benchmark_grid):
    table = benchmark_grid["tables"]["logodds"]
    avg = table.average
    ok = (avg["lpi"] < avg["lime"]) and (avg["lpi"] < avg["shap"])
    runtime_ok = benchmark_grid["runtime"] < 900
    report(5, "GNB log-odds: LPI average rank strictly below LIME and SHAP",
           ok and runtime_ok,
           f"lime {avg['lime']:.3f}, shap {avg['shap']:.3f}, lpi {avg['lpi']:.3f}, "
           f"grid {benchmark_grid['runtime']:.0f}s over {len(table.datasets)} datasets")


def test_criterion_6_probability_target_same_winner(benchmark_grid):
    avg = benchmark_grid["tables"]["probability"].average
    ok = (avg["lpi"] < avg["lime"]) and (avg["lpi"] < avg["shap"])
    report(6, "GNB probability target: LPI remains the winning technique",
           ok, f"lime {avg['lime']:.3f}, shap {avg['shap']:.3f}, lpi {avg['lpi']:.3f}")


def test_criterion_7_model_accuracy_targets():
    iris = standardized("iris_binary")
    lr = train_logistic(iris.X_train, iris.y_train, search_trials=100, seed=0)
    iris_acc = accuracy(lr, iris.X_test, iris.y_test)

    banknote = standardized("banknote")
    gnb = train_gnb(banknote.X_train, banknote.y_train)
    bank_acc = accuracy(gnb, banknote.X_test, banknote.y_test)

    ok = iris_acc >= 0.95 and abs(bank_acc - 0.854) <= 0.05
    report(7, "iris LR accuracy >= 0.95; banknote GNB within 0.05 of 0.854",
           ok, f"iris {iris_acc:.3f}, banknote {bank_acc:.3f}")


def test_criterion_8_preprocessing_invariants(benchmark_grid):
    start = time.time()
    ok = True
    for name in BUNDLED:
        config = data.DatasetConfig.from_json(DATASETS_DIR / f"{name}.json")
        ds = data.load_dataset(config)
        num = list(ds.numeric_indices)
        spans = ds.X_train[:, num].max(axis=0) > ds.X_train[:, num].min(axis=0)

        std = data.apply_preprocess(data.fit_preprocess(ds, "standardize"), ds.X_train)
        ok &= bool(np.all(np.abs(std[:, num].mean(axis=0))[spans] < 1e-10))
        ok &= bool(np.all(np.abs(std[:, num].std(axis=0, ddof=1) - 1.0)[spans] < 1e-10))

        mm = data.apply_preprocess(data.fit_preprocess(ds, "minmax"), ds.X_train)
        ok &= bool(np.all(mm[:, num].min(axis=0)[spans] == 0.0))
        ok &= bool(np.all(mm[:, num].max(axis=0)[spans] == 1.0))

        iq = data.apply_preprocess(data.fit_preprocess(ds, "interquartile"), ds.X_train)
        ok &= bool(np.all(np.abs(np.median(iq[:, num], axis=0))[spans] < 1e-10))

    for table in benchmark_grid["tables"].values():
        for ranks in table.per_dataset.values():
            ok &= sum(ranks.values()) == 6.0
    elapsed = time.time() - start
    report(8, "preprocessing invariants on every bundled dataset; rank rows sum to 6",
           ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_9_cli_byte_determinism(tmp_path):
    argv_tail = [
        "--dataset", str(DATASETS_DIR / "iris_binary.json"),
        "--dataset", str(DATASETS_DIR / "haberman.json"),
        "--model", "both",
        "--technique", "lime,shap,lpi",
        "--seed", "7",
        "--trials", "5",
        "--lime-samples", "400",
        "--shap-samples", "400",
    ]
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        proc = subprocess.run(
            [sys.executable, "-m", "xplain", "evaluate", "--out", str(out), *argv_tail],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr

    names = sorted(p.name for p in outs[0].iterdir())
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in names
    )
    report(9, "two identical CLI runs emit byte-identical reports",
           identical and len(names) >= 6, f"{len(names)} files compared")
