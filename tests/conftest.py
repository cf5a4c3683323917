"""Shared helpers for building small datasets and models in tests."""

import importlib.util
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from xplain import data
from xplain.data import Dataset
from xplain.models import LogisticModel

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
DATASETS_DIR = SRC_DIR / "xplain" / "datasets"

# pytest's `pythonpath` setting reaches this process only; `python -m xplain`
# children must import the same checkout
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
)

BUNDLED = ["banking", "banknote", "haberman", "hr", "iris_binary", "pima"]


def numeric_dataset(X_train, X_test=None, y_train=None, y_test=None, name="test"):
    """Wrap plain matrices into a numeric-only Dataset."""
    X_train = np.asarray(X_train, dtype=float)
    if X_test is None:
        X_test = X_train[: max(1, len(X_train) // 4)]
    X_test = np.asarray(X_test, dtype=float)
    n = X_train.shape[1]
    if y_train is None:
        y_train = np.zeros(len(X_train), dtype=int)
        y_train[: len(y_train) // 2] = 1
    if y_test is None:
        y_test = np.zeros(len(X_test), dtype=int)
        y_test[: len(y_test) // 2] = 1
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(n)),
        X_train=X_train,
        X_test=X_test,
        y_train=np.asarray(y_train),
        y_test=np.asarray(y_test),
        name=name,
    )


def linear_model(weights, intercept=0.0) -> LogisticModel:
    return LogisticModel(
        weights=np.asarray(weights, dtype=float),
        intercept=float(intercept),
        penalty="l2",
        strength=0.0,
    )


def permutation_shapley(f, x, background, n):
    """Brute-force interventional Shapley values of f at x over the n features:
    each coalition valued as the mean of f over the background rows with x on
    the coalition, averaged over all n! orderings."""
    values = {}
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            mask = np.zeros(n, dtype=bool)
            mask[list(subset)] = True
            values[subset] = float(np.mean(f(np.where(mask, x, background))))
    phi = np.zeros(n)
    for perm in itertools.permutations(range(n)):
        current: list[int] = []
        for j in perm:
            before = values[tuple(sorted(current))]
            current.append(j)
            phi[j] += values[tuple(sorted(current))] - before
    return phi / math.factorial(n)


def write_csv(path: Path, header: str, lines: list[str]):
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def csv_dir(tmp_path):
    return tmp_path


def wide_mixed_config(out_dir: Path, seed: int = 1) -> Path:
    """The benchmark's generated mixed-type table (19 encoded columns, one-hot
    groups), written to out_dir by perfbench/widemixed.py; its config path."""
    spec = importlib.util.spec_from_file_location(
        "widemixed", SRC_DIR.parent / "perfbench" / "widemixed.py")
    widemixed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(widemixed)
    return widemixed.generate(seed, out_dir)


def wide_mixed_dataset(tmp_path: Path, seed: int = 1) -> Dataset:
    """The wide-mixed table, loaded and standardized."""
    config = data.DatasetConfig.from_json(wide_mixed_config(tmp_path, seed))
    ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
    return ds
