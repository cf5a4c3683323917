"""The paper's two findings, checked in direction only on a cheap grid.

(1) Under logistic regression, how well each technique does depends on the
normalization: LIME ranks strictly best under min-max scaling and strictly
worst under standardization. (2) Under Gaussian naive Bayes, LPI ranks
strictly best whatever the normalization. GNB's per-feature log density
ratio does not change under a per-feature affine map, so its SHAP and LPI
scores agree across the three normalizations; LIME's ridge penalty acts in
preprocessed units, so its scores move.

Grid: the six bundled datasets x {standardize, minmax, interquartile} x
{LR, GNB}, the first 16 test rows of each, log-odds target, 500 LIME
samples, a 10-row SHAP background, full-permutation LPI, 5 LR search trials,
seed 1. A direction that fails here is a finding to report, not a seed to
move.

Two more tests say where finding 2 comes from. In log-odds, exact KernelSHAP
against the whole training split and full-permutation LPI estimate the same
lam_j(x) - mean_train lam_j, so with that background their scores tie and
LPI's lead at the default background is SHAP's background sample. Under the
probability target, LPI is degenerate on an instance only where p sits at
the PROBA_CLIP bound and no replacement moves it.
"""

import dataclasses

import numpy as np
import pytest

from xplain import data
from xplain.evaluation import derive_seed, evaluate_dataset, rank_techniques, spearman
from xplain.explainers import ExplainerConfig, explain
from xplain.models import PROBA_CLIP, ground_truth, predict_proba, train_gnb, train_logistic

from conftest import BUNDLED, DATASETS_DIR

SEED = 1
TEST_ROWS = 16
NORMALIZATIONS = ("standardize", "minmax", "interquartile")
TECHNIQUES = ["lime", "shap", "lpi"]


def standardized(name: str):
    config = data.DatasetConfig.from_json(DATASETS_DIR / f"{name}.json")
    return data.preprocess_dataset(data.load_dataset(config), "standardize")[0]


@pytest.fixture(scope="module")
def grid():
    """(model kind, normalization) -> the score sets of the six datasets."""
    config = ExplainerConfig(lime_samples=500, shap_background=10)
    raw = [data.load_dataset(data.DatasetConfig.from_json(DATASETS_DIR / f"{name}.json"))
           for name in BUNDLED]
    sets = {}
    for norm in NORMALIZATIONS:
        for dataset in raw:
            ds, _ = data.preprocess_dataset(dataset, norm)
            ds = dataclasses.replace(ds, X_test=ds.X_test[:TEST_ROWS],
                                     y_test=ds.y_test[:TEST_ROWS])
            models = {"lr": train_logistic(ds.X_train, ds.y_train, search_trials=5, seed=SEED),
                      "gnb": train_gnb(ds.X_train, ds.y_train)}
            for kind, model in models.items():
                sets.setdefault((kind, norm), []).extend(
                    evaluate_dataset(ds, model, TECHNIQUES, "logodds", config, seed=SEED))
    return sets


def average_ranks(grid, kind, norm):
    return rank_techniques(grid[kind, norm]).average


def test_lr_lime_depends_on_normalization(grid):
    minmax = average_ranks(grid, "lr", "minmax")
    standard = average_ranks(grid, "lr", "standardize")
    assert minmax["lime"] < min(minmax["shap"], minmax["lpi"]), minmax
    assert standard["lime"] > max(standard["shap"], standard["lpi"]), standard


@pytest.mark.parametrize("norm", NORMALIZATIONS)
def test_gnb_lpi_best_under_every_normalization(grid, norm):
    ranks = average_ranks(grid, "gnb", norm)
    assert ranks["lpi"] < min(ranks["lime"], ranks["shap"]), ranks


@pytest.mark.parametrize("technique", ["shap", "lpi"])
def test_gnb_scores_do_not_depend_on_normalization(grid, technique):
    def scores(norm):
        return np.array([[s.r for s in sets.scores] for sets in grid["gnb", norm]
                         if sets.technique == technique])

    reference = scores("standardize")
    for norm in NORMALIZATIONS[1:]:
        assert np.max(np.abs(scores(norm) - reference)) <= 1e-12, norm


def test_shap_ties_lpi_with_the_whole_training_split_as_background():
    """With shap_background at the training split's size, exact KernelSHAP
    and full-permutation LPI score every instance alike under LR and GNB, so
    their average ranks tie (1.5 each). The first 4 test rows of each
    dataset; about 1.5 s."""
    sets = {"lr": [], "gnb": []}
    for name in BUNDLED:
        ds = standardized(name)
        ds = dataclasses.replace(ds, X_test=ds.X_test[:4], y_test=ds.y_test[:4])
        config = ExplainerConfig(shap_background=ds.X_train.shape[0])
        models = {"lr": train_logistic(ds.X_train, ds.y_train, search_trials=5, seed=SEED),
                  "gnb": train_gnb(ds.X_train, ds.y_train)}
        for kind, model in models.items():
            shap, lpi = evaluate_dataset(ds, model, ["shap", "lpi"], "logodds", config,
                                         seed=SEED)
            assert shap.scores == lpi.scores, (name, kind)
            sets[kind] += [shap, lpi]
    for kind, cell_sets in sets.items():
        ranks = rank_techniques(cell_sets).average
        assert ranks["shap"] == ranks["lpi"], (kind, ranks)


def test_probability_lpi_degenerate_only_at_the_clip():
    """iris_binary under GNB, probability target, CLI defaults, seed 42: 25
    of the 38 test rows have p at a PROBA_CLIP bound, and on 23 of them every
    LPI replacement leaves p there, so phi is exactly 0 and the score is
    degenerate. No other instance is degenerate."""
    ds = standardized("iris_binary")
    model = train_gnb(ds.X_train, ds.y_train)
    seeds = [derive_seed(42, k) for k in range(ds.X_test.shape[0])]
    phi = explain("lpi", "probability", model, ds.X_test, ds, seed=seeds).phi
    lam = ground_truth(model, ds.X_test).lam
    degenerate = [spearman(row, truth).degenerate for row, truth in zip(phi, lam)]
    p = predict_proba(model, ds.X_test)
    clipped = (p == PROBA_CLIP) | (p == 1.0 - PROBA_CLIP)
    assert (len(p), int(clipped.sum()), sum(degenerate)) == (38, 25, 23)
    for k in np.flatnonzero(degenerate):
        assert clipped[k] and not phi[k].any(), (k, p[k], phi[k])
