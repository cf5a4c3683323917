"""Functionally-grounded evaluation of local additive explanation techniques.

Explanations from LIME, KernelSHAP and local permutation importance are scored
by Spearman rank correlation against the analytic per-feature attributions of
logistic regression and Gaussian naive Bayes models, then aggregated to
per-dataset medians and cross-dataset average ranks.
"""

from .data import (
    ColumnSpec,
    Dataset,
    DatasetConfig,
    PreprocessSpec,
    apply_preprocess,
    encode_onehot,
    fit_preprocess,
    load_csv,
    load_dataset,
    preprocess_dataset,
    split,
)
from .evaluation import (
    CorrelationScore,
    DatasetScoreSet,
    RankTable,
    evaluate_dataset,
    evaluate_instance,
    rank_techniques,
    spearman,
    write_report_set,
)
from .explainers import ExplainerConfig, Explanation, explain
from .models import (
    GaussianNBModel,
    GroundTruth,
    LogisticModel,
    ground_truth,
    predict_logodds,
    predict_proba,
    train_gnb,
    train_logistic,
)

__version__ = "0.1.0"
