"""Analytic per-feature ground-truth attributions from the models' log-odds.

The attributions are the model family's own per-feature log-odds terms
(models.feature_terms): weights[j] * x[j] for logistic regression, the
per-feature Gaussian log density ratio log N(x_j | 1) - log N(x_j | 0) for
naive Bayes, a quadratic (quad_j * x_j + lin_j) * x_j + const_j whose
coefficients come from the class means and variances. The intercept / prior
term is kept as a separate offset: it has no feature rank and never enters the
correlations. predict_logodds sums the same terms, so
offset + sum(lam) == predict_logodds(x) holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .models import feature_terms


@dataclass(frozen=True)
class GroundTruth:
    """Exact feature attributions (lam) plus the featureless offset, for class 1."""

    lam: np.ndarray
    offset: float

    def total(self) -> float:
        return self.offset + float(np.sum(self.lam))


def ground_truth(model, x: np.ndarray) -> GroundTruth:
    """Ground truth for one instance x of shape (n,) under a LogisticModel or a
    GaussianNBModel."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatchError(
            f"instance has shape {x.shape}, expected a single instance"
        )
    offset, lam = feature_terms(model, x)
    return GroundTruth(lam=lam, offset=offset)
