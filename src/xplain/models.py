"""Logistic regression (proximal gradient, random L1/L2 search) and Gaussian naive Bayes.

Each family has one formula: feature_terms() splits the class-1 log-odds into
a featureless offset plus one term per feature (w_j * x_j for LR, the
per-feature Gaussian log density ratio for GNB). Those terms are the ground
truth (ground_truth(), one instance or a block); predict_logodds sums them
and predict_proba is the clipped sigmoid of that sum, so the additive
ground-truth decomposition is exact by construction.

GNB's log density ratio log N(x_j | 1) - log N(x_j | 0) is a quadratic in x_j,
(quad_j * x_j + lin_j) * x_j + const_j, with

    quad  = -0.5 * (1/var1 - 1/var0)
    lin   = mean1/var1 - mean0/var0
    const = -0.5 * (log var1 - log var0 + mean1^2/var1 - mean0^2/var0)

derived once per model (GaussianNBModel.quadratic).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .data import PreprocessSpec, stratified_indices
from .errors import ConvergenceError, DimensionMismatchError, InvalidConfigError

PROBA_CLIP = 1e-12

# fit_logistic stops once one iteration changes the objective by less than
# FIT_TOL, or after FIT_MAX_ITER iterations unconverged; both are read at call time
FIT_TOL = 1e-8
FIT_MAX_ITER = 10_000


@dataclass(frozen=True)
class LogisticModel:
    kind = "lr"  # the family's name; a class attribute, not a field

    weights: np.ndarray
    intercept: float
    penalty: str  # "l1" | "l2"
    strength: float
    iterations: int = 0
    final_objective: float = float("nan")
    # objective recorded every 100th iteration plus at convergence
    objective_checkpoints: tuple[float, ...] = ()
    converged: bool = True


@dataclass(frozen=True)
class GaussianNBModel:
    kind = "gnb"  # the family's name; a class attribute, not a field

    mean0: np.ndarray
    mean1: np.ndarray
    var0: np.ndarray
    var1: np.ndarray
    prior0: float
    prior1: float

    @cached_property
    def quadratic(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(quad, lin, const): the per-feature coefficients of the log density
        ratio, term_j = (quad_j * x_j + lin_j) * x_j + const_j."""
        mean0, mean1, var0, var1 = self.mean0, self.mean1, self.var0, self.var1
        quad = -0.5 * (1.0 / var1 - 1.0 / var0)
        lin = mean1 / var1 - mean0 / var0
        const = -0.5 * (np.log(var1) - np.log(var0) + mean1**2 / var1 - mean0**2 / var0)
        return quad, lin, const


Model = LogisticModel | GaussianNBModel


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) otherwise, so
    exp never overflows; both share e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _soft_threshold(u: np.ndarray, t: float) -> np.ndarray:
    return np.sign(u) * np.maximum(np.abs(u) - t, 0.0)


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    penalty: str = "l2",
    strength: float = 0.0,
) -> LogisticModel:
    """Minimize negative log-likelihood + strength * penalty by proximal gradient.

    The smooth part carries the summed NLL (plus the L2 term); the L1 term
    enters through the soft-threshold prox. Backtracking line search halves
    the step until the quadratic upper bound holds, which makes the full
    objective non-increasing across iterations. The intercept is never
    penalized. Each point the fit evaluates has its margins X @ w + b
    computed once: the accepted trial's margins serve the next gradient.
    A penalty other than "l1" or "l2", or a strength that is negative or not
    finite, raises InvalidConfigError.
    """
    if penalty not in ("l1", "l2"):
        raise InvalidConfigError(f"penalty must be 'l1' or 'l2', got {penalty!r}")
    if not 0.0 <= strength < np.inf:
        raise InvalidConfigError(
            f"penalty strength must be finite and >= 0, got {strength!r}"
        )
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    sign = np.where(y == 1, 1.0, -1.0)  # the label's sign; sign * z is exact
    l1 = strength if penalty == "l1" else 0.0

    def smooth(w, b):
        """(smooth objective, margins z) at (w, b)."""
        z = X @ w + b
        val = float(np.sum(np.logaddexp(0.0, -(sign * z))))
        if penalty == "l2":
            val += 0.5 * strength * float(w @ w)
        return val, z

    w = np.zeros(X.shape[1])
    b = 0.0
    g_val, z = smooth(w, b)
    obj = g_val + l1 * float(np.sum(np.abs(w)))
    checkpoints = [obj]
    step = 1.0
    converged = False
    it = 0
    for it in range(1, FIT_MAX_ITER + 1):
        r = _sigmoid(z) - y
        gw = X.T @ r
        gb = float(np.sum(r))
        if penalty == "l2":
            gw = gw + strength * w
        step = min(step * 2.0, 1e6)
        while True:
            w_new = w - step * gw
            if l1 > 0.0:
                w_new = _soft_threshold(w_new, step * l1)
            b_new = b - step * gb
            dw = w_new - w
            db = b_new - b
            bound = (
                g_val
                + float(gw @ dw)
                + gb * db
                + (float(dw @ dw) + db * db) / (2.0 * step)
            )
            new_val, new_z = smooth(w_new, b_new)
            if new_val <= bound + 1e-15:
                break
            step *= 0.5
            if step < 1e-12:
                break
        # the accepted trial's value and margins serve the next iteration
        w, b, g_val, z = w_new, b_new, new_val, new_z
        new_obj = g_val + l1 * float(np.sum(np.abs(w)))
        if it % 100 == 0:
            checkpoints.append(new_obj)
        if abs(obj - new_obj) < FIT_TOL:
            obj = new_obj
            converged = True
            break
        obj = new_obj
    checkpoints.append(obj)
    return LogisticModel(
        weights=w,
        intercept=float(b),
        penalty=penalty,
        strength=float(strength),
        iterations=it,
        final_objective=obj,
        objective_checkpoints=tuple(checkpoints),
        converged=converged,
    )


def train_logistic(
    X: np.ndarray,
    y: np.ndarray,
    search_trials: int = 100,
    seed: int = 0,
) -> LogisticModel:
    """Random hyperparameter search over L1/L2 penalty with strength ~ U(0, 4).

    Each trial draws its penalty and strength from an rng derived from
    (seed, trial), fits on an inner 80% of the training split and is scored by
    accuracy on the held-out 20%. The best converged trial (first wins ties)
    is refit on the full training split.
    """
    if search_trials < 1:
        raise InvalidConfigError(f"search trials must be >= 1, got {search_trials}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    inner_rng = np.random.default_rng([seed, 0])
    fit_idx, val_idx = stratified_indices(y, 0.2, inner_rng)
    X_fit, y_fit = X[fit_idx], y[fit_idx]
    X_val, y_val = X[val_idx], y[val_idx]

    best = None  # (accuracy, penalty, strength)
    for t in range(search_trials):
        rng = np.random.default_rng([seed, t + 1])
        penalty = "l1" if rng.integers(2) == 0 else "l2"
        strength = float(rng.uniform(0.0, 4.0))
        model = fit_logistic(X_fit, y_fit, penalty, strength)
        if not model.converged:
            continue
        acc = accuracy(model, X_val, y_val)
        if best is None or acc > best[0]:
            best = (acc, penalty, strength)
    if best is None:
        raise ConvergenceError(
            f"no trial converged within {FIT_MAX_ITER} iterations ({search_trials} trials)"
        )
    return fit_logistic(X, y, best[1], best[2])


def train_gnb(X: np.ndarray, y: np.ndarray) -> GaussianNBModel:
    """Per-class per-feature Gaussian fit with empirical class priors.

    Variances are floored at 1e-9 times the largest total feature variance so
    constant columns (one-hot indicators in a pure class) stay usable.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    m0 = X[y == 0]
    m1 = X[y == 1]
    if len(m0) == 0 or len(m1) == 0:
        raise ValueError("both classes must appear in the training split")
    total_var = X.var(axis=0)
    floor = 1e-9 * float(total_var.max()) if total_var.max() > 0 else 1e-9
    return GaussianNBModel(
        mean0=m0.mean(axis=0),
        mean1=m1.mean(axis=0),
        var0=np.maximum(m0.var(axis=0), floor),
        var1=np.maximum(m1.var(axis=0), floor),
        prior0=len(m0) / len(y),
        prior1=len(m1) / len(y),
    )


def _check_input(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise DimensionMismatchError(
            f"input has shape {x.shape}, model expects {n} features"
        )
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite values")
    return x


def feature_terms(model: Model, x) -> tuple[float, np.ndarray]:
    """Class-1 log-odds split into (offset, per-feature terms).

    LR: offset = intercept, term_j = w_j * x_j. GNB: offset = log prior ratio,
    term_j = log N(x_j | class 1) - log N(x_j | class 0), evaluated from the
    model's quadratic coefficients. Accepts a single instance (n,) or a batch
    (m, n); the terms have the shape of x. Anything but a LogisticModel or a
    GaussianNBModel raises TypeError.
    """
    if isinstance(model, LogisticModel):
        x = _check_input(x, len(model.weights))
        return model.intercept, model.weights * x
    if not isinstance(model, GaussianNBModel):
        raise TypeError(f"not a model: {type(model).__name__}")
    x = _check_input(x, len(model.mean0))
    quad, lin, const = model.quadratic
    # Horner form in one array, updated in place
    terms = quad * x
    terms += lin
    terms *= x
    terms += const
    offset = float(np.log(model.prior1) - np.log(model.prior0))
    return offset, terms


@dataclass(frozen=True)
class GroundTruth:
    """Class-1 feature attributions lam, with the shape of the instance or
    block they were extracted from, plus the featureless offset, which has
    no feature rank and never enters the correlations."""

    lam: np.ndarray
    offset: float

    def total(self) -> float | np.ndarray:
        """offset plus each row's sum of lam: predict_logodds, bit for bit.
        Rows are summed row-major, as _row_sum sums them, whatever lam's
        memory layout."""
        total = self.offset + np.sum(np.ascontiguousarray(self.lam), axis=-1)
        return float(total) if self.lam.ndim == 1 else total


def ground_truth(model: Model, x) -> GroundTruth:
    """Ground truth for one instance (n,) or a block (k, n): the model's own
    feature_terms, which predict_logodds sums."""
    offset, lam = feature_terms(model, x)
    return GroundTruth(lam=lam, offset=offset)


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """np.sum(terms, axis=-1) as numpy computes it on row-major terms, bit for
    bit, for a batch (m, n) of either memory layout. On column-major terms
    the sum is taken column by column, in m-element steps, instead of one
    n-element loop per row. For n >= 8 the partial sums are kept in terms'
    own columns, so terms is overwritten: a call allocates nothing beyond
    its result. (Separate 8-row temporaries made glibc give the heap top
    back after every wide-mixed SHAP piece and fault it in again.)

    numpy sums a contiguous row pairwise. For n < 8 that is one term after
    another from 0.0, which is also how it reduces a column-major batch, so
    np.add.reduce serves both layouts. For 8 <= n <= 128 it keeps eight
    accumulators r_k = t_k + t_{k+8} + ..., combines them as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then adds the last
    n mod 8 terms in order; the reduction adds that result to 0.0, so a row
    of -0.0 sums to +0.0. Above 128 columns numpy splits the row
    recursively, and such rows are summed by np.sum over a row-major copy.
    np.add.reduce(np.asfortranarray(terms), axis=1) cannot replace the
    n >= 8 path: a (1, n) batch counts as contiguous, so numpy sums it
    pairwise, and a row scored alone would differ from the same row in a
    batch.
    """
    n = terms.shape[1]
    if n < 8:
        return np.add.reduce(terms, axis=1)
    if n > 128:
        return np.sum(np.ascontiguousarray(terms), axis=-1)
    cols = terms.T
    body = n - n % 8
    r = cols[:8]  # the accumulators r_k, kept in the first eight columns
    for i in range(8, body, 8):
        r += cols[i : i + 8]
    r[0:8:2] += r[1:8:2]  # r0 + r1, r2 + r3, r4 + r5, r6 + r7
    r[0:8:4] += r[2:8:4]  # (r0 + r1) + (r2 + r3), (r4 + r5) + (r6 + r7)
    out = r[0]
    out += r[4]
    for col in cols[body:]:
        out += col
    out += 0.0
    return out


def predict_logodds(model: Model, x) -> float | np.ndarray:
    """Class-1 log-odds: offset + sum of the per-feature terms.

    Accepts a single instance (n,) or a batch (m, n) in either memory layout;
    returns a float for a single instance. Every row is summed on its own in
    the same order whatever its layout, so a row's value does not depend on
    the batch it is scored in.
    """
    offset, terms = feature_terms(model, x)
    if terms.ndim == 1:
        return float(offset + np.sum(terms))
    return offset + _row_sum(terms)  # terms is this call's own array


def predict_proba(model: Model, x) -> float | np.ndarray:
    """Class-1 probability: sigmoid of the log-odds, clipped to [1e-12, 1 - 1e-12]."""
    z = predict_logodds(model, x)
    p = np.clip(_sigmoid(np.asarray(z)), PROBA_CLIP, 1.0 - PROBA_CLIP)
    return float(p) if np.ndim(z) == 0 else p


def accuracy(model: Model, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of instances whose log-odds sign matches the label."""
    z = predict_logodds(model, np.asarray(X, dtype=float))
    return float(np.mean((np.asarray(z) >= 0.0) == (np.asarray(y) == 1)))


def model_to_dict(model: Model, preprocess: PreprocessSpec) -> dict:
    """JSON-serializable record of a trained model plus its preprocessing:
    the family's kind and every dataclass field, arrays and tuples as lists.

    `xplain train` writes it as an output record; nothing loads it back.
    """
    record = {}
    for f in fields(model):
        value = getattr(model, f.name)
        if isinstance(value, (np.ndarray, tuple)):
            value = [float(v) for v in value]
        record[f.name] = value
    return {"kind": model.kind, "model": record, "preprocess": preprocess.to_dict()}
