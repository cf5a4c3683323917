"""Logistic regression (proximal gradient, random L1/L2 search) and Gaussian naive Bayes.

Each family has one formula: feature_terms() splits the class-1 log-odds into
a featureless offset plus one term per feature (w_j * x_j for LR, the
per-feature Gaussian log density ratio for GNB). predict_logodds sums those
terms and predict_proba is the clipped sigmoid of that sum, so the additive
ground-truth decomposition is exact by construction.

GNB's log density ratio log N(x_j | 1) - log N(x_j | 0) is a quadratic in x_j,
(quad_j * x_j + lin_j) * x_j + const_j, with

    quad  = -0.5 * (1/var1 - 1/var0)
    lin   = mean1/var1 - mean0/var0
    const = -0.5 * (log var1 - log var0 + mean1^2/var1 - mean0^2/var0)

derived once per model (GaussianNBModel.quadratic).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import PreprocessSpec, stratified_indices
from .errors import ConvergenceError, DimensionMismatchError, InvalidConfigError

LOGISTIC = "lr"
GAUSSIAN_NB = "gnb"

PROBA_CLIP = 1e-12


@dataclass(frozen=True)
class LogisticModel:
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


@dataclass(frozen=True)
class ModelHandle:
    """Tagged union of the two model families plus the preprocessing it was trained under."""

    kind: str
    model: LogisticModel | GaussianNBModel
    preprocess: PreprocessSpec | None = None


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) otherwise, so
    exp never overflows; both share e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _nll(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray) -> float:
    z = X @ w + b
    s = np.where(y == 1, z, -z)
    return float(np.sum(np.logaddexp(0.0, -s)))


def _smooth_value(w, b, X, y, penalty, strength):
    val = _nll(w, b, X, y)
    if penalty == "l2":
        val += 0.5 * strength * float(w @ w)
    return val


def _smooth_grad(w, b, X, y, penalty, strength):
    z = X @ w + b
    r = _sigmoid(z) - y
    gw = X.T @ r
    gb = float(np.sum(r))
    if penalty == "l2":
        gw = gw + strength * w
    return gw, gb


def _soft_threshold(u: np.ndarray, t: float) -> np.ndarray:
    return np.sign(u) * np.maximum(np.abs(u) - t, 0.0)


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    penalty: str = "l2",
    strength: float = 0.0,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> LogisticModel:
    """Minimize negative log-likelihood + strength * penalty by proximal gradient.

    The smooth part carries the summed NLL (plus the L2 term); the L1 term
    enters through the soft-threshold prox. Backtracking line search halves
    the step until the quadratic upper bound holds, which makes the full
    objective non-increasing across iterations. The intercept is never
    penalized.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = X.shape
    w = np.zeros(n)
    b = 0.0
    l1 = strength if penalty == "l1" else 0.0

    g_val = _smooth_value(w, b, X, y, penalty, strength)
    obj = g_val + l1 * float(np.sum(np.abs(w)))
    checkpoints = [obj]
    step = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        gw, gb = _smooth_grad(w, b, X, y, penalty, strength)
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
            new_val = _smooth_value(w_new, b_new, X, y, penalty, strength)
            if new_val <= bound + 1e-15:
                break
            step *= 0.5
            if step < 1e-12:
                break
        # the accepted trial's smooth value is the next iteration's g_val
        w, b, g_val = w_new, b_new, new_val
        new_obj = g_val + l1 * float(np.sum(np.abs(w)))
        if it % 100 == 0:
            checkpoints.append(new_obj)
        if abs(obj - new_obj) < tol:
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
    tol: float = 1e-8,
    max_iter: int = 10000,
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

    best = None  # (accuracy, trial_index, penalty, strength)
    for t in range(search_trials):
        rng = np.random.default_rng([seed, t + 1])
        penalty = "l1" if rng.integers(2) == 0 else "l2"
        strength = float(rng.uniform(0.0, 4.0))
        model = fit_logistic(X_fit, y_fit, penalty, strength, tol, max_iter)
        if not model.converged:
            continue
        z = X_val @ model.weights + model.intercept
        acc = float(np.mean((z >= 0.0) == (y_val == 1)))
        if best is None or acc > best[0]:
            best = (acc, t, penalty, strength)
    if best is None:
        raise ConvergenceError(
            f"no trial converged within {max_iter} iterations ({search_trials} trials)"
        )
    return fit_logistic(X, y, best[2], best[3], tol, max_iter)


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


def _resolve(model) -> tuple[str, LogisticModel | GaussianNBModel]:
    if isinstance(model, ModelHandle):
        return model.kind, model.model
    if isinstance(model, LogisticModel):
        return LOGISTIC, model
    if isinstance(model, GaussianNBModel):
        return GAUSSIAN_NB, model
    raise TypeError(f"not a model: {type(model).__name__}")


def feature_terms(model, x) -> tuple[float, np.ndarray]:
    """Class-1 log-odds split into (offset, per-feature terms).

    LR: offset = intercept, term_j = w_j * x_j. GNB: offset = log prior ratio,
    term_j = log N(x_j | class 1) - log N(x_j | class 0), evaluated from the
    model's quadratic coefficients. Accepts a single instance (n,) or a batch
    (m, n); the terms have the shape of x.
    """
    kind, inner = _resolve(model)
    if kind == LOGISTIC:
        x = _check_input(x, len(inner.weights))
        return inner.intercept, inner.weights * x
    x = _check_input(x, len(inner.mean0))
    quad, lin, const = inner.quadratic
    # Horner form in one array, updated in place
    terms = quad * x
    terms += lin
    terms *= x
    terms += const
    offset = float(np.log(inner.prior1) - np.log(inner.prior0))
    return offset, terms


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


def predict_logodds(model, x) -> float | np.ndarray:
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


def predict_proba(model, x) -> float | np.ndarray:
    """Class-1 probability: sigmoid of the log-odds, clipped to [1e-12, 1 - 1e-12]."""
    z = predict_logodds(model, x)
    p = np.clip(_sigmoid(np.asarray(z)), PROBA_CLIP, 1.0 - PROBA_CLIP)
    return float(p) if np.ndim(z) == 0 else p


def accuracy(model, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of instances whose log-odds sign matches the label."""
    z = predict_logodds(model, np.asarray(X, dtype=float))
    return float(np.mean((np.asarray(z) >= 0.0) == (np.asarray(y) == 1)))


def handle_to_dict(handle: ModelHandle) -> dict:
    """JSON-serializable record of a trained model plus its preprocessing.

    `xplain train` writes it as an output record; nothing loads it back.
    """
    out: dict = {"kind": handle.kind}
    if handle.kind == LOGISTIC:
        m = handle.model
        out["model"] = {
            "weights": [float(v) for v in m.weights],
            "intercept": m.intercept,
            "penalty": m.penalty,
            "strength": m.strength,
            "iterations": m.iterations,
            "final_objective": m.final_objective,
            "objective_checkpoints": [float(v) for v in m.objective_checkpoints],
            "converged": m.converged,
        }
    else:
        m = handle.model
        out["model"] = {
            "mean0": [float(v) for v in m.mean0],
            "mean1": [float(v) for v in m.mean1],
            "var0": [float(v) for v in m.var0],
            "var1": [float(v) for v in m.var1],
            "prior0": m.prior0,
            "prior1": m.prior1,
        }
    if handle.preprocess is not None:
        out["preprocess"] = handle.preprocess.to_dict()
    return out
