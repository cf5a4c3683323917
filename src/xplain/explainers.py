"""Local additive explanation techniques: LIME, KernelSHAP and LPI.

All three share one entry point, explain(), which targets either the model's
log-odds or its class-1 probability. Each call's randomness derives solely
from its seed argument, so results are reproducible and schedule-independent.
One-hot groups are always perturbed atomically (per-column bit flips would
produce impossible encodings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .data import Dataset
from .errors import DegenerateWeightsError, InvalidConfigError, UnknownTechniqueError
from .models import ModelHandle, predict_logodds, predict_proba

LIME = "lime"
SHAP = "shap"
LPI = "lpi"
TECHNIQUES = (LIME, SHAP, LPI)

LOGODDS = "logodds"
PROBABILITY = "probability"
TARGET_SPACES = (LOGODDS, PROBABILITY)

# all 2^n coalitions are enumerated up to this dimension; sampling above it
EXACT_SHAP_LIMIT = 13

# rows per model call when valuing coalitions (see _coalition_values)
_BLOCK_ROWS = 4096

_RNG_TAG = {LIME: 1, SHAP: 2, LPI: 3}


@dataclass(frozen=True)
class LimeConfig:
    samples: int = 5000
    kernel_width: float | None = None  # None -> 0.75 * sqrt(n)

    def __post_init__(self):
        if self.samples < 1:
            raise InvalidConfigError("lime samples must be >= 1")
        if self.kernel_width is not None and self.kernel_width <= 0:
            raise InvalidConfigError("kernel_width must be positive")


@dataclass(frozen=True)
class ShapConfig:
    samples: int = 5000
    background_size: int = 100

    def __post_init__(self):
        if self.samples < 1 or self.background_size < 1:
            raise InvalidConfigError("shap samples and background_size must be >= 1")


@dataclass(frozen=True)
class LpiConfig:
    samples: int | None = None  # None -> training-set size
    absolute: bool = False

    def __post_init__(self):
        if self.samples is not None and self.samples < 1:
            raise InvalidConfigError("lpi samples must be >= 1")


@dataclass(frozen=True)
class ExplainerConfig:
    lime: LimeConfig = field(default_factory=LimeConfig)
    shap: ShapConfig = field(default_factory=ShapConfig)
    lpi: LpiConfig = field(default_factory=LpiConfig)


@dataclass(frozen=True)
class Explanation:
    """Per-feature importance vector for one instance and one technique.

    sample_count is LIME's perturbation count, LPI's replacement rows per
    slot, or the coalition count explain_shap documents; base_value is
    KernelSHAP's background mean prediction and None for LIME and LPI.
    """

    phi: np.ndarray
    sample_count: int
    base_value: float | None = None


def _target_fn(model: ModelHandle, target_space: str):
    if target_space == LOGODDS:
        return lambda X: np.atleast_1d(predict_logodds(model, X))
    if target_space == PROBABILITY:
        return lambda X: np.atleast_1d(predict_proba(model, X))
    raise ValueError(f"unknown target space {target_space!r}")


def explain_lime(
    model: ModelHandle,
    x: np.ndarray,
    dataset: Dataset,
    config: ExplainerConfig | None = None,
    seed: int = 0,
    target_space: str = LOGODDS,
) -> Explanation:
    """Local ridge surrogate fitted to kernel-weighted perturbations.

    Numeric coordinates are resampled from Normal(x_j, train std);
    one-hot groups are resampled whole from the training category frequencies.
    Perturbations are weighted by exp(-d^2 / kernel_width^2) where d is the
    Euclidean distance over train-std-scaled numeric coordinates plus a
    mismatch indicator per categorical group. No discretization is applied,
    and all n coefficients are returned.
    """
    cfg = (config or ExplainerConfig()).lime
    x = np.asarray(x, dtype=float)
    n = dataset.n_features
    S = cfg.samples
    kernel_width = cfg.kernel_width if cfg.kernel_width is not None else 0.75 * math.sqrt(n)
    rng = np.random.default_rng([_RNG_TAG[LIME], seed])

    Z = np.tile(x, (S, 1))
    d2 = np.zeros(S)
    for (cols, group), stat in zip(dataset.slots, dataset.slot_train_stats):
        if group is None:
            j, std = cols[0], stat
            Z[:, j] = rng.normal(x[j], std, S) if std > 0 else x[j]
            d2 += ((Z[:, j] - x[j]) / (std if std > 0 else 1.0)) ** 2
        else:
            cats = rng.choice(len(cols), size=S, p=stat)
            Z[:, cols] = 0.0
            Z[np.arange(S), cols[cats]] = 1.0
            d2 += np.any(Z[:, cols] != x[cols], axis=1).astype(float)

    with np.errstate(divide="ignore"):
        weights = np.exp(-d2 / kernel_width**2)
    if np.max(weights) < 1e-30:
        raise DegenerateWeightsError("all perturbation weights are numerically zero")

    f = _target_fn(model, target_space)
    y = f(Z)

    # weighted ridge, strength 1, with unpenalized intercept
    A = np.column_stack([np.ones(S), Z])
    Aw = A * weights[:, None]
    gram = Aw.T @ A
    penal = np.eye(n + 1)
    penal[0, 0] = 0.0
    beta = np.linalg.solve(gram + penal, Aw.T @ y)
    return Explanation(phi=beta[1:], sample_count=S)


def _coalition_values(f, masks: np.ndarray, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """v(S) = mean over background rows of f(x on S, background off S).

    Each model call scores whole coalitions, at most _BLOCK_ROWS rows (one
    coalition when B is larger). 4,096 rows of 19 columns take about 620 KB,
    so a block and the scorer's temporary of the same size fit in a 2 MB
    per-core L2 cache. On exact and sampled designs, blocks of 2,048-8,192
    rows timed about level and fastest; 262,144-row batches (about 40 MB
    each at 19 columns) were up to twice as slow. Every row is scored
    alone, so blocking changes no value.
    """
    B = background.shape[0]
    values = np.empty(len(masks))
    chunk = max(1, _BLOCK_ROWS // B)
    for start in range(0, len(masks), chunk):
        mk = masks[start : start + chunk]
        Z = np.where(mk[:, None, :], x, background[None, :, :])
        out = f(Z.reshape(-1, x.shape[0]))
        values[start : start + chunk] = out.reshape(len(mk), B).mean(axis=1)
    return values


def _wls_design(masks: np.ndarray, weights: np.ndarray):
    """The parts of the constrained weighted least squares that depend only on
    the coalitions: (last, Aw, gram). The constraint phi_0 + sum(phi) = f(x)
    eliminates the last coefficient, so each row's design is its first n - 1
    mask bits minus its last bit (`last`); Aw is that design scaled by the
    kernel weights and gram = Aw.T @ design. The empty and full coalitions
    would only add 0 = 0 rows after the elimination, so callers pass neither.
    """
    M = masks.astype(float)
    A = M[:, :-1] - M[:, -1:]
    Aw = A * weights[:, None]
    return M[:, -1].copy(), Aw, Aw.T @ A


def _solve_constrained_wls(design, values: np.ndarray, base: float, fx: float) -> np.ndarray:
    """phi for coalition values under a _wls_design; with no rows at all the
    last coefficient takes f(x) - base."""
    last, Aw, gram = design
    y = values - base - last * (fx - base)
    rhs = Aw.T @ y
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        beta = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    return np.append(beta, (fx - base) - beta.sum())


@lru_cache(maxsize=EXACT_SHAP_LIMIT)
def _exact_coalitions(n: int):
    """The 2^n - 2 proper coalitions (codes 1 .. 2^n - 2, bit j = feature j)
    with their Shapley kernel weights (n - 1) / (C(n, s) s (n - s)) for size s.
    No rows for n = 1. Built once per n and shared by every caller, so both
    arrays are read-only."""
    codes = np.arange(1, 2**n - 1, dtype=np.int64)
    masks = ((codes[:, None] >> np.arange(n)) & 1).astype(bool)
    sizes = masks.sum(axis=1)
    comb = np.array([math.comb(n, s) for s in range(n + 1)])
    weights = (n - 1) / (comb[sizes] * sizes * (n - sizes))
    masks.flags.writeable = False
    weights.flags.writeable = False
    return masks, weights


@lru_cache(maxsize=EXACT_SHAP_LIMIT)
def _exact_design(n: int):
    """_wls_design of _exact_coalitions(n), built once per n (under 2 MB for
    every n up to EXACT_SHAP_LIMIT together) and shared, so read-only. A
    cached projection P with phi = P @ y would sum in another order and
    change the last bits of phi; this form leaves them as a per-call build."""
    design = _wls_design(*_exact_coalitions(n))
    for array in design:
        array.flags.writeable = False
    return design


def _sample_coalitions(n: int, samples: int, rng: np.random.Generator):
    """Proper coalitions drawn from the Shapley kernel size distribution, each
    paired with its complement. The empty and full coalitions count as the
    first two of the `samples` draws but are not returned. Distinct masks
    come back in first-draw order, with their draw counts as weights.

    Every draw is made in one vectorised pass: first all sizes, by inverse
    CDF from one rng.random() value each, then one row of n uniform keys per
    draw, whose s smallest keys name its members (a uniform s-subset)."""
    sizes = np.arange(1, n)
    p = (n - 1) / (sizes * (n - sizes))
    p = p / p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    pairs = max(0, (samples - 1) // 2)
    s = sizes[cdf.searchsorted(rng.random(pairs), side="right")]
    u = rng.random((pairs, n))
    draws = np.empty((2 * pairs, n), dtype=bool)
    draws[0::2] = u.argsort(axis=1).argsort(axis=1) < s[:, None]
    draws[1::2] = ~draws[0::2]
    # one opaque key per row: its packed bits
    packed = np.packbits(draws, axis=1)
    keys = packed.view(f"V{packed.shape[1]}").ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    return draws[first[order]], counts[order].astype(float)


def explain_shap(
    model: ModelHandle,
    x: np.ndarray,
    dataset: Dataset,
    config: ExplainerConfig | None = None,
    seed: int = 0,
    target_space: str = LOGODDS,
) -> Explanation:
    """KernelSHAP against a seeded background sample of training rows.

    Coalition values marginalize off-coalition features with background rows.
    The empty and full coalitions are known without scoring (base_value, the
    background mean prediction, and f(x)) and enter only through the
    local-accuracy constraint, so only proper coalitions are valued: all
    2^n - 2 of them when n <= 13 (sample_count = 2^n), otherwise the distinct
    masks among the Shapley-kernel draws (sample_count = number of draws,
    empty and full counted as the first two). Attributions solve the
    kernel-weighted least squares under that constraint. With n = 1 there is
    no proper coalition and phi = f(x) - base_value.
    """
    cfg = (config or ExplainerConfig()).shap
    x = np.asarray(x, dtype=float)
    n = dataset.n_features
    if n < 1:
        raise ValueError("model must have at least one feature")
    m = dataset.X_train.shape[0]
    if m == 0:
        raise ValueError("empty background: training split has no rows")
    rng = np.random.default_rng([_RNG_TAG[SHAP], seed])
    if m > cfg.background_size:
        background = dataset.X_train[rng.choice(m, cfg.background_size, replace=False)]
    else:
        background = dataset.X_train

    f = _target_fn(model, target_space)
    base = float(f(background).mean())
    fx = float(f(x[None, :])[0])

    exact = n <= EXACT_SHAP_LIMIT
    if exact:
        masks, weights = _exact_coalitions(n)
        sample_count = 2**n
    else:
        masks, weights = _sample_coalitions(n, cfg.samples, rng)
        sample_count = 2 + int(weights.sum())
    values = _coalition_values(f, masks, x, background)
    design = _exact_design(n) if exact else _wls_design(masks, weights)
    phi = _solve_constrained_wls(design, values, base, fx)

    return Explanation(phi=phi, sample_count=sample_count, base_value=base)


def explain_lpi(
    model: ModelHandle,
    x: np.ndarray,
    dataset: Dataset,
    config: ExplainerConfig | None = None,
    seed: int = 0,
    target_space: str = LOGODDS,
) -> Explanation:
    """Local permutation importance in the chosen target space.

    For each slot (a numeric column or a whole one-hot group), replacement
    values come from the training rows in shuffled order (cycled when samples
    exceed the row count) and phi_j = mean_s [f(x) - f(x with slot j
    replaced)]; every column of a group shares the group's score. The
    absolute flag switches to mean |f(x) - f(...)|.
    """
    cfg = (config or ExplainerConfig()).lpi
    x = np.asarray(x, dtype=float)
    n = dataset.n_features
    m = dataset.X_train.shape[0]
    if m == 0:
        raise ValueError("training split has no rows")
    S = cfg.samples if cfg.samples is not None else m
    rng = np.random.default_rng([_RNG_TAG[LPI], seed])

    f = _target_fn(model, target_space)
    fx = float(f(x[None, :])[0])
    phi = np.zeros(n)

    def score(diffs: np.ndarray) -> float:
        return float(np.mean(np.abs(diffs) if cfg.absolute else diffs))

    X_rep = np.tile(x, (S, 1))
    for cols, _ in dataset.slots:
        order = rng.permutation(m)
        rows = order[:S] if S <= m else np.resize(order, S)
        X_rep[:, cols] = dataset.X_train.take(cols, axis=1).take(rows, axis=0)
        phi[cols] = score(fx - f(X_rep))
        X_rep[:, cols] = x[cols]  # back to x for the next slot

    return Explanation(phi=phi, sample_count=S)


_DISPATCH = {LIME: explain_lime, SHAP: explain_shap, LPI: explain_lpi}


def explain(
    technique: str,
    target_space: str,
    model: ModelHandle,
    x: np.ndarray,
    dataset: Dataset,
    config: ExplainerConfig | None = None,
    seed: int = 0,
) -> Explanation:
    """Dispatch to the requested technique with f = log-odds or probability."""
    if technique not in _DISPATCH:
        raise UnknownTechniqueError(
            f"unknown technique {technique!r}; expected one of {TECHNIQUES}"
        )
    if target_space not in TARGET_SPACES:
        raise ValueError(
            f"unknown target space {target_space!r}; expected one of {TARGET_SPACES}"
        )
    return _DISPATCH[technique](
        model, x, dataset, config=config, seed=seed, target_space=target_space
    )
