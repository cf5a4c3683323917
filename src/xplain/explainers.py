"""Local additive explanation techniques: LIME, KernelSHAP and LPI.

explain() is the one entry point. It targets either the model's log-odds or
its class-1 probability and, like predict_logodds, takes the model itself (a
LogisticModel or a GaussianNBModel) and one instance x of shape (n,) with an
int seed, or a block X of shape (k, n) with k seeds. It checks its
arguments and the dataset, fills in the default ExplainerConfig and hands a
block to the technique's private function, (f, X, rngs, dataset, config) ->
(phi, sample_count, base_value), where rngs yields each instance's random
stream, default_rng([tag, seed]) with the technique's tag, as the loop
reaches it. Each instance's randomness derives solely from its own seed, so
results are reproducible and schedule-independent, and explaining a block
gives exactly the stacked single-instance explanations.
One-hot groups are always perturbed atomically (per-column bit flips would
produce impossible encodings). Every model call holds the rows of one
instance: LIME's perturbations, or LPI's and KernelSHAP's rows built in place
in one buffer, split into calls of whole slots or whole coalitions past a
per-call cap (_LPI_CALL_ROWS, _BLOCK_ROWS). Rows for the model are built
column-major, so the scorer works on m rows per numpy operation; solves stay
row-major.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import Dataset
from .errors import DimensionMismatchError, InvalidConfigError, UnknownTechniqueError
from .models import Model, predict_logodds, predict_proba

LIME = "lime"
SHAP = "shap"
LPI = "lpi"
TECHNIQUES = (LIME, SHAP, LPI)

LOGODDS = "logodds"
PROBABILITY = "probability"
TARGET_SPACES = (LOGODDS, PROBABILITY)

# all 2^n coalitions are enumerated up to this dimension; sampling above it
EXACT_SHAP_LIMIT = 13

# the most rows of one KernelSHAP model call, unless x and the background or
# one coalition alone have more (see _shap)
_BLOCK_ROWS = 4096
# the most rows of one LPI model call, unless one slot alone has more (see _lpi)
_LPI_CALL_ROWS = 8192

_RNG_TAG = {LIME: 1, SHAP: 2, LPI: 3}


@dataclass(frozen=True)
class ExplainerConfig:
    """One field per explainer flag of the CLI (--lime-samples and so on),
    which takes its defaults from here."""

    lime_samples: int = 5000
    shap_samples: int = 5000
    shap_background: int = 100
    lpi_samples: int | None = None  # None -> training-set size
    lpi_absolute: bool = False

    def __post_init__(self):
        if self.lime_samples < 1:
            raise InvalidConfigError("lime samples must be >= 1")
        if self.shap_samples < 1 or self.shap_background < 1:
            raise InvalidConfigError("shap samples and shap background must be >= 1")
        if self.lpi_samples is not None and self.lpi_samples < 1:
            raise InvalidConfigError("lpi samples must be >= 1")


@dataclass(frozen=True)
class Explanation:
    """Per-feature importance of one technique, shaped like the explained input:
    phi is (n,) for one instance and (k, n) for a block of k.

    sample_count is per explanation: LIME's perturbation count, LPI's
    replacement rows per slot, or the coalition count _shap documents.
    base_value is KernelSHAP's background mean prediction (a float, or one per
    instance of a block, shape (k,)) and None for LIME and LPI.
    """

    phi: np.ndarray
    sample_count: int
    base_value: float | np.ndarray | None = None


def _as_block(x, seed, n: int) -> tuple[np.ndarray, list]:
    """(X, seeds): one instance (n,) with an int seed as a block of one, or a
    non-empty block (k, n) with its k seeds; n is the dataset's width."""
    X = np.asarray(x, dtype=float)
    if X.ndim == 1 and np.ndim(seed) == 0:
        X, seeds = X[None, :], [seed]
    elif X.ndim == 2 and np.ndim(seed) == 1 and len(seed) == len(X) > 0:
        seeds = list(seed)
    else:
        raise DimensionMismatchError(
            f"expected one instance (n,) with an int seed or a block (k, n) with k >= 1 "
            f"seeds, got shape {X.shape} with {np.size(seed)} seed(s)"
        )
    if X.shape[1] != n:
        raise DimensionMismatchError(
            f"x has {X.shape[1]} feature(s) per instance, the dataset has {n}"
        )
    return X, seeds


def _lime(f, X: np.ndarray, rngs, dataset: Dataset, config: ExplainerConfig):
    """Local ridge surrogate fitted to kernel-weighted perturbations.

    Numeric coordinates are resampled from Normal(x_j, train std);
    one-hot groups are resampled whole from the training category frequencies.
    Perturbations are weighted by exp(-d^2 / w^2) with kernel width
    w = 0.75 * sqrt(n), where d is the Euclidean distance over
    train-std-scaled numeric coordinates plus a mismatch indicator per
    categorical group. No discretization is applied, and all n coefficients
    are returned. Each instance of a block has its own perturbations, model
    call and ridge solve.
    """
    n = dataset.n_features
    S = config.lime_samples
    width = 0.75 * math.sqrt(n)
    draws = _lime_draws(dataset)
    phi = np.empty((len(X), n))
    for i, (row, rng) in enumerate(zip(X, rngs)):
        Z = np.empty((S, n), order="F")
        Z[:] = row
        ZT = Z.T  # one contiguous row per column
        # one row of distance terms per slot; a column without spread adds 0
        dist = np.zeros((len(dataset.slots), S))
        for slots, cols, stat in draws:
            if stat.ndim == 2:
                # Normal(x_j, std_j) as rng.normal draws it, column after column
                loc = row[cols, None]
                drawn = loc + stat * rng.standard_normal((len(cols), S))
                ZT[cols] = drawn
                dist[slots] = ((drawn - loc) / stat) ** 2
            else:
                cats = rng.choice(len(cols), size=S, p=stat)
                ZT[cols] = 0.0
                Z[np.arange(S), cols[cats]] = 1.0
                dist[slots] = np.any(ZT[cols] != row[cols, None], axis=0)
        d2 = dist.sum(axis=0)  # slot after slot
        weights = np.exp(-d2 / width**2)
        phi[i] = _weighted_ridge(Z, weights, f(Z))
    return phi, S, None


def _lime_draws(dataset: Dataset) -> list[tuple]:
    """LIME's random draws in slot order, as (slots, cols, stat) triples,
    worked out from dataset.X_train (preprocessed or not) on every call.

    Each run of numeric slots between one-hot groups is one draw: `slots`
    and `cols` index the run's columns whose training std (ddof=1; 0.0 with
    fewer than two rows) is positive, and `stat` holds those stds, shape
    (k, 1); the other columns keep x and add no distance. A group is one
    draw: its slot, its columns and its training category frequencies,
    normalized to sum to 1 (1-D)."""
    draws = []
    run: list[tuple[int, int, float]] = []

    def close_run():
        if run:
            slots, cols, stds = zip(*run)
            draws.append((list(slots), np.array(cols), np.array(stds)[:, None]))
            run.clear()

    for s, (cols, group) in enumerate(dataset.slots):
        if group is not None:
            close_run()
            freqs = dataset.X_train[:, cols].mean(axis=0)
            draws.append((s, cols, freqs / freqs.sum()))
            continue
        col = dataset.X_train[:, cols[0]]
        std = float(col.std(ddof=1)) if len(col) > 1 else 0.0
        if std > 0:
            run.append((s, cols[0], std))
    close_run()
    return draws


def _weighted_ridge(Z: np.ndarray, weights: np.ndarray, y: np.ndarray) -> np.ndarray:
    """LIME's surrogate coefficients: weighted ridge of y on Z, strength 1,
    with an unpenalized intercept (dropped from the result). Its (S, n + 1)
    temporaries are freed on return, before the next instance is drawn. The
    design is row-major whatever Z's layout: BLAS picks its kernel by layout,
    and another kernel would sum gram in another order."""
    A = np.empty((len(Z), Z.shape[1] + 1))
    A[:, 0] = 1.0
    A[:, 1:] = Z
    Aw = A * weights[:, None]
    gram = Aw.T @ A
    penal = np.eye(A.shape[1])
    penal[0, 0] = 0.0
    return np.linalg.solve(gram + penal, Aw.T @ y)[1:]


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


def _shap(f, X: np.ndarray, rngs, dataset: Dataset, config: ExplainerConfig):
    """KernelSHAP against a seeded background sample of training rows.

    Coalition values marginalize off-coalition features with background rows.
    The empty and full coalitions are known without scoring (base_value, the
    background mean prediction, and f(x)) and enter only through the
    local-accuracy constraint, so only proper coalitions are valued: all
    2^n - 2 of them when n <= 13 (sample_count = 2^n), otherwise the distinct
    masks among the Shapley-kernel draws (sample_count = number of draws,
    empty and full counted as the first two). Attributions solve the
    kernel-weighted least squares under that constraint. With n = 1 there is
    no proper coalition and phi = f(x) - base_value. Each instance of a block
    has its own background sample, coalitions, model calls and solve.

    An instance's rows are built in place, each call's in one column-major
    buffer. Its first call holds x (row 0), the B background rows (rows
    1..B) and as many whole coalitions of B rows as fit within _BLOCK_ROWS,
    none when B >= _BLOCK_ROWS; later calls hold only whole coalitions, at
    most _BLOCK_ROWS // B and at least one. A coalition's rows take the
    tiled background, then x where its repeated mask is on. 4,096 rows of
    19 columns take about 620 KB, so a call's rows and the scorer's
    temporary of the same size fit in a 2 MB per-core L2 cache: calls of
    2,048-8,192 rows timed about level and fastest, 262,144-row calls up to
    twice as slow, and an 8,192-row cap raised the wide-mixed benchmark's
    peak RSS by 11 %. Every row is scored on its own, and base_value and
    each coalition value are means over the same contiguous scores, so
    neither the cap nor the call shape changes a value.
    """
    n = dataset.n_features
    m = dataset.X_train.shape[0]
    B = min(m, config.shap_background)
    exact = n <= EXACT_SHAP_LIMIT
    per_call = max(1, _BLOCK_ROWS // B)
    phi = np.empty((len(X), n))
    base = np.empty(len(X))
    for i, (x, rng) in enumerate(zip(X, rngs)):
        if m > B:
            background = dataset.X_train[rng.choice(m, B, replace=False)]
        else:
            background = dataset.X_train
        background = np.asfortranarray(background)
        if exact:
            masks, weights = _exact_coalitions(n)
        else:
            masks, weights = _sample_coalitions(n, config.shap_samples, rng)
        # built transposed, one contiguous row per column, from operands of
        # one shape: row k * B + b of a call's coalitions takes background row b
        back = np.tile(background.T, (1, min(per_call, len(masks))))
        values = np.empty(len(masks))
        start, lead = 0, 1 + B  # lead: the rows of x and the background
        while lead or start < len(masks):
            count = max(0, (_BLOCK_ROWS - lead) // B) if lead else per_call
            stop = min(len(masks), start + count)
            Z = np.empty((lead + (stop - start) * B, n), order="F")
            ZT = Z.T
            if lead:
                ZT[:, 0] = x
                ZT[:, 1:lead] = background.T
            on = np.repeat(masks[start:stop].T, B, axis=1)
            np.copyto(ZT[:, lead:], back[:, : on.shape[1]])
            np.copyto(ZT[:, lead:], x[:, None], where=on)
            scores = f(Z)
            if lead:
                fx = float(scores[0])
                base[i] = scores[1:lead].mean()
            values[start:stop] = scores[lead:].reshape(-1, B).mean(axis=1)
            start, lead = stop, 0
        del Z, ZT, on, back, scores  # freed before the next instance's rows are built
        design = _exact_design(n) if exact else _wls_design(masks, weights)
        phi[i] = _solve_constrained_wls(design, values, float(base[i]), fx)
    # every instance makes the same number of draws
    sample_count = 2**n if exact else 2 + int(weights.sum())
    return phi, sample_count, base


def _lpi(f, X: np.ndarray, rngs, dataset: Dataset, config: ExplainerConfig):
    """Local permutation importance in the chosen target space.

    For each slot (a numeric column or a whole one-hot group), replacement
    values come from the training rows in shuffled order (cycled when samples
    exceed the row count) and phi_j = mean_s [f(x) - f(x with slot j
    replaced)]; every column of a group shares the group's score. The
    absolute flag switches to mean |f(x) - f(...)|.

    An instance's 1 + slots * S rows are built in place in one column-major
    buffer and scored in one model call: row 0 is x and gives f(x), and rows
    1 + s*S .. (s+1)*S hold slot s replaced. An instance of more than
    _LPI_CALL_ROWS rows is scored in calls of whole slots, each within that
    cap unless one slot alone exceeds it, so a call's memory does not grow
    with the slot count. Every instance of the bundled datasets fits in one
    call (banking's 8,101 rows are the most). At n = 4-30 and 12,000-38,000
    rows per instance, calls of at most 8,192 rows timed level with or up to
    10 % faster than 16,384-row calls or one call per instance (GNB,
    log-odds, one thread). Every row is scored on its own, so neither the
    cap nor the call shape changes a value.
    """
    n = dataset.n_features
    m = dataset.X_train.shape[0]
    S = config.lpi_samples if config.lpi_samples is not None else m
    slots = dataset.slots
    per_call = max(1, (_LPI_CALL_ROWS - 1) // S)
    train_T = np.ascontiguousarray(dataset.X_train.T)
    phi = np.zeros((len(X), n))
    diffs = np.empty((len(slots), S))
    for i, (x, rng) in enumerate(zip(X, rngs)):
        for first in range(0, len(slots), per_call):
            chunk = slots[first : first + per_call]
            lead = int(first == 0)  # the call that holds x's own row
            Z = np.empty((lead + len(chunk) * S, n), order="F")
            Z[:] = x
            for start, (cols, _) in zip(range(lead, len(Z), S), chunk):
                order = rng.permutation(m)
                picks = order[:S] if S <= m else np.resize(order, S)
                Z.T[cols, start : start + S] = train_T.take(cols, axis=0).take(picks, axis=1)
            scores = f(Z)
            if lead:
                fx = float(scores[0])
            np.subtract(fx, scores[lead:].reshape(len(chunk), S),
                        out=diffs[first : first + len(chunk)])
        if config.lpi_absolute:
            np.abs(diffs, out=diffs)
        # each row's mean sums S contiguous values, as np.mean of one slot's would
        for (cols, _), value in zip(slots, diffs.mean(axis=1)):
            phi[i, cols] = value
    return phi, S, None


_TECHNIQUE_FNS = {LIME: _lime, SHAP: _shap, LPI: _lpi}


def explain(
    technique: str,
    target_space: str,
    model: Model,
    x: np.ndarray,
    dataset: Dataset,
    config: ExplainerConfig | None = None,
    seed: int | Sequence[int] = 0,
) -> Explanation:
    """The explanation of x by technique (lime, shap or lpi) with f = the
    log-odds or the class-1 probability of model, a LogisticModel or a
    GaussianNBModel (anything else raises TypeError at the first model call).
    config None means ExplainerConfig().

    x is one instance (n,) with an int seed, or a block (k, n) with one seed
    per instance, and n must be dataset.n_features (DimensionMismatchError
    otherwise); a block's explanation has phi (k, n) and, for SHAP,
    base_value (k,), each row equal to that instance's own explanation. A
    dataset with no feature column or no training row is a ValueError."""
    if technique not in _TECHNIQUE_FNS:
        raise UnknownTechniqueError(
            f"unknown technique {technique!r}; expected one of {TECHNIQUES}"
        )
    if target_space not in TARGET_SPACES:
        raise ValueError(
            f"unknown target space {target_space!r}; expected one of {TARGET_SPACES}"
        )
    def f(Z):  # looks the scorer up on each call
        if target_space == LOGODDS:
            return predict_logodds(model, Z)
        return predict_proba(model, Z)

    X, seeds = _as_block(x, seed, dataset.n_features)
    if dataset.n_features == 0:
        raise ValueError("dataset has no feature column")
    if dataset.X_train.shape[0] == 0:
        raise ValueError("training split has no rows")
    rngs = (np.random.default_rng([_RNG_TAG[technique], s]) for s in seeds)
    phi, sample_count, base = _TECHNIQUE_FNS[technique](
        f, X, rngs, dataset, config or ExplainerConfig()
    )
    if np.ndim(x) == 1:
        return Explanation(phi[0], sample_count, None if base is None else float(base[0]))
    return Explanation(phi, sample_count, base)
