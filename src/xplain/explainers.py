"""Local additive explanation techniques: LIME, KernelSHAP and LPI.

All three share one entry point, explain(), which targets either the model's
log-odds or its class-1 probability. Like predict_logodds, every explainer
takes one instance x of shape (n,) with an int seed, or a block X of shape
(k, n) with k seeds. Each instance's randomness derives solely from its own
seed, so results are reproducible and schedule-independent, and explaining a
block gives exactly the stacked single-instance explanations. One-hot groups
are always perturbed atomically (per-column bit flips would produce
impossible encodings). Rows for the model are built column-major, so the
scorer works on m rows per numpy operation; solves stay row-major.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .data import Dataset
from .errors import (
    DegenerateWeightsError,
    DimensionMismatchError,
    InvalidConfigError,
    UnknownTechniqueError,
)
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

# rows per model call, and the largest piece that shares a call (see _score_packed)
_BLOCK_ROWS = 4096
_PACK_ROWS = 256

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
    """Per-feature importance of one technique, shaped like the explained input:
    phi is (n,) for one instance and (k, n) for a block of k.

    sample_count is per explanation: LIME's perturbation count, LPI's
    replacement rows per slot, or the coalition count explain_shap documents.
    base_value is KernelSHAP's background mean prediction (a float, or one per
    instance of a block, shape (k,)) and None for LIME and LPI.
    """

    phi: np.ndarray
    sample_count: int
    base_value: float | np.ndarray | None = None


def _target_fn(model: ModelHandle, target_space: str):
    if target_space == LOGODDS:
        return lambda X: predict_logodds(model, X)
    if target_space == PROBABILITY:
        return lambda X: predict_proba(model, X)
    raise ValueError(f"unknown target space {target_space!r}")


def _as_block(x, seed) -> tuple[np.ndarray, list]:
    """(X, seeds): one instance (n,) with an int seed as a block of one, or a
    non-empty block (k, n) with its k seeds."""
    X = np.asarray(x, dtype=float)
    if X.ndim == 1 and np.ndim(seed) == 0:
        return X[None, :], [seed]
    if X.ndim == 2 and np.ndim(seed) == 1 and len(seed) == len(X) > 0:
        return X, list(seed)
    raise DimensionMismatchError(
        f"expected one instance (n,) with an int seed or a block (k, n) with k >= 1 "
        f"seeds, got shape {X.shape} with {np.size(seed)} seed(s)"
    )


def _shaped_like(x, phi: np.ndarray, sample_count: int, base=None) -> Explanation:
    """The Explanation of a block, or of its one row when x was one instance."""
    if np.ndim(x) == 1:
        return Explanation(phi[0], sample_count, None if base is None else float(base[0]))
    return Explanation(phi, sample_count, base)


def _score_packed(f, pieces):
    """f of each piece of rows (a 2-D array), yielded in the order given.

    A piece of at most _PACK_ROWS rows costs less to score than a call's
    fixed cost (12-17 us, about as much as scoring 300 rows), so consecutive
    such pieces, of one instance or of several, share calls of at most
    _BLOCK_ROWS rows. A larger piece is scored alone as soon as it is
    drawn, while its rows are still in cache: a shared call saved it less
    than holding it for the next piece and copying it into the call cost.
    Packing pieces of up to 1,024 rows made the grid's LPI (576-1,029-row
    pieces) 13 % slower and, with 2,000-row LIME pieces in pairs, raised
    wide-mixed's peak RSS by 2.9 MB. Pieces are drawn only as a call fills,
    so at most one call's pieces, its buffer and one more piece are held at
    a time.

    4,096 rows of 19 columns take about 620 KB, so a call's rows and the
    scorer's temporary of the same size fit in a 2 MB per-core L2 cache;
    calls of 2,048-8,192 rows timed about level and fastest, while
    262,144-row calls (about 40 MB at 19 columns) were up to twice as slow.
    Every row is scored alone, so packing changes no value.
    """
    batch: list[np.ndarray] = []
    rows = 0
    for piece in pieces:
        alone = len(piece) > _PACK_ROWS
        if batch and (alone or rows + len(piece) > _BLOCK_ROWS):
            scored = _score_call(f, batch)
            batch, rows = [], 0
            yield from scored
        if alone:
            yield f(piece)
        else:
            batch.append(piece)
            rows += len(piece)
    if batch:
        yield from _score_call(f, batch)


def _score_call(f, batch: list[np.ndarray]) -> list[np.ndarray]:
    """One model call over the pieces in batch, copied one after another into
    a column-major buffer, split back per piece."""
    ends = np.cumsum([len(p) for p in batch])
    buffer = np.empty((ends[-1], batch[0].shape[1]), order="F")
    for piece, end in zip(batch, ends):
        buffer[end - len(piece) : end] = piece
    return np.split(f(buffer), ends[:-1])


def explain_lime(
    model: ModelHandle,
    x: np.ndarray,
    dataset: Dataset,
    config: ExplainerConfig | None = None,
    seed: int | Sequence[int] = 0,
    target_space: str = LOGODDS,
) -> Explanation:
    """Local ridge surrogate fitted to kernel-weighted perturbations.

    Numeric coordinates are resampled from Normal(x_j, train std);
    one-hot groups are resampled whole from the training category frequencies.
    Perturbations are weighted by exp(-d^2 / kernel_width^2) where d is the
    Euclidean distance over train-std-scaled numeric coordinates plus a
    mismatch indicator per categorical group. No discretization is applied,
    and all n coefficients are returned. Each instance of a block has its own
    perturbations and ridge solve; only the model calls are shared.
    """
    cfg = (config or ExplainerConfig()).lime
    X, seeds = _as_block(x, seed)
    n = dataset.n_features
    S = cfg.samples
    kernel_width = cfg.kernel_width if cfg.kernel_width is not None else 0.75 * math.sqrt(n)
    draws = _lime_draws(dataset)
    # (Z, weights) per instance, queued by perturbations() before Z is scored
    pending: deque[tuple[np.ndarray, np.ndarray]] = deque()

    def perturbations():
        for x, seed in zip(X, seeds):
            rng = np.random.default_rng([_RNG_TAG[LIME], seed])
            Z = np.empty((S, n), order="F")
            Z[:] = x
            ZT = Z.T  # one contiguous row per column
            # one row of distance terms per slot; a column without spread adds 0
            dist = np.zeros((len(dataset.slots), S))
            for slots, cols, stat in draws:
                if stat.ndim == 2:
                    # Normal(x_j, std_j) as rng.normal draws it, column after column
                    loc = x[cols, None]
                    drawn = loc + stat * rng.standard_normal((len(cols), S))
                    ZT[cols] = drawn
                    dist[slots] = ((drawn - loc) / stat) ** 2
                else:
                    cats = rng.choice(len(cols), size=S, p=stat)
                    ZT[cols] = 0.0
                    Z[np.arange(S), cols[cats]] = 1.0
                    dist[slots] = np.any(ZT[cols] != x[cols, None], axis=0)
            d2 = dist.sum(axis=0)  # slot after slot

            with np.errstate(divide="ignore"):
                weights = np.exp(-d2 / kernel_width**2)
            if np.max(weights) < 1e-30:
                raise DegenerateWeightsError("all perturbation weights are numerically zero")
            pending.append((Z, weights))
            yield Z

    phi = np.empty((len(X), n))
    for i, y in enumerate(_score_packed(_target_fn(model, target_space), perturbations())):
        phi[i] = _weighted_ridge(*pending.popleft(), y)
    return _shaped_like(x, phi, S)


def _lime_draws(dataset: Dataset) -> list[tuple]:
    """LIME's random draws in slot order, as (slots, cols, stat) triples.

    Each run of numeric slots between one-hot groups is one draw: `slots`
    and `cols` index the run's columns whose training std (`stat`, shape
    (k, 1)) is positive; the other columns keep x and add no distance. A
    group is one draw: its slot, columns and category frequencies (1-D)."""
    draws = []
    run: list[tuple[int, int, float]] = []

    def close_run():
        if run:
            slots, cols, stds = zip(*run)
            draws.append((list(slots), np.array(cols), np.array(stds)[:, None]))
            run.clear()

    for s, ((cols, group), stat) in enumerate(zip(dataset.slots, dataset.slot_train_stats)):
        if group is not None:
            close_run()
            draws.append((s, cols, stat))
        elif stat > 0:
            run.append((s, cols[0], stat))
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


def _coalition_rows(masks: np.ndarray, x: np.ndarray, background: np.ndarray):
    """The rows valuing each coalition: x on S, background rows off S. They
    come in pieces of whole coalitions, at most _BLOCK_ROWS rows each (one
    coalition when the background has more rows)."""
    B = background.shape[0]
    chunk = max(1, _BLOCK_ROWS // B)
    # built transposed, one contiguous row per column, from operands of one
    # shape: row k * B + b of a full piece takes background row b off S
    back = np.tile(background.T, (1, min(chunk, len(masks))))
    for start in range(0, len(masks), chunk):
        on = np.repeat(masks[start : start + chunk].T, B, axis=1)
        yield np.where(on, x[:, None], back[:, : on.shape[1]]).T


def _coalition_values(scores, count: int, B: int) -> np.ndarray:
    """v(S) = mean over the B background rows of f(x on S, background off S),
    for `count` coalitions, read from the scores of _coalition_rows' pieces."""
    values = np.empty(count)
    start = 0
    while start < count:
        out = next(scores).reshape(-1, B)
        values[start : start + len(out)] = out.mean(axis=1)
        start += len(out)
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
    seed: int | Sequence[int] = 0,
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
    no proper coalition and phi = f(x) - base_value. Each instance of a block
    has its own background sample, coalitions and solve; only the model
    calls are shared.
    """
    cfg = (config or ExplainerConfig()).shap
    X, seeds = _as_block(x, seed)
    n = dataset.n_features
    if n < 1:
        raise ValueError("model must have at least one feature")
    m = dataset.X_train.shape[0]
    if m == 0:
        raise ValueError("empty background: training split has no rows")
    B = min(m, cfg.background_size)
    exact = n <= EXACT_SHAP_LIMIT
    # (masks, weights) per instance, queued by rows() before its rows are scored
    pending: deque[tuple[np.ndarray, np.ndarray]] = deque()

    def rows():
        for x, seed in zip(X, seeds):
            rng = np.random.default_rng([_RNG_TAG[SHAP], seed])
            if m > B:
                background = dataset.X_train[rng.choice(m, B, replace=False)]
            else:
                background = dataset.X_train
            background = np.asfortranarray(background)
            if exact:
                masks, weights = _exact_coalitions(n)
            else:
                masks, weights = _sample_coalitions(n, cfg.samples, rng)
            pending.append((masks, weights))
            yield background
            yield x[None, :]
            yield from _coalition_rows(masks, x, background)

    scores = _score_packed(_target_fn(model, target_space), rows())
    phi = np.empty((len(X), n))
    base = np.empty(len(X))
    for i in range(len(X)):
        base[i] = next(scores).mean()
        fx = float(next(scores)[0])
        masks, weights = pending.popleft()
        values = _coalition_values(scores, len(masks), B)
        design = _exact_design(n) if exact else _wls_design(masks, weights)
        phi[i] = _solve_constrained_wls(design, values, float(base[i]), fx)
        del values, design  # freed before the next instance's rows are drawn
    # every instance makes the same number of draws
    sample_count = 2**n if exact else 2 + int(weights.sum())
    return _shaped_like(x, phi, sample_count, base)


def explain_lpi(
    model: ModelHandle,
    x: np.ndarray,
    dataset: Dataset,
    config: ExplainerConfig | None = None,
    seed: int | Sequence[int] = 0,
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
    X, seeds = _as_block(x, seed)
    n = dataset.n_features
    m = dataset.X_train.shape[0]
    if m == 0:
        raise ValueError("training split has no rows")
    S = cfg.samples if cfg.samples is not None else m

    def rows():
        for x, seed in zip(X, seeds):
            rng = np.random.default_rng([_RNG_TAG[LPI], seed])
            yield x[None, :]
            X_rep = np.empty((S, n), order="F")
            X_rep[:] = x
            for cols, _ in dataset.slots:
                order = rng.permutation(m)
                picks = order[:S] if S <= m else np.resize(order, S)
                Z = X_rep.copy(order="F")
                Z.T[cols] = train_T.take(cols, axis=0).take(picks, axis=1)
                yield Z

    train_T = np.ascontiguousarray(dataset.X_train.T)
    slots = dataset.slots
    scores = _score_packed(_target_fn(model, target_space), rows())
    phi = np.zeros((len(X), n))
    diffs = np.empty((len(slots), S))
    for i in range(len(X)):
        fx = float(next(scores)[0])
        for row in diffs:
            np.subtract(fx, next(scores), out=row)
        if cfg.absolute:
            np.abs(diffs, out=diffs)
        # each row's mean sums S contiguous values, as np.mean of one slot's would
        for (cols, _), value in zip(slots, diffs.mean(axis=1)):
            phi[i, cols] = value
    return _shaped_like(x, phi, S)


_DISPATCH = {LIME: explain_lime, SHAP: explain_shap, LPI: explain_lpi}


def explain(
    technique: str,
    target_space: str,
    model: ModelHandle,
    x: np.ndarray,
    dataset: Dataset,
    config: ExplainerConfig | None = None,
    seed: int | Sequence[int] = 0,
) -> Explanation:
    """Dispatch to the requested technique with f = log-odds or probability.

    x is one instance (n,) with an int seed, or a block (k, n) with one seed
    per instance; a block's explanation has phi (k, n) and, for SHAP,
    base_value (k,), each row equal to that instance's own explanation."""
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
