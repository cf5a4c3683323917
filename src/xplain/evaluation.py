"""Per-instance rank correlation against ground truth, plus the aggregations.

One score per (instance, technique): Spearman correlation between the
explanation vector and the instance's row of the analytic attributions. A
(dataset, model) cell is evaluated in one pass: its ground truth is extracted
once, and each technique explains the whole test split in one explain() call.
Scores aggregate to a per-dataset median and, across datasets, to
per-technique average ranks (rank 1 = highest median, lower average rank =
better). write_report_set writes an evaluated grid's report files one at a
time, and write_json lays out every JSON file xplain writes.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import DimensionMismatchError, VectorTooShortError, XplainError
from .explainers import ExplainerConfig, explain
from .models import GaussianNBModel, GroundTruth, LogisticModel, Model, ground_truth

SIGNIFICANT_CORRELATION = 0.7

# medians are rounded to this many digits before tie comparison so that rank
# ties are reproducible across platforms
MEDIAN_TIE_DIGITS = 12


@dataclass(frozen=True)
class CorrelationScore:
    r: float
    degenerate: bool = False


@dataclass(frozen=True)
class DatasetScoreSet:
    """All per-instance scores for one (dataset, model, technique) cell; the
    cell's sets share its one ground_truth, whose lam has a row per test
    instance."""

    dataset_id: str
    technique: str
    scores: tuple[CorrelationScore, ...]
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    degenerate_count: int
    significant_count: int
    ground_truth: GroundTruth | None = None


@dataclass(frozen=True)
class RankTable:
    """Per-dataset technique ranks and their cross-dataset average / std."""

    datasets: tuple[str, ...]
    per_dataset: dict[str, dict[str, float]]
    average: dict[str, float]
    std: dict[str, float]


def _block_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of each row of a (k, n) block, ties receiving the average
    of their positions, from one stable argsort: each sorted position takes
    the mean position of its run of equal values."""
    k, n = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=1)
    pos = np.arange(n)
    new_run = np.ones((k, n), dtype=bool)
    new_run[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    run_end = np.ones((k, n), dtype=bool)
    run_end[:, :-1] = new_run[:, 1:]
    first = np.maximum.accumulate(np.where(new_run, pos, 0), axis=1)
    last = np.minimum.accumulate(np.where(run_end, pos, n)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty((k, n))
    np.put_along_axis(ranks, order, 0.5 * (first + last) + 1.0, axis=1)
    return ranks


def spearman(phi: np.ndarray, lam: np.ndarray) -> CorrelationScore | list[CorrelationScore]:
    """Spearman rank correlation with fractional ranks for ties: one score for
    two vectors (n,), or a list of k, one per row, for two blocks (k, n).

    A rank-constant vector on either side yields r = 0 with the degenerate
    flag set instead of a division by zero. A NaN or infinity on either side
    raises ValueError: NaNs have no rank order. Shapes that differ raise
    DimensionMismatchError, and n < 2 raises VectorTooShortError.

    Two vectors are scored as a block of one row. A block's scores equal the
    per-row scores bit for bit: every rank is a multiple of 0.5 and a row's
    mean rank is exactly (n + 1) / 2, so every deviation, product and sum in
    the correlation is exact in float64 whatever the order of the sums.
    """
    phi = np.asarray(phi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if phi.shape != lam.shape:
        raise DimensionMismatchError(f"length mismatch: {phi.shape} vs {lam.shape}")
    if phi.ndim not in (1, 2) or phi.shape[-1] < 2:
        raise VectorTooShortError(f"need vectors of length >= 2, got {phi.shape}")
    if not (np.isfinite(phi).all() and np.isfinite(lam).all()):
        raise ValueError("spearman input contains non-finite values")
    block = phi.ndim == 2
    if not block:
        phi, lam = phi[None], lam[None]
    mean = 0.5 * (phi.shape[1] + 1)
    da = _block_ranks(phi) - mean
    db = _block_ranks(lam) - mean
    va = (da * da).sum(axis=1)
    vb = (db * db).sum(axis=1)
    degenerate = (va == 0.0) | (vb == 0.0)
    r = (da * db).sum(axis=1) / np.sqrt(np.where(degenerate, 1.0, va * vb))
    scores = [CorrelationScore(r=0.0, degenerate=True) if d else CorrelationScore(r=float(x))
              for x, d in zip(r, degenerate)]
    return scores if block else scores[0]


def derive_seed(seed: int, index: int) -> int:
    """Deterministic per-instance seed derived from (seed, index)."""
    return int(np.random.SeedSequence(entropy=[seed, index]).generate_state(1)[0])


def evaluate_instance(
    X: np.ndarray,
    lam: np.ndarray,
    model: Model,
    techniques: list[str],
    target_space: str,
    dataset: Dataset,
    config: ExplainerConfig | None = None,
    *,
    seeds: Sequence[int],
) -> list[list[CorrelationScore]]:
    """A block of k instances X (k, n) with k seeds under one model (a
    LogisticModel or a GaussianNBModel), and their ground-truth rows lam
    (k, n): per technique (in order), the Spearman score of each instance's
    explanation against its row. Each technique explains the whole block in
    one explain() call, which raises DimensionMismatchError for an X that is
    not such a block, and its explanations are scored in one block spearman()
    call; evaluate_dataset passes a cell's whole test split."""
    scores = []
    for technique in techniques:
        phi = explain(technique, target_space, model, X, dataset, config, seeds).phi
        scores.append(spearman(phi, lam))
    return scores


def summarize_scores(
    dataset_id: str,
    technique: str,
    scores: list[CorrelationScore],
    ground_truth: GroundTruth | None = None,
) -> DatasetScoreSet:
    """Median, quartiles (linear interpolation) and Tukey whiskers of the scores."""
    r = np.array([s.r for s in scores])
    q1, q3 = (float(np.percentile(r, q)) for q in (25, 75))
    iqr = q3 - q1
    inside = r[(r >= q1 - 1.5 * iqr) & (r <= q3 + 1.5 * iqr)]
    return DatasetScoreSet(
        dataset_id=dataset_id,
        technique=technique,
        scores=tuple(scores),
        median=float(np.median(r)),
        q1=q1,
        q3=q3,
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        degenerate_count=sum(s.degenerate for s in scores),
        significant_count=int(np.sum(r > SIGNIFICANT_CORRELATION)),
        ground_truth=ground_truth,
    )


def evaluate_dataset(
    dataset: Dataset,
    model: Model,
    techniques: list[str],
    target_space: str,
    config: ExplainerConfig | None = None,
    seed: int = 0,
) -> list[DatasetScoreSet]:
    """Evaluates the test split under one model (a LogisticModel or a
    GaussianNBModel) in one pass: the ground truth of the whole split,
    extracted in one call, then one evaluate_instance call over the whole
    split. Instance k uses the seed derived from (seed, k), and no model
    call holds the rows of two instances, so a score does not depend on
    which instances share the pass. Returns one score set per technique, in
    the order given, each carrying that ground truth."""
    m = dataset.X_test.shape[0]
    if m == 0:
        raise ValueError(f"dataset {dataset.name!r} has an empty test split")
    truth = ground_truth(model, dataset.X_test)
    scores = evaluate_instance(
        dataset.X_test, truth.lam, model, techniques, target_space, dataset, config,
        seeds=[derive_seed(seed, k) for k in range(m)],
    )
    return [summarize_scores(dataset.name, t, s, truth) for t, s in zip(techniques, scores)]


def rank_techniques(score_sets: list[DatasetScoreSet]) -> RankTable:
    """Within each dataset rank techniques by median (1 = highest, exact median
    ties share the average position), then average ranks across datasets."""
    datasets: list[str] = []
    techniques: list[str] = []
    cells: dict[tuple[str, str], float] = {}
    for s in score_sets:
        if s.dataset_id not in datasets:
            datasets.append(s.dataset_id)
        if s.technique not in techniques:
            techniques.append(s.technique)
        cells[(s.dataset_id, s.technique)] = s.median
    for d in datasets:
        for t in techniques:
            if (d, t) not in cells:
                raise ValueError(f"missing score set for dataset {d!r}, technique {t!r}")

    per_dataset: dict[str, dict[str, float]] = {}
    for d in datasets:
        medians = np.array([round(cells[(d, t)], MEDIAN_TIE_DIGITS) for t in techniques])
        ranks = _block_ranks(-medians[None])[0]
        per_dataset[d] = {t: float(r) for t, r in zip(techniques, ranks)}

    average = {}
    std = {}
    for t in techniques:
        rs = np.array([per_dataset[d][t] for d in datasets])
        average[t] = float(rs.mean())
        std[t] = float(rs.std())
    return RankTable(
        datasets=tuple(datasets),
        per_dataset=per_dataset,
        average=average,
        std=std,
    )


def _score_set_dict(s: DatasetScoreSet) -> dict:
    return {
        "scores": [score.r for score in s.scores],
        "median": s.median,
        "q1": s.q1,
        "q3": s.q3,
        "whisker_low": s.whisker_low,
        "whisker_high": s.whisker_high,
        "degenerate_count": s.degenerate_count,
        "significant_count": s.significant_count,
    }


def write_json(obj, path: Path) -> None:
    """Writes obj as every xplain JSON file is laid out: indent 2, sorted
    keys, a final newline."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_report_set(
    out_dir: Path,
    cells: Sequence[tuple[Dataset, str, list[DatasetScoreSet]]],
    preprocess: str,
    target_space: str,
    seed: int,
) -> dict:
    """Writes an evaluated grid's report files into the existing directory
    out_dir and returns the rank_table.json payload. Each cell is (dataset,
    model kind, evaluate_dataset's score sets for it), all with the same
    techniques in one order, and no (dataset, model) repeats. Each cell's
    report is built and written before the next; rank_table.json and
    box_plot.csv follow, listing lr before gnb. An unwritable file is an XplainError."""
    by_kind: dict[str, list[DatasetScoreSet]] = {
        LogisticModel.kind: [], GaussianNBModel.kind: []}
    for _, kind, sets in cells:
        by_kind[kind].extend(sets)
    tables = {kind: rank_techniques(sets) for kind, sets in by_kind.items() if sets}
    run = {"preprocess": preprocess, "target_space": target_space, "seed": seed}
    rank_table = {**run, "models": {
        kind: {"per_dataset": t.per_dataset, "average_ranks": t.average, "std_ranks": t.std}
        for kind, t in tables.items()
    }}
    try:
        for dataset, kind, sets in cells:
            name = dataset.name
            truth = sets[0].ground_truth
            path = out_dir / f"{name}__{kind}.report.json"
            write_json({
                **run,
                "dataset": name,
                "model": kind,
                "feature_names": list(dataset.feature_names),
                "test_instances": int(dataset.X_test.shape[0]),
                "per_technique": {s.technique: _score_set_dict(s) for s in sets},
                "ranks": tables[kind].per_dataset[name],
                "average_ranks": tables[kind].average,
                "ground_truth": [
                    {"instance": k, "offset": truth.offset,
                     "values": [{"feature": f, "value": float(v)}
                                for f, v in zip(dataset.feature_names, row)]}
                    for k, row in enumerate(truth.lam)
                ],
            }, path)
        path = out_dir / "rank_table.json"
        write_json(rank_table, path)
        path = out_dir / "box_plot.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "model", "technique", "instance", "r"])
            writer.writerows([s.dataset_id, kind, s.technique, k, repr(score.r)]
                             for kind, sets in by_kind.items()
                             for s in sets for k, score in enumerate(s.scores))
    except OSError as exc:
        raise XplainError(f"cannot write {path}: {exc.strerror}") from None
    return rank_table
