"""CSV ingestion, stratified splitting, one-hot encoding and numeric preprocessing.

The pipeline is load_csv -> split -> encode_onehot -> fit/apply_preprocess.
Category vocabularies and all numeric statistics are fitted on the training
split only; test rows are transformed with the fitted parameters.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    InvalidCsvError,
    InvalidFractionError,
    NonBinaryTargetError,
    StratificationError,
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"

PREPROCESS_KINDS = ("standardize", "minmax", "interquartile")


@dataclass(frozen=True)
class ColumnSpec:
    """One source column: its name and kind. encode_onehot fits a categorical
    column's vocabulary on the training rows and names each category's
    encoded column column=category."""

    name: str
    kind: str


@dataclass(frozen=True)
class DatasetConfig:
    """Parsed dataset config JSON (csv path resolved against the config file)."""

    csv_path: Path
    target_column: str
    positive_label: str
    categorical_columns: tuple[str, ...] | None = None
    test_fraction: float = 0.25
    seed: int = 0
    name: str = ""

    @staticmethod
    def from_json(path: str | Path) -> "DatasetConfig":
        path = Path(path)
        try:
            with open(path, encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, nested too deep
            raise InvalidConfigError(f"{path}: not a JSON object ({exc})") from None
        except OSError as exc:  # missing, a directory, unreadable
            raise InvalidConfigError(f"{path}: cannot read ({exc.strerror})") from None
        if not isinstance(raw, dict):
            raise InvalidConfigError(f"{path}: not a JSON object")
        for key in ("csv_path", "target_column", "positive_label"):
            if key not in raw:
                raise InvalidConfigError(f"{path}: missing required key {key!r}")

        def value(key, ok, expected, default=None):
            v = raw.get(key, default)
            if isinstance(v, bool) or not ok(v):
                raise InvalidConfigError(f"{path}: {key!r} must be {expected}, got {v!r}")
            return v

        def is_str(v):
            return isinstance(v, str)

        csv_path = Path(value("csv_path", lambda v: is_str(v) and _encodable(v),
                              "a string without lone surrogates"))
        if not csv_path.is_absolute():
            csv_path = path.parent / csv_path
        # reports are written to <out>/<name>__<model>.report.json
        name = value("name", is_str, "a string", path.stem)
        if "/" in name or "\0" in name or name in ("", ".", "..") or not _encodable(name):
            raise InvalidConfigError(
                f"{path}: 'name' must be one file-name component (no '/', NUL or "
                f"lone surrogate, not '', '.' or '..'), got {name!r}"
            )
        cats = value("categorical_columns",
                     lambda v: v is None or isinstance(v, list) and all(map(is_str, v)),
                     "a list of column names")
        return DatasetConfig(
            csv_path=csv_path,
            target_column=value("target_column", is_str, "a string"),
            positive_label=str(value("positive_label", lambda v: isinstance(v, (str, int)),
                                     "a string or an integer")),
            categorical_columns=None if cats is None else tuple(cats),
            test_fraction=float(
                value("test_fraction", lambda v: isinstance(v, (int, float)), "a number", 0.25)
            ),
            seed=value("seed", lambda v: isinstance(v, int) and v >= 0,
                       "a non-negative integer", 0),
            name=name,
        )


def _encodable(path: str) -> bool:
    """Whether the file system encoding can write path (a lone surrogate from a
    JSON escape like "\\ud800" cannot be)."""
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        return False
    return True


@dataclass(frozen=True)
class RawTable:
    """Typed rows plus binary labels, before splitting and encoding."""

    columns: tuple[ColumnSpec, ...]
    rows: list[tuple]
    labels: np.ndarray


@dataclass(frozen=True)
class SplitTable:
    """Stratified train/test partition of a RawTable, still pre-encoding."""

    columns: tuple[ColumnSpec, ...]
    train_rows: list[tuple]
    test_rows: list[tuple]
    y_train: np.ndarray
    y_test: np.ndarray


@dataclass(frozen=True)
class EncodedGroup:
    """Encoded column indices belonging to one categorical source column."""

    column: str
    indices: tuple[int, ...]


@dataclass(frozen=True)
class Dataset:
    """Post-encoding dataset: dense matrices plus the feature layout explainers need.

    `groups` is the only stored layout; `numeric_indices` and `slots` derive
    from it. A layout the matrices contradict raises DimensionMismatchError.
    """

    feature_names: tuple[str, ...]
    X_train: np.ndarray
    X_test: np.ndarray
    y_train: np.ndarray
    y_test: np.ndarray
    groups: tuple[EncodedGroup, ...] = ()
    unseen_category_count: int = 0
    name: str = ""

    def __post_init__(self):
        n = self.n_features
        if self.X_test.shape[1] != n:
            raise DimensionMismatchError(
                f"X_test has {self.X_test.shape[1]} columns, X_train has {n}"
            )
        if len(self.feature_names) != n:
            raise DimensionMismatchError(
                f"{len(self.feature_names)} feature names for {n} columns"
            )
        grouped: set[int] = set()
        for g in self.groups:
            if len(g.indices) < 2:
                raise DimensionMismatchError(
                    f"group {g.column!r} has {len(g.indices)} column(s), needs at least 2"
                )
            for j in g.indices:
                if not 0 <= j < n:
                    raise DimensionMismatchError(
                        f"group {g.column!r}: column {j} outside the {n} columns"
                    )
                if j in grouped:
                    raise DimensionMismatchError(
                        f"group {g.column!r}: column {j} already belongs to a group"
                    )
                grouped.add(j)

    @property
    def n_features(self) -> int:
        return self.X_train.shape[1]

    @property
    def numeric_indices(self) -> tuple[int, ...]:
        """The columns that belong to no one-hot group."""
        grouped = {j for g in self.groups for j in g.indices}
        return tuple(j for j in range(self.n_features) if j not in grouped)

    @cached_property
    def slots(self) -> tuple[tuple[np.ndarray, EncodedGroup | None], ...]:
        """One (column indices, group) pair per slot, in column order: a numeric
        column with group None, or a one-hot group's columns with the group."""
        slots = [(np.array([j]), None) for j in self.numeric_indices]
        slots += [(np.array(g.indices), g) for g in self.groups]
        return tuple(sorted(slots, key=lambda slot: slot[0].min()))


@dataclass(frozen=True)
class PreprocessSpec:
    """Per-column affine transform (x - center) / scale fitted on the training split.

    One-hot columns keep center 0 / scale 1 and pass through untouched.
    Degenerate denominators (std, range or IQR equal to 0) are replaced by 1.
    """

    kind: str
    center: np.ndarray
    scale: np.ndarray

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "center": [float(v) for v in self.center],
            "scale": [float(v) for v in self.scale],
        }


def _finite_number(cell: str) -> float | None:
    """The cell as a float, or None when it is not a finite number."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def load_csv(path: str | Path, config: DatasetConfig) -> RawTable:
    """Read a CSV file into typed rows and {0,1} labels.

    Column kinds come from config.categorical_columns when given (every name
    must be a header column); otherwise a column is numeric iff at least one of
    its cells is a finite number, so a column with no such cell is categorical
    and a stray text cell in a numeric column is an error, not a new category.
    Categorical vocabularies are fitted on training rows during encoding. A
    duplicate header name, a row whose cell count differs from the header's, or
    a numeric cell that is not a finite number raises InvalidCsvError naming
    the file, CSV line, column and cell; a line the csv module cannot parse
    (a cell longer than csv.field_size_limit(), say) one naming the file and
    line. A missing file raises FileNotFoundError; one that cannot be read (a
    directory, no permission, a name too long) raises InvalidCsvError.
    """
    path = Path(path)
    lines: list[int] = []  # the CSV line each record ends on
    records: list[list[str]] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            for row in reader:
                if row:
                    lines.append(reader.line_num)
                    records.append(row)
    except StopIteration:
        raise NonBinaryTargetError(f"{path}: empty file") from None
    except UnicodeDecodeError as exc:
        raise InvalidCsvError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:  # a cell over the csv module's field size limit, say
        raise InvalidCsvError(f"{path}: line {reader.line_num}: {exc}") from None
    except FileNotFoundError:
        raise FileNotFoundError(f"dataset file not found: {path}") from None
    except OSError as exc:  # a directory, unreadable, a name too long
        raise InvalidCsvError(f"{path}: cannot read ({exc.strerror})") from None

    for j, name in enumerate(header):
        if name in header[:j]:
            raise InvalidCsvError(
                f"{path}: line 1: column {j + 1} repeats the header name {name!r}"
            )
    for line, row in zip(lines, records):
        if len(row) != len(header):
            which = (f"no cell for column {header[len(row)]!r}" if len(row) < len(header)
                     else f"cell {len(header) + 1} has no column")
            raise InvalidCsvError(
                f"{path}: line {line}: {len(row)} cells for {len(header)} columns; {which}"
            )
    if config.target_column not in header:
        raise NonBinaryTargetError(
            f"{path}: target column {config.target_column!r} not in header"
        )
    target_idx = header.index(config.target_column)
    feature_names = [h for i, h in enumerate(header) if i != target_idx]

    raw_labels = [row[target_idx].strip() for row in records]
    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise NonBinaryTargetError(
            f"{path}: target has {len(distinct)} distinct values, expected 2"
        )
    if config.positive_label not in distinct:
        raise NonBinaryTargetError(
            f"{path}: positive label {config.positive_label!r} not among {distinct}"
        )
    labels = np.array([1 if v == config.positive_label else 0 for v in raw_labels])

    cells = [[c for i, c in enumerate(row) if i != target_idx] for row in records]
    if config.categorical_columns is not None:
        unknown = [c for c in config.categorical_columns if c not in header]
        if unknown:
            raise InvalidConfigError(
                f"{path}: categorical_columns names no column of the header: "
                + ", ".join(map(repr, unknown))
            )
        categorical = set(config.categorical_columns)
    else:
        categorical = {
            name for j, name in enumerate(feature_names)
            if all(_finite_number(row[j]) is None for row in cells)
        }

    columns = [ColumnSpec(name, CATEGORICAL if name in categorical else NUMERIC)
               for name in feature_names]

    rows = []
    for line, row in zip(lines, cells):
        typed = []
        for j, spec in enumerate(columns):
            if spec.kind == NUMERIC:
                value = _finite_number(row[j])
                if value is None:
                    raise InvalidCsvError(
                        f"{path}: line {line}: cannot parse {row[j]!r} as a finite "
                        f"number in column {spec.name!r}"
                    )
                typed.append(value)
            else:
                typed.append(row[j].strip())
        rows.append(tuple(typed))

    return RawTable(columns=tuple(columns), rows=rows, labels=labels)


def stratified_indices(
    labels: np.ndarray, test_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic stratified partition of row indices into (train, test).

    The total test count is round-half-up(fraction * m); it is apportioned per
    class by largest remainder, then clamped so each class with >= 2 members
    keeps at least one row on each side.
    """
    labels = np.asarray(labels)
    m = len(labels)
    classes = [0, 1]
    counts = {c: int(np.sum(labels == c)) for c in classes}
    for c in classes:
        if counts[c] < 2:
            raise StratificationError(
                f"class {c} has {counts[c]} member(s); stratified split impossible"
            )

    total_test = int(np.floor(test_fraction * m + 0.5))
    quotas = {c: test_fraction * counts[c] for c in classes}
    base = {c: int(np.floor(quotas[c])) for c in classes}
    leftover = total_test - sum(base.values())
    by_remainder = sorted(classes, key=lambda c: (-(quotas[c] - base[c]), c))
    for c in by_remainder[: max(leftover, 0)]:
        base[c] += 1
    for c in classes:
        base[c] = min(max(base[c], 1), counts[c] - 1)

    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for c in classes:
        members = np.flatnonzero(labels == c)
        perm = rng.permutation(len(members))
        shuffled = members[perm]
        test_idx.append(shuffled[: base[c]])
        train_idx.append(shuffled[base[c] :])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def split(table: RawTable, test_fraction: float = 0.25, seed: int = 0) -> SplitTable:
    """Stratified train/test split, a pure function of (table, fraction, seed)."""
    if not 0.0 < test_fraction < 1.0:
        raise InvalidFractionError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = stratified_indices(table.labels, test_fraction, rng)
    return SplitTable(
        columns=table.columns,
        train_rows=[table.rows[i] for i in train_idx],
        test_rows=[table.rows[i] for i in test_idx],
        y_train=table.labels[train_idx].copy(),
        y_test=table.labels[test_idx].copy(),
    )


def encode_onehot(split_table: SplitTable, name: str = "") -> Dataset:
    """Expand categorical columns into one binary column per training category.

    Vocabularies are fitted on training rows in first-appearance order. A
    test category never seen in training encodes as an all-zero group and is
    counted in the returned dataset's unseen_category_count.
    """
    vocabularies: list[tuple[str, ...] | None] = []  # per source column; None if numeric
    for j, spec in enumerate(split_table.columns):
        if spec.kind == CATEGORICAL:
            seen: dict[str, None] = {}
            for row in split_table.train_rows:
                seen.setdefault(row[j], None)
            if len(seen) < 2:
                raise InvalidCsvError(
                    f"categorical column {spec.name!r} has fewer than 2 categories "
                    "in the training split"
                )
            vocabularies.append(tuple(seen))
        else:
            vocabularies.append(None)

    feature_names: list[str] = []
    groups: list[EncodedGroup] = []
    for spec, vocab in zip(split_table.columns, vocabularies):
        if vocab is None:
            feature_names.append(spec.name)
        else:
            start = len(feature_names)
            for cat in vocab:
                feature_names.append(f"{spec.name}={cat}")
            groups.append(EncodedGroup(spec.name, tuple(range(start, len(feature_names)))))

    unseen = 0

    def encode_rows(rows: list[tuple]) -> np.ndarray:
        nonlocal unseen
        X = np.zeros((len(rows), len(feature_names)))
        for r, row in enumerate(rows):
            pos = 0
            for j, vocab in enumerate(vocabularies):
                if vocab is None:
                    X[r, pos] = row[j]
                    pos += 1
                else:
                    try:
                        X[r, pos + vocab.index(row[j])] = 1.0
                    except ValueError:
                        unseen += 1
                    pos += len(vocab)
        return X

    X_train = encode_rows(split_table.train_rows)
    X_test = encode_rows(split_table.test_rows)
    return Dataset(
        feature_names=tuple(feature_names),
        X_train=X_train,
        X_test=X_test,
        y_train=split_table.y_train,
        y_test=split_table.y_test,
        groups=tuple(groups),
        unseen_category_count=unseen,
        name=name,
    )


def fit_preprocess(dataset: Dataset, kind: str) -> PreprocessSpec:
    """Fit the chosen per-column transform on the training split.

    standardize: (x - mean) / std with the n-1 denominator; minmax:
    (x - min) / (max - min); interquartile: (x - median) / (Q3 - Q1) with
    quartiles by linear interpolation. A zero denominator becomes 1.
    """
    if kind not in PREPROCESS_KINDS:
        raise ValueError(f"unknown preprocess kind {kind!r}")
    if dataset.X_train.shape[0] == 0:
        raise ValueError("training split is empty")
    n = dataset.n_features
    center = np.zeros(n)
    scale = np.ones(n)
    idx = list(dataset.numeric_indices)
    if idx:
        cols = dataset.X_train[:, idx]
        if kind == "standardize":
            center[idx] = cols.mean(axis=0)
            scale[idx] = cols.std(axis=0, ddof=1) if cols.shape[0] > 1 else 0.0
        elif kind == "minmax":
            center[idx] = cols.min(axis=0)
            scale[idx] = cols.max(axis=0) - cols.min(axis=0)
        else:
            center[idx] = np.percentile(cols, 50, axis=0)
            scale[idx] = np.percentile(cols, 75, axis=0) - np.percentile(cols, 25, axis=0)
        degenerate = scale == 0.0
        scale[degenerate] = 1.0
    return PreprocessSpec(kind=kind, center=center, scale=scale)


def apply_preprocess(spec: PreprocessSpec, matrix: np.ndarray) -> np.ndarray:
    """Apply the fitted per-column affine transform; no refitting happens here."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != len(spec.center):
        raise DimensionMismatchError(
            f"matrix has {matrix.shape[-1] if matrix.ndim else 0} columns, "
            f"spec expects {len(spec.center)}"
        )
    return (matrix - spec.center) / spec.scale


def preprocess_dataset(dataset: Dataset, kind: str) -> tuple[Dataset, PreprocessSpec]:
    """Fit on the training split and return the transformed dataset plus spec.

    A numeric column whose transform overflows float64 (its spread, as for
    1e308 and -1e308, or a value's distance from the fitted center) raises
    InvalidCsvError naming the column."""
    with np.errstate(over="ignore", invalid="ignore"):
        spec = fit_preprocess(dataset, kind)
        X_train = apply_preprocess(spec, dataset.X_train)
        X_test = apply_preprocess(spec, dataset.X_test)
    finite = (np.isfinite(spec.center) & np.isfinite(spec.scale)
              & np.isfinite(X_train).all(axis=0) & np.isfinite(X_test).all(axis=0))
    if not finite.all():
        name = dataset.feature_names[int(np.argmin(finite))]
        raise InvalidCsvError(
            f"numeric column {name!r}: its values overflow float64 under the {kind} transform"
        )
    return replace(dataset, X_train=X_train, X_test=X_test), spec


def load_dataset(config: DatasetConfig) -> Dataset:
    """Full ingestion pipeline: load, split, one-hot encode."""
    table = load_csv(config.csv_path, config)
    parts = split(table, config.test_fraction, config.seed)
    try:
        return encode_onehot(parts, name=config.name)
    except InvalidCsvError as exc:
        raise InvalidCsvError(f"{config.csv_path}: {exc}") from None
