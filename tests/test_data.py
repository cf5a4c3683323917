import importlib.util
import json
import sys

import numpy as np
import pytest

from xplain import data
from xplain.errors import (
    DimensionMismatchError,
    InvalidConfigError,
    InvalidCsvError,
    InvalidFractionError,
    NonBinaryTargetError,
    StratificationError,
)
from xplain.explainers import explain

from conftest import BUNDLED, DATASETS_DIR, SRC_DIR, linear_model, write_csv


def cfg_for(path, target="label", positive="yes", categorical=None, fraction=0.25, seed=0):
    return data.DatasetConfig(
        csv_path=path,
        target_column=target,
        positive_label=positive,
        categorical_columns=categorical,
        test_fraction=fraction,
        seed=seed,
    )


def encoded_categories(table):
    """The categories of the table's first one-hot group, with every row
    encoded as a training row."""
    parts = data.SplitTable(columns=table.columns, train_rows=table.rows, test_rows=[],
                            y_train=table.labels, y_test=table.labels[:0])
    ds = data.encode_onehot(parts)
    group = ds.groups[0]
    return tuple(ds.feature_names[j][len(group.column) + 1 :] for j in group.indices)


class TestLoadCsv:
    def test_binary_mapping(self, csv_dir):
        path = write_csv(csv_dir / "t.csv", "a,b,label",
                         ["1.0,2.0,yes", "3.0,4.0,no", "5.0,6.0,yes"])
        table = data.load_csv(path, cfg_for(path))
        assert len(table.columns) == 2
        assert [c.kind for c in table.columns] == ["numeric", "numeric"]
        assert table.labels.tolist() == [1, 0, 1]

    def test_three_label_values_rejected(self, csv_dir):
        path = write_csv(csv_dir / "t.csv", "a,label",
                         ["1,yes", "2,no", "3,maybe"])
        with pytest.raises(NonBinaryTargetError):
            data.load_csv(path, cfg_for(path))

    def test_categorical_first_appearance_order(self, csv_dir):
        path = write_csv(csv_dir / "t.csv", "color,label",
                         ["red,yes", "green,no", "blue,yes", "green,no"])
        table = data.load_csv(path, cfg_for(path))
        assert table.columns[0].kind == "categorical"
        assert encoded_categories(table) == ("red", "green", "blue")

    def test_byte_order_mark_left_out_of_header(self, csv_dir):
        path = csv_dir / "t.csv"
        path.write_text("\ufefflabel,a,b\nyes,1.0,2.0\nno,3.0,4.0\n", encoding="utf-8")
        table = data.load_csv(path, cfg_for(path))
        assert [c.name for c in table.columns] == ["a", "b"]
        assert table.labels.tolist() == [1, 0]

    def test_missing_file(self, csv_dir):
        with pytest.raises(FileNotFoundError):
            data.load_csv(csv_dir / "absent.csv", cfg_for(csv_dir / "absent.csv"))

    def test_target_column_absent(self, csv_dir):
        path = write_csv(csv_dir / "t.csv", "a,b", ["1,2"])
        with pytest.raises(NonBinaryTargetError):
            data.load_csv(path, cfg_for(path, target="label"))

    def test_unparseable_numeric_cell(self, csv_dir):
        path = write_csv(csv_dir / "t.csv", "a,label", ["1,yes", "oops,no"])
        with pytest.raises(ValueError, match="cannot parse"):
            data.load_csv(path, cfg_for(path, categorical=()))

    def test_positive_label_must_appear(self, csv_dir):
        path = write_csv(csv_dir / "t.csv", "a,label", ["1,yes", "2,no"])
        with pytest.raises(NonBinaryTargetError):
            data.load_csv(path, cfg_for(path, positive="YES"))

    @pytest.mark.parametrize("lines,categorical,message", [
        (["1,2,yes", "3,4,no"], None, r"line 1: column 2 repeats the header name 'a'"),
        (["1,2,yes", "", "3,no"], None, r"line 4: 2 cells for 3 columns; no cell for column 'label'"),
        (["1,2,yes", "3,4,no,5"], None, r"line 3: 4 cells for 3 columns; cell 4 has no column"),
        (["1,2,yes", "", "3,oops,no"], (), r"line 4: cannot parse 'oops' .* column 'b'"),
        (["1,2,yes", "nan,4,no"], None, r"line 3: cannot parse 'nan' .* column 'a'"),
        (["1,2,yes", f'3,"{"4" * 131_073}",no'], None,
         r"line 3: field larger than field limit \(131072\)$"),
    ], ids=["duplicate-header", "short-row", "long-row", "bad-number", "nan-cell",
            "cell-over-field-limit"])
    def test_csv_defect_names_file_line_and_column(self, csv_dir, lines, categorical, message):
        header = "a,a,label" if "repeats" in message else "a,b,label"
        path = write_csv(csv_dir / "t.csv", header, lines)
        with pytest.raises(InvalidCsvError, match=message) as info:
            data.load_csv(path, cfg_for(path, categorical=categorical))
        assert str(info.value).startswith(f"{path}: ")

    def test_unknown_categorical_column_named(self, csv_dir):
        path = write_csv(csv_dir / "t.csv", "a,b,label", ["1,x,yes", "2,y,no"])
        with pytest.raises(InvalidConfigError, match="'nope', 'B'$"):
            data.load_csv(path, cfg_for(path, categorical=("b", "nope", "B")))

    def test_autodetect_all_text_column_is_categorical(self, csv_dir):
        header, *rows = (DATASETS_DIR / "pima.csv").read_text().splitlines()
        sites = ("north", "south", "east")
        path = write_csv(csv_dir / "pima.csv", "site," + header,
                         [f"{sites[i % 3]},{row}" for i, row in enumerate(rows)])
        table = data.load_csv(path, cfg_for(path, target="diabetes", positive="1"))
        assert [c.name for c in table.columns if c.kind == "categorical"] == ["site"]
        assert encoded_categories(table) == sites

    def test_autodetect_text_cell_in_numeric_column_named(self, csv_dir):
        """Without categorical_columns, one bad cell does not turn a numeric
        column categorical: it is an error naming the CSV, line, column and cell."""
        header, *rows = (DATASETS_DIR / "pima.csv").read_text().splitlines()
        cells = rows[3].split(",")
        cells[header.split(",").index("glucose")] = "oops"
        rows[3] = ",".join(cells)
        path = write_csv(csv_dir / "pima.csv", header, rows)
        with pytest.raises(InvalidCsvError) as info:
            data.load_csv(path, cfg_for(path, target="diabetes", positive="1"))
        assert str(info.value) == (
            f"{path}: line 5: cannot parse 'oops' as a finite number in column 'glucose'"
        )

    def test_quoted_fields(self, csv_dir):
        path = write_csv(csv_dir / "t.csv", "desc,label",
                         ['"big, heavy",yes', '"small",no'])
        table = data.load_csv(path, cfg_for(path))
        assert encoded_categories(table) == ("big, heavy", "small")


def balanced_table(m, n=2, seed=0):
    rng = np.random.default_rng(seed)
    rows = [tuple(rng.normal(size=n)) for _ in range(m)]
    labels = np.array([i % 2 for i in range(m)])
    columns = tuple(data.ColumnSpec(f"c{j}", "numeric") for j in range(n))
    return data.RawTable(columns=columns, rows=rows, labels=labels)


class TestSplit:
    def test_counts_and_determinism(self):
        table = balanced_table(100)
        a = data.split(table, 0.25, seed=7)
        b = data.split(table, 0.25, seed=7)
        assert len(a.train_rows) == 75 and len(a.test_rows) == 25
        assert a.train_rows == b.train_rows and a.test_rows == b.test_rows
        assert a.y_test.tolist() == b.y_test.tolist()

    def test_both_classes_in_both_splits(self):
        table = balanced_table(8)
        parts = data.split(table, 0.25, seed=3)
        for y in (parts.y_train, parts.y_test):
            assert set(y.tolist()) == {0, 1}

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_fraction(self, fraction):
        with pytest.raises(InvalidFractionError):
            data.split(balanced_table(10), fraction, seed=0)

    def test_singleton_class_error(self):
        table = balanced_table(9)
        labels = np.zeros(9, dtype=int)
        labels[0] = 1
        table = data.RawTable(table.columns, table.rows, labels)
        with pytest.raises(StratificationError):
            data.split(table, 0.25, seed=0)

    def test_seed_changes_partition(self):
        table = balanced_table(60)
        a = data.split(table, 0.25, seed=1)
        b = data.split(table, 0.25, seed=2)
        assert a.test_rows != b.test_rows


def categorical_split(train_values, test_values, extra_numeric=True):
    columns = [data.ColumnSpec("color", "categorical")]
    if extra_numeric:
        columns.append(data.ColumnSpec("x", "numeric"))
    train_rows = [(v, float(i)) if extra_numeric else (v,) for i, v in enumerate(train_values)]
    test_rows = [(v, float(i)) if extra_numeric else (v,) for i, v in enumerate(test_values)]
    return data.SplitTable(
        columns=tuple(columns),
        train_rows=train_rows,
        test_rows=test_rows,
        y_train=np.array([i % 2 for i in range(len(train_rows))]),
        y_test=np.array([i % 2 for i in range(len(test_rows))]),
    )


class TestEncode:
    def test_unseen_category_is_zero_group(self):
        parts = categorical_split(["red", "green", "red", "green"], ["blue", "red"])
        ds = data.encode_onehot(parts)
        assert ds.feature_names[:2] == ("color=red", "color=green")
        assert ds.X_test[0, :2].tolist() == [0.0, 0.0]
        assert ds.unseen_category_count == 1

    def test_numeric_only_identity(self):
        table = balanced_table(12, n=3)
        parts = data.split(table, 0.25, seed=0)
        ds = data.encode_onehot(parts)
        assert ds.n_features == 3
        assert ds.groups == ()
        assert np.array_equal(ds.X_train, np.array(parts.train_rows))

    def test_indicator_position(self):
        parts = categorical_split(["a", "b", "c", "a"], ["b"])
        ds = data.encode_onehot(parts)
        assert ds.X_test[0, :3].tolist() == [0.0, 1.0, 0.0]

    def test_group_sums_are_one(self):
        rng = np.random.default_rng(5)
        cats = [str(c) for c in rng.integers(0, 4, size=40)]
        parts = categorical_split(cats[:30], cats[30:])
        ds = data.encode_onehot(parts)
        (group,) = ds.groups
        for X in (ds.X_train, ds.X_test):
            sums = X[:, list(group.indices)].sum(axis=1)
            assert np.all(sums == 1.0)

    def test_single_training_category_rejected(self):
        parts = categorical_split(["a", "a", "a"], ["a"])
        with pytest.raises(ValueError, match="fewer than 2"):
            data.encode_onehot(parts)


def dataset_from_matrix(X, n_test=2):
    X = np.asarray(X, dtype=float)
    return data.Dataset(
        feature_names=tuple(f"f{i}" for i in range(X.shape[1])),
        X_train=X[:-n_test],
        X_test=X[-n_test:],
        y_train=np.array([i % 2 for i in range(len(X) - n_test)]),
        y_test=np.array([i % 2 for i in range(n_test)]),
    )


def layout_kwargs(**overrides):
    X = np.arange(30, dtype=float).reshape(6, 5)
    kwargs = dict(feature_names=tuple("abcde"), X_train=X[:4], X_test=X[4:],
                  y_train=np.array([0, 1, 0, 1]), y_test=np.array([0, 1]))
    return {**kwargs, **overrides}


def group(*indices):
    return data.EncodedGroup("g", indices)


class TestLayout:
    def test_matrices_alone_are_all_numeric(self):
        rng = np.random.default_rng(3)
        X = rng.normal(1.0, 2.0, (40, 4))
        ds = data.Dataset(feature_names=tuple("abcd"), X_train=X[:30], X_test=X[30:],
                          y_train=np.arange(30) % 2, y_test=np.arange(10) % 2)
        assert ds.numeric_indices == (0, 1, 2, 3)
        w = np.array([1.0, 2.0, 3.0, 4.0])
        x = ds.X_test[0]
        phi = explain("lpi", "logodds", linear_model(w), x, ds, seed=1).phi  # one full permutation
        assert np.max(np.abs(phi - w * (x - ds.X_train.mean(axis=0)))) < 1e-12
        std = data.apply_preprocess(data.fit_preprocess(ds, "standardize"), ds.X_train)
        assert np.all(np.abs(std.mean(axis=0)) < 1e-12)

    def test_slots_in_column_order(self):
        g = group(1, 2, 3)
        ds = data.Dataset(**layout_kwargs(groups=(g,)))
        assert ds.numeric_indices == (0, 4)
        assert [(cols.tolist(), grp) for cols, grp in ds.slots] == [
            ([0], None), ([1, 2, 3], g), ([4], None)
        ]

    @pytest.mark.parametrize("overrides", [
        {"groups": (group(3, 5),)},
        {"groups": (group(-1, 0),)},
        {"groups": (group(0, 1), group(1, 2))},
        {"groups": (group(2, 2),)},
        {"groups": (group(2),)},
        {"feature_names": tuple("abcd")},
        {"X_test": np.zeros((2, 4))},
    ], ids=["index-past-end", "negative-index", "overlapping-groups", "repeated-index",
            "one-column-group", "short-feature-names", "test-column-count"])
    def test_inconsistent_layout_rejected(self, overrides):
        with pytest.raises(DimensionMismatchError):
            data.Dataset(**layout_kwargs(**overrides))


class TestPreprocess:
    def test_standardize_moments(self):
        ds = dataset_from_matrix([[1.0], [2.0], [3.0], [9.0], [9.5]])
        spec = data.fit_preprocess(ds, "standardize")
        out = data.apply_preprocess(spec, ds.X_train)
        assert abs(out[:, 0].mean()) < 1e-12
        assert abs(out[:, 0].std(ddof=1) - 1.0) < 1e-12

    def test_minmax_maps_and_extrapolates(self):
        ds = dataset_from_matrix([[0.0], [10.0], [20.0], [5.0]], n_test=2)
        spec = data.fit_preprocess(ds, "minmax")
        train = data.apply_preprocess(spec, ds.X_train)
        assert train[:, 0].tolist() == [0.0, 1.0]
        out = data.apply_preprocess(spec, np.array([[20.0]]))
        assert out[0, 0] == 2.0  # no clipping outside the training range

    def test_constant_column_maps_to_zero(self):
        ds = dataset_from_matrix([[5.0], [5.0], [5.0], [5.0], [5.0]])
        for kind in data.PREPROCESS_KINDS:
            spec = data.fit_preprocess(ds, kind)
            out = data.apply_preprocess(spec, ds.X_train)
            assert np.all(out == 0.0)

    def test_interquartile_median_zero(self):
        rng = np.random.default_rng(0)
        ds = dataset_from_matrix(rng.normal(3, 2, (101, 2)))
        spec = data.fit_preprocess(ds, "interquartile")
        out = data.apply_preprocess(spec, ds.X_train)
        assert np.all(np.abs(np.median(out, axis=0)) < 1e-10)

    def test_quartiles_linear_interpolation(self):
        ds = dataset_from_matrix([[x] for x in [0.0, 1.0, 2.0, 3.0, 10.0, 11.0]], n_test=2)
        spec = data.fit_preprocess(ds, "interquartile")
        # train column is (0, 1, 2, 3): median 1.5, q1 0.75, q3 2.25
        assert spec.center[0] == 1.5
        assert spec.scale[0] == 1.5

    def test_invertibility(self):
        rng = np.random.default_rng(1)
        ds = dataset_from_matrix(rng.normal(0, 3, (50, 4)))
        for kind in data.PREPROCESS_KINDS:
            spec = data.fit_preprocess(ds, kind)
            out = data.apply_preprocess(spec, ds.X_test)
            back = out * spec.scale + spec.center
            assert np.max(np.abs(back - ds.X_test)) < 1e-12

    def test_identity_spec_fixed_point(self):
        ds = dataset_from_matrix([[-1.0], [0.0], [1.0], [2.0]], n_test=1)
        # train column (-1, 0, 1): mean 0, sample std 1
        spec = data.fit_preprocess(ds, "standardize")
        out = data.apply_preprocess(spec, ds.X_train)
        assert np.max(np.abs(out - ds.X_train)) < 1e-12

    def test_fit_apply_separation(self):
        rng = np.random.default_rng(2)
        ds = dataset_from_matrix(rng.normal(0, 1, (60, 2)), n_test=20)
        spec = data.fit_preprocess(ds, "standardize")
        test_out = data.apply_preprocess(spec, ds.X_test + 5.0)
        assert np.abs(test_out.mean(axis=0)).min() > 0.5  # no refit on test data

    def test_onehot_columns_untouched(self):
        parts = categorical_split(["a", "b", "a", "b", "a"], ["b", "a"])
        ds = data.encode_onehot(parts)
        spec = data.fit_preprocess(ds, "standardize")
        out = data.apply_preprocess(spec, ds.X_train)
        group_idx = list(ds.groups[0].indices)
        assert np.array_equal(out[:, group_idx], ds.X_train[:, group_idx])

    def test_dimension_mismatch(self):
        ds = dataset_from_matrix(np.zeros((6, 3)))
        spec = data.fit_preprocess(ds, "standardize")
        with pytest.raises(DimensionMismatchError):
            data.apply_preprocess(spec, np.zeros((2, 4)))

    def test_unknown_kind(self):
        ds = dataset_from_matrix(np.zeros((6, 3)))
        with pytest.raises(ValueError):
            data.fit_preprocess(ds, "robust")

    def test_moment_invariants_random_matrices(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            ds = dataset_from_matrix(rng.normal(rng.normal(), rng.uniform(0.1, 4),
                                                (rng.integers(5, 60), 3)))
            std = data.apply_preprocess(data.fit_preprocess(ds, "standardize"), ds.X_train)
            assert np.all(np.abs(std.mean(axis=0)) < 1e-10)
            assert np.all(np.abs(std.std(axis=0, ddof=1) - 1.0) < 1e-10)
            mm = data.apply_preprocess(data.fit_preprocess(ds, "minmax"), ds.X_train)
            assert np.all(mm.min(axis=0) == 0.0)
            assert np.all(mm.max(axis=0) == 1.0)
            iq = data.apply_preprocess(data.fit_preprocess(ds, "interquartile"), ds.X_train)
            assert np.all(np.abs(np.median(iq, axis=0)) < 1e-10)


class TestConfig:
    def test_from_json_resolves_relative_path(self, csv_dir):
        csv_path = write_csv(csv_dir / "d.csv", "a,label", ["1,yes", "2,no"])
        cfg_path = csv_dir / "d.json"
        cfg_path.write_text(json.dumps({
            "csv_path": "d.csv",
            "target_column": "label",
            "positive_label": "yes",
        }))
        cfg = data.DatasetConfig.from_json(cfg_path)
        assert cfg.csv_path == csv_path
        assert cfg.test_fraction == 0.25
        assert cfg.name == "d"

    def test_integer_positive_label_reads_as_text(self, csv_dir):
        csv_path = write_csv(csv_dir / "d.csv", "a,label", ["1,1", "2,0"])
        cfg_path = csv_dir / "d.json"
        cfg_path.write_text(json.dumps({
            "csv_path": "d.csv", "target_column": "label", "positive_label": 1,
        }))
        cfg = data.DatasetConfig.from_json(cfg_path)
        assert cfg.positive_label == "1"
        assert list(data.load_csv(csv_path, cfg).labels) == [1, 0]

    @pytest.mark.parametrize("label", [True, None, 1.0, [1]],
                             ids=["bool", "null", "float", "list"])
    def test_positive_label_type_checked(self, csv_dir, label):
        write_csv(csv_dir / "d.csv", "a,label", ["1,1", "2,0"])
        cfg_path = csv_dir / "d.json"
        cfg_path.write_text(json.dumps({
            "csv_path": "d.csv", "target_column": "label", "positive_label": label,
        }))
        with pytest.raises(InvalidConfigError) as info:
            data.DatasetConfig.from_json(cfg_path)
        assert str(info.value) == (
            f"{cfg_path}: 'positive_label' must be a string or an integer, got {label!r}")

    def test_nested_too_deep_is_not_a_json_object(self, csv_dir):
        cfg_path = csv_dir / "d.json"
        cfg_path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(InvalidConfigError) as info:
            data.DatasetConfig.from_json(cfg_path)
        assert str(info.value).startswith(f"{cfg_path}: not a JSON object (maximum recursion")


def test_make_datasets_reproduces_bundled_files(tmp_path, monkeypatch):
    """tools/make_datasets.py, which runs the data layer to calibrate banknote,
    regenerates every committed CSV and config byte for byte."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/
    spec = importlib.util.spec_from_file_location(
        "make_datasets", SRC_DIR.parent / "tools" / "make_datasets.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT_DIR", tmp_path)
    tool.main()
    expected = sorted(f"{name}.{ext}" for name in BUNDLED for ext in ("csv", "json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (DATASETS_DIR / name).read_bytes(), name
