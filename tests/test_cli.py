import csv
import dataclasses
import inspect
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from xplain import cli
from xplain.explainers import ExplainerConfig, Explanation

from conftest import DATASETS_DIR, SRC_DIR, wide_mixed_config, write_csv

TRAIN_FLAGS = ["--trials", "4", "--seed", "7"]
FAST_FLAGS = [
    *TRAIN_FLAGS,
    "--lime-samples", "300",
    "--shap-samples", "300",
    "--lpi-samples", "80",
]


def ds_config(name):
    return str(DATASETS_DIR / f"{name}.json")


@pytest.fixture(scope="module")
def evaluate_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    argv = [
        "evaluate",
        "--dataset", ds_config("iris_binary"),
        "--dataset", ds_config("haberman"),
        "--dataset", ds_config("pima"),
        "--model", "both",
        "--technique", "lime,shap,lpi",
        "--out", str(out),
        *FAST_FLAGS,
    ]
    code = cli.main(argv)
    return code, out, argv


class TestEvaluate:
    def test_exit_code_and_files(self, evaluate_run):
        code, out, _ = evaluate_run
        assert code == 0
        expected = {
            "iris_binary__lr.report.json", "iris_binary__gnb.report.json",
            "haberman__lr.report.json", "haberman__gnb.report.json",
            "pima__lr.report.json", "pima__gnb.report.json",
            "rank_table.json", "box_plot.csv",
        }
        assert expected <= {p.name for p in out.iterdir()}

    def test_report_shape_and_rank_sums(self, evaluate_run):
        _, out, _ = evaluate_run
        report = json.loads((out / "haberman__gnb.report.json").read_text())
        assert report["dataset"] == "haberman"
        assert report["model"] == "gnb"
        assert report["preprocess"] == "standardize"
        assert set(report["per_technique"]) == {"lime", "shap", "lpi"}
        for block in report["per_technique"].values():
            assert len(block["scores"]) == report["test_instances"]
            assert block["q1"] <= block["median"] <= block["q3"]
        assert sum(report["ranks"].values()) == 6.0
        gt = report["ground_truth"]
        assert len(gt) == report["test_instances"]
        assert len(gt[0]["values"]) == len(report["feature_names"])

        table = json.loads((out / "rank_table.json").read_text())
        for kind in ("lr", "gnb"):
            for ranks in table["models"][kind]["per_dataset"].values():
                assert sum(ranks.values()) == 6.0

    def test_box_plot_csv_recomputes_rank_table(self, evaluate_run):
        _, out, _ = evaluate_run
        with (out / "box_plot.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["technique"] for r in rows} == {"lime", "shap", "lpi"}
        datasets = ("iris_binary", "haberman", "pima")
        table = json.loads((out / "rank_table.json").read_text())
        for kind in ("lr", "gnb"):
            medians = {}
            for dataset in datasets:
                for tech in ("lime", "shap", "lpi"):
                    vals = [float(r["r"]) for r in rows
                            if (r["dataset"], r["model"], r["technique"]) == (dataset, kind, tech)]
                    medians[(dataset, tech)] = np.median(vals)
            # independent rank computation: 1 = highest median, ties averaged
            averages = {t: 0.0 for t in ("lime", "shap", "lpi")}
            for dataset in datasets:
                meds = {t: round(medians[(dataset, t)], 12) for t in averages}
                for t in averages:
                    higher = sum(1 for u in meds.values() if u > meds[t])
                    equal = sum(1 for u in meds.values() if u == meds[t])
                    averages[t] += higher + (equal + 1) / 2.0
            for t in averages:
                averages[t] /= len(datasets)
                assert averages[t] == pytest.approx(
                    table["models"][kind]["average_ranks"][t], abs=1e-12
                )

    def test_rerun_is_byte_identical(self, evaluate_run, tmp_path):
        code, out, argv = evaluate_run
        out2 = tmp_path / "again"
        argv2 = [a if a != str(out) else str(out2) for a in argv]
        assert cli.main(argv2) == 0
        for name in ("iris_binary__lr.report.json", "haberman__gnb.report.json",
                     "rank_table.json", "box_plot.csv"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_technique_fails(self, tmp_path):
        code = cli.main([
            "evaluate", "--dataset", ds_config("iris_binary"),
            "--technique", "mystery", "--out", str(tmp_path),
        ])
        assert code == 1

    def test_missing_dataset_partial_failure(self, tmp_path, capsys):
        code = cli.main([
            "evaluate",
            "--dataset", str(tmp_path / "nope.json"),
            "--dataset", ds_config("iris_binary"),
            "--model", "gnb",
            "--out", str(tmp_path / "out"),
            *FAST_FLAGS,
        ])
        assert code == 1
        # the healthy dataset still produced its report
        assert (tmp_path / "out" / "iris_binary__gnb.report.json").exists()
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: dataset 'nope' failed at stage data: ")

    def test_duplicate_dataset_name_fails_its_data_stage(self, tmp_path, capsys):
        out = tmp_path / "out"
        iris = ds_config("iris_binary")
        code = cli.main([
            "evaluate", "--dataset", iris, "--dataset", iris,
            "--dataset", ds_config("haberman"),
            "--model", "gnb", "--out", str(out), *FAST_FLAGS,
        ])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [
            f"error: dataset 'iris_binary' failed at stage data: name already used by {iris}"
        ]
        # the other datasets still ran, and iris_binary's rows appear once
        assert (out / "haberman__gnb.report.json").exists()
        with open(out / "box_plot.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        iris_rows = [r for r in rows if r["dataset"] == "iris_binary"]
        report = json.loads((out / "iris_binary__gnb.report.json").read_text())
        assert len(iris_rows) == 3 * report["test_instances"]
        rank_table = json.loads((out / "rank_table.json").read_text())
        assert sorted(rank_table["models"]["gnb"]["per_dataset"]) == ["haberman", "iris_binary"]

    def test_dataset_directory_named_by_its_path(self, tmp_path, capsys, monkeypatch):
        """`--dataset .` has an empty stem; the diagnostic names the path."""
        monkeypatch.chdir(tmp_path)
        assert cli.main(["evaluate", "--dataset", ".", "--model", "gnb",
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: dataset '.' failed at stage data: .: cannot read ("), err


@pytest.fixture(scope="module")
def unthreaded_run(tmp_path_factory):
    """An evaluate run's report set with XPLAIN_THREADS unset."""
    out = tmp_path_factory.mktemp("unthreaded")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("XPLAIN_THREADS", raising=False)
        assert cli.main(["evaluate", "--dataset", ds_config("iris_binary"),
                         "--out", str(out), *FAST_FLAGS]) == 0
    return out


@pytest.mark.parametrize("value", ["abc", "0", "2"])
def test_thread_variable_not_read(value, unthreaded_run, tmp_path, monkeypatch):
    """The CLI evaluates serially: XPLAIN_THREADS neither fails a run nor
    reaches evaluate_dataset, and the reports equal an unset run's."""
    monkeypatch.setenv("XPLAIN_THREADS", value)
    real = cli.evaluate_dataset
    calls = []

    def spy(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_dataset", spy)
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--dataset", ds_config("iris_binary"),
                     "--out", str(out), *FAST_FLAGS]) == 0
    assert len(calls) == 2
    names = sorted(p.name for p in unthreaded_run.iterdir())
    assert names == sorted(p.name for p in out.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (unthreaded_run / name).read_bytes(), name


def test_cli_import_leaves_the_pool_unloaded():
    """Importing every xplain module loads no concurrent.futures and nothing
    outside the standard library but numpy and xplain: import time lies
    outside every trace span, so it must not grow unnoticed."""
    script = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import xplain\n"
        "for m in pkgutil.iter_modules(xplain.__path__, 'xplain.'):\n"
        "    if m.name != 'xplain.__main__':\n"
        "        importlib.import_module(m.name)\n"
        "loaded = set(sys.modules) - before\n"
        "print('xplain.cli' in loaded, 'concurrent.futures' in sys.modules)\n"
        "print(sorted({n.partition('.')[0] for n in loaded}\n"
        "             - set(sys.stdlib_module_names)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True False\n['numpy', 'xplain']\n"


@pytest.fixture
def bad_configs(tmp_path):
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "notjson.json").write_text("csv_path = iris.csv\n")
    (tmp_path / "list.json").write_text("[]")
    iris = json.loads((DATASETS_DIR / "iris_binary.json").read_text())
    iris["csv_path"] = str(DATASETS_DIR / "iris_binary.csv")
    for name, key, value in [
        ("fraction_str", "test_fraction", "x"),
        ("seed_str", "seed", "x"),
        ("seed_float", "seed", 1.7),
        ("seed_negative", "seed", -3),
        ("cats_int", "categorical_columns", 5),
        ("cats_str", "categorical_columns", "species"),
        ("csv_is_dir", "csv_path", "."),
        ("csv_surrogate", "csv_path", "a\ud800.csv"),
        ("label_bool", "positive_label", True),
        ("label_null", "positive_label", None),
        ("label_float", "positive_label", 1.0),
        ("label_list", "positive_label", [1]),
        ("name_escapes", "name", "../escaped"),
        ("name_slash", "name", "a/b"),
        ("name_empty", "name", ""),
        ("name_dot", "name", "."),
        ("name_dotdot", "name", ".."),
        ("name_nul", "name", "a\0b"),
        ("name_surrogate", "name", "a\ud800"),
    ]:
        (tmp_path / f"{name}.json").write_text(json.dumps({**iris, key: value}))
    header, first, *rest = (DATASETS_DIR / "iris_binary.csv").read_text().splitlines()
    values = first.split(",", 1)[1]
    for name, lines, categorical in [
        ("dup_header", [header.replace("sepal_width", "sepal_length"), first, *rest], []),
        ("short_row", [header, values, *rest], []),
        ("long_row", [header, first + ",9.9", *rest], []),
        ("bad_number", [header, "oops," + values, *rest], []),
        ("bad_number_auto", [header, "oops," + values, *rest], None),
        ("nan_cell", [header, "nan," + values, *rest], []),
        ("one_category", [header + ",const"] + [line + ",x" for line in [first, *rest]],
         ["const"]),
        ("unknown_category", [header, first, *rest], ["nope"]),
    ]:
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {**iris, "csv_path": f"{name}.csv", "categorical_columns": categorical}))
    (tmp_path / "not_utf8.csv").write_bytes(
        "\n".join([header, first, *rest]).encode().replace(b"5.8", b"5\xff8", 1))
    (tmp_path / "not_utf8.json").write_text(json.dumps({**iris, "csv_path": "not_utf8.csv"}))
    return tmp_path


@pytest.mark.parametrize("argv", [
    ["evaluate", "--dataset", "IRIS", "--lime-samples", "0"],
    ["evaluate", "--dataset", "IRIS", "--shap-samples", "0"],
    ["evaluate", "--dataset", "IRIS", "--shap-background", "0"],
    ["evaluate", "--dataset", "IRIS", "--lpi-samples", "0"],
    ["evaluate", "--dataset", "IRIS", "--model", "lr", "--trials", "0"],
    ["evaluate", "--dataset", "BAD/empty.json"],
    ["evaluate", "--dataset", "BAD/notjson.json"],
    ["train", "--dataset", "BAD/empty.json", "--model", "lr"],
    ["train", "--dataset", "BAD/list.json", "--model", "gnb"],
    ["explain", "--dataset", "BAD/notjson.json", "--model", "gnb",
     "--technique", "lime", "--index", "0"],
    ["explain", "--dataset", "IRIS", "--model", "lr", "--technique", "shap",
     "--index", "0", "--trials", "2", "--shap-background", "0"],
    ["evaluate", "--dataset", "IRIS", "--technique", ","],
    ["train", "--dataset", "BAD/fraction_str.json", "--model", "gnb"],
    ["explain", "--dataset", "BAD/seed_str.json", "--model", "gnb",
     "--technique", "lpi", "--index", "0"],
    ["evaluate", "--dataset", "BAD/seed_float.json", "--model", "gnb"],
    ["evaluate", "--dataset", "BAD/cats_int.json", "--model", "gnb"],
    ["train", "--dataset", "BAD/cats_str.json", "--model", "gnb"],
    ["explain", "--dataset", "BAD/cats_str.json", "--model", "gnb",
     "--technique", "lpi", "--index", "0"],
    ["evaluate", "--dataset", "IRIS", "--model", "gnb", "--out", "BAD/list.json"],
    ["train", "--dataset", "BAD/dup_header.json", "--model", "gnb"],
    ["explain", "--dataset", "BAD/short_row.json", "--model", "gnb",
     "--technique", "lpi", "--index", "0"],
    ["evaluate", "--dataset", "BAD/long_row.json", "--model", "gnb"],
    ["train", "--dataset", "BAD/bad_number.json", "--model", "gnb"],
    ["train", "--dataset", "BAD/nan_cell.json", "--model", "gnb"],
    ["explain", "--dataset", "BAD/one_category.json", "--model", "gnb",
     "--technique", "lpi", "--index", "0"],
    ["train", "--dataset", "BAD/unknown_category.json", "--model", "gnb"],
    ["evaluate", "--dataset", "BAD/unknown_category.json", "--model", "gnb"],
    ["explain", "--dataset", "BAD/not_utf8.json", "--model", "gnb",
     "--technique", "lpi", "--index", "0"],
    ["train", "--dataset", "BAD/bad_number_auto.json", "--model", "gnb"],
    ["train", "--dataset", "IRIS", "--model", "lr", "--seed", "-1"],
    ["explain", "--dataset", "IRIS", "--model", "gnb", "--technique", "lpi",
     "--index", "0", "--seed", "-1"],
    ["evaluate", "--dataset", "IRIS", "--model", "gnb", "--seed", "-1"],
    ["train", "--dataset", "BAD/seed_negative.json", "--model", "gnb"],
    ["train", "--dataset", "IRIS", "--model", "gnb", "--out", "BAD"],
    ["train", "--dataset", "BAD", "--model", "gnb"],
    ["explain", "--dataset", "BAD", "--model", "gnb", "--technique", "lpi", "--index", "0"],
    ["evaluate", "--dataset", "BAD", "--model", "gnb"],
    ["train", "--dataset", "BAD/csv_is_dir.json", "--model", "gnb"],
    ["explain", "--dataset", "BAD/csv_is_dir.json", "--model", "gnb",
     "--technique", "lpi", "--index", "0"],
    ["evaluate", "--dataset", "BAD/csv_is_dir.json", "--model", "gnb"],
    ["evaluate", "--dataset", "IRIS", "--technique", "lime,lime,lpi"],
    ["train", "--dataset", "BAD/label_bool.json", "--model", "gnb"],
    ["explain", "--dataset", "BAD/label_null.json", "--model", "gnb",
     "--technique", "lpi", "--index", "0"],
    ["evaluate", "--dataset", "BAD/label_float.json", "--model", "gnb"],
    ["train", "--dataset", "BAD/label_list.json", "--model", "gnb"],
    ["train", "--dataset", "IRIS", "--model", "gnb", "--trials", "0"],
    ["explain", "--dataset", "IRIS", "--model", "gnb", "--technique", "lpi",
     "--index", "0", "--trials", "-3"],
    ["evaluate", "--dataset", "BAD/name_escapes.json", "--model", "gnb",
     "--out", "BAD/out1/sub"],
    ["train", "--dataset", "BAD/name_slash.json", "--model", "gnb", "--out", "BAD/m.json"],
    ["explain", "--dataset", "BAD/name_dotdot.json", "--model", "gnb",
     "--technique", "lpi", "--index", "0"],
    ["train", "--dataset", "BAD/csv_surrogate.json", "--model", "gnb"],
    ["explain", "--dataset", "BAD/csv_surrogate.json", "--model", "gnb",
     "--technique", "lpi", "--index", "0"],
], ids=[
    "lime-samples-0", "shap-samples-0", "shap-background-0", "lpi-samples-0",
    "trials-0", "evaluate-empty-config", "evaluate-non-json-config",
    "train-empty-config", "train-list-config", "explain-non-json-config",
    "explain-shap-background-0", "empty-technique-list",
    "train-string-test-fraction", "explain-string-seed", "evaluate-float-seed",
    "evaluate-int-categorical-columns", "train-string-categorical-columns",
    "explain-string-categorical-columns", "evaluate-out-is-a-file",
    "train-csv-duplicate-header", "explain-csv-short-row", "evaluate-csv-long-row",
    "train-csv-bad-number", "train-csv-nan-cell", "explain-csv-one-category",
    "train-unknown-categorical-column", "evaluate-unknown-categorical-column",
    "explain-csv-not-utf8", "train-csv-autodetect-bad-number",
    "train-negative-seed", "explain-negative-seed", "evaluate-negative-seed",
    "train-negative-config-seed", "train-out-is-a-directory",
    "train-config-is-a-directory", "explain-config-is-a-directory",
    "evaluate-config-is-a-directory", "train-csv-is-a-directory",
    "explain-csv-is-a-directory", "evaluate-csv-is-a-directory",
    "evaluate-repeated-technique", "train-bool-positive-label",
    "explain-null-positive-label", "evaluate-float-positive-label",
    "train-list-positive-label", "train-gnb-trials-0", "explain-gnb-negative-trials",
    "evaluate-name-escapes-out", "train-name-with-slash", "explain-name-dotdot",
    "train-csv-path-lone-surrogate", "explain-csv-path-lone-surrogate",
])
def test_bad_input_one_line_error(argv, bad_configs, tmp_path, capsys):
    argv = [ds_config("iris_binary") if a == "IRIS" else a.replace("BAD", str(bad_configs))
            for a in argv]
    if argv[0] == "evaluate" and "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    if {"--shap-samples", "--shap-background"} & set(argv):
        assert err[0].endswith(": shap samples and shap background must be >= 1"), err


@pytest.mark.parametrize("argv", [
    ["--lime-samples", "0"],
    ["--technique", "mystery"],
    ["--technique", ","],
    ["--seed", "-1"],
    ["--technique", "lime, shap,lime"],
    ["--trials", "0"],
    ["--trials", "-3"],
], ids=["lime-samples-0", "unknown-technique", "empty-technique-list", "negative-seed",
        "repeated-technique", "trials-0", "trials-negative"])
def test_rejected_evaluate_creates_no_out_dir(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--dataset", ds_config("iris_binary"),
                     "--out", str(out), *argv]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_missing_config_key_named(bad_configs, tmp_path, capsys):
    cli.main(["evaluate", "--dataset", str(bad_configs / "empty.json"),
              "--out", str(tmp_path / "out")])
    assert capsys.readouterr().err == (
        f"error: dataset 'empty' failed at stage data: {bad_configs / 'empty.json'}: "
        "missing required key 'csv_path'\n"
    )


@pytest.mark.parametrize("stem", ["name_escapes", "name_slash", "name_empty", "name_dot",
                                  "name_dotdot", "name_nul", "name_surrogate"])
def test_dataset_name_stays_inside_out(stem, bad_configs, tmp_path, capsys):
    """Reports are written to <out>/<name>__<model>.report.json, so a name that
    is not one file-name component is rejected at stage data, naming the file
    and the key, and nothing is written outside --out."""
    out = tmp_path / "out1" / "sub"
    config = bad_configs / f"{stem}.json"
    code = cli.main(["evaluate", "--dataset", str(config), "--model", "gnb",
                     "--technique", "lpi", "--out", str(out), *FAST_FLAGS])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: dataset {stem!r} failed at stage data: {config}: 'name' ")
    assert [p.name for p in (tmp_path / "out1").iterdir()] == ["sub"]
    assert sorted(p.name for p in out.iterdir()) == ["box_plot.csv", "rank_table.json"]


def test_byte_order_marks_accepted(tmp_path):
    """A config JSON and a CSV that start with a UTF-8 byte-order mark give the
    same report bytes as the plain files."""
    bom = "\ufeff"
    csv_text = (DATASETS_DIR / "iris_binary.csv").read_text(encoding="utf-8")
    (tmp_path / "iris_binary.csv").write_text(bom + csv_text, encoding="utf-8")
    config_text = (DATASETS_DIR / "iris_binary.json").read_text(encoding="utf-8")
    (tmp_path / "iris_binary.json").write_text(bom + config_text, encoding="utf-8")
    outs = {}
    for label, config in [("plain", ds_config("iris_binary")),
                          ("bom", str(tmp_path / "iris_binary.json"))]:
        outs[label] = tmp_path / label
        assert cli.main(["evaluate", "--dataset", config, "--model", "both",
                         "--technique", "lime,lpi", "--out", str(outs[label]),
                         *FAST_FLAGS]) == 0
    plain, with_bom = ({p.name: p.read_bytes() for p in out.iterdir()} for out in outs.values())
    assert len(plain) == 4 and plain == with_bom


@pytest.mark.parametrize("blocked", ["iris_binary__gnb.report.json", "rank_table.json",
                                     "box_plot.csv"])
def test_failed_report_write_one_line_error(blocked, tmp_path, capsys):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    code = cli.main(["evaluate", "--dataset", ds_config("iris_binary"), "--model", "gnb",
                     "--technique", "lpi", "--out", str(out), *FAST_FLAGS])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == f"error: cannot write {out / blocked}: Is a directory"
    assert "Traceback" not in captured.err and captured.out == ""


def named_iris_config(path, name):
    """iris_binary's config under another dataset name."""
    config = json.loads((DATASETS_DIR / "iris_binary.json").read_text())
    config.update(csv_path=str(DATASETS_DIR / config["csv_path"]), name=name)
    path.write_text(json.dumps(config))
    return str(path)


def test_name_too_long_for_a_report_fails_before_training(tmp_path, capsys, monkeypatch):
    """A name whose report file name the file system cannot hold fails its
    data stage; training and evaluating both models first lost that work."""
    trained = []
    monkeypatch.setattr(cli, "_train", lambda *args: trained.append(args))
    name = "n" * 250
    code = cli.main(["evaluate", "--dataset", named_iris_config(tmp_path / "long.json", name),
                     "--out", str(tmp_path / "out"), *FAST_FLAGS])
    assert code == 1 and trained == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: dataset {name!r} failed at stage data: report file "
                             f"name '{name}__gnb.report.json' is longer than the "), err


def test_report_name_at_the_file_name_limit_runs(tmp_path, capsys):
    """The limit is on the longest report name's bytes: at the limit a dataset
    runs, one byte over it fails its data stage and the others still run."""
    out = tmp_path / "out"
    out.mkdir()
    name_max = os.pathconf(out, "PC_NAME_MAX")
    longest = name_max - len("__gnb.report.json")
    at_limit, over = "a" * longest, "b" * (longest + 1)
    code = cli.main(["evaluate", "--model", "both", "--technique", "lpi", "--out", str(out),
                     "--dataset", named_iris_config(tmp_path / "at.json", at_limit),
                     "--dataset", named_iris_config(tmp_path / "over.json", over),
                     *FAST_FLAGS])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [
        f"error: dataset {over!r} failed at stage data: report file name "
        f"'{over}__gnb.report.json' is longer than the {name_max} bytes {out} allows"
    ]
    assert [line for line in err if "evaluated" in line] == [
        f"[{at_limit}] lr: evaluated 1 technique(s)", f"[{at_limit}] gnb: evaluated 1 technique(s)"
    ]
    assert sorted(p.name for p in out.iterdir()) == sorted([
        f"{at_limit}__lr.report.json", f"{at_limit}__gnb.report.json",
        "box_plot.csv", "rank_table.json"])


def test_one_feature_dataset_fails_its_data_stage(tmp_path, capsys):
    """Spearman cannot rank one value, so evaluate rejects the dataset before
    training rather than failing once per model at its evaluate stage."""
    rng = np.random.default_rng(0)
    write_csv(tmp_path / "one.csv", "x,y",
              [f"{v:.4f},{i % 2}" for i, v in enumerate(rng.normal(0, 1, 40))])
    (tmp_path / "one.json").write_text(json.dumps(
        {"csv_path": "one.csv", "target_column": "y", "positive_label": "1"}))
    code = cli.main(["evaluate", "--dataset", str(tmp_path / "one.json"), "--model", "both",
                     "--out", str(tmp_path / "out"), *FAST_FLAGS])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: dataset 'one' failed at stage data: "), err
    assert "Spearman" in err[0] and "at least 2" in err[0]
    # training needs no score, so `train` still accepts the dataset
    assert cli.main(["train", "--dataset", str(tmp_path / "one.json"), "--model", "gnb",
                     "--out", str(tmp_path / "one.model.json")]) == 0


def test_overflowing_numeric_spread_one_line_error(tmp_path):
    """A column holding 1e308 and -1e308 has a spread float64 cannot hold;
    the run stops at stage data with one line naming the column, instead of
    printing numpy's overflow warning and standardizing the column to 0."""
    header, *lines = (DATASETS_DIR / "iris_binary.csv").read_text().splitlines()
    extremes = {0: "1e308", 1: "-1e308"}
    write_csv(tmp_path / "huge.csv", header + ",wide_range",
              [f"{line},{extremes.get(i, '0.5')}" for i, line in enumerate(lines)])
    config = json.loads((DATASETS_DIR / "iris_binary.json").read_text())
    (tmp_path / "huge.json").write_text(json.dumps({**config, "csv_path": "huge.csv"}))
    proc = subprocess.run(
        [sys.executable, "-m", "xplain", "evaluate", "--dataset", str(tmp_path / "huge.json"),
         "--model", "gnb", "--technique", "lpi", "--out", str(tmp_path / "out"), *FAST_FLAGS],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: dataset 'huge' failed at stage data: "), err
    assert "'wide_range'" in err[0] and "overflow" in err[0]


# malformed-input fuzz: seeded, stdlib only; each case is (id, command, config
# text, CSV data, expected exit code or None for "0, or 1 with one error line")
FUZZ_SEED = 22
FUZZ_CASES = 200
FUZZ_TOKENS = ['"', ",", "\n", "\r", "\0", "\ufeff", " ", "-", "e", ".", "nan", "inf",
               "1e999", "\\", '""', "\t", "#", "é", "x" * 131_073]
FUZZ_VALUES = [None, True, False, 0, -1, 1.5, 1e308, float("inf"), 2**70, "", "x", "..",
               "a/b", [], {}, ["sepal_length"], ["nope"], "species", "setosa", [[]]]
FUZZ_KEYS = ["csv_path", "target_column", "positive_label", "categorical_columns",
             "test_fraction", "seed", "name", "extra"]


def _fuzz_command(rng):
    return rng.choice([
        ["train", "--model", "gnb"],
        ["train", "--model", "lr", "--trials", "2"],
        ["evaluate", "--model", "gnb", "--technique", "lpi", "--lpi-samples", "20"],
        ["explain", "--model", "gnb", "--technique", "lpi", "--index", "0",
         "--lpi-samples", "20"],
    ])


def _fuzz_cases(rng):
    csv_text = (DATASETS_DIR / "iris_binary.csv").read_text(encoding="utf-8")
    config = json.loads((DATASETS_DIR / "iris_binary.json").read_text(encoding="utf-8"))
    config["csv_path"] = "data.csv"
    config_text = json.dumps(config)
    header, *lines = csv_text.splitlines()
    over_limit = [header, f'5.1,"{"3" * 131_073}",1.4,0.2,setosa', *lines]
    yield ("csv-cell-over-field-limit", ["train", "--model", "gnb"], config_text,
           "\n".join(over_limit) + "\n", 1)
    yield ("config-nested-too-deep", ["train", "--model", "gnb"],
           "[" * 100_000 + "]" * 100_000, csv_text, 1)
    yield ("csv-path-too-long", ["train", "--model", "gnb"],
           json.dumps({**config, "csv_path": "x" * 5000}), csv_text, 1)
    species = [line.rsplit(",", 1)[1] for line in lines]
    for model in ("gnb", "lr"):
        yield (f"csv-no-feature-column-{model}", ["train", "--model", model], config_text,
               "\n".join(["species", *species]) + "\n", 1)
    for name in ["../escaped", "a/b", "", ".", "..", "a\0b"]:
        yield (f"name-{name!r}", ["evaluate", "--model", "gnb", "--technique", "lpi"],
               json.dumps({**config, "name": name}), csv_text, 1)
    yield ("byte-order-marks", ["evaluate", "--model", "gnb", "--technique", "lpi"],
           "\ufeff" + config_text, "\ufeff" + csv_text, 0)
    for i in range(FUZZ_CASES):
        text, data = config_text, csv_text
        kind = rng.choice(["csv-insert", "csv-delete", "csv-truncate", "csv-line",
                           "csv-byte", "config-value", "config-drop", "config-text"])
        if kind == "csv-insert":
            at = rng.randrange(len(data))
            data = data[:at] + rng.choice(FUZZ_TOKENS) + data[at:]
        elif kind == "csv-delete":
            at = rng.randrange(len(data))
            data = data[:at] + data[at + rng.randint(1, 40):]
        elif kind == "csv-truncate":
            data = data[: rng.randrange(len(data))]
        elif kind == "csv-line":
            rows = data.splitlines()
            j = rng.randrange(len(rows))
            rows[j] = rng.choice(["", rows[j] + ",", rows[j] * 2, rows[j].rsplit(",", 1)[0],
                                  rows[j].rsplit(",", 1)[0] + ",virginica"])
            data = "\n".join(rows) + "\n"
        elif kind == "csv-byte":
            raw = bytearray(data.encode())
            raw[rng.randrange(len(raw))] = rng.choice([0x80, 0xFF, 0xC3, 0x00])
            data = bytes(raw)
        elif kind == "config-value":
            text = json.dumps({**config, rng.choice(FUZZ_KEYS): rng.choice(FUZZ_VALUES)})
        elif kind == "config-drop":
            dropped = rng.choice(FUZZ_KEYS)
            text = json.dumps({k: v for k, v in config.items() if k != dropped})
        else:
            at = rng.randrange(len(text))
            inserted = rng.choice(["", "{", "}", '"', ",", "\0", "[" * 5000])
            text = text[:at] + inserted + text[at + rng.randint(0, 3):]
        yield f"{i}-{kind}", _fuzz_command(rng), text, data, None


def test_malformed_input_fuzz(tmp_path, capsys):
    """Seeded malformed configs and CSVs under every command: each run exits
    0, or exits 1 with exactly one stderr line starting 'error: ', and never
    raises (which the console script would print as a traceback)."""
    failures = []
    for n, (case_id, command, config_text, csv_data, expected) in enumerate(
            _fuzz_cases(random.Random(FUZZ_SEED))):
        case_dir = tmp_path / str(n)
        case_dir.mkdir()
        (case_dir / "config.json").write_text(config_text, encoding="utf-8")
        if isinstance(csv_data, bytes):
            (case_dir / "data.csv").write_bytes(csv_data)
        else:
            (case_dir / "data.csv").write_text(csv_data, encoding="utf-8")
        argv = [command[0], "--dataset", str(case_dir / "config.json"), *command[1:]]
        if command[0] != "explain":
            argv += ["--out", str(case_dir / ("out" if command[0] == "evaluate" else "m.json"))]
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - every escape is a finding
            code = f"raised {type(exc).__name__}: {exc}"[:200]
        err = capsys.readouterr().err.splitlines()
        errors = [line for line in err if line.startswith("error: ")]
        ok = code == 0 and not errors or code == 1 and len(errors) == 1
        if not ok or "Traceback" in "\n".join(err) or expected not in (None, code):
            failures.append((case_id, argv[0], code, err[:3]))
    assert not failures, failures


def test_benchmark_tracer_installs(tmp_path):
    """The benchmark's tracer patches xplain names by module attribute and reads
    fields of their results; a renamed or removed name or field must fail here,
    not only in a traced bench run."""
    root = SRC_DIR.parent
    spans_file = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "traced", str(spans_file), "--",
         "evaluate", "--dataset", ds_config("iris_binary"), "--model", "both",
         "--technique", "lime,shap,lpi", "--out", str(tmp_path / "out"),
         "--trials", "2", "--lime-samples", "50", "--shap-samples", "50",
         "--shap-background", "5", "--lpi-samples", "10"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    name, attrs = 2, 6  # span record fields, perfbench/spans.py
    spans = json.loads(spans_file.read_text())["spans"]
    shap = [s[attrs] for s in spans
            if s[name] == "explainers.explain" and s[attrs]["technique"] == "shap"]
    fits = [s[attrs] for s in spans if s[name] == "models.fit_logistic"]
    assert shap and all(a["coalitions"] == 2**4 for a in shap)  # exact, 4 features
    assert fits and all(a["iterations"] >= 1 for a in fits)
    # every traced name stays on the evaluation path
    explained = {s[attrs]["technique"] for s in spans if s[name] == "explainers.explain"}
    assert explained == {"lime", "shap", "lpi"}
    assert {"evaluation.evaluate_instance", "evaluation.evaluate_dataset",
            "evaluation.spearman", "groundtruth.ground_truth",
            "models.predict_logodds"} <= {s[name] for s in spans}
    # the ground truth is extracted once per (dataset, model) cell
    assert sum(s[name] == "groundtruth.ground_truth" for s in spans) == 2
    # and every technique explains the cell's whole test split in one call
    assert sum(s[name] == "evaluation.evaluate_instance" for s in spans) == 2
    # the tracer reads each family's name off the model it is given
    for traced in ("explainers.explain", "models.predict_logodds"):
        assert {s[attrs]["model"] for s in spans if s[name] == traced} == {"lr", "gnb"}


def run_explain(extra):
    argv = [
        "explain",
        "--dataset", ds_config("iris_binary"),
        "--model", "lr",
        "--index", "0",
        *FAST_FLAGS,
        *extra,
    ]
    return cli.main(argv)


@pytest.mark.parametrize("argv", [
    ["evaluate", "--dataset", "d.json"],
    ["explain", "--dataset", "d.json", "--model", "lr", "--technique", "lime", "--index", "0"],
])
def test_explainer_flag_defaults_are_the_config_defaults(argv):
    """Each explainer flag is named after an ExplainerConfig field and takes
    its default from it."""
    args = cli.build_parser().parse_args(argv)
    defaults = dataclasses.asdict(ExplainerConfig())
    assert {name: getattr(args, name) for name in defaults} == defaults
    assert cli._explainer_config(args) == ExplainerConfig()


class TestExplain:
    @pytest.mark.parametrize("technique", ["lime", "shap", "lpi"])
    def test_reproduces_evaluate_scores(self, technique, evaluate_run, capsys):
        """explain --index k uses the seed evaluate derives for instance k, so
        it prints the r that evaluate's report holds for it. With --seed passed
        as is, each technique's r differed at one or more of these indices."""
        _, out, _ = evaluate_run
        report = json.loads((out / "iris_binary__gnb.report.json").read_text())
        scores = report["per_technique"][technique]["scores"]
        for k in (1, 8, 13, 32):
            capsys.readouterr()
            assert cli.main([
                "explain", "--dataset", ds_config("iris_binary"), "--model", "gnb",
                "--technique", technique, "--index", str(k), *FAST_FLAGS,
            ]) == 0
            assert json.loads(capsys.readouterr().out)["r"] == scores[k], k

    def test_shapes(self, capsys):
        assert run_explain(["--technique", "lime"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["phi"]) == len(payload["lambda"]) == len(payload["features"])
        assert payload["technique"] == "lime"
        assert "offset" in payload and "r" in payload

    def test_groundtruth_self(self, capsys):
        assert run_explain(["--technique", "groundtruth"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["phi"] == payload["lambda"]
        assert payload["r"] == 1.0

    def test_shap_base_value_present(self, capsys):
        assert run_explain(["--technique", "shap"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "base_value" in payload

    @pytest.fixture
    def train_calls(self, monkeypatch):
        """The arguments of every cli._train call."""
        calls = []
        train = cli._train

        def spy(*args):
            calls.append(args)
            return train(*args)

        monkeypatch.setattr(cli, "_train", spy)
        return calls

    def test_index_out_of_range(self, capsys, train_calls):
        code = cli.main([
            "explain", "--dataset", ds_config("iris_binary"),
            "--model", "lr", "--technique", "lime",
            "--index", "1000000000", *FAST_FLAGS,
        ])
        assert code == 1
        assert train_calls == []  # checked before the LR search runs

    def test_unknown_technique(self, capsys, train_calls):
        assert run_explain(["--technique", "anchors"]) == 1
        assert train_calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unknown technique 'anchors'"), err

    @pytest.mark.parametrize("samples", [10**17, 10**20])
    @pytest.mark.parametrize("technique", ["lime", "lpi"])
    def test_unallocatable_sample_count(self, technique, samples, capsys):
        """10**17 rows of 4 columns is a MemoryError before any memory is
        touched, and 10**20 is past numpy's largest dimension (ValueError);
        either is a one-line diagnostic naming the stage, not a traceback."""
        assert run_explain(["--technique", technique, f"--{technique}-samples", str(samples)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and captured.out == "", captured
        assert err[0].startswith(
            f"error: dataset 'iris_binary' failed at stage explain[{technique}]: "), err

    def test_non_finite_explanation_one_line_error(self, capsys, monkeypatch):
        """A phi Spearman cannot rank is a one-line diagnostic, not a traceback."""
        def nan_explain(*args, **kwargs):
            return Explanation(np.full(4, np.nan), 1)

        monkeypatch.setattr(cli, "explain", nan_explain)
        assert run_explain(["--technique", "lpi"]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and captured.out == "", captured
        assert err[0] == ("error: dataset 'iris_binary' failed at stage explain[lpi]: "
                          "spearman input contains non-finite values"), err

    def test_lpi_absolute_flag(self, capsys):
        assert run_explain(["--technique", "lpi", "--lpi-absolute"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(v >= 0.0 for v in payload["phi"])


class TestTrain:
    def test_train_writes_model_and_prints_accuracy(self, tmp_path, capsys):
        out = tmp_path / "iris_lr.json"
        code = cli.main([
            "train", "--dataset", ds_config("iris_binary"),
            "--model", "lr", "--out", str(out), *TRAIN_FLAGS,
        ])
        assert code == 0
        line = capsys.readouterr().out.strip()
        test_acc = float(line.split("test_accuracy=")[1])
        assert test_acc >= 0.95
        blob = json.loads(out.read_text())
        assert blob["kind"] == "lr"
        assert len(blob["model"]["weights"]) == 4
        assert blob["preprocess"]["kind"] == "standardize"

    def test_retrain_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code = cli.main([
                "train", "--dataset", ds_config("banknote"),
                "--model", "gnb", "--out", str(out), *TRAIN_FLAGS,
            ])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unreadable_path_exit_1(self, tmp_path):
        code = cli.main([
            "train", "--dataset", str(tmp_path / "ghost.json"),
            "--model", "lr", *TRAIN_FLAGS,
        ])
        assert code == 1

    def test_explainer_flag_is_a_usage_error(self, tmp_path, capsys):
        """train reads no explainer flag, so passing one fails as any unknown
        flag does."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--dataset", ds_config("iris_binary"), "--model", "lr",
                      "--out", str(tmp_path / "m.json"), *TRAIN_FLAGS,
                      "--lime-samples", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lime-samples 5" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


def test_wide_mixed_sampled_shap_with_groups(tmp_path):
    """Sampled KernelSHAP (19 encoded columns > EXACT_SHAP_LIMIT) over one-hot
    groups, end to end through the CLI on the benchmark's wide-mixed table."""
    config = wide_mixed_config(tmp_path / "data")
    out = tmp_path / "out"
    assert cli.main([
        "evaluate", "--dataset", str(config), "--out", str(out),
        "--trials", "2", "--lime-samples", "200", "--shap-samples", "200",
        "--shap-background", "20", "--lpi-samples", "50",
    ]) == 0
    for kind in ("lr", "gnb"):
        report = json.loads((out / f"wide_mixed__{kind}.report.json").read_text())
        assert len(report["feature_names"]) > 13
        for block in report["per_technique"].values():
            assert len(block["scores"]) == report["test_instances"]
            assert all(np.isfinite(block["scores"]))


class TestCategoricalEndToEnd:
    @pytest.fixture
    def categorical_config(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for i in range(80):
            color = rng.choice(["red", "green", "blue"], p=[0.5, 0.3, 0.2])
            churn = "yes" if rng.random() < (0.7 if color == "red" else 0.3) else "no"
            lines.append(f"{rng.normal(0, 1):.4f},{color},{rng.normal(5, 2):.4f},{churn}")
        write_csv(tmp_path / "cat.csv", "x0,color,x1,churn", lines)
        cfg = tmp_path / "cat.json"
        cfg.write_text(json.dumps({
            "csv_path": "cat.csv",
            "target_column": "churn",
            "positive_label": "yes",
            "categorical_columns": ["color"],
            "seed": 5,
        }))
        return cfg

    def test_evaluate_with_onehot_columns(self, categorical_config, tmp_path):
        out = tmp_path / "reports"
        code = cli.main([
            "evaluate", "--dataset", str(categorical_config),
            "--model", "gnb", "--out", str(out), *FAST_FLAGS,
        ])
        assert code == 0
        report = json.loads((out / "cat__gnb.report.json").read_text())
        names = report["feature_names"]
        assert "color=red" in names and "color=green" in names and "color=blue" in names
        assert sum(report["ranks"].values()) == 6.0
