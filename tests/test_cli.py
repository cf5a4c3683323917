import csv
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from xplain import cli

from conftest import DATASETS_DIR, SRC_DIR, write_csv

FAST_FLAGS = [
    "--trials", "4",
    "--lime-samples", "300",
    "--shap-samples", "300",
    "--lpi-samples", "80",
    "--seed", "7",
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

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_thread_count_one_line_error(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("XPLAIN_THREADS", value)
        code = cli.main([
            "evaluate", "--dataset", ds_config("iris_binary"),
            "--out", str(tmp_path), *FAST_FLAGS,
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: XPLAIN_THREADS must be a positive integer, got '{value}'\n"
        )


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
        ("label_bool", "positive_label", True),
        ("label_null", "positive_label", None),
        ("label_float", "positive_label", 1.0),
        ("label_list", "positive_label", [1]),
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
    "train-list-positive-label",
])
def test_bad_input_one_line_error(argv, bad_configs, tmp_path, capsys):
    argv = [ds_config("iris_binary") if a == "IRIS" else a.replace("BAD", str(bad_configs))
            for a in argv]
    if argv[0] == "evaluate" and "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("argv,threads", [
    (["--lime-samples", "0"], None),
    (["--technique", "mystery"], None),
    (["--technique", ","], None),
    ([], "abc"),
    (["--seed", "-1"], None),
    (["--technique", "lime, shap,lime"], None),
], ids=["lime-samples-0", "unknown-technique", "empty-technique-list", "bad-thread-count",
        "negative-seed", "repeated-technique"])
def test_rejected_evaluate_creates_no_out_dir(argv, threads, tmp_path, monkeypatch):
    if threads is not None:
        monkeypatch.setenv("XPLAIN_THREADS", threads)
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--dataset", ds_config("iris_binary"),
                     "--out", str(out), *argv]) == 1
    assert not out.exists()


def test_missing_config_key_named(bad_configs, tmp_path, capsys):
    cli.main(["evaluate", "--dataset", str(bad_configs / "empty.json"),
              "--out", str(tmp_path / "out")])
    assert capsys.readouterr().err == (
        f"error: dataset 'empty' failed at stage data: {bad_configs / 'empty.json'}: "
        "missing required key 'csv_path'\n"
    )


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


def test_benchmark_tracer_installs(tmp_path):
    """The benchmark's tracer patches xplain names by module attribute and reads
    fields of their results; a renamed or removed name or field must fail here,
    not only in a traced bench run."""
    root = SRC_DIR.parent
    spans_file = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "XPLAIN_THREADS": "1"}
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
    assert {"evaluation.evaluate_instance", "groundtruth.ground_truth",
            "models.predict_logodds"} <= {s[name] for s in spans}


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

    def test_index_out_of_range(self, capsys):
        code = cli.main([
            "explain", "--dataset", ds_config("iris_binary"),
            "--model", "lr", "--technique", "lime",
            "--index", "1000000000", *FAST_FLAGS,
        ])
        assert code == 1

    def test_unknown_technique(self):
        assert run_explain(["--technique", "anchors"]) == 1

    def test_lpi_absolute_flag(self, capsys):
        assert run_explain(["--technique", "lpi", "--lpi-absolute"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(v >= 0.0 for v in payload["phi"])


class TestTrain:
    def test_train_writes_model_and_prints_accuracy(self, tmp_path, capsys):
        out = tmp_path / "iris_lr.json"
        code = cli.main([
            "train", "--dataset", ds_config("iris_binary"),
            "--model", "lr", "--out", str(out), *FAST_FLAGS,
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
                "--model", "gnb", "--out", str(out), *FAST_FLAGS,
            ])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unreadable_path_exit_1(self, tmp_path):
        code = cli.main([
            "train", "--dataset", str(tmp_path / "ghost.json"),
            "--model", "lr", *FAST_FLAGS,
        ])
        assert code == 1


def test_wide_mixed_sampled_shap_with_groups(tmp_path, monkeypatch):
    """Sampled KernelSHAP (19 encoded columns > EXACT_SHAP_LIMIT) over one-hot
    groups, end to end through the CLI on the benchmark's wide-mixed table,
    with byte-identical reports whatever XPLAIN_THREADS is."""
    spec = importlib.util.spec_from_file_location(
        "widemixed", SRC_DIR.parent / "perfbench" / "widemixed.py")
    widemixed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(widemixed)
    config = widemixed.generate(1, tmp_path / "data")
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("XPLAIN_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        assert cli.main([
            "evaluate", "--dataset", str(config), "--out", str(out),
            "--trials", "2", "--lime-samples", "200", "--shap-samples", "200",
            "--shap-background", "20", "--lpi-samples", "50",
        ]) == 0
        outs.append(out)
    for kind in ("lr", "gnb"):
        report = json.loads((outs[0] / f"wide_mixed__{kind}.report.json").read_text())
        assert len(report["feature_names"]) > 13
        for block in report["per_technique"].values():
            assert len(block["scores"]) == report["test_instances"]
            assert all(np.isfinite(block["scores"]))
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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
