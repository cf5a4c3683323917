import csv
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from xplain import cli, data, evaluation, explainers
from xplain.errors import DimensionMismatchError, VectorTooShortError
from xplain.evaluation import (
    CorrelationScore,
    derive_seed,
    evaluate_dataset,
    evaluate_instance,
    rank_techniques,
    spearman,
    summarize_scores,
    write_report_set,
)
from xplain.explainers import ExplainerConfig
from xplain.models import ground_truth
from xplain.models import predict_proba, train_gnb, train_logistic

from conftest import DATASETS_DIR, linear_model, numeric_dataset, wide_mixed_dataset


def brute_force_spearman(a, b):
    """Counting ranks + textbook Pearson, independent of the implementation."""

    def ranks(v):
        out = np.empty(len(v))
        for i in range(len(v)):
            less = sum(1 for u in v if u < v[i])
            eq = sum(1 for u in v if u == v[i])
            out[i] = less + (eq + 1) / 2.0
        return out

    ra, rb = ranks(a), ranks(b)
    da, db = ra - ra.mean(), rb - rb.mean()
    den = math.sqrt(float(da @ da) * float(db @ db))
    return float(da @ db) / den if den else None


def reference_ranks(values):
    """1-based ranks with ties receiving the average of their positions, one
    run of equal values at a time: the per-vector loop that the block form
    (evaluation._block_ranks) replaced."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def reference_spearman(a, b):
    """Two vectors scored as the per-vector form did: the loop's ranks, their
    own means and dot products."""
    ra, rb = reference_ranks(a), reference_ranks(b)
    da, db = ra - ra.mean(), rb - rb.mean()
    va, vb = float(da @ da), float(db @ db)
    if va == 0.0 or vb == 0.0:
        return CorrelationScore(r=0.0, degenerate=True)
    return CorrelationScore(r=float(da @ db) / float(np.sqrt(va * vb)))


class TestSpearman:
    def test_identical_order(self):
        assert spearman(np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 30.0])).r == 1.0

    def test_reversed_order(self):
        assert spearman(np.array([3.0, 2.0, 1.0]), np.array([10.0, 20.0, 30.0])).r == -1.0

    def test_hand_case_exact(self):
        score = spearman(np.array([1.0, 3.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0]))
        assert score.r == 0.8

    def test_constant_vector_degenerate(self):
        score = spearman(np.array([5.0, 5.0, 5.0]), np.array([1.0, 2.0, 3.0]))
        assert score.r == 0.0 and score.degenerate

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(400):
            n = int(rng.integers(2, 25))
            a = rng.normal(0, 1, n)
            b = rng.normal(0, 1, n)
            if rng.random() < 0.5 and n > 3:
                a[: n // 2] = a[0]
                b[-2:] = b[-1]
            expected = brute_force_spearman(a, b)
            got = spearman(a, b)
            if expected is None:
                assert got.degenerate
            else:
                worst = max(worst, abs(got.r - expected))
        assert worst < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.normal(0, 1, 8), rng.normal(0, 1, 8)
            assert spearman(a, b).r == spearman(b, a).r

    def test_monotone_transform(self):
        rng = np.random.default_rng(2)
        v = rng.normal(0, 1, 10)
        assert spearman(v, np.exp(v)).r == 1.0
        assert spearman(v, -np.exp(v)).r == -1.0

    def test_scale_invariance_bitwise(self):
        rng = np.random.default_rng(3)
        phi = rng.normal(0, 1, 12)
        lam = rng.normal(0, 1, 12)
        assert spearman(phi, lam).r == spearman(3.7 * phi, lam).r

    def test_errors(self):
        with pytest.raises(DimensionMismatchError):
            spearman(np.zeros(3), np.zeros(4))
        with pytest.raises(VectorTooShortError):
            spearman(np.array([1.0]), np.array([2.0]))

    @pytest.mark.parametrize("phi,lam", [
        ([math.nan, math.nan, math.nan], [1.0, 2.0, 3.0]),  # r = 1.0 without the check
        ([1.0, math.nan, 2.0], [1.0, 2.0, 3.0]),  # r = 0.5 without the check
        ([1.0, 2.0, 3.0], [1.0, math.inf, 2.0]),
    ])
    def test_non_finite_input_rejected(self, phi, lam):
        with pytest.raises(ValueError, match="non-finite"):
            spearman(phi, lam)
        with pytest.raises(ValueError, match="non-finite"):
            spearman([[1.0, 2.0, 3.0], phi], [[3.0, 1.0, 2.0], lam])

    def test_block_equals_rows(self):
        """A block's scores equal the per-row scores bit for bit, with ties,
        -0.0 tied with 0.0, rank-constant rows on either side and n = 2."""
        rng = np.random.default_rng(6)
        for n in range(2, 20):
            for _ in range(4):
                phi = np.round(rng.normal(0, 1, (64, n)), int(rng.integers(0, 3)))
                lam = np.round(rng.normal(0, 1, (64, n)), int(rng.integers(0, 3)))
                phi[::5] = 2.5  # constant on the phi side
                lam[::7] = -1.0  # constant on the lam side
                phi[1::6, : n // 2] = -0.0
                phi[1::6, n // 2 :] = 0.0
                lam[2::9, 0] = -0.0
                lam[2::9, -1] = 0.0
                block = spearman(phi, lam)
                rows = [reference_spearman(p, q) for p, q in zip(phi, lam)]
                assert np.array_equal([s.r for s in block], [s.r for s in rows])
                assert [s.degenerate for s in block] == [s.degenerate for s in rows]
                assert any(s.degenerate for s in rows) and not all(s.degenerate for s in rows)
        # -0.0 and 0.0 share their rank: rank-constant, as the 1-D form says
        (score,) = spearman([[-0.0, 0.0]], [[1.0, 2.0]])
        assert score.degenerate and spearman([-0.0, 0.0], [1.0, 2.0]).degenerate

    def test_block_errors(self):
        with pytest.raises(DimensionMismatchError):
            spearman(np.zeros((3, 4)), np.zeros((3, 5)))
        with pytest.raises(DimensionMismatchError):
            spearman(np.zeros((3, 4)), np.zeros((2, 4)))
        with pytest.raises(DimensionMismatchError):
            spearman(np.zeros((1, 4)), np.zeros(4))
        with pytest.raises(VectorTooShortError):
            spearman(np.zeros((3, 1)), np.zeros((3, 1)))


def test_fractional_ranks_ties():
    values = np.array([10.0, 20.0, 10.0, 5.0])
    assert reference_ranks(values).tolist() == [2.5, 4.0, 2.5, 1.0]
    assert evaluation._block_ranks(values[None]).tolist() == [[2.5, 4.0, 2.5, 1.0]]


def test_block_ranks_match_loop_and_vector_scores_keep_their_bits():
    """The block ranks equal the per-vector loop's, and two vectors, scored
    as a block of one row, keep the loop form's r (sign included) and
    degenerate flag, over random pairs with ties (-0.0 with 0.0 among them)
    at n = 2-59."""
    rng = np.random.default_rng(17)
    for n in range(2, 60):
        for _ in range(30):
            a = np.round(rng.normal(0, 1, n), int(rng.integers(0, 3)))
            b = np.round(rng.normal(0, 1, n), int(rng.integers(0, 3)))
            if rng.random() < 0.3:
                a[rng.random(n) < 0.5] = -0.0
            if rng.random() < 0.1:
                b[:] = b[0]
            assert np.array_equal(evaluation._block_ranks(np.stack([a, b])),
                                  [reference_ranks(a), reference_ranks(b)])
            got, expected = spearman(a, b), reference_spearman(a, b)
            assert got.degenerate == expected.degenerate
            assert math.copysign(1.0, got.r) == math.copysign(1.0, expected.r)
            assert got.r == expected.r


class TestEvaluateInstance:
    def test_lpi_lr_standardized_perfect(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (200, 6))
        X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        ds = numeric_dataset(X)
        model = linear_model([1.4, -0.6, 2.2, 0.9, -1.8, 0.3])
        X = ds.X_test[1:2]
        ((score,),) = evaluate_instance(X, ground_truth(model, X).lam, model, ["lpi"],
                                        "logodds", ds, seeds=[7])
        assert score.r == 1.0

    def test_single_feature_too_short(self):
        ds = numeric_dataset(np.linspace(0, 1, 30).reshape(-1, 1))
        model = linear_model([2.0])
        X = ds.X_test[:1]
        with pytest.raises(VectorTooShortError):
            evaluate_instance(X, ground_truth(model, X).lam, model, ["lpi"], "logodds", ds,
                              seeds=[0])

    def test_one_instance_rejected(self):
        """Only a block (k, n) is accepted; one instance is a block of one."""
        ds = numeric_dataset(np.random.default_rng(5).normal(0, 1, (40, 3)))
        model = linear_model([1.0, -0.5, 2.0])
        x = ds.X_test[0]
        with pytest.raises(DimensionMismatchError):
            evaluate_instance(x, ground_truth(model, x).lam, model, ["lpi"], "logodds", ds,
                              seeds=[0])


class TestSummarize:
    def test_quartiles(self):
        scores = [CorrelationScore(r=v) for v in (0.2, 0.4, 0.6, 0.8)]
        s = summarize_scores("d", "lpi", scores)
        assert s.median == 0.5
        assert s.q1 == pytest.approx(0.35)
        assert s.q3 == pytest.approx(0.65)

    def test_singleton(self):
        s = summarize_scores("d", "lpi", [CorrelationScore(r=0.31)])
        assert s.median == 0.31 and s.q1 == 0.31 and s.whisker_high == 0.31

    def test_degenerate_and_significant_counts(self):
        scores = [
            CorrelationScore(r=0.0, degenerate=True),
            CorrelationScore(r=0.9),
            CorrelationScore(r=0.71),
            CorrelationScore(r=0.7),
        ]
        s = summarize_scores("d", "lime", scores)
        assert s.degenerate_count == 1
        assert s.significant_count == 2  # strictly above 0.7

    def test_whiskers_exclude_outliers(self):
        rs = [0.8, 0.82, 0.84, 0.86, 0.88, -0.9]
        s = summarize_scores("d", "shap", [CorrelationScore(r=v) for v in rs])
        assert s.whisker_low == 0.8
        assert s.whisker_high == 0.88


class TestEvaluateDataset:
    def make(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (80, 4))
        y = (rng.random(80) < 0.5).astype(int)
        y[:2] = [0, 1]
        X[y == 1] += 0.7
        ds = numeric_dataset(X, X_test=X[:12], y_train=y, y_test=y[:12], name="mini")
        model = train_gnb(X, y)
        cfg = ExplainerConfig(lime_samples=200, shap_samples=200, shap_background=30,
                              lpi_samples=40)
        return ds, model, cfg

    def test_deterministic(self):
        ds, model, cfg = self.make()
        a = evaluate_dataset(ds, model, ["lime", "lpi"], "logodds", cfg, seed=3)
        b = evaluate_dataset(ds, model, ["lime", "lpi"], "logodds", cfg, seed=3)
        for s1, s2 in zip(a, b, strict=True):
            assert [x.r for x in s1.scores] == [x.r for x in s2.scores]

    def test_scores_indexed_by_instance(self):
        ds, model, cfg = self.make()
        (s,) = evaluate_dataset(ds, model, ["lpi"], "logodds", cfg, seed=1)
        assert len(s.scores) == 12
        assert s.median == np.median([x.r for x in s.scores])

    def test_ground_truth_once_per_cell(self, monkeypatch):
        """One extraction on the whole test split, which every technique's
        scores share."""
        ds, model, cfg = self.make()
        calls = []

        def spy(model, x):
            calls.append(x)
            return ground_truth(model, x)

        monkeypatch.setattr(evaluation, "ground_truth", spy)
        sets = evaluate_dataset(ds, model, ["lime", "lpi"], "logodds", cfg, seed=3)
        assert len(calls) == 1
        assert np.array_equal(calls[0], ds.X_test)
        assert [s.technique for s in sets] == ["lime", "lpi"]
        assert sets[0].ground_truth is sets[1].ground_truth

    def test_ground_truths_match_direct_extraction(self):
        ds, model, cfg = self.make()
        for s in evaluate_dataset(ds, model, ["lime", "lpi"], "logodds", cfg, seed=3):
            assert s.ground_truth.lam.shape == (12, 4)
            for k, row in enumerate(s.ground_truth.lam):
                expected = ground_truth(model, ds.X_test[k])
                assert np.array_equal(row, expected.lam)
                assert s.ground_truth.offset == expected.offset

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_blocks_match_single_instances(self, block):
        """The cell's 12 instances are evaluated in one pass. evaluate_instance
        over consecutive blocks of the test split gives every score and ground
        truth bit for bit: blocks of 1 are each instance's own evaluation, of 5
        leave a last block of 2, and of 64 are one short block of 12."""
        ds, model, cfg = self.make()
        techniques = ["lime", "shap", "lpi"]
        sets = evaluate_dataset(ds, model, techniques, "probability", cfg, seed=3)
        for start in range(0, 12, block):
            stop = min(start + block, 12)
            X = ds.X_test[start:stop]
            gt = ground_truth(model, X)
            scores = evaluate_instance(X, gt.lam, model, techniques, "probability", ds, cfg,
                                       seeds=[derive_seed(3, k) for k in range(start, stop)])
            assert np.array_equal(sets[0].ground_truth.lam[start:stop], gt.lam)
            assert sets[0].ground_truth.offset == gt.offset
            assert [list(s.scores[start:stop]) for s in sets] == scores

    @staticmethod
    def pima():
        """pima (192 test rows) under GNB and the local-probability benchmark
        flags."""
        config = data.DatasetConfig.from_json(DATASETS_DIR / "pima.json")
        ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
        model = train_gnb(ds.X_train, ds.y_train)
        return ds, model, ExplainerConfig(lime_samples=1000, lpi_samples=128)

    def test_model_calls_packed(self, monkeypatch):
        """pima under the local-probability benchmark flags: LIME scores each
        instance's 1,000 rows in a call of its own, and LPI each instance's
        f(x) row and its 8 slots' 128-row pieces, 1,025 rows, in one call.
        The rows scored do not change."""
        ds, model, cfg = self.pima()
        sizes = []

        def spy(model, X):
            sizes.append(len(X))
            return predict_proba(model, X)

        monkeypatch.setattr(explainers, "predict_proba", spy)
        evaluate_dataset(ds, model, ["lime", "lpi"], "probability", cfg, seed=1)
        assert len(ds.X_test) == 192
        assert sum(sizes) == 192 * (1000 + 1 + 8 * 128)
        assert max(sizes) <= explainers._BLOCK_ROWS
        assert sizes.count(1000) == 192
        assert sizes == [1000] * 192 + [1 + 8 * 128] * 192

    def test_wide_mixed_block_size_independent(self, tmp_path):
        """One-hot groups and sampled KernelSHAP: the cell's one pass gives
        the scores and ground truths of evaluate_instance over consecutive
        5-row slices of the test split, bit for bit."""
        ds = wide_mixed_dataset(tmp_path)
        cfg = ExplainerConfig(lime_samples=200, shap_samples=200, shap_background=20,
                              lpi_samples=50)
        techniques = ["lime", "shap", "lpi"]
        for model in (
            train_logistic(ds.X_train, ds.y_train, search_trials=2, seed=1),
            train_gnb(ds.X_train, ds.y_train),
        ):
            sets = evaluate_dataset(ds, model, techniques, "logodds", cfg, seed=1)
            truth = ground_truth(model, ds.X_test)
            sliced: list[list] = [[] for _ in techniques]
            for start in range(0, len(ds.X_test), 5):
                stop = min(start + 5, len(ds.X_test))
                block = evaluate_instance(
                    ds.X_test[start:stop], truth.lam[start:stop], model, techniques,
                    "logodds", ds, cfg, seeds=[derive_seed(1, k) for k in range(start, stop)])
                for collected, scores in zip(sliced, block, strict=True):
                    collected += scores
            for s, scores in zip(sets, sliced, strict=True):
                assert np.array_equal([x.r for x in s.scores], [x.r for x in scores])
                assert [x.degenerate for x in s.scores] == [x.degenerate for x in scores]
            g = sets[0].ground_truth
            assert g.lam.shape == ds.X_test.shape
            assert np.array_equal(g.lam, truth.lam) and g.offset == truth.offset

    def test_one_explain_call_per_technique(self, monkeypatch):
        """pima under the local-probability benchmark flags: each technique
        explains all 192 test rows in one explain() call, instance k with the
        seed derived from (seed, k)."""
        ds, model, cfg = self.pima()
        calls = []

        def spy(technique, target_space, model, x, dataset, config=None, seed=0):
            calls.append((technique, x, seed))
            return explainers.explain(technique, target_space, model, x, dataset, config, seed)

        monkeypatch.setattr(evaluation, "explain", spy)
        evaluate_dataset(ds, model, ["lime", "lpi"], "probability", cfg, seed=1)
        assert len(ds.X_test) == 192
        assert [technique for technique, _, _ in calls] == ["lime", "lpi"]
        for _, x, seeds in calls:
            assert np.array_equal(x, ds.X_test)
            assert list(seeds) == [derive_seed(1, k) for k in range(192)]

    def test_empty_test_split_rejected(self):
        ds, model, cfg = self.make()
        empty = dataclasses.replace(ds, X_test=ds.X_test[:0])
        with pytest.raises(ValueError):
            evaluate_dataset(empty, model, ["lpi"], "logodds", cfg, seed=1)


def score_set(dataset, technique, median):
    return summarize_scores(dataset, technique, [CorrelationScore(r=median)])


class TestRankTechniques:
    def test_strict_order(self):
        sets = [score_set("d1", t, m) for t, m in
                (("lime", 0.9), ("shap", 0.5), ("lpi", 0.1))]
        table = rank_techniques(sets)
        assert table.per_dataset["d1"] == {"lime": 1.0, "shap": 2.0, "lpi": 3.0}

    def test_two_way_tie(self):
        sets = [score_set("d1", t, m) for t, m in
                (("lime", 0.7), ("shap", 0.7), ("lpi", 0.1))]
        ranks = rank_techniques(sets).per_dataset["d1"]
        assert ranks == {"lime": 1.5, "shap": 1.5, "lpi": 3.0}

    def test_single_dataset_average(self):
        sets = [score_set("d1", t, m) for t, m in
                (("lime", 0.2), ("shap", 0.6), ("lpi", 0.4))]
        table = rank_techniques(sets)
        assert table.average == {"lime": 3.0, "shap": 1.0, "lpi": 2.0}
        assert all(v == 0.0 for v in table.std.values())

    def test_row_sums_six(self):
        rng = np.random.default_rng(7)
        sets = []
        for d in range(8):
            for t in ("lime", "shap", "lpi"):
                median = float(rng.choice([0.1, 0.5, 0.5, 0.9]))
                sets.append(score_set(f"d{d}", t, median))
        table = rank_techniques(sets)
        for d, ranks in table.per_dataset.items():
            assert sum(ranks.values()) == 6.0

    def test_missing_cell_rejected(self):
        sets = [score_set("d1", "lime", 0.5), score_set("d1", "shap", 0.4),
                score_set("d2", "lime", 0.5)]
        with pytest.raises(ValueError):
            rank_techniques(sets)

    def test_scale_invariance_through_aggregation(self):
        rng = np.random.default_rng(8)
        phi = rng.normal(0, 1, 9)
        lam = rng.normal(0, 1, 9)
        r1 = spearman(phi, lam).r
        r2 = spearman(123.456 * phi, lam).r
        assert r1 == r2


def small_cell(name: str, kind: str, m: int):
    """A 4-feature dataset with m test instances, one model of the given kind
    and its evaluated score sets for lime and lpi."""
    rng = np.random.default_rng(6)
    X = rng.normal(0, 1, (80, 4))
    y = (rng.random(80) < 0.5).astype(int)
    y[:2] = [0, 1]
    X[y == 1] += 0.7
    ds = numeric_dataset(X, X_test=X[:m], y_train=y, y_test=y[:m], name=name)
    if kind == "lr":
        model = linear_model([0.8, -0.4, 1.1, 0.3])
    else:
        model = train_gnb(X, y)
    cfg = ExplainerConfig(lime_samples=100, lpi_samples=20)
    return ds, kind, evaluate_dataset(ds, model, ["lime", "lpi"], "logodds", cfg, seed=2)


def read_box_rows(out_dir):
    with open(out_dir / "box_plot.csv", newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestReportSet:
    def test_matches_cli_files_byte_for_byte(self, tmp_path):
        """On evaluate_dataset's results under criterion 9's flags,
        write_report_set writes the CLI's files, byte for byte."""
        names = ["iris_binary", "haberman"]
        techniques = ["lime", "shap", "lpi"]
        out = tmp_path / "out"
        argv = ["evaluate", "--model", "both", "--technique", ",".join(techniques),
                "--seed", "7", "--trials", "5", "--lime-samples", "400",
                "--shap-samples", "400", "--out", str(out)]
        for name in names:
            argv += ["--dataset", str(DATASETS_DIR / f"{name}.json")]
        assert cli.main(argv) == 0

        cfg = ExplainerConfig(lime_samples=400, shap_samples=400)
        cells = []
        for name in names:
            config = data.DatasetConfig.from_json(DATASETS_DIR / f"{name}.json")
            ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
            for kind in ("lr", "gnb"):
                if kind == "lr":
                    model = train_logistic(ds.X_train, ds.y_train, search_trials=5, seed=7)
                else:
                    model = train_gnb(ds.X_train, ds.y_train)
                sets = evaluate_dataset(ds, model, techniques, "logodds", cfg, seed=7)
                cells.append((ds, kind, sets))
        library = tmp_path / "library"
        library.mkdir()
        rank_table = write_report_set(library, cells, "standardize", "logodds", 7)

        expected = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(expected) == 6
        assert {p.name: p.read_bytes() for p in library.iterdir()} == expected
        assert rank_table == json.loads(expected["rank_table.json"])

    def test_box_rows_number_instances_per_cell(self, tmp_path):
        cells = [small_cell("a", "gnb", 7), small_cell("b", "gnb", 5)]
        write_report_set(tmp_path, cells, "standardize", "logodds", 2)
        header, *rows = read_box_rows(tmp_path)
        assert header == ["dataset", "model", "technique", "instance", "r"]
        for dataset, m in [("a", 7), ("b", 5)]:
            for technique in ("lime", "lpi"):
                assert [int(row[3]) for row in rows
                        if row[0] == dataset and row[2] == technique] == list(range(m))
        assert len(rows) == 2 * (7 + 5)

    def test_models_ordered_lr_then_gnb_when_lr_fails_first(self, tmp_path):
        """Dataset a has no lr cell, as when its lr fit failed; tables and box
        rows still list lr first, and each report's ranks are its model's
        table row for its dataset."""
        cells = [small_cell("a", "gnb", 4), small_cell("b", "lr", 3), small_cell("b", "gnb", 3)]
        rank_table = write_report_set(tmp_path, cells, "standardize", "logodds", 2)
        _, *rows = read_box_rows(tmp_path)
        reports = sorted(tmp_path.glob("*.report.json"))
        assert [p.name for p in reports] == ["a__gnb.report.json", "b__gnb.report.json",
                                             "b__lr.report.json"]
        assert rank_table == json.loads((tmp_path / "rank_table.json").read_text())
        assert list(rank_table["models"]) == ["lr", "gnb"]
        assert [(row[0], row[1]) for row in rows] == (
            [("b", "lr")] * 6 + [("a", "gnb")] * 8 + [("b", "gnb")] * 6)
        assert list(rank_table["models"]["lr"]["per_dataset"]) == ["b"]
        for path in reports:
            report = json.loads(path.read_text())
            table = rank_table["models"][report["model"]]
            assert report["ranks"] == table["per_dataset"][report["dataset"]]
            assert report["average_ranks"] == table["average_ranks"]

    def test_one_report_alive_at_a_time(self, tmp_path):
        """Each report is built and written before the next, so writing 8
        cells peaks at about the memory of writing 1 (a writer that held every
        report at once measured 3.0x)."""
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (300, 6))
        y = (X[:, 0] + rng.normal(0, 1, 300) > 0).astype(int)
        ds = numeric_dataset(X[:100], X_test=X[100:], y_train=y[:100], y_test=y[100:])
        cfg = ExplainerConfig(lime_samples=50, lpi_samples=10)
        sets = evaluate_dataset(ds, train_gnb(ds.X_train, ds.y_train), ["lime", "lpi"],
                                "logodds", cfg, seed=1)
        cells = []
        for i in range(8):
            name = f"copy{i}"
            cells.append((dataclasses.replace(ds, name=name), "gnb",
                          [dataclasses.replace(s, dataset_id=name) for s in sets]))

        def peak(cells, out):
            out.mkdir()
            tracemalloc.start()
            try:
                write_report_set(out, cells, "standardize", "logodds", 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(cells[:1], tmp_path / "one")
        eight = peak(cells, tmp_path / "eight")
        assert eight <= 1.2 * one, (one, eight)


def test_derive_seed_deterministic():
    assert derive_seed(42, 3) == derive_seed(42, 3)
    assert derive_seed(42, 3) != derive_seed(42, 4)
    assert derive_seed(41, 3) != derive_seed(42, 3)
