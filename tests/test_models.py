import dataclasses
import json
import math

import numpy as np
import pytest

from xplain import data, models
from xplain.errors import ConvergenceError, DimensionMismatchError, InvalidConfigError
from xplain.models import (
    PROBA_CLIP,
    GaussianNBModel,
    LogisticModel,
    accuracy,
    feature_terms,
    fit_logistic,
    ground_truth,
    model_to_dict,
    predict_logodds,
    predict_proba,
    _row_sum,
    _sigmoid,
    train_gnb,
    train_logistic,
)

from conftest import BUNDLED, DATASETS_DIR, wide_mixed_dataset


def separable_data(m=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (m, 2))
    y = (X[:, 0] > 0).astype(int)
    return X, y


def noisy_data(m=250, n=4, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (m, n))
    w = np.array([1.2, -0.7, 0.4, 0.0])
    y = (X @ w + 0.2 + rng.normal(0, 1.5, m) > 0).astype(float)
    return X, y


class TestTrainLogistic:
    def test_separable_toy(self):
        X, y = separable_data()
        model = train_logistic(X, y, search_trials=10, seed=1)
        assert accuracy(model, X, y) == 1.0
        assert abs(model.weights[0]) > 3 * abs(model.weights[1])

    def test_strength_zero_matches_slow_gradient_descent(self):
        X, y = noisy_data()
        m, n = X.shape

        # oracle: plain gradient descent with a fixed safe step, run to 1e-12
        w, b = np.zeros(n), 0.0
        step = 1.0 / (0.25 * (np.linalg.norm(X, 2) ** 2 + m))
        prev = np.inf
        for _ in range(500000):
            z = X @ w + b
            p = 1.0 / (1.0 + np.exp(-z))
            w -= step * (X.T @ (p - y))
            b -= step * np.sum(p - y)
            obj = float(np.sum(np.logaddexp(0.0, -np.where(y == 1, z, -z))))
            if abs(prev - obj) < 1e-12:
                break
            prev = obj

        fit = fit_logistic(X, y, "l2", 0.0)
        assert np.max(np.abs(fit.weights - w)) < 1e-4
        assert abs(fit.intercept - b) < 1e-4

    @pytest.mark.parametrize("source", ["noisy", "pima"])
    @pytest.mark.parametrize("strength", [0.5, 3.0])
    @pytest.mark.parametrize("penalty", ["l1", "l2"])
    def test_penalized_fit_is_first_order_optimal(self, penalty, strength, source):
        # the gradient of the summed NLL, g = X.T @ (sigmoid(z) - y), must
        # balance the penalty's (sub)gradient at the returned fit. Measured
        # residuals: 1.2e-4 to 2.8e-4 over these cases; bound 1e-3
        if source == "noisy":
            X, y = noisy_data()
        else:
            config = data.DatasetConfig.from_json(DATASETS_DIR / "pima.json")
            ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
            X, y = ds.X_train, ds.y_train.astype(float)
        fit = fit_logistic(X, y, penalty, strength)
        w = fit.weights
        r = _sigmoid(X @ w + fit.intercept) - y
        g = X.T @ r
        assert fit.converged
        assert abs(np.sum(r)) < 1e-3
        if penalty == "l2":
            assert np.max(np.abs(g + strength * w)) < 1e-3
        else:
            nonzero = w != 0.0
            assert np.all(np.abs(g[nonzero] + strength * np.sign(w[nonzero])) < 1e-3)
            assert np.all(np.abs(g[~nonzero]) <= strength)

    @pytest.mark.parametrize("penalty, strength", [
        ("L2", 5.0), ("l3", 1.0), ("", 0.0),
        ("l1", -1.0), ("l2", -1e-9), ("l1", np.inf), ("l2", np.nan),
    ])
    def test_invalid_penalty_or_strength_raises(self, penalty, strength):
        X, y = noisy_data()
        with pytest.raises(InvalidConfigError, match=r"^penalty (strength )?must be"):
            fit_logistic(X, y, penalty, strength)

    def test_first_trial_wins_ties(self, monkeypatch):
        # every converged trial scores the same, so trial 0's draw is refit
        X, y = noisy_data(seed=2)
        monkeypatch.setattr(models, "accuracy", lambda *args: 0.5)
        rng = np.random.default_rng([7, 1])
        penalty = "l1" if rng.integers(2) == 0 else "l2"
        strength = float(rng.uniform(0.0, 4.0))
        model = train_logistic(X, y, search_trials=5, seed=7)
        assert (model.penalty, model.strength) == (penalty, strength)

    def test_objective_checkpoints_nonincreasing(self):
        X, y = noisy_data(seed=11)
        fit = fit_logistic(X, y, "l1", 2.0)
        diffs = np.diff(fit.objective_checkpoints)
        assert np.all(diffs <= 1e-12)

    def test_l1_huge_strength_zeroes_weights(self):
        X, y = noisy_data(seed=3)
        fit = fit_logistic(X, y, "l1", 1e7)
        assert np.all(fit.weights == 0.0)
        x = np.random.default_rng(0).normal(0, 5, 4)
        expected = 1.0 / (1.0 + math.exp(-fit.intercept))
        assert abs(predict_proba(fit, x) - expected) < 1e-12

    def test_determinism(self):
        X, y = noisy_data(seed=7)
        a = train_logistic(X, y, search_trials=8, seed=42)
        b = train_logistic(X, y, search_trials=8, seed=42)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept
        assert (a.penalty, a.strength) == (b.penalty, b.strength)

    def test_iris_accuracy(self):
        config = data.DatasetConfig.from_json(DATASETS_DIR / "iris_binary.json")
        ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
        model = train_logistic(ds.X_train, ds.y_train, search_trials=10, seed=0)
        assert accuracy(model, ds.X_test, ds.y_test) >= 0.95

    def test_no_converged_trial_raises(self, monkeypatch):
        X, y = noisy_data(seed=1)
        monkeypatch.setattr(models, "FIT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError,
                           match=r"^no trial converged within 1 iterations \(3 trials\)$"):
            train_logistic(X, y, search_trials=3, seed=0)


class TestTrainGnb:
    def test_variance_floor(self):
        X = np.array([[1.0, 0.0], [1.0, 2.0], [1.0, 4.0], [2.0, 1.0], [3.0, 2.0], [4.0, 3.0]])
        y = np.array([1, 1, 1, 0, 0, 0])
        model = train_gnb(X, y)
        assert model.var1[0] > 0.0  # class-1 column 0 is constant

    def test_balanced_priors(self):
        X, y = separable_data(m=100)
        model = train_gnb(X, (np.arange(100) % 2))
        assert model.prior0 == 0.5 and model.prior1 == 0.5

    def test_banknote_accuracy(self):
        config = data.DatasetConfig.from_json(DATASETS_DIR / "banknote.json")
        ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
        model = train_gnb(ds.X_train, ds.y_train)
        acc = accuracy(model, ds.X_test, ds.y_test)
        assert abs(acc - 0.854) <= 0.05

    def test_train_accuracy_beats_majority_on_bundled(self):
        for name in BUNDLED:
            config = data.DatasetConfig.from_json(DATASETS_DIR / f"{name}.json")
            ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
            model = train_gnb(ds.X_train, ds.y_train)
            majority = max(np.mean(ds.y_train), 1 - np.mean(ds.y_train))
            acc = accuracy(model, ds.X_train, ds.y_train)
            assert acc >= majority, name

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_gnb(np.zeros((4, 2)), np.zeros(4))


class TestPredict:
    def test_zero_weights_half(self):
        model = LogisticModel(np.zeros(3), 0.0, "l2", 0.0)
        for x in (np.zeros(3), np.array([5.0, -2.0, 100.0])):
            assert predict_proba(model, x) == 0.5

    def test_lr_proba_value(self):
        model = LogisticModel(np.array([0.5, -1.0, 2.0]), 0.1, "l2", 0.0)
        x = np.array([2.0, 1.0, 0.5])
        assert abs(predict_proba(model, x) - 0.7502601055951177) < 1e-12
        assert abs(predict_logodds(model, x) - 1.1) < 1e-15

    def test_lr_logodds_identity_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = rng.integers(1, 12)
            w = rng.normal(0, 2, n)
            b = float(rng.normal())
            x = rng.normal(0, 3, n)
            model = LogisticModel(w, b, "l2", 0.0)
            assert predict_logodds(model, x) - (b + np.sum(w * x)) == 0.0

    def test_gnb_symmetric_model(self):
        model = GaussianNBModel(
            mean0=np.zeros(3), mean1=np.zeros(3),
            var0=np.ones(3), var1=np.ones(3), prior0=0.5, prior1=0.5,
        )
        x = np.array([1.0, -2.0, 0.3])
        assert predict_proba(model, x) == pytest.approx(0.5, abs=1e-12)
        assert predict_logodds(model, x) == 0.0

    def test_logit_consistency(self):
        rng = np.random.default_rng(8)
        X = rng.normal(0, 1, (300, 5))
        y = (rng.random(300) < 0.5).astype(int)
        X[y == 1] += rng.normal(0.5, 0.3, 5)
        model = train_gnb(X, y)
        checked = 0
        for _ in range(500):
            x = rng.normal(0, 2, 5)
            lo = predict_logodds(model, x)
            if abs(lo) < 25:
                p = predict_proba(model, x)
                assert abs(math.log(p / (1 - p)) - lo) < 1e-9
                checked += 1
        assert checked > 100

    def test_proba_clipped(self):
        model = LogisticModel(np.array([100.0]), 0.0, "l2", 0.0)
        assert predict_proba(model, np.array([10.0])) == 1.0 - 1e-12
        assert predict_proba(model, np.array([-10.0])) == 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(10)
        X = rng.normal(0, 1, (40, 4))
        y = (rng.random(40) < 0.5).astype(int)
        y[:2] = [0, 1]
        for model in (
            LogisticModel(rng.normal(0, 1, 4), 0.2, "l2", 0.0),
            train_gnb(X, y),
        ):
            batch = predict_logodds(model, X)
            for i in range(5):
                assert batch[i] == pytest.approx(predict_logodds(model, X[i]), abs=1e-12)

    def test_proba_is_clipped_sigmoid_of_logodds(self):
        rng = np.random.default_rng(12)
        X = rng.normal(0, 1, (60, 4))
        y = (rng.random(60) < 0.5).astype(int)
        y[:2] = [0, 1]
        batch = rng.normal(0, 8, (50, 4))  # wide enough to reach the clip
        for model in (
            LogisticModel(rng.normal(0, 3, 4), 0.2, "l2", 0.0),
            train_gnb(X, y),
        ):
            expected = np.clip(
                _sigmoid(predict_logodds(model, batch)), PROBA_CLIP, 1.0 - PROBA_CLIP
            )
            assert np.array_equal(predict_proba(model, batch), expected)
            for i in range(5):
                single = predict_proba(model, batch[i])
                assert isinstance(single, float)
                assert single == expected[i]

    def test_sigmoid_bit_identical_to_masked_form(self):
        def masked(z):
            out = np.empty_like(z, dtype=float)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 700.0, -700.0,
                            745.0, -745.0, 1e-300, -1e-300])
        rng = np.random.default_rng(4)
        cases = [special, *(np.array(v) for v in special), np.array(rng.normal(0, 30))]
        for size in (0, 1, 7, 4096):
            z = rng.normal(0, 30, size)
            z[:len(special)] = special[:size]
            cases += [z, rng.permutation(z)]
        for z in cases:
            got = np.asarray(_sigmoid(z))
            want = masked(z)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True), z
            # beyond nan (whose sign bit may differ) the bits match too
            num = ~np.isnan(want)
            assert np.array_equal(got[num].view(np.int64), want[num].view(np.int64)), z

    def test_dimension_mismatch(self):
        model = LogisticModel(np.zeros(3), 0.0, "l2", 0.0)
        with pytest.raises(DimensionMismatchError):
            predict_proba(model, np.zeros(4))

    def test_nonfinite_input(self):
        model = LogisticModel(np.zeros(2), 0.0, "l2", 0.0)
        with pytest.raises(ValueError):
            predict_logodds(model, np.array([1.0, np.nan]))

    def test_non_model_is_a_type_error(self):
        for score in (feature_terms, predict_logodds):
            with pytest.raises(TypeError, match="^not a model: object$"):
                score(object(), np.zeros(3))

    def test_family_is_a_class_attribute(self):
        """kind names the family without being a dataclass field, so ==, repr
        and the model record's fields leave it out."""
        assert (LogisticModel.kind, GaussianNBModel.kind) == ("lr", "gnb")
        for cls in (LogisticModel, GaussianNBModel):
            assert "kind" not in {f.name for f in dataclasses.fields(cls)}


def _bits(a):
    """The raw bits of a float64 array: equal bits, equal values and signs."""
    return np.ascontiguousarray(a).view(np.int64)


class TestRowSum:
    """_row_sum adds the terms of a batch column by column in numpy's own
    order. Should a numpy sum rows in another order, these tests fail, not
    the reports."""

    @staticmethod
    def _terms(m, n, rng):
        """Terms of magnitude 1e-300 to 1e300 of either sign, with rows of
        subnormals, rows of +0.0 and -0.0, and a row of cancelling pairs."""
        T = rng.normal(0, 1, (m, n)) * 10.0 ** rng.integers(-300, 301, (m, n))
        special = [
            np.full(n, -0.0),
            rng.choice([0.0, -0.0], n),
            rng.choice([5e-324, -5e-324, 2.2e-308, -0.0], n),
            np.resize([1e300, -1e300, 1.0], n),
        ]
        for i, row in enumerate(special[:m]):
            T[(i * 97) % m] = row
        return T

    @pytest.mark.parametrize("n", [*range(1, 41), 127, 128, 129, 300])
    def test_bit_identical_to_row_major_np_sum(self, n):
        rng = np.random.default_rng(n)
        for m in (1, 2, 7, 255, 4096):
            T = self._terms(m, n, rng)
            want = np.sum(T, axis=-1)
            for layout in (T.copy(), np.asfortranarray(T)):  # _row_sum overwrites its input
                got = _row_sum(layout)
                assert got.shape == (m,)
                assert np.array_equal(_bits(got), _bits(want)), (n, m, layout.flags.f_contiguous)

    def test_row_of_negative_zeros_sums_to_positive_zero(self):
        for n in (1, 7, 8, 12, 19, 128, 129):
            for T in (np.full((3, n), -0.0), np.full((3, n), -0.0, order="F")):
                got = _row_sum(T)
                assert np.array_equal(_bits(got), _bits(np.zeros(3))), n

    def test_predictions_do_not_depend_on_layout(self):
        rng = np.random.default_rng(3)
        for n in (3, 8, 12, 19):
            X = rng.normal(0, 1, (120, n))
            y = (rng.random(120) < 0.5).astype(int)
            y[:2] = [0, 1]
            rows = rng.normal(0, 3, (300, n))
            layouts = [rows, np.asfortranarray(rows),
                       np.asfortranarray(np.repeat(rows, 2, axis=0))[::2],  # strided rows
                       np.hstack([rows, rows])[:, :n]]                   # strided columns
            for model in (
                LogisticModel(rng.normal(0, 2, n), 0.3, "l2", 0.0),
                train_gnb(X, y),
            ):
                for predict in (predict_logodds, predict_proba):
                    want = predict(model, rows)
                    for layout in layouts:
                        assert np.array_equal(layout, rows)
                        assert np.array_equal(predict(model, layout), want), (n, model.kind)
                    # each row alone gives the bits it gets in the batch
                    for i in (0, 150, 299):
                        assert predict(model, rows[i:i + 1])[0] == want[i]


def _logpdf_ratio(model, X):
    """Oracle: log N(x_j | 1) - log N(x_j | 0) as two Gaussian log densities,
    written out independently of the quadratic form feature_terms uses."""
    def logpdf(mu, var):
        return -0.5 * (np.log(2.0 * np.pi * var) + (X - mu) ** 2 / var)

    return logpdf(model.mean1, model.var1) - logpdf(model.mean0, model.var0)


def _assert_columns_match_oracle(model, X, label):
    """Per column, within 1e-12 of the column's largest oracle term (at least 1)."""
    _, terms = feature_terms(model, X)
    oracle = _logpdf_ratio(model, X)
    scale = np.maximum(1.0, np.max(np.abs(oracle), axis=0))
    err = np.max(np.abs(terms - oracle), axis=0)
    assert np.all(err <= 1e-12 * scale), (label, err / scale)


class TestGnbQuadraticTerms:
    def test_random_models_match_logpdf_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            model = GaussianNBModel(
                mean0=rng.normal(0, 1, n), mean1=rng.normal(0, 1, n),
                var0=rng.uniform(0.5, 3.0, n), var1=rng.uniform(0.5, 3.0, n),
                prior0=0.4, prior1=0.6,
            )
            X = rng.normal(0, 2, (20, n))
            for x in (X, X[0]):
                _, terms = feature_terms(model, x)
                assert terms.shape == x.shape
                assert np.max(np.abs(terms - _logpdf_ratio(model, x))) < 1e-12

    @pytest.mark.parametrize("pure_class", [0, 1])
    def test_pure_class_column_matches_oracle(self, pure_class):
        """A one-hot column that is all zeros in one class gets the floored
        variance there, so its terms reach about 1e9 on the other class's ones."""
        rng = np.random.default_rng(30 + pure_class)
        m = 300
        y = (rng.random(m) < 0.5).astype(int)
        X = rng.normal(0, 1, (m, 4))
        X[:, 2] = rng.random(m) < 0.4
        X[y == pure_class, 2] = 0.0
        model = train_gnb(X, y)
        floored = (model.var0, model.var1)[pure_class]
        assert floored[2] == 1e-9 * float(X.var(axis=0).max())
        batch = np.vstack([X, rng.normal(0, 2, (50, 4))])
        _assert_columns_match_oracle(model, batch, pure_class)

    @pytest.mark.parametrize("kind", data.PREPROCESS_KINDS)
    def test_bundled_datasets_match_oracle(self, kind):
        for name in BUNDLED:
            config = data.DatasetConfig.from_json(DATASETS_DIR / f"{name}.json")
            ds, _ = data.preprocess_dataset(data.load_dataset(config), kind)
            model = train_gnb(ds.X_train, ds.y_train)
            for X in (ds.X_train, ds.X_test):
                _assert_columns_match_oracle(model, X, name)

    def test_logodds_is_offset_plus_terms_and_json_keys_unchanged(self):
        rng = np.random.default_rng(9)
        X = rng.normal(0, 1, (80, 5))
        y = (rng.random(80) < 0.5).astype(int)
        model = train_gnb(X, y)
        batch = rng.normal(0, 3, (40, 5))
        offset, terms = feature_terms(model, batch)
        assert np.array_equal(predict_logodds(model, batch), offset + np.sum(terms, axis=-1))
        # the coefficients derived for scoring are not part of the model record
        spec = data.PreprocessSpec("standardize", np.zeros(5), np.ones(5))
        assert set(model_to_dict(model, spec)["model"]) == {
            "mean0", "mean1", "var0", "var1", "prior0", "prior1"}


def cell_models(name, tmp_path):
    """A bundled dataset, standardized, or the wide-mixed table, with an LR
    and a GNB fitted on its training split."""
    if name == "wide_mixed":
        ds = wide_mixed_dataset(tmp_path)
    else:
        config = data.DatasetConfig.from_json(DATASETS_DIR / f"{name}.json")
        ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
    return ds, (fit_logistic(ds.X_train, ds.y_train, "l2", 1.0),
                train_gnb(ds.X_train, ds.y_train))


class TestGroundTruthBlock:
    @pytest.mark.parametrize("name", [*BUNDLED, "wide_mixed"])
    def test_block_equals_stacked_rows(self, name, tmp_path):
        """One call on a whole test split gives each instance's own ground
        truth, bit for bit."""
        ds, models = cell_models(name, tmp_path)
        for model in models:
            block = ground_truth(model, ds.X_test)
            rows = [ground_truth(model, x) for x in ds.X_test]
            assert np.array_equal(block.lam, np.stack([gt.lam for gt in rows]))
            assert all(gt.offset == block.offset for gt in rows)

    @pytest.mark.parametrize("name", [*BUNDLED, "wide_mixed"])
    def test_block_total_is_logodds(self, name, tmp_path):
        """Criterion 1's identity on a block: total() is predict_logodds, bit
        for bit."""
        ds, models = cell_models(name, tmp_path)
        for model in models:
            total = ground_truth(model, ds.X_test).total()
            assert np.array_equal(total, predict_logodds(model, ds.X_test))

    @pytest.mark.parametrize("n", [3, 8, 13, 130])
    def test_total_is_logodds_at_every_row_sum_width(self, n):
        """Widths that take each of _row_sum's paths, on blocks of either
        memory layout; one instance gives a float, a block one value per row."""
        rng = np.random.default_rng(n)
        X = rng.normal(0, 2, (60, n))
        for model in (LogisticModel(rng.normal(0, 2, n), 0.3, "l2", 0.0),
                      train_gnb(X, np.arange(60) % 2)):
            assert ground_truth(model, X[0]).total() == predict_logodds(model, X[0])
            for block in (X, np.asfortranarray(X)):
                total = ground_truth(model, block).total()
                assert total.shape == (60,)
                assert np.array_equal(total, predict_logodds(model, X))


class TestSerialization:
    def test_roundtrip(self, monkeypatch):
        """The model JSON `xplain train` writes carries every fitted parameter
        and the preprocessing, exactly, through a JSON round trip."""
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (60, 3))
        y = (rng.random(60) < 0.5).astype(int)
        y[:2] = [0, 1]
        spec = data.PreprocessSpec(
            kind="standardize",
            center=np.array([0.1, 0.2, 0.3]),
            scale=np.array([1.0, 2.0, 3.0]),
        )
        fitted = (fit_logistic(X, y, "l1", 0.5), train_gnb(X, y))
        # stopped early: not converged, two objective checkpoints
        monkeypatch.setattr(models, "FIT_MAX_ITER", 3)
        for model in (*fitted, fit_logistic(X, y, "l2", 0.1)):
            blob = json.loads(json.dumps(model_to_dict(model, spec), sort_keys=True))
            assert blob["kind"] == model.kind
            fields = (("weights", "intercept", "penalty", "strength", "iterations",
                       "final_objective", "objective_checkpoints", "converged")
                      if model.kind == "lr" else
                      ("mean0", "mean1", "var0", "var1", "prior0", "prior1"))
            assert set(blob["model"]) == set(fields)
            for name in fields:
                value = getattr(model, name)
                if isinstance(value, (np.ndarray, tuple)):
                    value = [float(v) for v in value]
                assert blob["model"][name] == value, name
            assert set(blob["preprocess"]) == {"kind", "center", "scale"}
            assert blob["preprocess"]["kind"] == "standardize"
            assert blob["preprocess"]["center"] == spec.center.tolist()
            assert blob["preprocess"]["scale"] == spec.scale.tolist()
