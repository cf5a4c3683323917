import dataclasses
import math

import numpy as np
import pytest

from xplain import data, explainers
from xplain.errors import DimensionMismatchError, UnknownTechniqueError
from xplain.evaluation import derive_seed
from xplain.explainers import (
    TARGET_SPACES,
    TECHNIQUES,
    ExplainerConfig,
    explain,
)
from xplain.models import (
    PROBA_CLIP,
    _sigmoid,
    feature_terms,
    predict_logodds,
    predict_proba,
    train_gnb,
    train_logistic,
)

from conftest import (
    DATASETS_DIR,
    linear_model,
    numeric_dataset,
    permutation_shapley,
    wide_mixed_dataset,
)


# the most rows of one LPI model call
CAP = explainers._LPI_CALL_ROWS


def unit_std_dataset(n=6, m=500, seed=0):
    """Training matrix with exactly unit sample std and zero mean per column."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (m, n))
    X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
    return numeric_dataset(X)


def categorical_dataset(seed=0, m=80):
    rng = np.random.default_rng(seed)
    rows = [(float(rng.normal()), str(rng.choice(["a", "b", "c"], p=[0.5, 0.3, 0.2])),
             float(rng.normal(2, 1)))
            for _ in range(m)]
    columns = (
        data.ColumnSpec("x0", "numeric"),
        data.ColumnSpec("cat", "categorical"),
        data.ColumnSpec("x1", "numeric"),
    )
    parts = data.SplitTable(
        columns=columns,
        train_rows=rows[: m - 10],
        test_rows=rows[m - 10 :],
        y_train=np.array([i % 2 for i in range(m - 10)]),
        y_test=np.array([i % 2 for i in range(10)]),
    )
    return data.encode_onehot(parts)


def _reference_lime(model, x, dataset, samples, seed):
    """explain's LIME drawn column by column with rng.normal, one slot at a
    time, and scored row-major."""
    n = dataset.n_features
    S = samples
    width = 0.75 * math.sqrt(n)
    rng = np.random.default_rng([1, seed])
    Z = np.tile(x, (S, 1))
    d2 = np.zeros(S)
    for cols, group in dataset.slots:
        if group is None:
            j = cols[0]
            col = dataset.X_train[:, j]
            std = float(col.std(ddof=1)) if len(col) > 1 else 0.0
            Z[:, j] = rng.normal(x[j], std, S) if std > 0 else x[j]
            d2 += ((Z[:, j] - x[j]) / (std if std > 0 else 1.0)) ** 2
        else:
            freqs = dataset.X_train[:, cols].mean(axis=0)
            freqs = freqs / freqs.sum()
            cats = rng.choice(len(cols), size=S, p=freqs)
            Z[:, cols] = 0.0
            Z[np.arange(S), cols[cats]] = 1.0
            d2 += np.any(Z[:, cols] != x[cols], axis=1).astype(float)
    weights = np.exp(-d2 / width**2)
    y = predict_logodds(model, Z)
    A = np.column_stack([np.ones(S), Z])
    Aw = A * weights[:, None]
    penal = np.eye(n + 1)
    penal[0, 0] = 0.0
    return np.linalg.solve(Aw.T @ A + penal, Aw.T @ y)[1:]


class TestLime:
    def test_recovers_linear_coefficients(self):
        ds = unit_std_dataset()
        w = np.array([2.0, -1.3, 0.7, 0.25, -0.4, 0.15])
        model = linear_model(w, 0.3)
        e = explain("lime", "logodds", model, ds.X_train[3], ds, seed=5)
        rel = np.abs(e.phi - w) / np.abs(w)
        assert np.all(rel[np.abs(w) > 0.1] < 0.05)
        from xplain.evaluation import spearman
        assert spearman(e.phi, w).r >= 0.99

    def test_irrelevant_feature_near_zero(self):
        ds = unit_std_dataset(seed=1)
        w = np.array([2.0, -1.5, 1.0, 0.0, 0.8, -0.6])
        model = linear_model(w)
        e = explain("lime", "logodds", model, ds.X_train[0], ds, seed=2)
        assert abs(e.phi[3]) < 0.05 * np.max(np.abs(e.phi))

    def test_deterministic(self):
        ds = unit_std_dataset(seed=2)
        model = linear_model(np.ones(6))
        a = explain("lime", "logodds", model, ds.X_train[1], ds, seed=9)
        b = explain("lime", "logodds", model, ds.X_train[1], ds, seed=9)
        assert np.array_equal(a.phi, b.phi)
        c = explain("lime", "logodds", model, ds.X_train[1], ds, seed=10)
        assert not np.array_equal(a.phi, c.phi)

    def test_categorical_groups_resampled_whole(self):
        ds = categorical_dataset()
        gnb = train_gnb(ds.X_train, ds.y_train)
        e = explain("lime", "logodds", gnb, ds.X_test[0], ds, seed=4)
        assert np.all(np.isfinite(e.phi))
        assert len(e.phi) == ds.n_features

    def test_train_stats_match_per_call_reference(self):
        iris = data.load_dataset(data.DatasetConfig.from_json(
            DATASETS_DIR / "iris_binary.json"))
        for ds in (iris, categorical_dataset()):
            gnb = train_gnb(ds.X_train, ds.y_train)
            cfg = ExplainerConfig(lime_samples=400)
            for i in range(3):
                e = explain("lime", "logodds", gnb, ds.X_test[i], ds, cfg, seed=i)
                ref = _reference_lime(gnb, ds.X_test[i], ds, 400, seed=i)
                assert np.array_equal(e.phi, ref), (ds.name, i)
        draws = explainers._lime_draws(categorical_dataset())
        assert [np.ndim(stat) for _, _, stat in draws] == [2, 1, 2]
        assert draws[1][2].sum() == pytest.approx(1.0)

    def test_train_stats_follow_preprocessed_matrix(self):
        raw = categorical_dataset()
        std, _ = data.preprocess_dataset(raw, "standardize")
        raw_draws, std_draws = explainers._lime_draws(raw), explainers._lime_draws(std)
        assert std_draws[0][2][0, 0] == float(std.X_train[:, 0].std(ddof=1))
        assert std_draws[0][2][0, 0] == pytest.approx(1.0)
        assert raw_draws[0][2][0, 0] != pytest.approx(1.0)
        assert np.array_equal(std_draws[1][2], raw_draws[1][2])

    def test_one_training_row_keeps_numeric_columns_fixed(self):
        X = np.array([[0.5, -1.0, 2.0]])
        ds = numeric_dataset(X, X_test=X + 1.0, y_train=[1], y_test=[0])
        assert explainers._lime_draws(ds) == []  # no column has a training spread
        model = linear_model([1.0, 2.0, -1.0])
        e = explain("lime", "logodds", model, ds.X_test[0], ds, seed=3)
        assert np.max(np.abs(e.phi)) < 1e-9  # every perturbation is x itself
        assert np.array_equal(e.phi, _reference_lime(model, ds.X_test[0], ds, 5000, seed=3))


class TestShap:
    def test_single_feature(self):
        ds = numeric_dataset(np.linspace(0, 1, 20).reshape(-1, 1))
        model = linear_model([2.0], 1.0)
        x = np.array([0.75])
        e = explain("shap", "logodds", model, x, ds, seed=1)
        f = lambda Z: predict_logodds(model, Z)
        expected = f(x) - np.mean(f(ds.X_train))
        assert e.phi[0] == pytest.approx(expected, abs=1e-12)
        assert e.sample_count == 2**1

    def test_exact_matches_linear_closed_form(self):
        # training set of <= 100 rows, so the background is the whole split
        rng = np.random.default_rng(6)
        for n in (2, 5, 12):
            ds = numeric_dataset(rng.normal(0, 1, (90, n)))
            w = rng.normal(0, 1.5, n)
            model = linear_model(w, rng.normal())
            x = rng.normal(0, 1, n)
            e = explain("shap", "logodds", model, x, ds, seed=3)
            closed = w * (x - ds.X_train.mean(axis=0))
            assert np.max(np.abs(e.phi - closed)) < 1e-6
            assert e.sample_count == 2**n

    def test_constant_model_zero(self):
        ds = numeric_dataset(np.random.default_rng(7).normal(0, 1, (50, 4)))
        model = linear_model(np.zeros(4), 2.5)
        e = explain("shap", "logodds", model, np.ones(4), ds, seed=2)
        assert np.max(np.abs(e.phi)) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        col = rng.normal(0, 1, 60)
        X = np.column_stack([col, col, rng.normal(0, 1, 60)])
        ds = numeric_dataset(X)
        model = linear_model([1.3, 1.3, -0.5])
        x = np.array([0.8, 0.8, 0.1])
        e = explain("shap", "logodds", model, x, ds, seed=5)
        assert abs(e.phi[0] - e.phi[1]) < 1e-6

    def test_dummy_feature_zero(self):
        rng = np.random.default_rng(9)
        ds = numeric_dataset(rng.normal(0, 1, (80, 5)))
        model = linear_model([1.0, 0.0, -2.0, 0.5, 0.0])
        e = explain("shap", "logodds", model, rng.normal(0, 1, 5), ds, seed=6)
        assert abs(e.phi[1]) < 1e-9 and abs(e.phi[4]) < 1e-9

    def test_local_accuracy_nonlinear(self):
        rng = np.random.default_rng(10)
        X = rng.normal(0, 1, (120, 6))
        y = (rng.random(120) < 0.5).astype(int)
        X[y == 1] += 0.8
        ds = numeric_dataset(X, y_train=y)
        model = train_gnb(X, y)
        x = rng.normal(0, 1, 6)
        for target, f in (("logodds", predict_logodds), ("probability", predict_proba)):
            e = explain("shap", target, model, x, ds, seed=7)
            assert abs(e.base_value + e.phi.sum() - f(model, x)) < 1e-6

    def test_sampled_path_linear_exact(self):
        # n > 13 takes the kernel-sampled route; a linear target is still fit
        # exactly by the weighted least squares whenever the design spans
        rng = np.random.default_rng(11)
        n = 18
        ds = numeric_dataset(rng.normal(0, 1, (95, n)))
        w = rng.normal(0, 1, n)
        model = linear_model(w, 0.4)
        x = rng.normal(0, 1, n)
        cfg = ExplainerConfig(shap_samples=3000)
        e = explain("shap", "logodds", model, x, ds, cfg, seed=8)
        closed = w * (x - ds.X_train.mean(axis=0))
        assert np.max(np.abs(e.phi - closed)) < 1e-6
        # draws come in complement pairs after empty + full, so 3000 draws exactly
        assert e.sample_count == 3000

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        ds = numeric_dataset(rng.normal(0, 1, (300, 15)))
        model = linear_model(rng.normal(0, 1, 15))
        x = rng.normal(0, 1, 15)
        cfg = ExplainerConfig(shap_samples=500)
        a = explain("shap", "logodds", model, x, ds, cfg, seed=1)
        b = explain("shap", "logodds", model, x, ds, cfg, seed=1)
        assert np.array_equal(a.phi, b.phi)


    @pytest.mark.parametrize("samples", [1, 3])
    def test_singular_design_falls_back_to_lstsq(self, samples, monkeypatch):
        # 1 draw values no coalition and 3 draws value one complement pair, so
        # the 15 x 15 gram is singular and the solve takes its lstsq branch
        rng = np.random.default_rng(samples)
        X = rng.normal(0, 1, (60, 16))
        ds = numeric_dataset(X)
        model = linear_model(rng.normal(0, 1, 16), 0.2)
        lstsq, calls = np.linalg.lstsq, []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        cfg = ExplainerConfig(shap_samples=samples)
        e = explain("shap", "logodds", model, X[0], ds, cfg, seed=1)
        assert calls == [(15, 15)]
        assert np.all(np.isfinite(e.phi))
        fx = predict_logodds(model, X[:1])[0]
        assert abs(e.base_value + e.phi.sum() - fx) < 1e-9


def _reference_exact_coalitions(n):
    """All 2^n coalitions, empty and full included with weight 0 (the
    generator KernelSHAP used before it returned proper coalitions only)."""
    codes = np.arange(2**n, dtype=np.int64)
    masks = ((codes[:, None] >> np.arange(n)) & 1).astype(bool)
    by_size = np.zeros(n + 1)
    for s in range(1, n):
        by_size[s] = (n - 1) / (math.comb(n, s) * s * (n - s))
    return masks, by_size[masks.sum(axis=1)]


def _reference_solve_constrained_wls(masks, values, weights, base, fx):
    """The constrained solve as it was before its design was split out and
    cached: everything rebuilt from the masks on every call."""
    M = masks.astype(float)
    y = values - base - M[:, -1] * (fx - base)
    A = M[:, :-1] - M[:, -1:]
    Aw = A * weights[:, None]
    gram = Aw.T @ A
    rhs = Aw.T @ y
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        beta = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    return np.append(beta, (fx - base) - beta.sum())


def _reference_sample_coalitions(n, samples, rng):
    """Per-draw sampler: empty and full first, then complement pairs, with
    duplicates counted in a dict keyed on the packed mask bytes. Every pair's
    size comes first, one scalar rng.random() each (through
    Generator.choice with p); then each draw's members are the s smallest of
    its own rng.random(n) keys."""
    sizes = np.arange(1, n)
    p = (n - 1) / (sizes * (n - sizes))
    p = p / p.sum()
    counts = {}
    order = []

    def add(mask):
        key = np.packbits(mask).tobytes()
        if key not in counts:
            counts[key] = 0
            order.append(key)
        counts[key] += 1

    empty = np.zeros(n, dtype=bool)
    add(empty)
    add(~empty)
    pairs = max(0, (samples - 1) // 2)
    drawn_sizes = [int(rng.choice(sizes, p=p)) for _ in range(pairs)]
    for s in drawn_sizes:
        members = np.argsort(rng.random(n))[:s]
        mask = np.zeros(n, dtype=bool)
        mask[members] = True
        add(mask)
        add(~mask)
    masks = np.array(
        [np.unpackbits(np.frombuffer(k, dtype=np.uint8), count=n).astype(bool) for k in order]
    )
    weights = np.array([float(counts[k]) for k in order])
    return masks, weights


def _proper(masks, weights):
    sizes = masks.sum(axis=1)
    keep = (sizes > 0) & (sizes < masks.shape[1])
    return masks[keep], weights[keep]


class TestCoalitionGenerators:
    def test_exact_matches_reference_without_empty_and_full(self):
        for n in range(1, 14):
            masks, weights = explainers._exact_coalitions(n)
            ref_masks, ref_weights = _proper(*_reference_exact_coalitions(n))
            assert masks.shape == (2**n - 2, n)
            assert np.array_equal(masks, ref_masks), n
            assert np.array_equal(weights, ref_weights), n

    def test_exact_design_is_cached_and_read_only(self):
        for n in (1, 4, 12):
            masks, weights = explainers._exact_coalitions(n)
            again = explainers._exact_coalitions(n)
            assert again[0] is masks and again[1] is weights
            for array in (masks, weights):
                with pytest.raises(ValueError):
                    array[...] = 0
        rng = np.random.default_rng(0)
        for n in range(2, 14):
            masks, weights = explainers._exact_coalitions(n)
            design = explainers._exact_design(n)
            again = explainers._exact_design(n)
            assert len(again) == len(design) == 3
            assert all(a is b for a, b in zip(again, design)), n
            for array in design:
                with pytest.raises(ValueError):
                    array[...] = 0
            for _ in range(5):
                values = rng.normal(0, 2, len(masks))
                base, fx = rng.normal(0, 2, 2)
                phi = explainers._solve_constrained_wls(design, values, base, fx)
                ref = _reference_solve_constrained_wls(masks, values, weights, base, fx)
                assert np.array_equal(phi, ref), n

    def test_sampled_matches_reference_without_empty_and_full(self):
        for n in (2, 3, 14, 19, 30):
            for samples in (1, 2, 3, 4, 7, 50, 1300, 3000):
                for seed in range(3):
                    masks, weights = explainers._sample_coalitions(
                        n, samples, np.random.default_rng(seed))
                    ref_masks, ref_weights = _reference_sample_coalitions(
                        n, samples, np.random.default_rng(seed))
                    case = (n, samples, seed)
                    assert masks.shape[1] == n, case
                    assert np.array_equal(masks, ref_masks[2:]), case
                    assert np.array_equal(weights, ref_weights[2:]), case
                    assert 2 + weights.sum() == ref_weights.sum(), case

    def test_sampled_matches_reference_wide_masks(self):
        # 8/9 columns straddle a byte boundary of the packed keys; 64/70 give
        # keys of 8 and 9 bytes
        for n in (8, 9, 64, 70):
            for samples in (1, 2, 3, 50, 1300):
                for seed in range(3):
                    masks, weights = explainers._sample_coalitions(
                        n, samples, np.random.default_rng(seed))
                    ref_masks, ref_weights = _reference_sample_coalitions(
                        n, samples, np.random.default_rng(seed))
                    case = (n, samples, seed)
                    assert masks.shape == (len(ref_masks) - 2, n), case
                    assert np.array_equal(masks, ref_masks[2:]), case
                    assert np.array_equal(weights, ref_weights[2:]), case

    def test_sampled_follows_shapley_kernel(self):
        n, samples = 19, 100_001
        masks, weights = explainers._sample_coalitions(n, samples, np.random.default_rng(5))
        pairs = (samples - 1) // 2
        assert weights.sum() == 2 * pairs
        sizes = masks.sum(axis=1)
        assert sizes.min() >= 1 and sizes.max() <= n - 1
        kernel = np.array([(n - 1) / (s * (n - s)) for s in range(1, n)])
        kernel /= kernel.sum()
        drawn = np.array([weights[sizes == s].sum() for s in range(1, n)])
        assert np.max(np.abs(drawn / drawn.sum() - kernel)) < 0.005
        # within a size every feature is a member with probability s / n
        for s in range(1, n):
            of_size = sizes == s
            inclusion = weights[of_size] @ masks[of_size] / drawn[s - 1]
            spread = math.sqrt(s / n * (1 - s / n) / drawn[s - 1])
            assert np.max(np.abs(inclusion - s / n)) < 6 * spread, s
        # a draw and its complement are counted together
        weight_of = {m.tobytes(): w for m, w in zip(masks, weights)}
        for m, w in zip(masks, weights):
            assert weight_of[(~m).tobytes()] == w


def _shap_draws(ds, cfg, seed):
    """The background and coalitions (masks, weights) that explain's SHAP
    draws for seed, from the same random stream, in the same order."""
    rng = np.random.default_rng([explainers._RNG_TAG[explainers.SHAP], seed])
    m, n = ds.X_train.shape
    B = min(m, cfg.shap_background)
    background = ds.X_train[rng.choice(m, B, replace=False)] if m > B else ds.X_train
    if n <= explainers.EXACT_SHAP_LIMIT:
        return background, *explainers._exact_coalitions(n)
    return background, *explainers._sample_coalitions(n, cfg.shap_samples, rng)


def _reference_shap(model, x, ds, cfg, seed):
    """(phi, base_value) with f(x), the background and each coalition scored
    in a call of its own, each coalition's rows in the broadcast np.where
    form."""
    background, masks, weights = _shap_draws(ds, cfg, seed)
    fx = float(predict_logodds(model, x[None])[0])
    base = float(predict_logodds(model, background).mean())
    values = np.array([predict_logodds(model, np.where(mask, x, background)).mean()
                       for mask in masks])
    if ds.n_features <= explainers.EXACT_SHAP_LIMIT:
        design = explainers._exact_design(ds.n_features)
    else:
        design = explainers._wls_design(masks, weights)
    return explainers._solve_constrained_wls(design, values, base, fx), base


class ShapCallSpy:
    """A stand-in for predict_logodds that checks every SHAP call against the
    broadcast form, instance after instance: the first call of an instance
    must start with x and its background, and every call must go on with the
    rows of the instance's next whole coalitions, x on each mask and the
    background off it, in a column-major buffer. Each call is recorded as
    (instance, lead rows, coalitions)."""

    def __init__(self, X, ds, cfg, seeds):
        self.draws = [(x, *_shap_draws(ds, cfg, s)[:2]) for x, s in zip(X, seeds)]
        self.instance, self.done, self.calls = 0, None, []

    def __call__(self, model, Z):
        x, background, masks = self.draws[self.instance]
        B = len(background)
        assert Z.flags.f_contiguous
        lead = 0
        if self.done is None:  # an instance's first call
            assert np.array_equal(Z[0], x)
            assert np.array_equal(Z[1 : 1 + B], background)
            lead, self.done = 1 + B, 0
        count, rest = divmod(len(Z) - lead, B)
        assert rest == 0, "a call holds part of a coalition"
        assert self.done + count <= len(masks), "a call holds rows of the next instance"
        whole = np.where(masks[self.done : self.done + count, None, :], x, background[None])
        assert np.array_equal(Z[lead:], whole.reshape(-1, len(x)))
        self.calls.append((self.instance, lead, count))
        self.done += count
        if self.done == len(masks):
            self.instance, self.done = self.instance + 1, None
        return predict_logodds(model, Z)


def expected_shap_calls(coalitions, B):
    """(lead rows, coalitions) of each call of an instance with `coalitions`
    proper coalitions: x, the background and as many whole coalitions as fit
    within _BLOCK_ROWS, then calls of at most _BLOCK_ROWS // B coalitions and
    at least one."""
    cap = explainers._BLOCK_ROWS
    first = min(coalitions, max(0, (cap - 1 - B) // B))
    per_call = max(1, cap // B)
    rest = coalitions - first
    return [(1 + B, first)] + [(0, min(per_call, rest - k)) for k in range(0, rest, per_call)]


class TestCoalitionValues:
    """explain's SHAP builds each call's rows in place, column-major: x, the
    background and whole coalitions. The rows must be those of the broadcast
    np.where form, and neither their layout nor the call shape may change
    phi or base_value."""

    @staticmethod
    def _case(n, B, sampled, monkeypatch, instances=2):
        """explain's SHAP over `instances` rows of a GNB dataset with B + 40
        training rows, through ShapCallSpy; checks phi and base_value against
        _reference_shap and returns the spy."""
        rng = np.random.default_rng(n + B)
        X = rng.normal(0, 1, (B + 40, n)) * rng.uniform(0.5, 2.0, n)
        y = (rng.random(len(X)) < 0.5).astype(int)
        y[:2] = [0, 1]
        model = train_gnb(X, y)
        ds = numeric_dataset(X, y_train=y)
        cfg = ExplainerConfig(shap_samples=1300, shap_background=B)
        assert (n > explainers.EXACT_SHAP_LIMIT) == sampled
        x, seeds = X[-instances:], list(range(1, instances + 1))
        spy = ShapCallSpy(x, ds, cfg, seeds)
        monkeypatch.setattr(explainers, "predict_logodds", spy)
        e = explain("shap", "logodds", model, x, ds, cfg, seeds)
        monkeypatch.undo()
        assert spy.instance == instances
        for i in range(instances):
            phi, base = _reference_shap(model, x[i], ds, cfg, seeds[i])
            assert np.array_equal(e.phi[i], phi)
            assert e.base_value[i] == base
        return spy

    @pytest.mark.parametrize("n,B,sampled", [(4, 3, False), (12, 3, False), (12, 100, False),
                                             (19, 350, True), (5, 5000, False)])
    def test_rows_match_broadcast_form(self, n, B, sampled, monkeypatch):
        """Every call holds the broadcast form's rows in its order: full
        calls, a short last call, and one coalition per call when B exceeds
        _BLOCK_ROWS."""
        spy = self._case(n, B, sampled, monkeypatch)
        for i, (_, _, masks) in enumerate(spy.draws):
            calls = [(lead, count) for k, lead, count in spy.calls if k == i]
            assert calls == expected_shap_calls(len(masks), B)

    @pytest.mark.parametrize("n,B,sampled", [(12, 3, False), (19, 350, True), (12, 5000, False)])
    def test_blocks_match_one_call(self, n, B, sampled, monkeypatch):
        """An instance's coalitions span several calls; their values are those
        of each coalition scored in a call of its own."""
        spy = self._case(n, B, sampled, monkeypatch, instances=1)
        assert len(spy.calls) > 1
        sizes = [lead + count * B for _, lead, count in spy.calls]
        assert max(sizes) <= max(explainers._BLOCK_ROWS, 1 + B)
        assert sum(sizes) == 1 + B + len(spy.draws[0][2]) * B
        if B > explainers._BLOCK_ROWS:
            assert sizes == [1 + B] + [B] * len(spy.draws[0][2])


class TestGnbAdditiveOracle:
    """In log-odds GNB is additive, so interventional SHAP and full-permutation
    LPI both equal lam_j(x) - mean_b lam_j(b) over the background rows b."""

    @staticmethod
    def _setup(n, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (90, n)) * rng.uniform(0.5, 2.0, n)
        y = (rng.random(90) < 0.5).astype(int)
        y[:2] = [0, 1]
        X[y == 1] += rng.normal(0, 0.8, n)
        ds = numeric_dataset(X, y_train=y)  # <= 100 rows: the background is X
        model = train_gnb(X, y)
        x = rng.normal(0, 1, n)
        closed = feature_terms(model, x)[1] - feature_terms(model, X)[1].mean(axis=0)
        return ds, model, x, closed

    @pytest.mark.parametrize("n,samples", [(5, 5000), (12, 5000), (16, 3000), (18, 1300)])
    def test_shap(self, n, samples):
        ds, model, x, closed = self._setup(n, seed=n)
        cfg = ExplainerConfig(shap_samples=samples)
        e = explain("shap", "logodds", model, x, ds, cfg, seed=1)
        assert e.sample_count == (2**n if n <= explainers.EXACT_SHAP_LIMIT else samples)
        assert np.max(np.abs(e.phi - closed)) < 1e-9

    def test_full_permutation_lpi(self):
        ds, model, x, closed = self._setup(7, seed=23)
        e = explain("lpi", "logodds", model, x, ds, seed=2)
        assert e.sample_count == ds.X_train.shape[0]
        assert np.max(np.abs(e.phi - closed)) < 1e-9


class TestProbabilityOracle:
    """Under the probability target p the model is not additive, so neither
    closed form holds; exact KernelSHAP and full-permutation LPI are checked
    against their definitions of p instead, over the whole training split."""

    @staticmethod
    def _cases():
        """(dataset, model) pairs: n = 3..6 numeric columns, LR and GNB."""
        rng = np.random.default_rng(31)
        for n in (3, 4, 5, 6):
            X = rng.normal(0, 1, (60, n)) * rng.uniform(0.5, 2.0, n)
            y = (rng.random(60) < 0.5).astype(int)
            y[:2] = [0, 1]
            X[y == 1] += rng.normal(0, 0.8, n)
            ds = numeric_dataset(X, y_train=y)
            yield ds, linear_model(rng.normal(0, 1.5, n), float(rng.normal()))
            yield ds, train_gnb(X, y)

    @staticmethod
    def _direct_lpi(model, x, dataset):
        """p(x) - mean_b p(x with slot j := b_j) over every training row b,
        with a one-hot group replaced as a whole."""
        grouped = [list(g.indices) for g in dataset.groups]
        in_group = {j for cols in grouped for j in cols}
        slots = grouped + [[j] for j in range(dataset.n_features) if j not in in_group]
        phi = np.empty(dataset.n_features)
        px = float(predict_proba(model, x))
        for cols in slots:
            Z = np.tile(x, (len(dataset.X_train), 1))
            Z[:, cols] = dataset.X_train[:, cols]
            phi[cols] = px - predict_proba(model, Z).mean()
        return phi

    def test_exact_shap_is_the_shapley_value_of_p(self):
        for ds, model in self._cases():
            n = ds.n_features
            cfg = ExplainerConfig(shap_background=len(ds.X_train))  # no draw
            for x in ds.X_test[:3]:
                e = explain("shap", "probability", model, x, ds, cfg, seed=4)
                oracle = permutation_shapley(
                    lambda Z: np.atleast_1d(predict_proba(model, Z)), x, ds.X_train, n)
                assert e.sample_count == 2**n
                assert np.max(np.abs(e.phi - oracle)) < 1e-12

    def test_full_permutation_lpi_is_the_mean_drop_of_p(self):
        cases = list(self._cases())
        ds = categorical_dataset(seed=3)
        (group,) = ds.groups
        assert len(group.indices) == 3
        cases += [(ds, train_gnb(ds.X_train, ds.y_train)),
                  (ds, linear_model([0.8, -1.1, 0.4, 1.7, -0.6], 0.2))]
        for ds, model in cases:
            for x in ds.X_test[:3]:
                e = explain("lpi", "probability", model, x, ds, seed=5)
                assert e.sample_count == len(ds.X_train)
                assert np.max(np.abs(e.phi - self._direct_lpi(model, x, ds))) < 1e-12


class TestMetamorphicRelations:
    """Relations an explanation must obey when the model changes in a known
    way; they check LIME, which has no closed form, and SHAP and LPI without
    an oracle. Each compares two explanations with the same seeds, scored
    relative to the largest attribution."""

    CONFIG = ExplainerConfig(lime_samples=1000, shap_background=20, lpi_samples=50)

    @staticmethod
    def _dataset(name):
        if name == "categorical":
            return categorical_dataset()
        config = data.DatasetConfig.from_json(DATASETS_DIR / f"{name}.json")
        return data.preprocess_dataset(data.load_dataset(config), "standardize")[0]

    @staticmethod
    def _relative_error(phi, expected):
        return np.max(np.abs(phi - expected)) / np.max(np.abs(expected))

    @pytest.mark.parametrize("name", ["pima", "categorical"])
    def test_lime_is_linear_in_its_target(self, name):
        """LR with weights a*w and intercept a*b + c has log-odds a*g + c, and
        the ridge's unpenalized intercept absorbs c: phi scales by a."""
        ds = self._dataset(name)
        X = ds.X_test[:20]
        seeds = list(range(len(X)))
        model = train_logistic(ds.X_train, ds.y_train, search_trials=3)
        phi = explain("lime", "logodds", model, X, ds, self.CONFIG, seeds).phi
        for a, c in [(3, 0.5), (-0.25, 2), (1e3, -7)]:
            scaled = dataclasses.replace(
                model, weights=a * model.weights, intercept=a * model.intercept + c)
            e = explain("lime", "logodds", scaled, X, ds, self.CONFIG, seeds)
            assert self._relative_error(e.phi, a * phi) <= 1e-9, (a, c)

    @pytest.mark.parametrize("name", ["pima", "categorical"])
    def test_swapping_gnb_classes_negates_every_explanation(self, name):
        """Swapping GNB's class statistics negates its log-odds and maps p to
        1 - p, so every technique's phi negates under either target."""
        ds = self._dataset(name)
        X = ds.X_test[:20]
        seeds = list(range(len(X)))
        gnb = train_gnb(ds.X_train, ds.y_train)
        swapped = dataclasses.replace(
            gnb, mean0=gnb.mean1, mean1=gnb.mean0, var0=gnb.var1, var1=gnb.var0,
            prior0=gnb.prior1, prior1=gnb.prior0)
        for technique in TECHNIQUES:
            for target in TARGET_SPACES:
                phi = explain(technique, target, gnb, X, ds, self.CONFIG, seeds).phi
                e = explain(technique, target, swapped, X, ds, self.CONFIG, seeds)
                assert self._relative_error(e.phi, -phi) <= 1e-9, (technique, target)


def test_sampled_shap_is_closed_form_on_wide_mixed(tmp_path):
    """LR and GNB are additive in log-odds, so sampled SHAP over the whole
    training split returns lam_j(x) - mean_train lam_j for any full-rank set
    of coalitions, whichever draws the sampler makes. This is why a change
    of the sampler's random stream leaves the wide-mixed reports unchanged."""
    ds = wide_mixed_dataset(tmp_path)
    n, m = ds.n_features, ds.X_train.shape[0]
    assert n > explainers.EXACT_SHAP_LIMIT
    cfg = ExplainerConfig(shap_samples=1300, shap_background=m)
    for model in (train_logistic(ds.X_train, ds.y_train, search_trials=3),
                   train_gnb(ds.X_train, ds.y_train)):
        mean_lam = feature_terms(model, ds.X_train)[1].mean(axis=0)
        for i in range(4):
            x = ds.X_test[i]
            e = explain("shap", "logodds", model, x, ds, cfg, seed=i)
            assert e.sample_count == 1300
            closed = feature_terms(model, x)[1] - mean_lam
            assert np.max(np.abs(e.phi - closed)) < 1e-12, (model.kind, i)


class TestBlocks:
    """explain() over a block (k, n) with k seeds equals, bit for bit, the k
    single-instance explanations stacked, and each model call holds the rows
    of one instance."""

    @staticmethod
    def _case(name, tmp_path):
        if name == "iris_binary":  # bundled; exact SHAP, 76 rows per instance
            config = data.DatasetConfig.from_json(DATASETS_DIR / "iris_binary.json")
            ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
            cfg = ExplainerConfig(lime_samples=300, shap_background=5, lpi_samples=90)
        elif name == "categorical":
            ds = categorical_dataset()
            cfg = ExplainerConfig(lime_samples=700, shap_background=30)
        else:  # wide-mixed: sampled SHAP, several calls per instance
            ds = wide_mixed_dataset(tmp_path)
            cfg = ExplainerConfig(lime_samples=300, shap_samples=300, shap_background=40)
        models = [train_logistic(ds.X_train, ds.y_train, search_trials=2),
                   train_gnb(ds.X_train, ds.y_train)]
        return ds, cfg, models

    @staticmethod
    def _assert_block_is_stacked_singles(technique, target, model, X, ds, cfg, seeds):
        block = explain(technique, target, model, X, ds, cfg, seeds)
        singles = [explain(technique, target, model, x, ds, cfg, s) for x, s in zip(X, seeds)]
        assert block.phi.shape == X.shape
        assert np.array_equal(block.phi, np.stack([e.phi for e in singles]))
        assert all(block.sample_count == e.sample_count for e in singles)
        if technique == "shap":
            assert block.base_value.shape == (len(X),)
            assert np.array_equal(block.base_value, [e.base_value for e in singles])
        else:
            assert block.base_value is None
        return block

    @pytest.mark.parametrize("name", ["iris_binary", "categorical", "wide-mixed"])
    def test_block_equals_stacked_singles(self, name, tmp_path):
        ds, cfg, models = self._case(name, tmp_path)
        X = ds.X_test[:5]
        seeds = [derive_seed(3, k) for k in range(len(X))]
        for model in models:
            for technique in TECHNIQUES:
                for target in TARGET_SPACES:
                    self._assert_block_is_stacked_singles(
                        technique, target, model, X, ds, cfg, seeds)

    @pytest.mark.parametrize("name,calls", [
        # 76 rows per instance: x, 5 background rows and 14 coalitions of 5
        ("iris_binary", [[76]] * 4),
        # 40 background rows and 212-246 distinct coalitions per instance:
        # x, the background and 101 coalitions, then 102, then the rest
        ("wide-mixed", [[4081, 4080, 840], [4081, 4080, 360], [4081, 4080, 1320],
                        [4081, 4080, 1720]]),
    ], ids=["iris_binary", "wide-mixed"])
    def test_shap_calls_per_instance(self, name, calls, tmp_path, monkeypatch):
        """Each instance's rows are scored in calls of its own, within
        _BLOCK_ROWS; no row is scored twice or left out."""
        ds, cfg, (lr, _) = self._case(name, tmp_path)
        sizes = []

        def spy(model, X):
            sizes.append(len(X))
            return predict_logodds(model, X)

        monkeypatch.setattr(explainers, "predict_logodds", spy)
        X, seeds = ds.X_test[:4], [1, 2, 3, 4]
        explain("shap", "logodds", lr, X, ds, cfg, seeds)
        assert sizes == [size for instance in calls for size in instance]
        assert max(sizes) <= explainers._BLOCK_ROWS
        B = cfg.shap_background
        assert sum(sizes) == sum(1 + B + len(_shap_draws(ds, cfg, s)[1]) * B for s in seeds)

    @pytest.mark.parametrize("name", ["iris_binary", "categorical", "wide-mixed"])
    def test_each_call_holds_one_instance(self, name, tmp_path, monkeypatch):
        """Every model call of every technique holds the rows of exactly one
        instance: a block's calls are, row for row, the calls that explain
        makes for its instances one at a time."""
        ds, cfg, (lr, _) = self._case(name, tmp_path)
        X, seeds = ds.X_test[:4], [1, 2, 3, 4]
        calls = []

        def spy(model, Z):
            calls.append(Z.copy())
            return predict_logodds(model, Z)

        monkeypatch.setattr(explainers, "predict_logodds", spy)
        for technique in TECHNIQUES:
            calls.clear()
            explain(technique, "logodds", lr, X, ds, cfg, seeds)
            block = list(calls)
            calls.clear()
            for x, seed in zip(X, seeds):
                explain(technique, "logodds", lr, x, ds, cfg, seed)
            assert len(block) == len(calls), technique
            assert all(np.array_equal(a, b) for a, b in zip(block, calls)), technique

    @pytest.mark.parametrize("n,B", [
        (3, 1), (3, 2047), (3, 2048), (3, 4095), (3, 4096), (3, 5000), (15, 600)])
    def test_shap_calls_hold_whole_coalitions_within_cap(self, n, B, monkeypatch):
        """Every SHAP call holds whole coalitions of one instance within
        _BLOCK_ROWS, after x and the background in its first call; only a
        coalition of B > _BLOCK_ROWS rows, or x and B >= _BLOCK_ROWS
        background rows, make a call of more."""
        cap = explainers._BLOCK_ROWS
        rng = np.random.default_rng(n * B)
        ds = numeric_dataset(rng.normal(0, 1, (B + 3, n)))
        model = linear_model(rng.normal(0, 1, n), 0.3)
        cfg = ExplainerConfig(shap_samples=200, shap_background=B)
        X, seeds = ds.X_train[-2:], [5, 6]
        spy = ShapCallSpy(X, ds, cfg, seeds)
        monkeypatch.setattr(explainers, "predict_logodds", spy)
        explain("shap", "logodds", model, X, ds, cfg, seeds)
        assert spy.instance == len(X)
        for _, lead, count in spy.calls:
            if lead + count * B > cap:  # x and the background alone, or one coalition
                assert (lead, count) in ((1 + B, 0), (0, 1))
        for i, (_, _, masks) in enumerate(spy.draws):
            assert [c[1:] for c in spy.calls if c[0] == i] == expected_shap_calls(len(masks), B)

    def test_shap_single_feature_one_call(self, monkeypatch):
        """n = 1 has no proper coalition: one call of x and the background per
        instance, and phi = f(x) - base_value exactly."""
        rng = np.random.default_rng(13)
        ds = numeric_dataset(rng.normal(0, 1, (40, 1)))
        model = linear_model([1.7], -0.4)
        cfg = ExplainerConfig(shap_background=25)
        X, seeds = ds.X_test[:3], [1, 2, 3]
        sizes = []

        def spy(model, Z):
            sizes.append(len(Z))
            return predict_logodds(model, Z)

        monkeypatch.setattr(explainers, "predict_logodds", spy)
        e = explain("shap", "logodds", model, X, ds, cfg, seeds)
        monkeypatch.undo()
        assert sizes == [1 + 25] * 3
        fx = predict_logodds(model, X)
        assert np.array_equal(e.phi[:, 0], fx - e.base_value)
        for i, seed in enumerate(seeds):
            background = _shap_draws(ds, cfg, seed)[0]
            assert e.base_value[i] == predict_logodds(model, background).mean()

    @pytest.mark.parametrize("samples", [100, 300])
    def test_lime_scores_each_instance_in_its_own_call(self, samples, monkeypatch):
        """LIME's S perturbations of an instance are one model call, whether S
        is below or above 256 rows."""
        ds = categorical_dataset()
        cfg = ExplainerConfig(lime_samples=samples)
        gnb = train_gnb(ds.X_train, ds.y_train)
        sizes = []

        def spy(model, X):
            sizes.append(len(X))
            return predict_logodds(model, X)

        monkeypatch.setattr(explainers, "predict_logodds", spy)
        explain("lime", "logodds", gnb, ds.X_test[:5], ds, cfg, [1, 2, 3, 4, 5])
        assert sizes == [samples] * 5

    def test_lpi_oversized_pieces_scored_alone(self, monkeypatch):
        rng = np.random.default_rng(4)
        ds = numeric_dataset(rng.normal(0, 1, (60, 3)))
        model = linear_model([0.5, -1.0, 2.0])
        S = explainers._BLOCK_ROWS + 1
        cfg = ExplainerConfig(lpi_samples=S)
        sizes = []

        def spy(model, X):
            sizes.append(len(X))
            return predict_logodds(model, X)

        monkeypatch.setattr(explainers, "predict_logodds", spy)
        self._assert_block_is_stacked_singles("lpi", "logodds", model, ds.X_test[:3], ds, cfg,
                                              [7, 8, 9])
        # the block's calls, then the three single-instance ones: per
        # instance its f(x) row with its first slot, then each other slot
        # alone, since two slots' rows exceed _LPI_CALL_ROWS
        assert sizes == [1 + S, S, S] * 6

    @pytest.mark.parametrize("S,calls", [
        # two whole slots per call; the first call also holds f(x)'s row
        pytest.param(CAP // 3 + 1, [1 + 2 * (CAP // 3 + 1), 2 * (CAP // 3 + 1), CAP // 3 + 1],
                     id="two-slots-per-call"),
        # one slot alone exceeds the cap, so each call holds one slot
        pytest.param(CAP + 1, [CAP + 2] + [CAP + 1] * 4, id="one-slot-over-cap"),
    ])
    def test_lpi_calls_hold_whole_slots_within_cap(self, S, calls, monkeypatch):
        """An instance whose rows exceed _LPI_CALL_ROWS is scored in calls of
        whole slots, within the cap unless one slot alone exceeds it, with
        the explanation of one call per instance."""
        rng = np.random.default_rng(8)
        ds = numeric_dataset(rng.normal(0, 1, (60, 5)))
        model = linear_model([0.5, -1.0, 2.0, 0.0, 1.5])
        X, seeds = ds.X_test[:2], [3, 4]
        sizes = []

        def spy(scorer):
            def f(model, X):
                sizes.append(len(X))
                return scorer(model, X)
            return f

        for absolute in (False, True):
            cfg = ExplainerConfig(lpi_samples=S, lpi_absolute=absolute)
            for target in TARGET_SPACES:
                monkeypatch.setattr(explainers, "_LPI_CALL_ROWS", 1 << 20)
                whole = explain("lpi", target, model, X, ds, cfg, seeds)
                monkeypatch.undo()
                monkeypatch.setattr(explainers, "predict_logodds", spy(predict_logodds))
                monkeypatch.setattr(explainers, "predict_proba", spy(predict_proba))
                sizes.clear()
                block = self._assert_block_is_stacked_singles(
                    "lpi", target, model, X, ds, cfg, seeds)
                monkeypatch.undo()
                # the block's two instances, then the two single-instance calls
                assert sizes == calls * 4
                assert np.array_equal(block.phi, whole.phi)

    def test_lpi_bundled_instances_fit_one_call(self, tmp_path):
        """Every instance of every bundled dataset and of wide-mixed is scored
        in one LPI call at the default (full-permutation) sample count."""
        datasets = [data.load_dataset(data.DatasetConfig.from_json(path))
                    for path in sorted(DATASETS_DIR.glob("*.json"))]
        datasets.append(wide_mixed_dataset(tmp_path))
        assert len(datasets) == 7
        for ds in datasets:
            assert 1 + len(ds.slots) * len(ds.X_train) <= explainers._LPI_CALL_ROWS, ds.name

    @pytest.mark.parametrize("x_rows,seed", [(3, [1, 2]), (3, 1), (None, [1]), (0, [])])
    def test_seed_count_must_match_block(self, x_rows, seed):
        ds = numeric_dataset(np.random.default_rng(2).normal(0, 1, (20, 3)))
        x = ds.X_test[0] if x_rows is None else ds.X_test[:x_rows]
        with pytest.raises(DimensionMismatchError) as err:
            explain("lpi", "logodds", linear_model([1.0, 2.0, 3.0]), x, ds, seed=seed)
        assert "\n" not in str(err.value)


def _reference_logodds(model, X):
    """The row-major scorer: np.sum over each row of a C-contiguous copy."""
    offset, terms = feature_terms(model, np.ascontiguousarray(X))
    return offset + np.sum(terms, axis=-1)


def _reference_proba(model, X):
    return np.clip(_sigmoid(_reference_logodds(model, X)), PROBA_CLIP, 1.0 - PROBA_CLIP)


class TestLayout:
    """Explainers build their rows column-major and the scorer adds terms in
    numpy's row-major order, so neither the layout nor the scorer's column
    sums may change a bit of any explanation."""

    def test_model_sees_column_major_rows(self, tmp_path, monkeypatch):
        seen = []

        def spy(model, X):
            seen.append((len(X), X.flags.f_contiguous))
            return predict_logodds(model, X)

        monkeypatch.setattr(explainers, "predict_logodds", spy)
        for name in ("iris_binary", "categorical", "wide-mixed"):
            ds, cfg, (lr, _) = TestBlocks._case(name, tmp_path)
            # 257: one row more than the largest piece SHAP once packed into
            # calls shared across instances, kept so that both sizes still
            # reach the calls each shape made. LPI makes one call per
            # instance at both sizes
            for size in (90, 257):
                cfg = dataclasses.replace(cfg, lpi_samples=size,
                                          shap_samples=300, shap_background=size)
                for technique in TECHNIQUES:
                    seen.clear()
                    explain(technique, "logodds", lr, ds.X_test[:3], ds, cfg, [1, 2, 3])
                    rows = [size for size, f_order in seen if size > 1 and not f_order]
                    assert seen and not rows, (name, technique, rows)

    @pytest.mark.parametrize("name", ["iris_binary", "categorical", "wide-mixed"])
    def test_phi_equals_row_major_scorer(self, name, tmp_path, monkeypatch):
        ds, cfg, models = TestBlocks._case(name, tmp_path)
        X, seeds = ds.X_test[:3], [4, 5, 6]
        got = {}
        for model in models:
            for technique in TECHNIQUES:
                for target in TARGET_SPACES:
                    got[model.kind, technique, target] = explain(
                        technique, target, model, X, ds, cfg, seeds)
        monkeypatch.setattr(explainers, "predict_logodds", _reference_logodds)
        monkeypatch.setattr(explainers, "predict_proba", _reference_proba)
        for (kind, technique, target), e in got.items():
            model = models[0] if kind == "lr" else models[1]
            ref = explain(technique, target, model, X, ds, cfg, seeds)
            assert np.array_equal(e.phi, ref.phi), (kind, technique, target)
            if technique == "shap":
                assert np.array_equal(e.base_value, ref.base_value)

    def test_lime_run_draws_match_per_column_draws(self):
        """Numeric columns between one-hot groups are drawn as one block per
        run. Here a group splits the numeric columns into two runs and one
        numeric column has no training spread, so it is left out of its
        run's draw; the draws still match rng.normal column by column."""
        rng = np.random.default_rng(5)
        m = 90
        rows = [(float(rng.normal()), 1.5, str(rng.choice(["a", "b", "c"])),
                 float(rng.normal(2, 3)), float(rng.normal(-1, 0.5)),
                 str(rng.choice(["u", "v"])), float(rng.normal()))
                for _ in range(m)]
        columns = (
            data.ColumnSpec("x0", "numeric"),
            data.ColumnSpec("flat", "numeric"),
            data.ColumnSpec("cat", "categorical"),
            data.ColumnSpec("x1", "numeric"),
            data.ColumnSpec("x2", "numeric"),
            data.ColumnSpec("bit", "categorical"),
            data.ColumnSpec("x3", "numeric"),
        )
        ds = data.encode_onehot(data.SplitTable(
            columns=columns, train_rows=rows[:80], test_rows=rows[80:],
            y_train=np.array([i % 2 for i in range(80)]),
            y_test=np.array([i % 2 for i in range(m - 80)])))
        assert len(ds.groups) == 2
        draws = explainers._lime_draws(ds)
        assert [np.ndim(stat) for _, _, stat in draws] == [2, 1, 2, 1, 2]
        # the flat column (slot 1, training std 0) is not drawn
        assert draws[0][0] == [0] and draws[0][1].tolist() == [0]
        gnb = train_gnb(ds.X_train, ds.y_train)
        for i, samples in enumerate((1, 7, 400)):
            cfg = ExplainerConfig(lime_samples=samples)
            e = explain("lime", "logodds", gnb, ds.X_test[i], ds, cfg, seed=i)
            ref = _reference_lime(gnb, ds.X_test[i], ds, samples, seed=i)
            assert np.array_equal(e.phi, ref), samples


class TestLpi:
    def test_constant_column_equal_to_instance(self):
        X = np.ones((30, 3))
        X[:, 1] = np.linspace(0, 1, 30)
        X[:, 2] = np.linspace(-1, 1, 30)
        ds = numeric_dataset(X)
        model = linear_model([2.0, 1.0, 1.0])
        x = np.array([1.0, 0.5, 0.0])  # x[0] equals the constant column
        e = explain("lpi", "logodds", model, x, ds, seed=3)
        assert e.phi[0] == 0.0

    def test_linear_closed_form(self):
        rng = np.random.default_rng(13)
        ds = numeric_dataset(rng.normal(1.5, 2.0, (97, 5)))
        w = rng.normal(0, 1, 5)
        model = linear_model(w, -0.2)
        x = rng.normal(0, 1, 5)
        e = explain("lpi", "logodds", model, x, ds, seed=4)
        closed = w * (x - ds.X_train.mean(axis=0))
        assert np.max(np.abs(e.phi - closed)) < 1e-9

    def test_cycled_samples_closed_form(self):
        rng = np.random.default_rng(14)
        m = 41
        ds = numeric_dataset(rng.normal(0, 1, (m, 3)))
        w = np.array([1.0, -2.0, 0.5])
        model = linear_model(w)
        x = rng.normal(0, 1, 3)
        cfg = ExplainerConfig(lpi_samples=2 * m)  # two full permutations
        e = explain("lpi", "logodds", model, x, ds, cfg, seed=5)
        closed = w * (x - ds.X_train.mean(axis=0))
        assert np.max(np.abs(e.phi - closed)) < 1e-9
        assert e.sample_count == 2 * m

    def test_zero_weight_exact_zero(self):
        rng = np.random.default_rng(15)
        ds = numeric_dataset(rng.normal(0, 1, (50, 4)))
        model = linear_model([1.0, 0.0, 2.0, 0.0])
        e = explain("lpi", "logodds", model, rng.normal(0, 1, 4), ds, seed=6)
        assert e.phi[1] == 0.0 and e.phi[3] == 0.0

    def test_groups_share_score_and_stay_valid(self):
        ds = categorical_dataset(seed=1)
        gnb = train_gnb(ds.X_train, ds.y_train)
        e = explain("lpi", "logodds", gnb, ds.X_test[0], ds, seed=7)
        (group,) = ds.groups
        values = e.phi[list(group.indices)]
        assert np.all(values == values[0])
        assert np.all(np.isfinite(e.phi))

    def test_absolute_mode_dominates_signed(self):
        rng = np.random.default_rng(16)
        ds = numeric_dataset(rng.normal(0, 1, (60, 4)))
        model = linear_model(rng.normal(0, 1, 4))
        x = rng.normal(0, 1, 4)
        signed = explain("lpi", "logodds", model, x, ds, seed=8)
        absolute = explain(
            "lpi", "logodds", model, x, ds, ExplainerConfig(lpi_absolute=True), seed=8
        )
        assert np.all(absolute.phi >= np.abs(signed.phi) - 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        ds = numeric_dataset(rng.normal(0, 1, (60, 4)))
        model = linear_model(rng.normal(0, 1, 4))
        x = rng.normal(0, 1, 4)
        assert np.array_equal(
            explain("lpi", "logodds", model, x, ds, seed=9).phi,
            explain("lpi", "logodds", model, x, ds, seed=9).phi,
        )


class TestDispatch:
    def test_probability_local_accuracy(self):
        rng = np.random.default_rng(18)
        ds = numeric_dataset(rng.normal(0, 1, (70, 5)))
        model = linear_model(rng.normal(0, 1, 5), 0.3)
        x = rng.normal(0, 1, 5)
        e = explain("shap", "probability", model, x, ds, seed=1)
        assert abs(e.base_value + e.phi.sum() - predict_proba(model, x)) < 1e-6

    def test_lpi_sign_pattern_monotone_link(self):
        rng = np.random.default_rng(19)
        ds = numeric_dataset(rng.normal(0, 1, (60, 3)))
        model = linear_model([1.5, 0.0, 0.0], 0.0)
        x = np.array([2.0, 0.3, -0.4])
        lo = explain("lpi", "logodds", model, x, ds, seed=2)
        pr = explain("lpi", "probability", model, x, ds, seed=2)
        assert np.array_equal(np.sign(lo.phi), np.sign(pr.phi))

    def test_unknown_technique(self):
        ds = numeric_dataset(np.zeros((10, 2)))
        with pytest.raises(UnknownTechniqueError):
            explain("saliency", "logodds", linear_model([1, 1]), np.zeros(2), ds)

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_non_model_is_a_type_error(self, technique):
        ds = numeric_dataset(np.random.default_rng(20).normal(0, 1, (10, 2)))
        with pytest.raises(TypeError, match="^not a model: object$"):
            explain(technique, "logodds", object(), np.zeros(2), ds)

    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("shape,seed", [((2,), 1), ((4, 2), [1, 2, 3, 4])])
    def test_instance_width_must_match_dataset(self, technique, shape, seed):
        ds = numeric_dataset(np.random.default_rng(22).normal(0, 1, (20, 3)))
        with pytest.raises(DimensionMismatchError, match=r"\b2 feature.* 3$"):
            explain(technique, "logodds", linear_model([1.0, 2.0, 3.0]), np.zeros(shape), ds,
                    seed=seed)

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_empty_training_split_is_an_error(self, technique):
        no_rows = numeric_dataset(np.empty((0, 3)), X_test=np.ones((2, 3)), y_train=[],
                                  y_test=[0, 1])
        no_columns = numeric_dataset(np.ones((4, 0)), X_test=np.ones((2, 0)))
        for ds, message in [(no_rows, "training split has no rows"),
                            (no_columns, "dataset has no feature column")]:
            model = linear_model(np.ones(ds.n_features))
            with pytest.raises(ValueError, match=f"^{message}$"):
                explain(technique, "logodds", model, ds.X_test[0], ds, seed=1)

    def test_unknown_target_space(self):
        ds = numeric_dataset(np.zeros((10, 2)))
        with pytest.raises(ValueError):
            explain("lime", "odds", linear_model([1, 1]), np.zeros(2), ds)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExplainerConfig(lime_samples=0)
        with pytest.raises(ValueError):
            ExplainerConfig(shap_background=0)
        with pytest.raises(ValueError):
            ExplainerConfig(lpi_samples=-1)


def test_finite_phi_on_every_bundled_dataset_both_models():
    from xplain import data
    from xplain.models import train_logistic
    from conftest import BUNDLED, DATASETS_DIR

    cfg = ExplainerConfig(lime_samples=250, shap_samples=250, shap_background=50, lpi_samples=50)
    for name in BUNDLED:
        config = data.DatasetConfig.from_json(DATASETS_DIR / f"{name}.json")
        ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
        models = [
            train_logistic(ds.X_train, ds.y_train, search_trials=3, seed=0),
            train_gnb(ds.X_train, ds.y_train),
        ]
        for model in models:
            for technique in ("lime", "shap", "lpi"):
                for target in ("logodds", "probability"):
                    e = explain(technique, target, model, ds.X_test[0], ds, cfg, seed=3)
                    assert np.all(np.isfinite(e.phi)), (name, model.kind, technique, target)


def test_all_techniques_finite_on_mixed_models():
    rng = np.random.default_rng(21)
    X = rng.normal(0, 1, (90, 5))
    y = (rng.random(90) < 0.5).astype(int)
    y[:2] = [0, 1]
    X[y == 1] += 0.5
    ds = numeric_dataset(X, y_train=y)
    cfg = ExplainerConfig(lime_samples=300, shap_samples=300, shap_background=40, lpi_samples=60)
    models = [linear_model(rng.normal(0, 1, 5)), train_gnb(X, y)]
    for model in models:
        for technique in ("lime", "shap", "lpi"):
            for target in ("logodds", "probability"):
                e = explain(technique, target, model, ds.X_test[0], ds, cfg, seed=11)
                assert np.all(np.isfinite(e.phi)), (technique, target)
