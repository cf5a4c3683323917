import importlib.util
import math

import numpy as np
import pytest

from xplain import data, explainers
from xplain.errors import DegenerateWeightsError, DimensionMismatchError, UnknownTechniqueError
from xplain.evaluation import derive_seed
from xplain.explainers import (
    TARGET_SPACES,
    TECHNIQUES,
    ExplainerConfig,
    LimeConfig,
    LpiConfig,
    ShapConfig,
    explain,
    explain_lime,
    explain_lpi,
    explain_shap,
)
from xplain.models import (
    PROBA_CLIP,
    ModelHandle,
    _sigmoid,
    feature_terms,
    predict_logodds,
    predict_proba,
    train_gnb,
    train_logistic,
)

from conftest import DATASETS_DIR, SRC_DIR, linear_handle, numeric_dataset


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
        data.ColumnSpec("cat", "categorical", ("a", "b", "c")),
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
    """explain_lime with the training std and category frequencies recomputed
    from X_train on every call, as before they were stored on the dataset."""
    n = dataset.n_features
    S = samples
    kernel_width = 0.75 * math.sqrt(n)
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
    weights = np.exp(-d2 / kernel_width**2)
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
        handle = linear_handle(w, 0.3)
        e = explain_lime(handle, ds.X_train[3], ds, seed=5)
        rel = np.abs(e.phi - w) / np.abs(w)
        assert np.all(rel[np.abs(w) > 0.1] < 0.05)
        from xplain.evaluation import spearman
        assert spearman(e.phi, w).r >= 0.99

    def test_irrelevant_feature_near_zero(self):
        ds = unit_std_dataset(seed=1)
        w = np.array([2.0, -1.5, 1.0, 0.0, 0.8, -0.6])
        handle = linear_handle(w)
        e = explain_lime(handle, ds.X_train[0], ds, seed=2)
        assert abs(e.phi[3]) < 0.05 * np.max(np.abs(e.phi))

    def test_deterministic(self):
        ds = unit_std_dataset(seed=2)
        handle = linear_handle(np.ones(6))
        a = explain_lime(handle, ds.X_train[1], ds, seed=9)
        b = explain_lime(handle, ds.X_train[1], ds, seed=9)
        assert np.array_equal(a.phi, b.phi)
        c = explain_lime(handle, ds.X_train[1], ds, seed=10)
        assert not np.array_equal(a.phi, c.phi)

    def test_categorical_groups_resampled_whole(self):
        ds = categorical_dataset()
        gnb = ModelHandle("gnb", train_gnb(ds.X_train, ds.y_train))
        e = explain_lime(gnb, ds.X_test[0], ds, seed=4)
        assert np.all(np.isfinite(e.phi))
        assert len(e.phi) == ds.n_features

    def test_stored_train_stats_match_per_call_reference(self):
        iris = data.load_dataset(data.DatasetConfig.from_json(
            DATASETS_DIR / "iris_binary.json"))
        for ds in (iris, categorical_dataset()):
            gnb = ModelHandle("gnb", train_gnb(ds.X_train, ds.y_train))
            cfg = ExplainerConfig(lime=LimeConfig(samples=400))
            for i in range(3):
                e = explain_lime(gnb, ds.X_test[i], ds, cfg, seed=i)
                ref = _reference_lime(gnb, ds.X_test[i], ds, 400, seed=i)
                assert np.array_equal(e.phi, ref), (ds.name, i)
        stats = categorical_dataset().slot_train_stats
        assert [np.ndim(s) for s in stats] == [0, 1, 0]
        assert stats[1].sum() == pytest.approx(1.0) and not stats[1].flags.writeable

    def test_train_stats_follow_preprocessed_matrix(self):
        raw = categorical_dataset()
        raw_std = raw.slot_train_stats[0]  # fills the raw dataset's cache first
        std, _ = data.preprocess_dataset(raw, "standardize")
        assert std.slot_train_stats is not raw.slot_train_stats
        assert std.slot_train_stats[0] == float(std.X_train[:, 0].std(ddof=1))
        assert std.slot_train_stats[0] == pytest.approx(1.0)
        assert raw_std != pytest.approx(1.0)
        assert np.array_equal(std.slot_train_stats[1], raw.slot_train_stats[1])

    def test_one_training_row_keeps_numeric_columns_fixed(self):
        X = np.array([[0.5, -1.0, 2.0]])
        ds = numeric_dataset(X, X_test=X + 1.0, y_train=[1], y_test=[0])
        assert ds.slot_train_stats == (0.0, 0.0, 0.0)
        handle = linear_handle([1.0, 2.0, -1.0])
        e = explain_lime(handle, ds.X_test[0], ds, seed=3)
        assert np.max(np.abs(e.phi)) < 1e-9  # every perturbation is x itself
        assert np.array_equal(e.phi, _reference_lime(handle, ds.X_test[0], ds, 5000, seed=3))

    def test_degenerate_weights_error(self):
        ds = unit_std_dataset(seed=3)
        handle = linear_handle(np.ones(6))
        cfg = ExplainerConfig(lime=LimeConfig(samples=100, kernel_width=1e-200))
        with pytest.raises(DegenerateWeightsError):
            explain_lime(handle, ds.X_train[0], ds, cfg, seed=1)


class TestShap:
    def test_single_feature(self):
        ds = numeric_dataset(np.linspace(0, 1, 20).reshape(-1, 1))
        handle = linear_handle([2.0], 1.0)
        x = np.array([0.75])
        e = explain_shap(handle, x, ds, seed=1)
        f = lambda Z: predict_logodds(handle, Z)
        expected = f(x) - np.mean(f(ds.X_train))
        assert e.phi[0] == pytest.approx(expected, abs=1e-12)
        assert e.sample_count == 2**1

    def test_exact_matches_linear_closed_form(self):
        # training set of <= 100 rows, so the background is the whole split
        rng = np.random.default_rng(6)
        for n in (2, 5, 12):
            ds = numeric_dataset(rng.normal(0, 1, (90, n)))
            w = rng.normal(0, 1.5, n)
            handle = linear_handle(w, rng.normal())
            x = rng.normal(0, 1, n)
            e = explain_shap(handle, x, ds, seed=3)
            closed = w * (x - ds.X_train.mean(axis=0))
            assert np.max(np.abs(e.phi - closed)) < 1e-6
            assert e.sample_count == 2**n

    def test_constant_model_zero(self):
        ds = numeric_dataset(np.random.default_rng(7).normal(0, 1, (50, 4)))
        handle = linear_handle(np.zeros(4), 2.5)
        e = explain_shap(handle, np.ones(4), ds, seed=2)
        assert np.max(np.abs(e.phi)) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        col = rng.normal(0, 1, 60)
        X = np.column_stack([col, col, rng.normal(0, 1, 60)])
        ds = numeric_dataset(X)
        handle = linear_handle([1.3, 1.3, -0.5])
        x = np.array([0.8, 0.8, 0.1])
        e = explain_shap(handle, x, ds, seed=5)
        assert abs(e.phi[0] - e.phi[1]) < 1e-6

    def test_dummy_feature_zero(self):
        rng = np.random.default_rng(9)
        ds = numeric_dataset(rng.normal(0, 1, (80, 5)))
        handle = linear_handle([1.0, 0.0, -2.0, 0.5, 0.0])
        e = explain_shap(handle, rng.normal(0, 1, 5), ds, seed=6)
        assert abs(e.phi[1]) < 1e-9 and abs(e.phi[4]) < 1e-9

    def test_local_accuracy_nonlinear(self):
        rng = np.random.default_rng(10)
        X = rng.normal(0, 1, (120, 6))
        y = (rng.random(120) < 0.5).astype(int)
        X[y == 1] += 0.8
        ds = numeric_dataset(X, y_train=y)
        handle = ModelHandle("gnb", train_gnb(X, y))
        x = rng.normal(0, 1, 6)
        for target, f in (("logodds", predict_logodds), ("probability", predict_proba)):
            e = explain_shap(handle, x, ds, seed=7, target_space=target)
            assert abs(e.base_value + e.phi.sum() - f(handle, x)) < 1e-6

    def test_sampled_path_linear_exact(self):
        # n > 13 takes the kernel-sampled route; a linear target is still fit
        # exactly by the weighted least squares whenever the design spans
        rng = np.random.default_rng(11)
        n = 18
        ds = numeric_dataset(rng.normal(0, 1, (95, n)))
        w = rng.normal(0, 1, n)
        handle = linear_handle(w, 0.4)
        x = rng.normal(0, 1, n)
        cfg = ExplainerConfig(shap=ShapConfig(samples=3000))
        e = explain_shap(handle, x, ds, cfg, seed=8)
        closed = w * (x - ds.X_train.mean(axis=0))
        assert np.max(np.abs(e.phi - closed)) < 1e-6
        # draws come in complement pairs after empty + full, so 3000 draws exactly
        assert e.sample_count == 3000

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        ds = numeric_dataset(rng.normal(0, 1, (300, 15)))
        handle = linear_handle(rng.normal(0, 1, 15))
        x = rng.normal(0, 1, 15)
        cfg = ExplainerConfig(shap=ShapConfig(samples=500))
        a = explain_shap(handle, x, ds, cfg, seed=1)
        b = explain_shap(handle, x, ds, cfg, seed=1)
        assert np.array_equal(a.phi, b.phi)


    @pytest.mark.parametrize("samples", [1, 3])
    def test_singular_design_falls_back_to_lstsq(self, samples, monkeypatch):
        # 1 draw values no coalition and 3 draws value one complement pair, so
        # the 15 x 15 gram is singular and the solve takes its lstsq branch
        rng = np.random.default_rng(samples)
        X = rng.normal(0, 1, (60, 16))
        ds = numeric_dataset(X)
        handle = linear_handle(rng.normal(0, 1, 16), 0.2)
        lstsq, calls = np.linalg.lstsq, []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        cfg = ExplainerConfig(shap=ShapConfig(samples=samples))
        e = explain_shap(handle, X[0], ds, cfg, seed=1)
        assert calls == [(15, 15)]
        assert np.all(np.isfinite(e.phi))
        fx = predict_logodds(handle, X[:1])[0]
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


class TestCoalitionValues:
    """Coalition rows come in pieces of whole coalitions and are scored in
    packed model calls; neither may change any value."""

    @staticmethod
    def _case(n, B, masks, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (B + 40, n)) * rng.uniform(0.5, 2.0, n)
        y = (rng.random(len(X)) < 0.5).astype(int)
        y[:2] = [0, 1]
        handle = ModelHandle("gnb", train_gnb(X, y))
        calls = []

        def f(Z):
            calls.append(len(Z))
            return predict_logodds(handle, Z)

        x, background = X[-1], X[:B]
        pieces = explainers._coalition_rows(masks, x, background)
        values = explainers._coalition_values(
            explainers._score_packed(f, pieces), len(masks), B)
        whole = np.where(masks[:, None, :], x, background[None, :, :])
        single = predict_logodds(handle, whole.reshape(-1, n)).reshape(len(masks), B).mean(axis=1)
        return values, single, calls

    @pytest.mark.parametrize("n,B,sampled", [(4, 3, False), (12, 3, False), (12, 100, False),
                                             (19, 350, True), (5, 5000, False)])
    def test_rows_match_broadcast_form(self, n, B, sampled):
        """Pieces built transposed from same-shape operands hold the rows of
        the broadcast np.where, in its order: full chunks, a short last
        chunk, and one coalition per piece when B exceeds _BLOCK_ROWS."""
        rng = np.random.default_rng(n + B)
        if sampled:
            masks, _ = explainers._sample_coalitions(n, 1300, rng)
        else:
            masks, _ = explainers._exact_coalitions(n)
        x, background = rng.normal(0, 1, n), rng.normal(0, 1, (B, n))
        pieces = list(explainers._coalition_rows(masks, x, background))
        chunk = max(1, explainers._BLOCK_ROWS // B)
        assert [len(p) for p in pieces[:-1]] == [chunk * B] * (len(pieces) - 1)
        assert all(p.flags.f_contiguous for p in pieces)
        whole = np.where(masks[:, None, :], x, background[None, :, :]).reshape(-1, n)
        assert np.array_equal(np.concatenate(pieces), whole)

    @pytest.mark.parametrize("n,B,sampled", [(12, 3, False), (19, 350, True), (12, 5000, False)])
    def test_blocks_match_one_call(self, n, B, sampled):
        if sampled:
            masks, _ = explainers._sample_coalitions(n, 1300, np.random.default_rng(1))
        else:
            masks, _ = explainers._exact_coalitions(n)
            if B > 4096:
                masks = masks[::64]  # a slice of the design keeps the reference call small
        values, single, calls = self._case(n, B, masks)
        assert np.array_equal(values, single)
        assert len(calls) > 1
        assert max(calls) <= max(4096, B)
        assert sum(calls) == len(masks) * B
        if B > 4096:
            assert calls == [B] * len(masks)


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
        handle = ModelHandle("gnb", train_gnb(X, y))
        x = rng.normal(0, 1, n)
        closed = feature_terms(handle, x)[1] - feature_terms(handle, X)[1].mean(axis=0)
        return ds, handle, x, closed

    @pytest.mark.parametrize("n,samples", [(5, 5000), (12, 5000), (16, 3000), (18, 1300)])
    def test_shap(self, n, samples):
        ds, handle, x, closed = self._setup(n, seed=n)
        cfg = ExplainerConfig(shap=ShapConfig(samples=samples))
        e = explain_shap(handle, x, ds, cfg, seed=1)
        assert e.sample_count == (2**n if n <= explainers.EXACT_SHAP_LIMIT else samples)
        assert np.max(np.abs(e.phi - closed)) < 1e-9

    def test_full_permutation_lpi(self):
        ds, handle, x, closed = self._setup(7, seed=23)
        e = explain_lpi(handle, x, ds, seed=2)
        assert e.sample_count == ds.X_train.shape[0]
        assert np.max(np.abs(e.phi - closed)) < 1e-9


def wide_mixed_dataset(tmp_path, seed=1):
    """The benchmark's generated mixed-type table (19 encoded columns, one-hot
    groups), standardized."""
    spec = importlib.util.spec_from_file_location(
        "widemixed", SRC_DIR.parent / "perfbench" / "widemixed.py")
    widemixed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(widemixed)
    config = data.DatasetConfig.from_json(widemixed.generate(seed, tmp_path))
    ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
    return ds


def test_sampled_shap_is_closed_form_on_wide_mixed(tmp_path):
    """LR and GNB are additive in log-odds, so sampled SHAP over the whole
    training split returns lam_j(x) - mean_train lam_j for any full-rank set
    of coalitions, whichever draws the sampler makes. This is why a change
    of the sampler's random stream leaves the wide-mixed reports unchanged."""
    ds = wide_mixed_dataset(tmp_path)
    n, m = ds.n_features, ds.X_train.shape[0]
    assert n > explainers.EXACT_SHAP_LIMIT
    cfg = ExplainerConfig(shap=ShapConfig(samples=1300, background_size=m))
    for handle in (ModelHandle("lr", train_logistic(ds.X_train, ds.y_train, search_trials=3)),
                   ModelHandle("gnb", train_gnb(ds.X_train, ds.y_train))):
        mean_lam = feature_terms(handle, ds.X_train)[1].mean(axis=0)
        for i in range(4):
            x = ds.X_test[i]
            e = explain_shap(handle, x, ds, cfg, seed=i)
            assert e.sample_count == 1300
            closed = feature_terms(handle, x)[1] - mean_lam
            assert np.max(np.abs(e.phi - closed)) < 1e-12, (handle.kind, i)


class TestBlocks:
    """explain() over a block (k, n) with k seeds equals, bit for bit, the k
    single-instance explanations stacked, however the instances' rows pack
    into model calls."""

    @staticmethod
    def _case(name, tmp_path):
        if name == "iris_binary":  # bundled; exact SHAP, 76 rows per instance
            config = data.DatasetConfig.from_json(DATASETS_DIR / "iris_binary.json")
            ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
            cfg = ExplainerConfig(lime=LimeConfig(samples=300),
                                  shap=ShapConfig(background_size=5), lpi=LpiConfig(samples=90))
        elif name == "categorical":
            ds = categorical_dataset()
            cfg = ExplainerConfig(lime=LimeConfig(samples=700), shap=ShapConfig(background_size=30))
        else:  # wide-mixed: sampled SHAP, several calls per instance
            ds = wide_mixed_dataset(tmp_path)
            cfg = ExplainerConfig(lime=LimeConfig(samples=300),
                                  shap=ShapConfig(samples=300, background_size=40))
        handles = [ModelHandle("lr", train_logistic(ds.X_train, ds.y_train, search_trials=2)),
                   ModelHandle("gnb", train_gnb(ds.X_train, ds.y_train))]
        return ds, cfg, handles

    @staticmethod
    def _assert_block_is_stacked_singles(technique, target, handle, X, ds, cfg, seeds):
        block = explain(technique, target, handle, X, ds, cfg, seeds)
        singles = [explain(technique, target, handle, x, ds, cfg, s) for x, s in zip(X, seeds)]
        assert block.phi.shape == X.shape
        assert np.array_equal(block.phi, np.stack([e.phi for e in singles]))
        assert all(block.sample_count == e.sample_count for e in singles)
        if technique == "shap":
            assert block.base_value.shape == (len(X),)
            assert np.array_equal(block.base_value, [e.base_value for e in singles])
        else:
            assert block.base_value is None

    @pytest.mark.parametrize("name", ["iris_binary", "categorical", "wide-mixed"])
    def test_block_equals_stacked_singles(self, name, tmp_path):
        ds, cfg, handles = self._case(name, tmp_path)
        X = ds.X_test[:5]
        seeds = [derive_seed(3, k) for k in range(len(X))]
        for handle in handles:
            for technique in TECHNIQUES:
                for target in TARGET_SPACES:
                    self._assert_block_is_stacked_singles(
                        technique, target, handle, X, ds, cfg, seeds)

    @pytest.mark.parametrize("name,calls", [("iris_binary", 1), ("wide-mixed", 16)])
    def test_shap_call_packing(self, name, calls, tmp_path, monkeypatch):
        """iris_binary: 76 rows per instance, so all four instances share one
        call; wide-mixed: each instance's coalitions span several calls."""
        ds, cfg, (lr, _) = self._case(name, tmp_path)
        sizes = []

        def spy(model, X):
            sizes.append(len(X))
            return predict_logodds(model, X)

        monkeypatch.setattr(explainers, "predict_logodds", spy)
        X = ds.X_test[:4]
        explain("shap", "logodds", lr, X, ds, cfg, [1, 2, 3, 4])
        assert len(sizes) == calls
        assert max(sizes) <= explainers._BLOCK_ROWS

    def test_lpi_oversized_pieces_scored_alone(self, monkeypatch):
        rng = np.random.default_rng(4)
        ds = numeric_dataset(rng.normal(0, 1, (60, 3)))
        handle = linear_handle([0.5, -1.0, 2.0])
        S = explainers._BLOCK_ROWS + 1
        cfg = ExplainerConfig(lpi=LpiConfig(samples=S))
        sizes = []

        def spy(model, X):
            sizes.append(len(X))
            return predict_logodds(model, X)

        monkeypatch.setattr(explainers, "predict_logodds", spy)
        self._assert_block_is_stacked_singles("lpi", "logodds", handle, ds.X_test[:3], ds, cfg,
                                              [7, 8, 9])
        # the block's calls, then the three single-instance ones: per
        # instance its f(x) row, then each of its three slots alone
        assert sizes == [1, S, S, S] * 6

    @pytest.mark.parametrize("x_rows,seed", [(3, [1, 2]), (3, 1), (None, [1]), (0, [])])
    def test_seed_count_must_match_block(self, x_rows, seed):
        ds = numeric_dataset(np.random.default_rng(2).normal(0, 1, (20, 3)))
        x = ds.X_test[0] if x_rows is None else ds.X_test[:x_rows]
        with pytest.raises(DimensionMismatchError) as err:
            explain("lpi", "logodds", linear_handle([1.0, 2.0, 3.0]), x, ds, seed=seed)
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
            # pieces packed into calls, then LPI pieces and SHAP backgrounds scored alone
            for size in (90, explainers._PACK_ROWS + 1):
                cfg = ExplainerConfig(lime=cfg.lime, lpi=LpiConfig(samples=size),
                                      shap=ShapConfig(samples=300, background_size=size))
                for technique in TECHNIQUES:
                    seen.clear()
                    explain(technique, "logodds", lr, ds.X_test[:3], ds, cfg, [1, 2, 3])
                    rows = [size for size, f_order in seen if size > 1 and not f_order]
                    assert seen and not rows, (name, technique, rows)

    @pytest.mark.parametrize("name", ["iris_binary", "categorical", "wide-mixed"])
    def test_phi_equals_row_major_scorer(self, name, tmp_path, monkeypatch):
        ds, cfg, handles = TestBlocks._case(name, tmp_path)
        X, seeds = ds.X_test[:3], [4, 5, 6]
        got = {}
        for handle in handles:
            for technique in TECHNIQUES:
                for target in TARGET_SPACES:
                    got[handle.kind, technique, target] = explain(
                        technique, target, handle, X, ds, cfg, seeds)
        monkeypatch.setattr(explainers, "predict_logodds", _reference_logodds)
        monkeypatch.setattr(explainers, "predict_proba", _reference_proba)
        for (kind, technique, target), e in got.items():
            handle = handles[0] if kind == "lr" else handles[1]
            ref = explain(technique, target, handle, X, ds, cfg, seeds)
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
            data.ColumnSpec("cat", "categorical", ("a", "b", "c")),
            data.ColumnSpec("x1", "numeric"),
            data.ColumnSpec("x2", "numeric"),
            data.ColumnSpec("bit", "categorical", ("u", "v")),
            data.ColumnSpec("x3", "numeric"),
        )
        ds = data.encode_onehot(data.SplitTable(
            columns=columns, train_rows=rows[:80], test_rows=rows[80:],
            y_train=np.array([i % 2 for i in range(80)]),
            y_test=np.array([i % 2 for i in range(m - 80)])))
        assert ds.slot_train_stats[1] == 0.0 and len(ds.groups) == 2
        draws = explainers._lime_draws(ds)
        assert [np.ndim(stat) for _, _, stat in draws] == [2, 1, 2, 1, 2]
        assert draws[0][1].tolist() == [0]  # the flat column is not drawn
        gnb = ModelHandle("gnb", train_gnb(ds.X_train, ds.y_train))
        for i, samples in enumerate((1, 7, 400)):
            cfg = ExplainerConfig(lime=LimeConfig(samples=samples))
            e = explain_lime(gnb, ds.X_test[i], ds, cfg, seed=i)
            ref = _reference_lime(gnb, ds.X_test[i], ds, samples, seed=i)
            assert np.array_equal(e.phi, ref), samples


class TestLpi:
    def test_constant_column_equal_to_instance(self):
        X = np.ones((30, 3))
        X[:, 1] = np.linspace(0, 1, 30)
        X[:, 2] = np.linspace(-1, 1, 30)
        ds = numeric_dataset(X)
        handle = linear_handle([2.0, 1.0, 1.0])
        x = np.array([1.0, 0.5, 0.0])  # x[0] equals the constant column
        e = explain_lpi(handle, x, ds, seed=3)
        assert e.phi[0] == 0.0

    def test_linear_closed_form(self):
        rng = np.random.default_rng(13)
        ds = numeric_dataset(rng.normal(1.5, 2.0, (97, 5)))
        w = rng.normal(0, 1, 5)
        handle = linear_handle(w, -0.2)
        x = rng.normal(0, 1, 5)
        e = explain_lpi(handle, x, ds, seed=4)
        closed = w * (x - ds.X_train.mean(axis=0))
        assert np.max(np.abs(e.phi - closed)) < 1e-9

    def test_cycled_samples_closed_form(self):
        rng = np.random.default_rng(14)
        m = 41
        ds = numeric_dataset(rng.normal(0, 1, (m, 3)))
        w = np.array([1.0, -2.0, 0.5])
        handle = linear_handle(w)
        x = rng.normal(0, 1, 3)
        cfg = ExplainerConfig(lpi=LpiConfig(samples=2 * m))  # two full permutations
        e = explain_lpi(handle, x, ds, cfg, seed=5)
        closed = w * (x - ds.X_train.mean(axis=0))
        assert np.max(np.abs(e.phi - closed)) < 1e-9
        assert e.sample_count == 2 * m

    def test_zero_weight_exact_zero(self):
        rng = np.random.default_rng(15)
        ds = numeric_dataset(rng.normal(0, 1, (50, 4)))
        handle = linear_handle([1.0, 0.0, 2.0, 0.0])
        e = explain_lpi(handle, rng.normal(0, 1, 4), ds, seed=6)
        assert e.phi[1] == 0.0 and e.phi[3] == 0.0

    def test_groups_share_score_and_stay_valid(self):
        ds = categorical_dataset(seed=1)
        gnb = ModelHandle("gnb", train_gnb(ds.X_train, ds.y_train))
        e = explain_lpi(gnb, ds.X_test[0], ds, seed=7)
        (group,) = ds.groups
        values = e.phi[list(group.indices)]
        assert np.all(values == values[0])
        assert np.all(np.isfinite(e.phi))

    def test_absolute_mode_dominates_signed(self):
        rng = np.random.default_rng(16)
        ds = numeric_dataset(rng.normal(0, 1, (60, 4)))
        handle = linear_handle(rng.normal(0, 1, 4))
        x = rng.normal(0, 1, 4)
        signed = explain_lpi(handle, x, ds, seed=8)
        absolute = explain_lpi(
            handle, x, ds, ExplainerConfig(lpi=LpiConfig(absolute=True)), seed=8
        )
        assert np.all(absolute.phi >= np.abs(signed.phi) - 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        ds = numeric_dataset(rng.normal(0, 1, (60, 4)))
        handle = linear_handle(rng.normal(0, 1, 4))
        x = rng.normal(0, 1, 4)
        assert np.array_equal(
            explain_lpi(handle, x, ds, seed=9).phi,
            explain_lpi(handle, x, ds, seed=9).phi,
        )


class TestDispatch:
    def test_probability_local_accuracy(self):
        rng = np.random.default_rng(18)
        ds = numeric_dataset(rng.normal(0, 1, (70, 5)))
        handle = linear_handle(rng.normal(0, 1, 5), 0.3)
        x = rng.normal(0, 1, 5)
        e = explain("shap", "probability", handle, x, ds, seed=1)
        assert abs(e.base_value + e.phi.sum() - predict_proba(handle, x)) < 1e-6

    def test_lpi_sign_pattern_monotone_link(self):
        rng = np.random.default_rng(19)
        ds = numeric_dataset(rng.normal(0, 1, (60, 3)))
        handle = linear_handle([1.5, 0.0, 0.0], 0.0)
        x = np.array([2.0, 0.3, -0.4])
        lo = explain("lpi", "logodds", handle, x, ds, seed=2)
        pr = explain("lpi", "probability", handle, x, ds, seed=2)
        assert np.array_equal(np.sign(lo.phi), np.sign(pr.phi))

    def test_unknown_technique(self):
        ds = numeric_dataset(np.zeros((10, 2)))
        with pytest.raises(UnknownTechniqueError):
            explain("saliency", "logodds", linear_handle([1, 1]), np.zeros(2), ds)

    def test_unknown_target_space(self):
        ds = numeric_dataset(np.zeros((10, 2)))
        with pytest.raises(ValueError):
            explain("lime", "odds", linear_handle([1, 1]), np.zeros(2), ds)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LimeConfig(samples=0)
        with pytest.raises(ValueError):
            LimeConfig(kernel_width=0.0)
        with pytest.raises(ValueError):
            ShapConfig(background_size=0)
        with pytest.raises(ValueError):
            LpiConfig(samples=-1)


def test_finite_phi_on_every_bundled_dataset_both_models():
    from xplain import data
    from xplain.models import train_logistic
    from conftest import BUNDLED, DATASETS_DIR

    cfg = ExplainerConfig(
        lime=LimeConfig(samples=250),
        shap=ShapConfig(samples=250, background_size=50),
        lpi=LpiConfig(samples=50),
    )
    for name in BUNDLED:
        config = data.DatasetConfig.from_json(DATASETS_DIR / f"{name}.json")
        ds, _ = data.preprocess_dataset(data.load_dataset(config), "standardize")
        handles = [
            ModelHandle("lr", train_logistic(ds.X_train, ds.y_train,
                                             search_trials=3, seed=0)),
            ModelHandle("gnb", train_gnb(ds.X_train, ds.y_train)),
        ]
        for handle in handles:
            for technique in ("lime", "shap", "lpi"):
                for target in ("logodds", "probability"):
                    e = explain(technique, target, handle, ds.X_test[0], ds, cfg, seed=3)
                    assert np.all(np.isfinite(e.phi)), (name, handle.kind, technique, target)


def test_all_techniques_finite_on_mixed_models():
    rng = np.random.default_rng(21)
    X = rng.normal(0, 1, (90, 5))
    y = (rng.random(90) < 0.5).astype(int)
    y[:2] = [0, 1]
    X[y == 1] += 0.5
    ds = numeric_dataset(X, y_train=y)
    cfg = ExplainerConfig(
        lime=LimeConfig(samples=300),
        shap=ShapConfig(samples=300, background_size=40),
        lpi=LpiConfig(samples=60),
    )
    handles = [linear_handle(rng.normal(0, 1, 5)), ModelHandle("gnb", train_gnb(X, y))]
    for handle in handles:
        for technique in ("lime", "shap", "lpi"):
            for target in ("logodds", "probability"):
                e = explain(technique, target, handle, ds.X_test[0], ds, cfg, seed=11)
                assert np.all(np.isfinite(e.phi)), (technique, target)
