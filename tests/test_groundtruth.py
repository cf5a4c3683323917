import numpy as np
import pytest

from xplain.errors import DimensionMismatchError
from xplain.models import ground_truth
from xplain.models import (
    GaussianNBModel,
    LogisticModel,
    predict_logodds,
)


def random_lr(rng, n):
    return LogisticModel(rng.normal(0, 2, n), float(rng.normal()), "l2", 0.0)


def random_gnb(rng, n):
    return GaussianNBModel(
        mean0=rng.normal(0, 1, n),
        mean1=rng.normal(0, 1, n),
        var0=rng.uniform(0.2, 3.0, n),
        var1=rng.uniform(0.2, 3.0, n),
        prior0=0.4,
        prior1=0.6,
    )


class TestLogistic:
    def test_hand_example(self):
        model = LogisticModel(np.array([0.5, -1.0, 2.0]), 0.1, "l2", 0.0)
        gt = ground_truth(model, np.array([2.0, 1.0, 0.5]))
        assert gt.lam.tolist() == [1.0, -1.0, 1.0]
        assert gt.offset == 0.1

    def test_zero_instance(self):
        model = LogisticModel(np.array([3.0, -2.0]), 0.7, "l2", 0.0)
        gt = ground_truth(model, np.zeros(2))
        assert np.all(gt.lam == 0.0)
        assert gt.total() == 0.7

    def test_additivity_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(1, 15))
            model = random_lr(rng, n)
            x = rng.normal(0, 3, n)
            gt = ground_truth(model, x)
            assert gt.total() - predict_logodds(model, x) == 0.0

    def test_linearity_in_x(self):
        rng = np.random.default_rng(1)
        model = random_lr(rng, 6)
        x = rng.normal(0, 1, 6)
        a = ground_truth(model, x)
        b = ground_truth(model, 2.0 * x)
        assert np.allclose(b.lam, 2.0 * a.lam, rtol=0, atol=0)

    def test_zero_weight_zero_lambda(self):
        model = LogisticModel(np.array([0.0, 1.5]), 0.0, "l2", 0.0)
        gt = ground_truth(model, np.array([123.0, 4.0]))
        assert gt.lam[0] == 0.0

    def test_dimension_mismatch(self):
        model = LogisticModel(np.zeros(3), 0.0, "l2", 0.0)
        with pytest.raises(DimensionMismatchError):
            ground_truth(model, np.zeros(2))


class TestGaussianNB:
    def test_identical_conditionals_zero(self):
        model = GaussianNBModel(
            mean0=np.array([1.0, 2.0]), mean1=np.array([1.0, 2.0]),
            var0=np.array([0.5, 1.5]), var1=np.array([0.5, 1.5]),
            prior0=0.5, prior1=0.5,
        )
        gt = ground_truth(model, np.array([0.3, -2.0]))
        assert np.all(gt.lam == 0.0)

    def test_unit_gap_value(self):
        model = GaussianNBModel(
            mean0=np.array([0.0]), mean1=np.array([1.0]),
            var0=np.array([1.0]), var1=np.array([1.0]),
            prior0=0.5, prior1=0.5,
        )
        gt = ground_truth(model, np.array([1.0]))
        assert abs(gt.lam[0] - 0.5) < 1e-12

    def test_additivity(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(1, 15))
            model = random_gnb(rng, n)
            x = rng.normal(0, 3, n)
            gt = ground_truth(model, x)
            assert abs(gt.total() - predict_logodds(model, x)) < 1e-9

    def test_lambda_depends_only_on_own_coordinate(self):
        rng = np.random.default_rng(3)
        model = random_gnb(rng, 5)
        x = rng.normal(0, 1, 5)
        before = ground_truth(model, x).lam.copy()
        x2 = x.copy()
        x2[3] = 99.0
        after = ground_truth(model, x2).lam
        unchanged = [0, 1, 2, 4]
        assert np.array_equal(before[unchanged], after[unchanged])
        assert after[3] != before[3]

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DimensionMismatchError):
            ground_truth(random_gnb(rng, 3), np.zeros(5))


def test_dispatch_matches_specific():
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, 4)
    lr = random_lr(rng, 4)
    gnb = random_gnb(rng, 4)
    assert np.array_equal(ground_truth(lr, x).lam,
                          ground_truth(lr, x).lam)
    assert np.array_equal(ground_truth(gnb, x).lam,
                          ground_truth(gnb, x).lam)
