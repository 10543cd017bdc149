import math

import numpy as np
import pytest

from sconf.errors import ConfigError
from sconf.losses import accuracy, loss_derivative, loss_value, weighted_derivative


class TestValues:
    def test_logistic_at_zero(self):
        assert loss_value("logistic", 0.0, 1) == pytest.approx(math.log(2), abs=1e-12)

    def test_logistic_large_margin(self):
        assert loss_value("logistic", 50.0, 1) < 1e-20
        assert loss_value("logistic", -50.0, -1) < 1e-20

    def test_logistic_no_overflow(self):
        v = loss_value("logistic", -1000.0, 1)
        assert v == pytest.approx(1000.0)

    def test_zero_one(self):
        assert loss_value("zero_one", -0.1, 1) == 1.0
        assert loss_value("zero_one", 0.3, 1) == 0.0
        # sign(0) = +1: score zero is a positive prediction
        assert loss_value("zero_one", 0.0, 1) == 0.0
        assert loss_value("zero_one", 0.0, -1) == 1.0

    def test_zero_one_gives_the_bits_of_the_prediction_form(self):
        z = np.array([0.0, -0.0, np.nan, 5e-324, -5e-324, np.inf, -np.inf, 2.0, -2.0] * 2)
        y = np.repeat([1, -1], 9)
        want = (np.where(z >= 0.0, 1, -1) != y).astype(float)
        assert loss_value("zero_one", z, y).tobytes() == want.tobytes()
        assert loss_value("zero_one", -0.0, -1) == 1.0


    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(1)
        z = rng.normal(0, 10, 1000)
        y = rng.choice([-1, 1], 1000)
        assert np.all(loss_value("logistic", z, y) >= 0)
        assert np.all(loss_value("zero_one", z, y) >= 0)

    def test_convexity_midpoint(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            z1, z2 = rng.normal(0, 5, 2)
            y = rng.choice([-1, 1])
            mid = loss_value("logistic", (z1 + z2) / 2, y)
            assert mid <= (loss_value("logistic", z1, y) + loss_value("logistic", z2, y)) / 2 + 1e-12

    def test_bad_label(self):
        with pytest.raises(ConfigError):
            loss_value("logistic", 0.0, 0)

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            loss_value("hinge", 0.0, 1)


class TestDerivative:
    def test_at_zero(self):
        assert loss_derivative("logistic", 0.0, 1) == pytest.approx(-0.5)
        assert loss_derivative("logistic", 0.0, -1) == pytest.approx(0.5)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        z = rng.normal(0, 100, 2000)
        y = rng.choice([-1, 1], 2000)
        d = loss_derivative("logistic", z, y)
        # mathematically in (-1, 1); float64 saturates to +-1 for huge |z|
        assert np.all(np.abs(d) <= 1.0)
        moderate = np.abs(z) < 30
        assert np.all(np.abs(d[moderate]) < 1.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(1000):
            z = rng.normal(0, 4)
            y = rng.choice([-1, 1])
            fd = (loss_value("logistic", z + h, y) - loss_value("logistic", z - h, y)) / (2 * h)
            an = loss_derivative("logistic", z, y)
            assert abs(an - fd) <= 1e-7 * max(1.0, abs(fd))

    def test_zero_one_has_none(self):
        with pytest.raises(ConfigError):
            loss_derivative("zero_one", 0.5, 1)


class TestAccuracy:
    def test_counts_the_bits_of_the_mean_of_predictions(self):
        rng = np.random.default_rng(3)
        for n, threshold in ((1, 0.0), (9, 0.0), (1001, 0.5), (40_000, 0.5)):
            z = rng.choice([threshold, 0.0, -0.0, np.nan, 0.25, 0.75, -1.0], n)
            y = rng.choice([-1, 1], n)
            want = float(np.mean(np.where(z >= threshold, 1, -1) == y))
            got = accuracy(z, y, threshold)
            assert type(got) is float and got.hex() == want.hex()


class TestWeightedDerivative:
    def test_equals_weighted_label_derivatives(self):
        rng = np.random.default_rng(5)
        z = np.concatenate([rng.normal(0, 20, 2000), [0.0, -0.0, 1000.0, -1000.0, 40.0, -40.0]])
        a, b = rng.normal(size=(2, len(z)))
        fused = weighted_derivative("logistic", z, a, b)
        split = a * loss_derivative("logistic", z, 1) + b * loss_derivative("logistic", z, -1)
        # sigmoid(z) and 1 - sigmoid(-z) round differently: a few ulps of |a| + |b|
        assert np.all(np.abs(fused - split) <= 4e-16 * (np.abs(a) + np.abs(b)))

    def test_broadcasts_over_a_trial_block(self):
        z = np.array([[-1.0, 0.0, 2.0], [3.0, -4.0, 0.5]])
        a, b = np.full_like(z, 0.25), np.full_like(z, 0.75)
        fused = weighted_derivative("logistic", z, a, b)
        assert fused.shape == z.shape
        assert np.array_equal(fused[1], weighted_derivative("logistic", z[1], a[1], b[1]))

    def test_zero_one_has_none(self):
        with pytest.raises(ConfigError):
            weighted_derivative("zero_one", np.zeros(2), np.ones(2), np.ones(2))

    @staticmethod
    def _plain(z, a, b):
        t = np.exp(-np.abs(z))
        return b - (a + b) * (np.where(z >= 0, t, 1.0) / (1.0 + t))

    def test_gives_the_bits_of_the_plain_expression(self):
        # the in-place buffers run the same operations in the same order
        rng = np.random.default_rng(12)
        z = np.concatenate([rng.normal(0, 30, 500),
                            [0.0, -0.0, 745.0, -745.0, 744.5, -744.5, 800.0, -800.0]])
        a, b = rng.normal(size=(2, len(z)))
        assert weighted_derivative("logistic", z, a, b).tobytes() == self._plain(z, a, b).tobytes()

    def test_trial_block_gives_the_bits_of_the_plain_expression(self):
        rng = np.random.default_rng(13)
        z = rng.normal(0, 10, (4, 300))
        z[:, :4] = [0.0, -0.0, 745.0, -745.0]
        a, b = rng.random((2, 4, 300))
        assert weighted_derivative("logistic", z, a, b).tobytes() == self._plain(z, a, b).tobytes()
