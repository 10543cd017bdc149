import numpy as np
import pytest

from sconf.datagen import SconfDataset, make_pairs, preset, sample_labeled
from sconf.errors import ConfigError
from sconf.prior import estimate_prior, invert_pair_mean


def flat_dataset(s_values):
    n = len(s_values)
    return SconfDataset(np.zeros((2 * n, 2)), np.asarray(s_values, float))


class TestInversion:
    def test_known_point(self):
        est = estimate_prior(flat_dataset([0.58] * 10))
        assert est.pi_plus_hat == pytest.approx(0.7)
        assert not est.clamped

    def test_all_ones(self):
        assert estimate_prior(flat_dataset([1.0] * 5)).pi_plus_hat == pytest.approx(1.0)

    def test_boundary_half(self):
        est = estimate_prior(flat_dataset([0.5] * 8))
        assert est.pi_plus_hat == pytest.approx(0.5)
        assert not est.clamped

    def test_clamps_below_half(self):
        est = estimate_prior(flat_dataset([0.4] * 8))
        assert est.pi_plus_hat == 0.5
        assert est.clamped

    def test_exact_round_trip(self):
        for pi in np.linspace(0.5, 1.0, 101):
            pi_s = pi**2 + (1 - pi) ** 2
            assert abs(invert_pair_mean(pi_s) - pi) < 1e-14

    def test_empty(self):
        with pytest.raises(ConfigError):
            estimate_prior(flat_dataset([]))


class TestMonteCarlo:
    def _estimate(self, n_pairs, seed):
        setup = preset("A")
        n_pts = 2 * n_pairs
        pts = sample_labeled(setup, (n_pts * 5) // 8, (n_pts * 3) // 8, seed).X
        return estimate_prior(make_pairs(pts, setup, seed))

    def test_large_sample_recovers_generating_prior(self):
        est = self._estimate(100_000, seed=31)
        assert abs(est.pi_plus_hat - 0.625) <= 0.01
        assert est.n == 100_000

    def test_error_shrinks_with_n(self):
        errs = {}
        for n in (1000, 4000):
            errors = [abs(self._estimate(n, seed).pi_plus_hat - 0.625)
                      for seed in range(200, 212)]
            errs[n] = float(np.mean(errors))
        # quadrupling n should roughly halve the error; allow generous noise
        assert errs[4000] < errs[1000]
