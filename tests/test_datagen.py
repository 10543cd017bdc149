import math

import numpy as np
import pytest

from sconf.datagen import (GaussianSetup, LabeledData, SconfDataset, add_confidence_noise,
                           make_pairs, parse_setup, posterior_plus, preset,
                           sample_labeled, sample_train_test, similarity_confidence)
from sconf.rng import make_rng
from sconf.errors import ConfigError


def mvn_density(x, mu, sigma):
    # independent oracle: direct quadratic form through the explicit inverse
    mu = np.asarray(mu, float)
    sigma = np.asarray(sigma, float)
    diff = np.asarray(x, float) - mu
    quad = diff @ np.linalg.inv(sigma) @ diff
    norm = math.sqrt((2 * math.pi) ** len(mu) * np.linalg.det(sigma))
    return math.exp(-0.5 * quad) / norm


def ratio_confidence(x, xp, setup):
    # density-ratio form of the similarity confidence
    pp = setup.pi_plus
    pm = 1.0 - pp
    num = (pp**2 * mvn_density(x, setup.mu_plus, setup.sigma_plus)
           * mvn_density(xp, setup.mu_plus, setup.sigma_plus)
           + pm**2 * mvn_density(x, setup.mu_minus, setup.sigma_minus)
           * mvn_density(xp, setup.mu_minus, setup.sigma_minus))
    marg = lambda v: (pp * mvn_density(v, setup.mu_plus, setup.sigma_plus)
                      + pm * mvn_density(v, setup.mu_minus, setup.sigma_minus))
    return num / (marg(x) * marg(xp))


class TestSampleLabeled:
    def test_counts_and_labels(self):
        data = sample_labeled(preset("A"), 500, 300, seed=7)
        assert len(data) == 800
        assert int(np.sum(data.y == 1)) == 500
        assert int(np.sum(data.y == -1)) == 300

    def test_empty(self):
        data = sample_labeled(preset("A"), 0, 0, seed=3)
        assert len(data) == 0

    def test_moments_match_request(self):
        setup = GaussianSetup([0.0, 0.0], [50.0, 50.0], np.eye(2), np.eye(2), 0.5)
        data = sample_labeled(setup, 100_000, 0, seed=11)
        assert np.all(np.abs(data.X.mean(axis=0)) < 0.02)
        cov = np.cov(data.X.T)
        assert np.all(np.abs(cov - np.eye(2)) < 0.05)

    def test_deterministic(self):
        a = sample_labeled(preset("C"), 40, 20, seed=5)
        b = sample_labeled(preset("C"), 40, 20, seed=5)
        c = sample_labeled(preset("C"), 40, 20, seed=6)
        assert np.array_equal(a.X, b.X)
        assert not np.array_equal(a.X, c.X)

    def test_train_test_recipe(self):
        setup = preset("C")
        train, test = sample_train_test(setup, 5, 3, seed=4)
        assert np.array_equal(train.X, sample_labeled(setup, 5, 3, 4).X)
        expected = sample_labeled(setup, 10, 6, make_rng(4, 6).integers(2**31))
        assert np.array_equal(test.X, expected.X) and np.array_equal(test.y, expected.y)

    def test_bad_covariance_is_named(self):
        with pytest.raises(ConfigError, match="sigma_minus"):
            GaussianSetup([0, 0], [1, 1], np.eye(2), [[1.0, 2.0], [2.0, 1.0]], 0.5)


class TestPosterior:
    def test_degenerate_prior(self):
        setup = GaussianSetup([0, 0], [5, 5], np.eye(2), np.eye(2), 1.0)
        X = np.array([[0.0, 0.0], [5.0, 5.0], [100.0, -3.0]])
        assert np.all(posterior_plus(X, setup) == 1.0)

    def test_identical_gaussians(self):
        setup = GaussianSetup([1, 2], [1, 2], 2 * np.eye(2), 2 * np.eye(2), 0.5)
        X = np.array([[0.0, 0.0], [9.0, -4.0]])
        assert np.allclose(posterior_plus(X, setup), 0.5)

    def test_against_density_oracle(self):
        setup = preset("B")
        for x in (setup.mu_plus, setup.mu_minus, np.array([1.3, -0.7])):
            pp = setup.pi_plus * mvn_density(x, setup.mu_plus, setup.sigma_plus)
            pm = (1 - setup.pi_plus) * mvn_density(x, setup.mu_minus, setup.sigma_minus)
            assert posterior_plus(x, setup) == pytest.approx(pp / (pp + pm), abs=1e-12)

    def test_far_tail_stays_finite(self):
        setup = preset("A")
        r = posterior_plus(np.array([[1e6, -1e6], [-1e6, 1e6]]), setup)
        assert np.all((r >= 0) & (r <= 1))


class TestSimilarityConfidence:
    def test_corners(self):
        assert similarity_confidence(1.0, 1.0) == 1.0
        assert similarity_confidence(1.0, 0.0) == 0.0

    def test_half_is_absorbing(self):
        for r in (0.0, 0.2, 0.77, 1.0):
            assert similarity_confidence(0.5, r) == pytest.approx(0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(500), rng.random(500)
        assert np.allclose(similarity_confidence(a, b), similarity_confidence(b, a))

    def test_matches_density_ratio_form(self):
        setup = preset("A")
        pts = sample_labeled(setup, 700, 300, seed=13).X
        r = posterior_plus(pts, setup)
        prod = similarity_confidence(r[:500], r[500:])
        ratio = np.array([ratio_confidence(pts[i], pts[500 + i], setup)
                          for i in range(500)])
        assert np.max(np.abs(prod - ratio)) < 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            similarity_confidence(1.2, 0.5)
        with pytest.raises(ConfigError):
            similarity_confidence(0.5, -0.01)


class TestFiniteInputs:
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_labeled_data_rejects_non_finite_features(self, bad):
        X = np.zeros((3, 2))
        X[2, 1] = bad
        with pytest.raises(ConfigError, match="X has a non-finite value in row 2"):
            LabeledData(X, [1, -1, 1])

    def test_nan_confidence_rejected(self):
        # both range comparisons are False for NaN, so it needs its own check
        with pytest.raises(ConfigError, match="s has a non-finite value in row 1"):
            SconfDataset(np.zeros((3, 2)), np.zeros((3, 2)), [0.5, np.nan, 0.5])

    @pytest.mark.parametrize("field", ("x", "x_prime"))
    def test_non_finite_pair_member_rejected(self, field):
        cols = {"x": np.zeros((2, 2)), "x_prime": np.zeros((2, 2))}
        cols[field][0, 0] = np.inf
        with pytest.raises(ConfigError, match=f"{field} has a non-finite value in row 0"):
            SconfDataset(cols["x"], cols["x_prime"], [0.5, 0.5])


class TestMakePairs:
    def test_cardinality_and_range(self):
        setup = preset("A")
        pts = sample_labeled(setup, 500, 300, seed=2).X
        ds = make_pairs(pts, setup, seed=2)
        assert len(ds) == 400
        assert np.all((ds.s >= 0) & (ds.s <= 1))

    def test_sure_positives_pair_to_one(self):
        setup = GaussianSetup([0, 0], [100, 100], np.eye(2), np.eye(2), 0.5)
        pts = np.array([[0.0, 0.0], [0.5, -0.5]])
        ds = make_pairs(pts, setup, seed=1)
        assert ds.s[0] == pytest.approx(1.0, abs=1e-9)

    def test_odd_count_rejected(self):
        setup = preset("A")
        with pytest.raises(ConfigError, match="drop one point"):
            make_pairs(np.zeros((7, 2)), setup, seed=0)

    def test_mean_confidence_identity(self):
        # E[s] = pi+^2 + pi-^2 over the product marginal
        setup = preset("A")
        n_pts = 200_000
        pts = sample_labeled(setup, 125_000, 75_000, seed=21).X
        ds = make_pairs(pts, setup, seed=21)
        target = setup.pi_plus**2 + setup.pi_minus**2
        assert len(ds) == n_pts // 2
        assert abs(float(ds.s.mean()) - target) <= 0.01

    def test_deterministic(self):
        setup = preset("B")
        pts = sample_labeled(setup, 50, 30, seed=9).X
        d1 = make_pairs(pts, setup, seed=4)
        d2 = make_pairs(pts, setup, seed=4)
        assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.s, d2.s)

    @pytest.mark.parametrize("seed,n_points", [(1, 2), (4, 80), (9, 800)])
    def test_reproduces_reference_pairing(self, seed, n_points):
        # the recipe make_pairs had before pair_up: permute with the stream
        # (seed, 1), pair consecutive entries, posteriors of each half
        setup = preset("C")
        pts = sample_labeled(setup, n_points // 2, n_points - n_points // 2, seed).X
        perm = make_rng(seed, 1).permutation(n_points)
        x, xp = pts[perm[0::2]], pts[perm[1::2]]
        s = similarity_confidence(posterior_plus(x, setup), posterior_plus(xp, setup))
        ds = make_pairs(pts, setup, seed)
        assert np.array_equal(ds.x, x) and np.array_equal(ds.x_prime, xp)
        assert np.array_equal(ds.s, np.atleast_1d(s))


class TestPairBlock:
    def test_members_are_views_of_one_block(self):
        x, xp = np.arange(6.0).reshape(3, 2), -np.arange(6.0).reshape(3, 2)
        ds = SconfDataset(x, xp, [0.1, 0.5, 0.9])
        assert ds.rows.shape == (6, 2)
        assert np.array_equal(ds.rows, np.vstack([x, xp]))
        assert np.shares_memory(ds.x, ds.rows) and np.shares_memory(ds.x_prime, ds.rows)
        assert np.array_equal(ds.x, x) and np.array_equal(ds.x_prime, xp)
        x[0, 0] = 99.0  # the block is a copy of the inputs
        assert ds.x[0, 0] == 0.0

    def test_subset_keeps_provenance_and_reference(self):
        setup = preset("B")
        ds = make_pairs(sample_labeled(setup, 25, 15, 3).X, setup, 3)
        noisy = add_confidence_noise(ds, 0.2, seed=3)
        idx = np.array([7, 0, 19, 3])
        sub = noisy.subset(idx)
        assert sub.provenance == noisy.provenance == "noisy(std=0.2)"
        assert np.array_equal(sub.reference_s, ds.s[idx])
        assert np.array_equal(sub.s, noisy.s[idx])
        assert np.array_equal(sub.rows, np.vstack([ds.x[idx], ds.x_prime[idx]]))
        assert ds.subset(idx).reference_s is None


def clipped_noise_mad(s, std):
    # closed-form E|clip(s + e, 0, 1) - s| for e ~ N(0, std^2)
    phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    lo, hi = s, 1.0 - s
    inner = std / math.sqrt(2 * math.pi) * (
        2.0 - math.exp(-lo**2 / (2 * std**2)) - math.exp(-hi**2 / (2 * std**2)))
    return lo * phi(-lo / std) + hi * (1.0 - phi(hi / std)) + inner


class TestConfidenceNoise:
    def _dataset(self, n, seed):
        setup = preset("A")
        n_plus = round(2 * n * 0.625)
        pts = sample_labeled(setup, n_plus, 2 * n - n_plus, seed=seed).X
        return make_pairs(pts, setup, seed=seed)

    def test_zero_std_is_identity(self):
        ds = self._dataset(100, 3)
        noisy = add_confidence_noise(ds, 0.0, seed=5)
        assert np.array_equal(noisy.s, ds.s)
        assert noisy.provenance.startswith("noisy")

    def test_clipping_rule(self):
        ds = SconfDataset(np.zeros((4, 2)), np.ones((4, 2)),
                          np.array([0.95, 0.05, 0.5, 0.99]))
        noisy = add_confidence_noise(ds, 0.8, seed=17)
        # duplicate arithmetic: same stream, explicit clip
        from sconf.rng import make_rng
        e = make_rng(17, 2).normal(0.0, 0.8, size=4)
        assert np.array_equal(noisy.s, np.clip(ds.s + e, 0.0, 1.0))
        assert np.all((noisy.s >= 0) & (noisy.s <= 1))

    def test_original_untouched_and_reference_kept(self):
        ds = self._dataset(50, 11)
        before = ds.s.copy()
        noisy = add_confidence_noise(ds, 0.3, seed=11)
        assert np.array_equal(ds.s, before)
        assert np.array_equal(noisy.reference_s, before)

    def test_mad_matches_clipped_normal_oracle(self):
        ds = self._dataset(100_000, 23)
        noisy = add_confidence_noise(ds, 0.3, seed=23)
        rerun = add_confidence_noise(ds, 0.3, seed=23)
        assert np.array_equal(noisy.s, rerun.s)
        empirical = float(np.abs(noisy.s - ds.s).mean())
        analytic = float(np.mean([clipped_noise_mad(s, 0.3) for s in ds.s]))
        assert abs(empirical - analytic) < 0.01


class TestSetupFiles:
    GOOD = """
    # demo setup
    mu_plus = 0 0
    mu_minus = 4 0
    sigma_plus = 3 0 0 3
    sigma_minus = 2 0 0 2
    pi_plus = 0.625
    n_plus = 500
    n_minus = 300
    seed = 1
    """

    def test_parse_round_trip(self):
        spec = parse_setup(self.GOOD)
        assert spec.n_plus == 500 and spec.n_minus == 300 and spec.seed == 1
        assert np.array_equal(spec.setup.mu_minus, [4.0, 0.0])
        assert np.array_equal(spec.setup.sigma_plus, 3 * np.eye(2))

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=":2"):
            parse_setup("mu_plus = 0 0\nwat = 3\n")

    def test_missing_keys(self):
        with pytest.raises(ConfigError, match="missing keys"):
            parse_setup("mu_plus = 0 0\n")

    def test_repeated_key_names_line(self):
        with pytest.raises(ConfigError, match="setup.txt:3: duplicate key 'mu_plus'"):
            parse_setup("mu_plus = 0 0\nmu_minus = 4 0\nmu_plus = 1 1\n", source="setup.txt")

    def test_presets_are_valid(self):
        for name in "ABCD":
            setup = preset(name)
            np.linalg.cholesky(setup.sigma_plus)
            np.linalg.cholesky(setup.sigma_minus)
            assert setup.pi_plus == 0.625

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("Z")
