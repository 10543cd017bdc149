import math

import numpy as np
import pytest

from conftest import traced_peak
from sconf.datagen import (POSTERIOR_BLOCK, GaussianSetup, LabeledData, SconfDataset,
                           add_confidence_noise, block_edges, make_pairs, parse_setup,
                           posterior_plus, preset, sample_blocks, sample_labeled,
                           sample_train_test, similarity_confidence)
from sconf.experiments import SWEEP_TEST_SEED, bayes_accuracy, sweep_test_set
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
        # == is identity, not an elementwise compare that cannot be a bool
        assert a == a and a != b

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
        r = posterior_plus(np.array([[1e6, -1e6], [-1e6, 1e6], [1e300, -1e300]]), setup)
        assert np.all((r >= 0) & (r <= 1))
        # at the last point both densities underflow: the posterior is the prior
        assert r[2] == setup.pi_plus


def stacked_sample(setup, n_plus, n_minus, seed):
    """sample_labeled as whole-set expressions: each class drawn as
    mu + Z @ L.T, the classes stacked and their labels concatenated."""
    rng = make_rng(seed)
    lp = np.linalg.cholesky(setup.sigma_plus)
    lm = np.linalg.cholesky(setup.sigma_minus)
    xp = setup.mu_plus + rng.standard_normal((n_plus, setup.dim)) @ lp.T
    xm = setup.mu_minus + rng.standard_normal((n_minus, setup.dim)) @ lm.T
    y = np.concatenate([np.ones(n_plus, dtype=int), -np.ones(n_minus, dtype=int)])
    return np.vstack([xp, xm]), y


def whole_set_log_density(X, mu, sigma):
    L = np.linalg.cholesky(sigma)
    diff = np.atleast_2d(X) - mu
    u = np.linalg.solve(L, diff.T)
    quad = np.sum(u * u, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (quad + logdet + mu.shape[0] * math.log(2.0 * math.pi))


def whole_set_posterior(X, setup):
    """posterior_plus as one pass over all rows of X."""
    with np.errstate(divide="ignore", over="ignore"):
        a = np.log(setup.pi_plus) + whole_set_log_density(X, setup.mu_plus, setup.sigma_plus)
        b = np.log(setup.pi_minus) + whole_set_log_density(X, setup.mu_minus, setup.sigma_minus)
    with np.errstate(invalid="ignore", over="ignore"):
        r = 1.0 / (1.0 + np.exp(-(a - b)))
    return np.where(np.isnan(r), setup.pi_plus, r)


class TestWholeSetBytes:
    """The data layer works in blocks and in place, with the bytes of the
    whole-set expressions."""

    @pytest.mark.parametrize("name", "ABCD")
    @pytest.mark.parametrize("n_plus, n_minus, seed", (
        (500, 300, 7), (0, 5, 7), (5, 0, 7), (1, 1, 7), (125_000, 75_000, SWEEP_TEST_SEED)))
    def test_sample_labeled(self, name, n_plus, n_minus, seed):
        X, y = stacked_sample(preset(name), n_plus, n_minus, seed)
        data = sample_labeled(preset(name), n_plus, n_minus, seed)
        assert data.X.dtype == X.dtype and data.y.dtype == y.dtype
        assert data.X.tobytes() == X.tobytes() and data.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("name", "AC")
    @pytest.mark.parametrize("n_plus, n_minus, edges", (
        (1000, 600, [0, 700, 1300, 1600]),  # the class boundary inside a block
        (1000, 600, [0, 500, 1000, 1600]),  # the class boundary on a block edge
        (0, 1600, [0, 800, 1600]),  # an empty class
        (1600, 0, [0, 800, 1600]),
        (20_000, 2 * POSTERIOR_BLOCK + 3 - 20_000, block_edges(2 * POSTERIOR_BLOCK + 3)),
    ))
    def test_sample_blocks_concatenate_to_the_sample(self, name, n_plus, n_minus, edges):
        X, y = stacked_sample(preset(name), n_plus, n_minus, 7)
        blocks = list(sample_blocks(preset(name), n_plus, n_minus, 7, edges))
        assert [len(block) for block in blocks] == np.diff(edges).tolist()
        assert np.concatenate([block.X for block in blocks]).tobytes() == X.tobytes()
        assert np.concatenate([block.y for block in blocks]).tobytes() == y.tobytes()

    def test_block_edges(self):
        # the last block takes the remainder, here 3 rows past 2 blocks
        b = POSTERIOR_BLOCK
        assert block_edges(2 * b + 3) == [0, b, 2 * b + 3]
        assert block_edges(2 * b) == [0, b, 2 * b]
        assert block_edges(b - 1) == [0, b - 1]
        assert block_edges(0) == [0, 0]

    @pytest.mark.parametrize("edges", ([0, 10], [1, 16], [0, 8, 17]))
    def test_sample_blocks_need_edges_over_the_whole_sample(self, edges):
        with pytest.raises(ConfigError, match="from 0 to 16"):
            list(sample_blocks(preset("A"), 10, 6, 1, edges))

    @pytest.mark.parametrize("name", "ABCD")
    @pytest.mark.parametrize("n", (1, POSTERIOR_BLOCK - 1, POSTERIOR_BLOCK, POSTERIOR_BLOCK + 1,
                                   POSTERIOR_BLOCK + 7, 2 * POSTERIOR_BLOCK + 3, 200_000))
    def test_posterior_plus(self, name, n):
        setup = preset(name)
        X = sweep_test_set(setup).X
        X = X[np.random.default_rng(n).permutation(len(X))[:n]]  # both classes in every block
        X[n // 2] = [1e300, -1e300]  # both densities underflow: the prior
        r = posterior_plus(X, setup)
        assert r[n // 2] == setup.pi_plus
        assert r.tobytes() == whole_set_posterior(X, setup).tobytes()

    def test_posterior_plus_has_no_one_row_block(self):
        # LAPACK solves a single right-hand side in another order than
        # several, so a one-row block can move a posterior: end a set of
        # POSTERIOR_BLOCK + 1 rows with a row that it moves
        setup = preset("C")
        X = sweep_test_set(setup).X[:POSTERIOR_BLOCK + 1].copy()
        alone = np.array([whole_set_posterior(x, setup)[0] for x in X[:1000]])
        moved = np.nonzero(alone != whole_set_posterior(X[:1000], setup))[0]
        assert len(moved)
        X[-1] = X[moved[0]]
        assert posterior_plus(X, setup).tobytes() == whole_set_posterior(X, setup).tobytes()


def test_sweep_test_set_peak_memory():
    # bound fixed before the first run: the set holds 4.8 MB (3.2 MB of rows,
    # 1.6 MB of labels) and its posteriors 1.6 MB, which leaves 2.6 MB for
    # the sampling draws and the posterior blocks' buffers; measured 7.93 MB,
    # where the whole-set passes peaked at 17.6 MB
    setup = preset("B")

    def build_and_score():
        return bayes_accuracy(sweep_test_set(setup), setup)

    build_and_score()
    _, peak = traced_peak(build_and_score)
    assert peak <= 9.0e6


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
            SconfDataset(np.zeros((6, 2)), [0.5, np.nan, 0.5])

    @pytest.mark.parametrize("field", ("x", "x_prime"))
    def test_non_finite_pair_member_rejected(self, field):
        cols = {"x": np.zeros((2, 2)), "x_prime": np.zeros((2, 2))}
        cols[field][0, 0] = np.inf
        with pytest.raises(ConfigError, match=f"{field} has a non-finite value in row 0"):
            SconfDataset(np.concatenate([cols["x"], cols["x_prime"]]), [0.5, 0.5])


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
        rows = np.concatenate([x, xp])
        ds = SconfDataset(rows, [0.1, 0.5, 0.9])
        assert ds.rows is rows and len(ds) == 3  # the block is kept, not copied
        assert np.shares_memory(ds.x, ds.rows) and np.shares_memory(ds.x_prime, ds.rows)
        assert np.array_equal(ds.x, x) and np.array_equal(ds.x_prime, xp)
        with pytest.raises(AttributeError):
            ds.x = xp
        # == is identity, not an elementwise compare that cannot be a bool
        assert ds == ds and ds != SconfDataset(rows, [0.1, 0.5, 0.9])
        with pytest.raises(ConfigError, match="confidences must lie in"):
            SconfDataset(rows, [0.1, 1.5, 0.9])
        with pytest.raises(ConfigError, match="s must be"):
            SconfDataset(rows, [0.1, 0.5])
        with pytest.raises(ConfigError, match=r"rows must be \(2n, d\)"):
            SconfDataset(rows[:5], [0.1, 0.5])
        rows[4, 0] = np.nan
        with pytest.raises(ConfigError, match="x_prime has a non-finite value in row 1"):
            SconfDataset(rows, [0.1, 0.5, 0.9])

    def test_make_pairs_gathers_into_the_block_given(self):
        setup = preset("C")
        pts = sample_labeled(setup, 40, 24, 5).X
        out = np.empty((64, 2))
        ds = make_pairs(pts, setup, 5, out=out)
        want = make_pairs(pts, setup, 5)
        assert ds.rows is out
        assert out.tobytes() == want.rows.tobytes() and ds.s.tobytes() == want.s.tobytes()

    def test_subset_of_noisy_pairs_keeps_rows_and_s(self):
        setup = preset("B")
        ds = make_pairs(sample_labeled(setup, 25, 15, 3).X, setup, 3)
        noisy = add_confidence_noise(ds, 0.2, seed=3)
        idx = np.array([7, 0, 19, 3])
        sub = noisy.subset(idx)
        assert np.array_equal(sub.s, noisy.s[idx])
        assert np.array_equal(sub.rows, np.vstack([ds.x[idx], ds.x_prime[idx]]))

    def test_subset_rows_equal_stacked_members(self):
        setup = preset("B")
        ds = make_pairs(sample_labeled(setup, 25, 15, 3).X, setup, 3)
        mask = ds.s > 0.6
        assert 0 < mask.sum() < len(ds)
        idx = np.array([7, 0, 19, 3, 7, -1])
        for sel, members in ((idx, idx), (mask, np.flatnonzero(mask))):
            sub = ds.subset(sel)
            assert np.array_equal(sub.rows, np.vstack([ds.x[members], ds.x_prime[members]]))
            assert np.array_equal(sub.x, ds.x[members])
            assert np.array_equal(sub.x_prime, ds.x_prime[members])
            assert np.array_equal(sub.s, ds.s[members])
            assert np.shares_memory(sub.x, sub.rows) and np.shares_memory(sub.x_prime, sub.rows)
            assert not np.shares_memory(sub.rows, ds.rows)

    def test_subset_rejects_indices_outside_the_pairs(self):
        setup = preset("B")
        ds = make_pairs(sample_labeled(setup, 5, 5, 3).X, setup, 3)
        # index n would read the first x' member as an x member
        with pytest.raises(IndexError):
            ds.subset(np.array([len(ds)]))
        with pytest.raises(IndexError):
            ds.subset(np.ones(len(ds) - 1, dtype=bool))


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

    def test_clipping_rule(self):
        ds = SconfDataset(np.concatenate([np.zeros((4, 2)), np.ones((4, 2))]),
                          np.array([0.95, 0.05, 0.5, 0.99]))
        noisy = add_confidence_noise(ds, 0.8, seed=17)
        # duplicate arithmetic: same stream, explicit clip
        from sconf.rng import make_rng
        e = make_rng(17, 2).normal(0.0, 0.8, size=4)
        assert np.array_equal(noisy.s, np.clip(ds.s + e, 0.0, 1.0))
        assert np.all((noisy.s >= 0) & (noisy.s <= 1))

    def test_original_untouched_and_rows_shared(self):
        ds = self._dataset(50, 11)
        before = ds.s.copy()
        noisy = add_confidence_noise(ds, 0.3, seed=11)
        assert np.array_equal(ds.s, before)
        assert noisy.rows is ds.rows

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
    """

    def test_parse_round_trip(self):
        spec = parse_setup(self.GOOD)
        assert spec.n_plus == 500 and spec.n_minus == 300
        assert np.array_equal(spec.setup.mu_minus, [4.0, 0.0])
        assert np.array_equal(spec.setup.sigma_plus, 3 * np.eye(2))

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=":2"):
            parse_setup("mu_plus = 0 0\nwat = 3\n")

    def test_missing_keys(self):
        with pytest.raises(ConfigError, match="missing keys"):
            parse_setup("mu_plus = 0 0\n")

    def test_numbers_separated_by_commas_or_spaces(self):
        spec = parse_setup(self.GOOD.replace("sigma_plus = 3 0 0 3", "sigma_plus = 3, 0,0 3"))
        assert np.array_equal(spec.setup.sigma_plus, 3 * np.eye(2))

    @pytest.mark.parametrize("value,message", [
        ("4", "setup.txt:4: mu_minus needs 2 numbers, got 1"),
        ("4 0 1", "setup.txt:4: mu_minus needs 2 numbers, got 3"),
        ("4 x", "setup.txt:4: mu_minus expects a list of numbers"),
        ("4,,0", "setup.txt:4: mu_minus expects a list of numbers"),
    ])
    def test_bad_number_list_names_line(self, value, message):
        text = self.GOOD.replace("mu_minus = 4 0", f"mu_minus = {value}")
        with pytest.raises(ConfigError, match=message):
            parse_setup(text, source="setup.txt")

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
