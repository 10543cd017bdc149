import math

import numpy as np
import pytest

from sconf.datagen import add_confidence_noise, make_pairs, preset, sample_labeled
from sconf.errors import BalancedPriorError, ConfigError
from sconf.experiments import all_pairs_point_weights
from sconf.losses import LOSS_KINDS, loss_derivative, loss_value
from sconf.risk import (PartialRisks, RiskSpec, correction, pair_risk, partial_risks,
                        risk_gradient_weights, supervised_risk, total_risk)
from sconf.rng import make_rng


def fsum_partials(z, zp, s, spec):
    # independent recomputation: explicit loop, exact math.fsum accumulation
    n = len(s)
    rp, rm = [], []
    for i in range(n):
        lp = loss_value(spec.loss, z[i], 1) + loss_value(spec.loss, zp[i], 1)
        lm = loss_value(spec.loss, z[i], -1) + loss_value(spec.loss, zp[i], -1)
        rp.append((s[i] - spec.pi_minus) * lp / (2 * n * (spec.pi_plus - spec.pi_minus)))
        rm.append((spec.pi_plus - s[i]) * lm / (2 * n * (spec.pi_plus - spec.pi_minus)))
    return math.fsum(rp), math.fsum(rm)


def random_batch(n, seed, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return (rng.normal(0, 2, n), rng.normal(0, 2, n), rng.uniform(lo, hi, n))


class TestRiskSpec:
    def test_prior_guard(self):
        with pytest.raises(BalancedPriorError):
            RiskSpec("unbiased", 0.5)
        with pytest.raises(BalancedPriorError):
            RiskSpec("abs", 0.5005)
        RiskSpec("unbiased", 0.502)  # just outside the guard
        RiskSpec("supervised", 0.5)  # supervised ignores the prior guard

    def test_corrected_needs_k(self):
        with pytest.raises(ConfigError):
            RiskSpec("corrected", 0.7)
        with pytest.raises(ConfigError):
            RiskSpec("corrected", 0.7, k=-1.0)
        with pytest.raises(ConfigError):
            RiskSpec("nn", 0.7, k=2.0)
        assert RiskSpec("corrected", 0.7, k=2.0).k == 2.0

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            RiskSpec("pu", 0.7)


class TestPartialRisks:
    def test_confidence_at_pi_plus_kills_minus_side(self):
        spec = RiskSpec("unbiased", 0.7)
        z, zp = np.array([0.4]), np.array([-1.2])
        pr = partial_risks(z, zp, np.array([0.7]), spec)
        lp = loss_value("logistic", 0.4, 1) + loss_value("logistic", -1.2, 1)
        assert pr.r_minus == pytest.approx(0.0, abs=1e-15)
        assert pr.r_plus == pytest.approx(lp / 2.0, abs=1e-12)

    def test_confidence_at_pi_minus_kills_plus_side(self):
        spec = RiskSpec("unbiased", 0.7)
        z, zp = np.array([0.4]), np.array([-1.2])
        pr = partial_risks(z, zp, np.array([0.3]), spec)
        lm = loss_value("logistic", 0.4, -1) + loss_value("logistic", -1.2, -1)
        assert pr.r_plus == pytest.approx(0.0, abs=1e-15)
        assert pr.r_minus == pytest.approx(lm / 2.0, abs=1e-12)

    def test_duplicate_arithmetic_oracle(self):
        spec = RiskSpec("unbiased", 0.7)
        z, zp, s = random_batch(7, 42)
        pr = partial_risks(z, zp, s, spec)
        rp, rm = fsum_partials(z, zp, s, spec)
        assert pr.r_plus == pytest.approx(rp, abs=1e-12)
        assert pr.r_minus == pytest.approx(rm, abs=1e-12)

    def test_empty_batch(self):
        spec = RiskSpec("unbiased", 0.7)
        with pytest.raises(ConfigError):
            partial_risks(np.array([]), np.array([]), np.array([]), spec)


class TestTotalRisk:
    def test_branch_values(self):
        pr = PartialRisks(-0.3, 0.5)
        pi = 0.7
        assert total_risk(pr, RiskSpec("unbiased", pi)) == pytest.approx(0.2)
        assert total_risk(pr, RiskSpec("nn", pi)) == pytest.approx(0.5)
        assert total_risk(pr, RiskSpec("abs", pi)) == pytest.approx(0.8)
        assert total_risk(pr, RiskSpec("corrected", pi, k=2.0)) == pytest.approx(1.1)

    def test_identity_on_nonnegative(self):
        pr = PartialRisks(0.4, 0.6)
        for spec in (RiskSpec("unbiased", 0.7), RiskSpec("nn", 0.7),
                     RiskSpec("abs", 0.7), RiskSpec("corrected", 0.7, k=5.0)):
            assert total_risk(pr, spec) == pytest.approx(1.0)

    def test_abs_near_zero(self):
        assert total_risk(PartialRisks(-1e-9, 0.0), RiskSpec("abs", 0.7)) == pytest.approx(1e-9)

    def test_correction_identities_random(self):
        rng = np.random.default_rng(7)
        pi = 0.7
        specs = {
            "unbiased": RiskSpec("unbiased", pi),
            "nn": RiskSpec("nn", pi),
            "abs": RiskSpec("abs", pi),
            "k": RiskSpec("corrected", pi, k=3.5),
        }
        for _ in range(2000):
            rp, rm = rng.normal(0, 1, 2)
            pr = PartialRisks(rp, rm)
            unb = total_risk(pr, specs["unbiased"])
            nn = total_risk(pr, specs["nn"])
            ab = total_risk(pr, specs["abs"])
            ck = total_risk(pr, specs["k"])
            assert nn == max(0, rp) + max(0, rm)
            assert ab == abs(rp) + abs(rm)
            assert ck == (rp if rp >= 0 else 3.5 * -rp) + (rm if rm >= 0 else 3.5 * -rm)
            assert nn >= 0 and ab >= 0
            for v in (nn, ab, ck):
                assert v >= unb - 1e-15
            if rp >= 0 and rm >= 0:
                assert nn == unb == ab == ck

    XS = (-2.0, -0.0, 0.0, 3.0, math.nan, -1e-300)
    NAN = (math.nan, 1.0)
    CORRECTIONS = {  # (f(x), f'(x)) for each x of XS; -0.0 and 0.0 keep their sign
        "nn": [(0.0, 0.0), (-0.0, 1.0), (0.0, 1.0), (3.0, 1.0), NAN, (0.0, 0.0)],
        "abs": [(2.0, -1.0), (-0.0, 1.0), (0.0, 1.0), (3.0, 1.0), NAN, (1e-300, -1.0)],
        0.5: [(1.0, -0.5), (-0.0, 1.0), (0.0, 1.0), (3.0, 1.0), NAN, (5e-301, -0.5)],
    }

    @staticmethod
    def same(u, v):
        # equal values with the same sign bit, or both NaN
        return (math.isnan(u) and math.isnan(v)) or (
            u == v and math.copysign(1.0, u) == math.copysign(1.0, v))

    @pytest.mark.parametrize("kind", CORRECTIONS)
    def test_correction_table_keeps_the_sign_of_zero(self, kind):
        spec = (RiskSpec("corrected", 0.7, k=kind) if isinstance(kind, float)
                else RiskSpec(kind, 0.7))
        for x, want in zip(self.XS, self.CORRECTIONS[kind]):
            got = correction(x, spec)
            assert all(map(self.same, got, want)), (x, got, want)

    def test_corrected_with_k_one_is_abs(self):
        xs = self.XS + tuple(np.random.default_rng(9).normal(0, 1, 200))
        for x in xs:
            got = correction(x, RiskSpec("corrected", 0.7, k=1.0))
            assert all(map(self.same, got, correction(x, RiskSpec("abs", 0.7)))), x


class TestGradientWeights:
    def test_unbiased_weights_are_raw_coefficients(self):
        spec = RiskSpec("unbiased", 0.7)
        z, zp, s = random_batch(5, 3)
        pr = partial_risks(z, zp, s, spec)
        wp, wm = risk_gradient_weights(s, pr, spec)
        n = len(s)
        assert np.allclose(wp, (s - 0.3) / (2 * n * 0.4))
        assert np.allclose(wm, (0.7 - s) / (2 * n * 0.4))

    def test_abs_negates_negative_branch(self):
        spec = RiskSpec("abs", 0.7)
        z, zp, s = random_batch(6, 8)
        pr = partial_risks(z, zp, s, spec)
        wp_u, wm_u = risk_gradient_weights(s, pr, RiskSpec("unbiased", 0.7))
        wp, wm = risk_gradient_weights(s, pr, spec)
        sign_p = 1.0 if pr.r_plus >= 0 else -1.0
        sign_m = 1.0 if pr.r_minus >= 0 else -1.0
        assert np.allclose(wp, sign_p * wp_u)
        assert np.allclose(wm, sign_m * wm_u)

    @pytest.mark.parametrize("kind,k", [("unbiased", None), ("nn", None),
                                        ("abs", None), ("corrected", 2.5)])
    def test_matches_finite_differences(self, kind, k):
        spec = RiskSpec(kind, 0.7, k=k)
        h = 1e-5
        checked = 0
        for seed in range(20):
            z, zp, s = random_batch(9, 100 + seed)
            pr = partial_risks(z, zp, s, spec)
            # stay away from the correction kink
            if min(abs(pr.r_plus), abs(pr.r_minus)) < 1e-3:
                continue
            wp, wm = risk_gradient_weights(s, pr, spec)
            grad_z = wp * loss_derivative("logistic", z, 1) + wm * loss_derivative("logistic", z, -1)
            grad_zp = wp * loss_derivative("logistic", zp, 1) + wm * loss_derivative("logistic", zp, -1)
            for i in (0, 4, 8):
                zp_hi, zp_lo = z.copy(), z.copy()
                zp_hi[i] += h
                zp_lo[i] -= h
                fd = (total_risk(partial_risks(zp_hi, zp, s, spec), spec)
                      - total_risk(partial_risks(zp_lo, zp, s, spec), spec)) / (2 * h)
                assert grad_z[i] == pytest.approx(fd, rel=1e-6, abs=1e-10)
                zq_hi, zq_lo = zp.copy(), zp.copy()
                zq_hi[i] += h
                zq_lo[i] -= h
                fd = (total_risk(partial_risks(z, zq_hi, s, spec), spec)
                      - total_risk(partial_risks(z, zq_lo, s, spec), spec)) / (2 * h)
                assert grad_zp[i] == pytest.approx(fd, rel=1e-6, abs=1e-10)
            checked += 1
        assert checked >= 10


class TestOneSided:
    def test_similar_value_at_pi_plus(self):
        spec = RiskSpec("similar_only", 0.7)
        z, zp = np.array([0.8]), np.array([-0.3])
        lp = loss_value("logistic", 0.8, 1) + loss_value("logistic", -0.3, 1)
        got = pair_risk(z, zp, np.array([0.7]), spec)
        pi_s = 0.7**2 + 0.3**2
        assert got == pytest.approx(pi_s * lp / 1.4, abs=1e-12)

    def test_dissimilar_value_at_pi_minus(self):
        spec = RiskSpec("dissimilar_only", 0.7)
        z, zp = np.array([0.8]), np.array([-0.3])
        lm = loss_value("logistic", 0.8, -1) + loss_value("logistic", -0.3, -1)
        got = pair_risk(z, zp, np.array([0.3]), spec)
        assert got == pytest.approx(2 * 0.7 * 0.3 * lm / (2 * (1 - 0.3)), abs=1e-12)

    @staticmethod
    def oracle_terms(z, zp, s, kind):
        # the r+ and r- terms of a one-sided risk at pi+ = 0.7, pair by pair
        lead = 0.7**2 + 0.3**2 if kind == "similar_only" else 2 * 0.7 * 0.3
        plus, minus = [], []
        n = len(s)
        for i in range(n):
            div = s[i] if kind == "similar_only" else 1 - s[i]
            lp = loss_value("logistic", z[i], 1) + loss_value("logistic", zp[i], 1)
            lm = loss_value("logistic", z[i], -1) + loss_value("logistic", zp[i], -1)
            plus.append(lead * (s[i] - 0.3) * lp / (2 * n * 0.4 * div))
            minus.append(lead * (0.7 - s[i]) * lm / (2 * n * 0.4 * div))
        return plus, minus

    def test_duplicate_arithmetic_oracle(self):
        z, zp, s = random_batch(11, 5, lo=0.05, hi=0.95)
        for kind in ("similar_only", "dissimilar_only"):
            plus, minus = self.oracle_terms(z, zp, s, kind)
            assert pair_risk(z, zp, s, RiskSpec(kind, 0.7)) == pytest.approx(
                math.fsum(plus + minus), abs=1e-12)

    def test_division_guards_name_the_pair(self):
        spec_s = RiskSpec("similar_only", 0.7)
        with pytest.raises(ConfigError, match="pair 1"):
            pair_risk(np.zeros(3), np.zeros(3), np.array([0.5, 0.0, 0.9]), spec_s)
        spec_d = RiskSpec("dissimilar_only", 0.7)
        with pytest.raises(ConfigError, match="pair 2"):
            pair_risk(np.zeros(3), np.zeros(3), np.array([0.5, 0.1, 1.0]), spec_d)

    def test_gradient_weights_match_finite_differences(self):
        h = 1e-5
        for kind in ("similar_only", "dissimilar_only"):
            spec = RiskSpec(kind, 0.7)
            z, zp, s = random_batch(6, 77, lo=0.1, hi=0.9)
            wp, wm = risk_gradient_weights(s, None, spec)
            grad_z = wp * loss_derivative("logistic", z, 1) + wm * loss_derivative("logistic", z, -1)
            for i in range(6):
                z_hi, z_lo = z.copy(), z.copy()
                z_hi[i] += h
                z_lo[i] -= h
                fd = (pair_risk(z_hi, zp, s, spec) - pair_risk(z_lo, zp, s, spec)) / (2 * h)
                assert grad_z[i] == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_wrong_kind_rejected(self):
        for fn in (partial_risks, pair_risk):
            with pytest.raises(ConfigError, match="no pair weights"):
                fn(np.zeros(2), np.zeros(2), np.full(2, 0.5), RiskSpec("supervised", 0.7))

    def test_partials_total_the_pair_risk_and_match_the_oracle(self):
        z, zp, s = random_batch(11, 5, lo=0.05, hi=0.95)
        for kind in ("similar_only", "dissimilar_only"):
            spec = RiskSpec(kind, 0.7)
            pr = partial_risks(z, zp, s, spec)
            assert total_risk(pr, spec) == pair_risk(z, zp, s, spec)
            plus, minus = self.oracle_terms(z, zp, s, kind)
            assert pr.r_plus == pytest.approx(math.fsum(plus), abs=1e-12)
            assert pr.r_minus == pytest.approx(math.fsum(minus), abs=1e-12)


class TestSupervised:
    def test_all_correct_zero_one(self):
        z = np.array([1.0, -2.0, 0.5])
        y = np.array([1, -1, 1])
        assert supervised_risk(z, y, "zero_one") == 0.0

    def test_zero_scores_logistic(self):
        assert supervised_risk(np.zeros(9), np.ones(9, dtype=int)) == pytest.approx(math.log(2))

    def test_hand_sum(self):
        z = np.array([0.3, -1.1, 2.2, 0.0])
        y = np.array([1, 1, -1, -1])
        expected = math.fsum(loss_value("logistic", zi, yi) for zi, yi in zip(z, y)) / 4
        assert supervised_risk(z, y) == pytest.approx(expected, abs=1e-12)

    def test_empty(self):
        with pytest.raises(ConfigError):
            supervised_risk(np.array([]), np.array([]))


class TestCollapseOracle:
    def _skewed_pairs(self, n, pi_plus, side, seed):
        # pair geometry: projections spread over both classes, confidences
        # uniformly above pi+ (similar) or below pi- (dissimilar)
        rng = np.random.default_rng(seed)
        from sconf.datagen import SconfDataset
        x = rng.normal(0, 2, (n, 2))
        xp = rng.normal(0, 2, (n, 2))
        if side == "similar":
            s = rng.uniform(pi_plus + 1e-6, 1.0, n)
        else:
            s = rng.uniform(0.0, 1 - pi_plus - 1e-6, n)
        return SconfDataset(np.concatenate([x, xp]), s)

    def test_similar_only_collapses_all_positive(self):
        from sconf.experiments import threshold_collapse_oracle
        ds = self._skewed_pairs(50, 0.7, "similar", 3)
        spec = RiskSpec("similar_only", 0.7)
        _, frac = threshold_collapse_oracle(ds, spec, np.array([1.0, 0.4]))
        assert frac == 1.0

    def test_dissimilar_only_collapses_all_negative(self):
        from sconf.experiments import threshold_collapse_oracle
        ds = self._skewed_pairs(50, 0.7, "dissimilar", 4)
        spec = RiskSpec("dissimilar_only", 0.7)
        _, frac = threshold_collapse_oracle(ds, spec, np.array([1.0, 0.4]))
        assert frac == 0.0


class TestNoisyConfidenceBound:
    """The paper's noisy-confidence term, deterministic for a fixed scorer.

    The unbiased pair risk is linear in s, so noisy confidences s + ds move it
    by sum_i ds_i (l+_i - l-_i) / (2n (pi+ - pi-)). With sigma_n = sum |ds|:
    - logistic, where l(z, +1) - l(z, -1) = -z:
      |change| <= max|z + z'| sigma_n / (2n |pi+ - pi-|);
    - zero-one, where a pair's l+ - l- is at most 2 in size:
      |change| <= sigma_n / (n |pi+ - pi-|).
    Over all unordered pairs of n points, n(n - 1) replaces 2n, z + z' ranges
    over i != j, and sigma_n is the one all_pairs_point_weights returns.
    """

    # a fixed linear scorer on setup C and the noise level, chosen before any run
    W, B = np.array([0.6, -0.8]), 0.3
    STD = 0.3

    @staticmethod
    def bound(loss, reach, sigma_n, pairs_norm, setup):
        # pairs_norm is 2n for disjoint pairs and n(n - 1) for all pairs
        gap = abs(setup.pi_plus - setup.pi_minus)
        return (reach if loss == "logistic" else 2.0) * sigma_n / (pairs_norm * gap)

    @pytest.mark.parametrize("loss", LOSS_KINDS)
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_disjoint_pairs(self, loss, seed):
        setup = preset("C")
        exact = make_pairs(sample_labeled(setup, 500, 300, seed).X, setup, seed)
        noisy = add_confidence_noise(exact, self.STD, seed)
        z, zp = exact.x @ self.W + self.B, exact.x_prime @ self.W + self.B
        spec = RiskSpec("unbiased", setup.pi_plus, loss)
        change = pair_risk(z, zp, noisy.s, spec) - pair_risk(z, zp, exact.s, spec)
        n, shift = len(exact), noisy.s - exact.s
        sigma_n = float(np.abs(shift).sum())
        assert sigma_n > 0.0
        gaps = (loss_value(loss, z, 1) + loss_value(loss, zp, 1)
                - loss_value(loss, z, -1) - loss_value(loss, zp, -1))
        linear = np.sum(shift * gaps) / (2 * n * (setup.pi_plus - setup.pi_minus))
        assert change == pytest.approx(linear, rel=1e-9, abs=1e-13)
        assert abs(change) <= self.bound(loss, np.max(np.abs(z + zp)), sigma_n, 2 * n, setup)

    @pytest.mark.parametrize("loss", LOSS_KINDS)
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_all_pairs(self, loss, seed):
        setup = preset("C")
        X = sample_labeled(setup, 60, 40, seed).X
        z = X @ self.W + self.B
        (a0, b0, sigma_0), (a, b, sigma_n) = all_pairs_point_weights(
            X, setup, (0.0, self.STD), normals=make_rng(seed, 2))
        assert sigma_0 == 0.0 and sigma_n > 0.0
        lp, lm = loss_value(loss, z, 1), loss_value(loss, z, -1)
        change = np.sum(a * lp + b * lm) - np.sum(a0 * lp + b0 * lm)
        n, zs = len(X), np.sort(z)
        reach = max(abs(zs[-1] + zs[-2]), abs(zs[0] + zs[1]))  # max |z_i + z_j|, i != j
        assert abs(change) <= self.bound(loss, reach, sigma_n, n * (n - 1), setup)


class TestCorrectedConsistency:
    """Lu et al.'s consistency of the corrected estimators, by Monte Carlo.

    Draw by draw, the nn and abs totals are at least the unbiased total, and
    exceed it only when an empirical partial risk is negative. When both
    population partials are bounded away from 0, that happens with a
    probability, and so a mean excess, that decays exponentially in n:
    faster than any power law c n^-alpha, which stays positive however
    large n grows. Everything here was fixed before the first run: g, the
    population sample that checks its partials, the grid, the seeds of the
    400 draws per n, and the assertions.
    """

    # g(x) = 0.05 (2 - x_1) on setup B: a weak scorer whose partials stay large
    W, B = np.array([-0.05, 0.0]), 0.1
    GRID = (10, 30, 100, 300, 1000)  # pairs per draw
    DRAWS = 400
    POPULATION_SEED = 7_777_777  # no draw seed (1000 n + t) reaches it

    def test_population_partials_are_bounded_away_from_zero(self):
        setup = preset("B")
        n_plus = 625_000  # pi+ = 0.625 of 10^6 points
        pop = sample_labeled(setup, n_plus, 10**6 - n_plus, self.POPULATION_SEED)
        z = pop.X @ self.W + self.B
        r_plus = loss_value("logistic", z[:n_plus], 1).sum() / len(z)
        r_minus = loss_value("logistic", z[n_plus:], -1).sum() / len(z)
        assert min(r_plus, r_minus) >= 0.1

    def test_mean_excess_decays_faster_than_a_power_law(self):
        setup = preset("B")
        kinds = {kind: RiskSpec(kind, setup.pi_plus) for kind in ("unbiased", "nn", "abs")}
        excess = {"nn": [], "abs": []}
        for n in self.GRID:
            n_plus = round(2 * n * setup.pi_plus)
            sums = dict.fromkeys(excess, 0.0)
            for t in range(self.DRAWS):
                seed = 1000 * n + t
                ds = make_pairs(sample_labeled(setup, n_plus, 2 * n - n_plus, seed).X, setup,
                                seed)
                z = ds.rows @ self.W + self.B
                pr = partial_risks(z[:n], z[n:], ds.s, kinds["unbiased"])
                unbiased = total_risk(pr, kinds["unbiased"])
                for kind in excess:
                    gap = total_risk(pr, kinds[kind]) - unbiased
                    assert gap >= 0.0
                    assert (gap > 0.0) == (min(pr.r_plus, pr.r_minus) < 0.0)
                    sums[kind] += gap
            for kind in excess:
                excess[kind].append(sums[kind] / self.DRAWS)
        for kind, means in excess.items():
            assert means[0] > 0.0, kind
            assert means[-1] == 0.0, kind  # in every draw at the largest n
            for big, small in zip(means, means[1:]):  # shrinks while it lasts
                assert small < big or big == small == 0.0, (kind, means)
