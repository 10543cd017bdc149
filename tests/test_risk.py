import math

import numpy as np
import pytest

from sconf.errors import BalancedPriorError, ConfigError
from sconf.losses import loss_derivative, loss_value
from sconf.risk import (PartialRisks, RiskSpec, pair_risk, partial_risks,
                        risk_gradient_weights, supervised_risk, total_risk)


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
        return SconfDataset(x, xp, s)

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
