import numpy as np
import pytest

from sconf import model
from sconf.datagen import (LabeledData, SconfDataset, add_confidence_noise,
                           make_pairs, preset, sample_labeled)
from sconf.errors import ConfigError, NonFiniteRiskError, SconfError
from sconf.model import Architecture
from sconf.risk import RiskSpec, pair_risk
from sconf.rng import make_rng
from sconf.trainer import TrainConfig, TrainReport, _pair_scores, evaluate, train


def small_pair_data(seed=1, n_points=160, setup_name="B"):
    setup = preset(setup_name)
    pts = sample_labeled(setup, (n_points * 5) // 8, (n_points * 3) // 8, seed).X
    return setup, make_pairs(pts, setup, seed)


def small_test(setup, seed=99, n=400):
    return sample_labeled(setup, (n * 5) // 8, (n * 3) // 8, seed)


def linear_cfg(spec, **kw):
    defaults = dict(arch=Architecture.linear(2), epochs=5, seed=3, lr0=0.1)
    defaults.update(kw)
    return TrainConfig(risk=spec, **defaults)


class TestEvaluate:
    def test_perfect_predictor(self):
        test = LabeledData([[1.0, 0.0], [-1.0, 0.0]], [1, -1])
        p = model.init(Architecture.linear(2))
        p.params[:] = [1.0, 0.0, 0.0]
        acc, r01 = evaluate(p, test)
        assert acc == 1.0 and r01 == 0.0

    def test_zero_predictor_predicts_positive(self):
        setup = preset("A")
        test = small_test(setup, seed=5, n=800)
        p = model.init(Architecture.linear(2))
        acc, _ = evaluate(p, test)
        assert acc == pytest.approx(float(np.mean(test.y == 1)))

    def test_random_predictor_binomial_band(self):
        # balanced labels, random fixed direction: accuracy within 3 sigma of 1/2
        rng = np.random.default_rng(8)
        n = 4000
        X = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        p = model.init(Architecture.linear(2))
        p.params[:] = [0.7, -1.3, 0.05]
        acc, _ = evaluate(p, LabeledData(X, y))
        assert abs(acc - 0.5) <= 3 * (0.25 / n) ** 0.5

    def test_empty(self):
        p = model.init(Architecture.linear(2))
        with pytest.raises(ConfigError):
            evaluate(p, LabeledData(np.zeros((0, 2)), np.zeros(0, dtype=int)))


class TestTrainBasics:
    def test_zero_lr_keeps_init(self):
        setup, ds = small_pair_data()
        test = small_test(setup)
        cfg = linear_cfg(RiskSpec("unbiased", 0.625), epochs=1, lr0=0.0)
        p, report = train(ds, None, test, cfg)
        assert np.array_equal(p.params, model.init(cfg.arch, cfg.seed).params)
        assert len(report.rows) == 1

    def test_deterministic(self):
        setup, ds = small_pair_data()
        test = small_test(setup)
        cfg = linear_cfg(RiskSpec("unbiased", 0.625), epochs=6, batch_pairs=16)
        _, r1 = train(ds, None, test, cfg)
        _, r2 = train(ds, None, test, cfg)
        assert r1.rows == r2.rows
        assert r1.best_epoch == r2.best_epoch

    def test_partial_final_batch_kept(self):
        setup, ds = small_pair_data(n_points=40)  # 20 pairs
        test = small_test(setup)
        cfg = linear_cfg(RiskSpec("unbiased", 0.625), epochs=2, batch_pairs=8)
        _, report = train(ds, None, test, cfg)  # batches of 8, 8, 4
        assert len(report.rows) == 2

    def test_model_selection_minimizes_val_risk(self):
        setup, ds = small_pair_data(seed=7)
        val_pts = sample_labeled(setup, 50, 30, 731).X
        val_ds = make_pairs(val_pts, setup, 731)
        test = small_test(setup)
        spec = RiskSpec("unbiased", 0.625)
        cfg = linear_cfg(spec, epochs=12)
        p, report = train(ds, val_ds, test, cfg)
        vals = report.val_risks()
        assert report.row_at(report.best_epoch)[2] == pytest.approx(min(vals))
        # the returned parameters really are the best-epoch snapshot
        z, zp = (model.forward(p, val_ds.x), model.forward(p, val_ds.x_prime))
        assert pair_risk(z, zp, val_ds.s, spec) == pytest.approx(min(vals), abs=1e-12)

    def test_eval_every_thins_rows_keeps_final(self):
        setup, ds = small_pair_data()
        test = small_test(setup)
        cfg = linear_cfg(RiskSpec("unbiased", 0.625), epochs=7, eval_every=3)
        _, report = train(ds, None, test, cfg)
        assert [r[0] for r in report.rows] == [2, 5, 6]

    def test_sigma_n_reporting(self):
        setup, ds = small_pair_data()
        noisy = add_confidence_noise(ds, 0.2, seed=5)
        test = small_test(setup)
        cfg = linear_cfg(RiskSpec("unbiased", 0.625), epochs=1)
        _, report = train(noisy, None, test, cfg)
        assert report.sigma_n == pytest.approx(float(np.abs(noisy.s - ds.s).sum()))
        _, clean_report = train(ds, None, test, cfg)
        assert clean_report.sigma_n == 0.0

    def test_lr_schedule_recorded(self):
        setup, ds = small_pair_data()
        test = small_test(setup)
        cfg = linear_cfg(RiskSpec("unbiased", 0.625), epochs=4, drop_every=2,
                         drop_factor=10.0)
        _, report = train(ds, None, test, cfg)
        assert [r[5] for r in report.rows] == pytest.approx([0.1, 0.1, 0.01, 0.01])

    def test_wrong_dataset_type(self):
        setup, ds = small_pair_data()
        test = small_test(setup)
        with pytest.raises(ConfigError):
            train(test, None, test, linear_cfg(RiskSpec("unbiased", 0.625)))
        with pytest.raises(ConfigError):
            train(ds, None, test, linear_cfg(RiskSpec("supervised", 0.625)))


    @pytest.mark.parametrize("kind", ("unbiased", "nn", "supervised"))
    def test_divergence_raises_naming_the_epoch(self, kind):
        # lr0 = 1e308 sends the parameters to +-inf after the first step
        setup, ds = small_pair_data()
        test = small_test(setup)
        train_ds = test if kind == "supervised" else ds
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteRiskError, match=r"^epoch \d+: train risk is (nan|inf)") as info:
            train(train_ds, None, test, linear_cfg(RiskSpec(kind, 0.625), lr0=1e308))
        assert isinstance(info.value, SconfError)
        assert info.value.role == "train" and info.value.epoch >= 0


class TestEstimatorKinds:
    @pytest.mark.parametrize("kind,k", [("nn", None), ("abs", None), ("corrected", 2.0)])
    def test_corrected_kinds_train(self, kind, k):
        setup, ds = small_pair_data()
        test = small_test(setup)
        cfg = linear_cfg(RiskSpec(kind, 0.625, k=k), epochs=3)
        _, report = train(ds, None, test, cfg)
        assert all(r[1] >= 0.0 for r in report.rows)

    def test_supervised_trains_to_sane_accuracy(self):
        setup = preset("B")
        data = sample_labeled(setup, 500, 300, 4)
        test = small_test(setup)
        cfg = linear_cfg(RiskSpec("supervised", 0.625), epochs=40, drop_every=15)
        _, report = train(data, None, test, cfg)
        assert report.rows[-1][3] > 0.85

    def test_one_sided_trains(self):
        setup, ds = small_pair_data()
        keep = ds.s >= 0.625
        sim = SconfDataset(ds.x[keep], ds.x_prime[keep], ds.s[keep])
        test = small_test(setup)
        cfg = linear_cfg(RiskSpec("similar_only", 0.625), epochs=3)
        _, report = train(sim, None, test, cfg)
        assert len(report.rows) == 3


class TestConvexCaseConvergence:
    def test_interior_confidences_converge(self):
        # with every s in [pi-, pi+] all pair coefficients are nonnegative, so
        # the unbiased objective is convex in the linear parameters
        setup, ds = small_pair_data(seed=11, n_points=400)
        s = np.clip(ds.s, 0.375 + 1e-9, 0.625 - 1e-9)
        clipped = SconfDataset(ds.x, ds.x_prime, s)
        test = small_test(setup)
        spec = RiskSpec("unbiased", 0.625)
        short = linear_cfg(spec, epochs=100, drop_every=30)
        long = linear_cfg(spec, epochs=1000, drop_every=300)
        _, rep_short = train(clipped, None, test, short)
        _, rep_long = train(clipped, None, test, long)
        assert abs(rep_short.rows[-1][1] - rep_long.rows[-1][1]) < 1e-3


class TestReportCsv:
    def test_round_trip_exact(self, tmp_path):
        setup, ds = small_pair_data()
        test = small_test(setup)
        cfg = linear_cfg(RiskSpec("unbiased", 0.625), epochs=3)
        _, report = train(ds, None, test, cfg)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_risk,val_risk,test_acc,test_01_risk,lr"
        parsed = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
        for row, got in zip(report.rows, parsed):
            assert got[0] == row[0]
            for a, b in zip(row[1:], got[1:]):
                assert float(repr(float(a))) == b


@pytest.mark.parametrize("arch", (Architecture.linear(2), Architecture.mlp(2, 8, 6)))
def test_pair_scores_equal_stacked_members(arch):
    _, ds = small_pair_data(n_points=80)
    p = model.init(arch, seed=4)
    idx = make_rng(5).permutation(len(ds))[:17]
    z, zp = _pair_scores(p, ds, idx)
    stacked = model.forward(p, np.vstack([ds.x[idx], ds.x_prime[idx]]))
    assert np.array_equal(np.concatenate([z, zp]), stacked)
    z, zp = _pair_scores(p, ds)
    assert np.array_equal(np.concatenate([z, zp]), model.forward(p, np.vstack([ds.x, ds.x_prime])))
