import numpy as np
import pytest

from sconf import model, optim, trainer
from sconf.datagen import (LabeledData, SconfDataset, add_confidence_noise,
                           make_pairs, preset, sample_labeled)
from sconf.errors import ConfigError, NonFiniteRiskError, SconfError
from sconf.experiments import all_pairs_point_weights, pair_normals
from sconf.model import Architecture
from sconf.risk import RiskSpec, pair_risk
from sconf.rng import make_rng
from sconf.trainer import (TrainConfig, TrainReport, _pair_scores, evaluate, point_grad, train,
                           train_weighted_points)


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
    @pytest.mark.parametrize("kind,k,per_step", [
        ("unbiased", None, 0), ("similar_only", None, 0), ("dissimilar_only", None, 0),
        ("nn", None, 1), ("abs", None, 1), ("corrected", 0.5, 1),
    ])
    def test_partial_risks_only_where_the_correction_needs_them(self, monkeypatch, kind, k,
                                                                per_step):
        # an identity kind's gradient weights are (a, b): its steps compute no
        # partial risks; a corrected kind computes them once per step
        calls = {"partial_risks": 0, "step": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(trainer, "partial_risks", counting("partial_risks",
                                                               trainer.partial_risks))
        monkeypatch.setattr(optim, "step", counting("step", optim.step))
        setup, ds = small_pair_data()
        train(ds, None, small_test(setup), linear_cfg(RiskSpec(kind, 0.625, k=k), epochs=3,
                                                      batch_pairs=32))
        assert calls["step"] == 3 * 3  # 80 pairs in batches of 32, 32, 16
        assert calls["partial_risks"] == per_step * calls["step"]

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
        vals = [row[2] for row in report.rows]
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

    def test_test_set_scored_only_on_recorded_epochs(self, monkeypatch):
        setup, ds = small_pair_data()
        test = small_test(setup)
        spec = RiskSpec("unbiased", 0.625)
        _, every = train(ds, None, test, linear_cfg(spec, epochs=7, drop_every=3))
        calls = []

        def counting_evaluate(p, data):
            calls.append(data)
            return evaluate(p, data)

        monkeypatch.setattr(trainer, "evaluate", counting_evaluate)
        _, thinned = train(ds, None, test, linear_cfg(spec, epochs=7, drop_every=3,
                                                      eval_every=3))
        assert len(calls) == len(thinned.rows) == 3
        assert all(data is test for data in calls)
        assert thinned.rows == [every.rows[epoch] for epoch in (2, 5, 6)]
        assert thinned.best_epoch == every.best_epoch

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

    z, zp = _pair_scores(p, ds, trainer.ALL_ROWS)
    assert np.array_equal(np.concatenate([z, zp]), model.forward(p, ds.rows))


class TestFullBatchOrder:
    """A full batch is scored in stored order; the loop it replaced shuffled
    every epoch with make_rng(seed, 4, epoch), which changes only rounding."""

    SEED, EPOCHS, DROP = 3, 30, 10

    def _shuffled_full_batch(self, p, state, n, score_grad, after_epoch=lambda: None):
        for epoch in range(self.EPOCHS):
            model.backward(p, score_grad(make_rng(self.SEED, 4, epoch).permutation(n)))
            optim.step(state, p, epoch)
            after_epoch()

    @staticmethod
    def _assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_weighted_points(self):
        setup = preset("B")
        X = sample_labeled(setup, 50, 30, 1).X
        (a, b, _), = all_pairs_point_weights(X, setup, (0.2,), normals=pair_normals(1, len(X)))
        got = train_weighted_points(X, a, b, Architecture.linear(2), self.EPOCHS, 0.1,
                                    seed=self.SEED, drop_every=self.DROP)

        p = model.init(Architecture.linear(2), self.SEED)
        state = optim.AdamState.for_predictor(p, 0.1, drop_every=self.DROP)
        self._shuffled_full_batch(p, state, len(X), point_grad(p, X, a, b))
        assert not np.array_equal(got.params, model.init(Architecture.linear(2), self.SEED).params)
        self._assert_close(got.params, p.params)

    def test_pair_risk_training(self):
        setup, ds = small_pair_data()
        spec = RiskSpec("unbiased", setup.pi_plus)
        cfg = linear_cfg(spec, epochs=self.EPOCHS, seed=self.SEED, drop_every=self.DROP)
        chosen, report = train(ds, None, small_test(setup), cfg)

        p = model.init(cfg.arch, self.SEED)
        state = optim.AdamState.for_predictor(p, cfg.lr0, drop_every=self.DROP)
        risks, snapshots = [], []

        def record():
            risks.append(trainer._dataset_risk(p, ds, spec))
            snapshots.append(p.params.copy())

        self._shuffled_full_batch(p, state, len(ds), trainer._risk_grad(p, ds, spec), record)
        self._assert_close(np.array([row[1] for row in report.rows]), np.array(risks))
        self._assert_close(chosen.params, snapshots[report.best_epoch])

    @pytest.mark.parametrize("batch,draws", [(None, False), (80, False), (79, True)])
    def test_only_minibatches_draw_a_shuffle(self, monkeypatch, batch, draws):
        setup = preset("B")
        X = sample_labeled(setup, 50, 30, 1).X
        (a, b, _), = all_pairs_point_weights(X, setup)
        keys = []

        def recording_rng(*key):
            keys.append(key)
            return make_rng(*key)

        monkeypatch.setattr(trainer, "make_rng", recording_rng)
        train_weighted_points(X, a, b, Architecture.linear(2), 3, 0.1, seed=self.SEED, batch=batch)
        assert keys == ([(self.SEED, 4, epoch) for epoch in range(3)] if draws else [])


class TestTrialStack:
    """T same-shape trials fit as one stack (X of shape (T, n, d))."""

    @staticmethod
    def _stack(trials=3, n=80):
        setup = preset("B")
        X, a, b = [], [], []
        for seed in range(1, trials + 1):
            pts = sample_labeled(setup, n * 5 // 8, n - n * 5 // 8, seed).X
            (a_t, b_t, _), = all_pairs_point_weights(pts, setup, (0.1,),
                                                     normals=pair_normals(seed, len(pts)))
            X.append(pts)
            a.append(a_t)
            b.append(b_t)
        return np.stack(X), np.stack(a), np.stack(b)

    def test_params_are_a_trial_block(self):
        X, a, b = self._stack()
        p = train_weighted_points(X, a, b, Architecture.linear(2), 3, 0.1)
        assert p.params.shape == (3, 3)
        assert np.array_equal(p.trial(1).params, p.params[1])

    def test_minibatch_stack_is_config_error(self):
        X, a, b = self._stack(n=80)
        with pytest.raises(ConfigError, match="full batch"):
            train_weighted_points(X, a, b, Architecture.linear(2), 2, 0.1, batch=40)
        # a batch that covers every row is a full batch
        train_weighted_points(X, a, b, Architecture.linear(2), 2, 0.1, batch=80)

    @pytest.mark.parametrize("epochs,batch,match", [(0, None, "at least one epoch"),
                                                     (-1, 40, "at least one epoch"),
                                                     (2, 0, "batch size must be positive"),
                                                     (2, -3, "batch size must be positive")])
    def test_bad_epochs_or_batch_fail_before_init(self, monkeypatch, epochs, batch, match):
        X, a, b = self._stack(trials=1)
        inits = []
        monkeypatch.setattr(model, "init", lambda *args: inits.append(args))
        for stack in ((X, a, b), (X[0], a[0], b[0])):
            with pytest.raises(ConfigError, match=match):
                train_weighted_points(*stack, Architecture.linear(2), epochs, 0.1, batch=batch)
        assert inits == []

    def test_mlp_does_not_stack(self):
        X, a, b = self._stack()
        with pytest.raises(ConfigError, match="only the linear model stacks"):
            train_weighted_points(X, a, b, Architecture.mlp(2, 4, 4), 2, 0.1)

    def test_diverged_trial_is_named(self):
        # lr0 = 1e308 sends a trial's parameters to +-inf in one step; trials 0
        # and 2 have zero weights, a zero gradient, and stay at their init
        X, a, b = self._stack()
        a[[0, 2]] = 0.0
        b[[0, 2]] = 0.0
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteRiskError, match=r"^epoch \d+: trial 1 train parameter is (nan|inf)") as info:
            train_weighted_points(X, a, b, Architecture.linear(2), 5, 1e308)
        assert isinstance(info.value, SconfError)
        assert info.value.trial == 1 and info.value.epoch >= 0 and info.value.role == "train"

    def test_diverged_single_fit_names_trial_zero(self):
        X, a, b = self._stack(trials=1)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteRiskError) as info:
            train_weighted_points(X[0], a[0], b[0], Architecture.linear(2), 5, 1e308)
        assert info.value.trial == 0
