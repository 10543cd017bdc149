"""Invariants across code paths that share one objective or one loop.

The table protocol's per-point weights must reproduce the unbiased pair risk
over every materialized pair, with exact or noisy confidences, the weighted-point trainer must reproduce
the confidence model's supervised fit when the weights are one-hot labels,
the score gradient the trainer backpropagates must be the gradient of
the dataset risk it reports, for every risk kind, a trial stack must fit
each of its trials as the one-trial fit does, in pair or in point form, and
every risk kind must equal its weighted-row form: f(sum a l(u, +1)) +
f(sum b l(u, -1)) over the scored rows u, with one_hot(y) weights and the
identity f for the supervised kind.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sconf import experiments, model, trainer
from sconf.dataset_io import posterior_model_confidences
from sconf.datagen import LabeledData, SconfDataset, posterior_plus, preset, sample_labeled
from sconf.errors import ConfigError
from sconf.experiments import all_pairs_point_weights, pair_normals, train_weighted_points
from sconf.losses import LOSS_KINDS, loss_value
from sconf.datagen import make_pairs
from sconf.risk import (PAIR_KINDS, RISK_KINDS, RiskSpec, correction, pair_risk, pair_weights,
                        partial_risks, supervised_risk)
from sconf.rng import make_rng


def all_pairs_dataset(X, setup, noise_std=0.0, seed=0):
    """Materialized SconfDataset of every unordered pair (i < j) of X.

    With noise_std > 0 the confidences get the draws of all_pairs_point_weights:
    one normal draw per pair in triu_indices order from the stream (seed, 2),
    clipped to [0, 1].
    """
    i, j = np.triu_indices(X.shape[0], 1)
    r = posterior_plus(X, setup)
    s = r[i] * r[j] + (1.0 - r[i]) * (1.0 - r[j])
    if noise_std > 0:
        s = np.clip(s + make_rng(seed, 2).normal(0.0, noise_std, size=len(s)), 0.0, 1.0)
    return SconfDataset(X[i], X[j], s)


@pytest.mark.parametrize("noise_std", (0.0, 0.2))
def test_point_weights_equal_materialized_pair_risk(noise_std):
    setup, seed = preset("B"), 7
    X = sample_labeled(setup, 25, 15, seed).X
    z = X @ np.array([-0.8, 0.3]) + 0.5
    (a, b, _), = all_pairs_point_weights(X, setup, (noise_std,),
                                         normals=pair_normals(seed, len(X)))
    point_form = np.sum(a * loss_value("logistic", z, 1) + b * loss_value("logistic", z, -1))

    ds = all_pairs_dataset(X, setup, noise_std=noise_std, seed=seed)
    i, j = np.triu_indices(len(X), 1)
    assert len(ds) == 40 * 39 // 2
    pair_form = pair_risk(z[i], z[j], ds.s, RiskSpec("unbiased", setup.pi_plus))
    assert abs(point_form - pair_form) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 60), noise_std=st.floats(0.0, 0.5, exclude_min=True),
       seed=st.integers(0, 2**32 - 1), setup_name=st.sampled_from("ABCD"))
def test_noisy_point_weights_equal_materialized_pair_risk(n, noise_std, seed, setup_name):
    setup = preset(setup_name)
    rng = np.random.default_rng(seed)
    n_plus = int(rng.integers(0, n + 1))
    X = sample_labeled(setup, n_plus, n - n_plus, seed).X
    z = X @ rng.normal(size=2) + rng.normal()
    (a, b, sigma_n), = all_pairs_point_weights(X, setup, (noise_std,),
                                               normals=pair_normals(seed, n))
    point_form = np.sum(a * loss_value("logistic", z, 1) + b * loss_value("logistic", z, -1))

    noisy = all_pairs_dataset(X, setup, noise_std=noise_std, seed=seed)
    i, j = np.triu_indices(n, 1)
    pair_form = pair_risk(z[i], z[j], noisy.s, RiskSpec("unbiased", setup.pi_plus))
    assert abs(point_form - pair_form) <= 1e-12
    exact = all_pairs_dataset(X, setup)
    assert sigma_n == pytest.approx(np.abs(noisy.s - exact.s).sum(), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("seed", (1, 5))
def test_noise_level_scales_one_standard_normal_draw(seed):
    # the numpy property the table relies on to draw each seed's pair noise
    # once for all its levels: normal(0, std) is std times the stream's
    # standard normals, element for element
    n_pairs = 800 * 799 // 2
    z = make_rng(seed, 2).standard_normal(n_pairs)
    for std in (0.1, 0.2, 0.3):
        assert np.array_equal(make_rng(seed, 2).normal(0.0, std, n_pairs), std * z)


def test_shared_pair_normals_give_the_same_weights(monkeypatch):
    setup, seed = preset("C"), 4
    X = sample_labeled(setup, 30, 20, seed).X
    normals = pair_normals(seed, len(X))
    for std in (0.1, 0.2, 0.3):
        # one buffer serves every level: a call leaves the normals as drawn
        fresh, = all_pairs_point_weights(X, setup, (std,), normals=pair_normals(seed, len(X)))
        shared, = all_pairs_point_weights(X, setup, (std,), normals=normals)
        assert all(np.array_equal(x, y) for x, y in zip(fresh, shared))
    # one call for several levels gives each level's lone weights, byte for
    # byte, and leaves the normals as drawn
    levels = (0.0, 0.1, 0.2, 0.3, 0.2)
    for name in "ABCD":
        X_s = sample_labeled(preset(name), 30, 20, seed).X
        buffer = pair_normals(seed, len(X_s))
        together = all_pairs_point_weights(X_s, preset(name), levels, normals=buffer)
        assert np.array_equal(buffer, pair_normals(seed, len(X_s)))
        assert len(together) == len(levels)
        for std, got in zip(levels, together):
            alone, = all_pairs_point_weights(X_s, preset(name), (std,), normals=buffer)
            assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in alone]
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="noise std"):
            all_pairs_point_weights(X, setup, (bad,), normals=normals)
    for missing in (None, normals[:-1]):
        with pytest.raises(ConfigError, match="pair normals"):
            all_pairs_point_weights(X, setup, (0.1,), normals=missing)
    # an empty level list, or one bad level among good ones, fails before
    # any work: the posterior is never computed
    posteriors = []
    monkeypatch.setattr(experiments, "posterior_plus",
                        lambda *args: posteriors.append(args) or posterior_plus(*args))
    with pytest.raises(ConfigError, match="at least one noise level"):
        all_pairs_point_weights(X, setup, (), normals=normals)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="noise std"):
            all_pairs_point_weights(X, setup, (0.0, 0.1, bad, 0.3), normals=normals)
    assert posteriors == []
    all_pairs_point_weights(X, setup, (0.0, 0.1), normals=normals)
    assert len(posteriors) == 1


# (method, noise std, seed) -> (acc_final, sigma_n) of table_runs("A", ...)
# below, as weighting each noise level in its own call gave them
TABLE_A_PIN = {
    ("sconf", 0.0, 1): (0.881875, 0.0),
    ("sconf", 0.0, 2): (0.900625, 0.0),
    ("sconf", 0.1, 1): (0.890625, 20200.18280520342),
    ("sconf", 0.1, 2): (0.901875, 20633.064356507606),
    ("sconf", 0.2, 1): (0.89375, 37750.35706758824),
    ("sconf", 0.2, 2): (0.90125, 38624.67919392993),
    ("sconf", 0.3, 1): (0.89375, 53340.4911850453),
    ("sconf", 0.3, 2): (0.9025, 54549.632169902994),
    ("supervised", 0.0, 1): (0.890625, 0.0),
    ("supervised", 0.0, 2): (0.900625, 0.0),
}


def test_table_runs_pin_and_one_normals_draw_per_seed(monkeypatch):
    draws = []

    def counting_pair_normals(seed, n, out=None):
        draws.append(seed)
        return pair_normals(seed, n, out=out)

    monkeypatch.setattr(experiments, "pair_normals", counting_pair_normals)
    runs = experiments.table_runs("A", [(seed, "sconf", std) for std in (0.0, 0.1, 0.2, 0.3)
                                        for seed in (1, 2)]
                                  + [(seed, "supervised", 0.0) for seed in (1, 2)])
    assert {(r.method, r.noise_std, r.seed): (r.acc_final, r.sigma_n) for r in runs} == TABLE_A_PIN
    assert len(runs) == len(TABLE_A_PIN)
    assert sorted(draws) == [1, 2]


@pytest.mark.parametrize("arch", (model.Architecture.linear(2), model.Architecture.mlp(2, 8, 6)))
def test_weighted_points_reproduce_confidence_model(arch):
    # 100 points in batches of 32: the final partial batch of 4 is exercised
    labeled = sample_labeled(preset("B"), 62, 38, 5)
    seed, epochs, batch, lr0 = 3, 4, 32, 0.05
    _, posteriors = posterior_model_confidences(labeled, arch, seed, epochs=epochs,
                                                batch=batch, lr0=lr0)

    n = len(labeled)
    a, b = (labeled.y == 1) / n, (labeled.y == -1) / n
    p = train_weighted_points(labeled.X, a, b, arch, epochs, lr0, seed=seed, batch=batch)
    weighted = 1.0 / (1.0 + np.exp(-model.forward(p, labeled.X)))
    assert np.max(np.abs(weighted - posteriors)) <= 1e-12


def _dataset_risk_of(p, ds, spec):
    if spec.kind == "supervised":
        return supervised_risk(model.forward(p, ds.X), ds.y, spec.loss)
    return pair_risk(model.forward(p, ds.x), model.forward(p, ds.x_prime), ds.s, spec)


@pytest.mark.parametrize("kind", RISK_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       pi_plus=st.floats(0.1, 0.9).filter(lambda v: abs(v - 0.5) > 0.05),
       n=st.integers(2, 12), s_mid=st.floats(0.05, 0.95))
def test_trainer_gradient_matches_finite_differences(kind, seed, pi_plus, n, s_mid):
    rng = np.random.default_rng(seed)
    d = 3
    spec = RiskSpec(kind, pi_plus, k=0.5 if kind == "corrected" else None)
    if kind == "supervised":
        ds = LabeledData(rng.normal(size=(n, d)), rng.choice([-1, 1], size=n))
    else:
        # confidences bunched around s_mid: below pi- (above pi+) the
        # partial risk r+ (r-) tends to go negative
        ds = SconfDataset(rng.normal(size=(n, d)), rng.normal(size=(n, d)),
                          np.clip(rng.normal(s_mid, 0.15, size=n), 0.02, 0.98))
    p = model.init(model.Architecture.linear(d))
    p.params[:] = rng.normal(0.0, 0.7, d + 1)
    if kind in ("nn", "abs", "corrected"):
        # stay away from the kink of f at 0
        pr = partial_risks(model.forward(p, ds.x), model.forward(p, ds.x_prime), ds.s, spec)
        assume(min(abs(pr.r_plus), abs(pr.r_minus)) > 1e-3)

    # the trainer's own full-batch step: score gradient, then backward; both
    # as a batch of every index and as the loop's shuffle-free ALL_ROWS
    score_grad = trainer._risk_grad(p, ds, spec)
    analytic = []
    for idx in (np.arange(n), trainer.ALL_ROWS):
        p.grads[...] = 0.0  # backward accumulates
        model.backward(p, score_grad(idx))
        analytic.append(p.grads.copy())

    h = 1e-6
    for j in range(d + 1):
        orig = p.params[j]
        p.params[j] = orig + h
        hi = _dataset_risk_of(p, ds, spec)
        p.params[j] = orig - h
        lo = _dataset_risk_of(p, ds, spec)
        p.params[j] = orig
        for grads in analytic:
            assert grads[j] == pytest.approx((hi - lo) / (2 * h), rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("kind", PAIR_KINDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       pi_plus=st.floats(0.05, 0.95).filter(lambda v: abs(v - 0.5) > 0.05),
       n=st.integers(1, 50), loss=st.sampled_from(LOSS_KINDS))
def test_pair_risk_equals_weighted_row_risk(kind, seed, pi_plus, n, loss):
    # the pair set as its 2n scored rows u = (z, z'), each pair's weights on
    # both of its rows: r+ = sum a' l(u, +1), r- = sum b' l(u, -1), then f
    rng = np.random.default_rng(seed)
    spec = RiskSpec(kind, pi_plus, loss=loss, k=0.5 if kind == "corrected" else None)
    z, zp = rng.normal(0.0, 3.0, size=(2, n))
    s = rng.uniform(0.01, 0.99, size=n)
    u = np.concatenate([z, zp])
    a, b = (np.tile(w, 2) for w in pair_weights(s, spec))
    rows = (correction(np.sum(a * loss_value(loss, u, 1)), spec)[0]
            + correction(np.sum(b * loss_value(loss, u, -1)), spec)[0])
    assert abs(pair_risk(z, zp, s, spec) - rows) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50), loss=st.sampled_from(LOSS_KINDS))
def test_supervised_risk_equals_one_hot_row_risk(seed, n, loss):
    rng = np.random.default_rng(seed)
    z, y = rng.normal(0.0, 3.0, size=n), rng.choice([-1, 1], size=n)
    a, b = trainer.one_hot(y)
    rows = np.sum(a * loss_value(loss, z, 1)) + np.sum(b * loss_value(loss, z, -1))
    assert abs(supervised_risk(z, y, loss) - rows) <= 1e-12


# einsum and BLAS sum the same products in different orders; the drift after
# a few dozen Adam steps stays within this, relative to the largest parameter
STACK_TOL = 1e-13


def _assert_params_close(got, want):
    assert np.max(np.abs(got - want)) <= STACK_TOL * max(1.0, np.max(np.abs(want)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(trials=st.integers(1, 6), n=st.integers(2, 40), d=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), epochs=st.integers(1, 25))
def test_every_stacked_trial_matches_its_single_fit(trials, n, d, seed, epochs):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(trials, n, d))
    a = rng.uniform(-0.5, 1.0, size=(trials, n)) / n
    b = rng.uniform(-0.5, 1.0, size=(trials, n)) / n
    arch = model.Architecture.linear(d)
    stack = train_weighted_points(X, a, b, arch, epochs, 0.1, drop_every=7)
    test_X = rng.normal(size=(50, d))
    for t in range(trials):
        single = train_weighted_points(X[t], a[t], b[t], arch, epochs, 0.1, drop_every=7)
        _assert_params_close(stack.params[t], single.params)
        assert np.array_equal(model.forward(stack.trial(t), test_X) >= 0,
                              model.forward(single, test_X) >= 0)


@pytest.mark.parametrize("n_pairs", (7, 60))
def test_pair_risk_training_matches_point_form_stack(n_pairs):
    # trainer.train on the unbiased pair risk and the point-form stack of the
    # same pair sets (ds.rows, pair weights on both halves) take the same
    # steps: f is the identity, so the gradients are one expression
    setup, epochs = preset("B"), 12
    spec = RiskSpec("unbiased", setup.pi_plus)
    arch = model.Architecture.linear(2)
    test = sample_labeled(setup, 250, 150, 99)
    sets = [make_pairs(sample_labeled(setup, n_pairs + 3, n_pairs - 3, seed).X, setup, seed)
            for seed in (1, 2, 3)]
    weights = [pair_weights(ds.s, spec) for ds in sets]
    stack = train_weighted_points(np.stack([ds.rows for ds in sets]),
                                  np.stack([np.tile(a, 2) for a, _ in weights]),
                                  np.stack([np.tile(b, 2) for _, b in weights]),
                                  arch, epochs, 0.1, drop_every=5)
    for t, ds in enumerate(sets):
        cfg = trainer.TrainConfig(spec, arch, epochs=epochs, seed=t, drop_every=5)
        chosen, report = trainer.train(ds, None, test, cfg)
        # the final epoch's test 0-1 risk is what the sample-size sweep reads
        assert report.rows[-1][4] == trainer.evaluate(stack.trial(t), test)[1]
        # the parameters trainer.train keeps are those after best_epoch + 1 steps
        upto = train_weighted_points(ds.rows[None], np.tile(weights[t][0], 2)[None],
                                     np.tile(weights[t][1], 2)[None], arch,
                                     report.best_epoch + 1, 0.1, drop_every=5)
        _assert_params_close(upto.params[0], chosen.params)
