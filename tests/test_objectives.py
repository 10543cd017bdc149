"""Invariants across code paths that share one objective or one loop.

The table protocol's per-point weights must reproduce the unbiased pair risk
over every materialized pair, the weighted-point trainer must reproduce
the confidence model's supervised fit when the weights are one-hot labels,
and the score gradient the trainer backpropagates must be the gradient of
the dataset risk it reports, for every risk kind.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sconf import model, trainer
from sconf.dataset_io import posterior_model_confidences
from sconf.datagen import LabeledData, SconfDataset, posterior_plus, preset, sample_labeled
from sconf.experiments import all_pairs_point_weights, train_weighted_points
from sconf.losses import loss_value
from sconf.risk import RISK_KINDS, RiskSpec, pair_risk, partial_risks, supervised_risk
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
    a, b, _ = all_pairs_point_weights(X, setup, noise_std=noise_std, seed=seed)
    point_form = np.sum(a * loss_value("logistic", z, 1) + b * loss_value("logistic", z, -1))

    ds = all_pairs_dataset(X, setup, noise_std=noise_std, seed=seed)
    i, j = np.triu_indices(len(X), 1)
    assert len(ds) == 40 * 39 // 2
    pair_form = pair_risk(z[i], z[j], ds.s, RiskSpec("unbiased", setup.pi_plus))
    assert abs(point_form - pair_form) <= 1e-12


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

    # the trainer's own full-batch step: score gradient, then backward
    model.backward(p, trainer._risk_grad(p, ds, spec)(np.arange(n)))
    analytic = p.grads.copy()

    h = 1e-6
    for j in range(d + 1):
        orig = p.params[j]
        p.params[j] = orig + h
        hi = _dataset_risk_of(p, ds, spec)
        p.params[j] = orig - h
        lo = _dataset_risk_of(p, ds, spec)
        p.params[j] = orig
        assert analytic[j] == pytest.approx((hi - lo) / (2 * h), rel=1e-6, abs=1e-8)
