"""Invariants across code paths that share one objective or one loop.

The table protocol's per-point weights must reproduce the unbiased pair risk
over every materialized pair, and the weighted-point trainer must reproduce
the confidence model's supervised fit when the weights are one-hot labels.
"""

import numpy as np
import pytest

from sconf import model
from sconf.dataset_io import posterior_model_confidences
from sconf.datagen import SconfDataset, posterior_plus, preset, sample_labeled
from sconf.experiments import all_pairs_point_weights, train_weighted_points
from sconf.losses import loss_value
from sconf.risk import RiskSpec, pair_risk
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
