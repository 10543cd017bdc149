"""Binary margin losses.

logistic: ln(1 + exp(-y z)), evaluated in softplus form for overflow safety.
zero_one: 1 on misclassification, with sign(0) = +1 so ties are deterministic.
Only the logistic loss has a derivative; zero_one is evaluation-only.
weighted_derivative() is the derivative of a_i l(z_i, +1) + b_i l(z_i, -1),
the point objective's per-row gradient, fused into one sigmoid.
"""

import numpy as np

from .errors import ConfigError

LOSS_KINDS = ("logistic", "zero_one")


def _check_labels(y):
    ok = (y == 1 or y == -1) if y.ndim == 0 else np.all((y == 1) | (y == -1))
    if not ok:
        raise ConfigError("labels must be -1 or +1")


def loss_value(kind, z, y):
    """Loss of score z against label y; elementwise over arrays."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y)
    _check_labels(y)
    if kind == "logistic":
        m = -y * z
        out = np.maximum(m, 0.0) + np.log1p(np.exp(-np.abs(m)))
    elif kind == "zero_one":
        pred = np.where(z >= 0.0, 1, -1)
        out = (pred != y).astype(float)
    else:
        raise ConfigError(f"unknown loss kind {kind!r}")
    return float(out) if out.ndim == 0 else out


def loss_derivative(kind, z, y):
    """d loss / d z. Defined for the logistic loss only; bounded in (-1, 1)."""
    if kind != "logistic":
        raise ConfigError(f"loss kind {kind!r} has no derivative")
    z = np.asarray(z, dtype=float)
    y = np.asarray(y)
    _check_labels(y)
    # -y * sigmoid(-y z), computed without overflow for large |z|
    m = y * z
    t = np.exp(-np.abs(m))
    out = np.where(m >= 0, -y * t / (1.0 + t), -y / (1.0 + t))
    return float(out) if out.ndim == 0 else out


def weighted_derivative(kind, z, a, b):
    """d/dz of a l(z, +1) + b l(z, -1), elementwise; logistic only.

    l'(z, +1) = -sigmoid(-z) and l'(z, -1) = sigmoid(z) = 1 - sigmoid(-z), so
    the sum is b - (a + b) sigmoid(-z): one stable sigmoid, and no labels to
    check. Equal to a loss_derivative(z, 1) + b loss_derivative(z, -1) up to
    rounding.
    """
    if kind != "logistic":
        raise ConfigError(f"loss kind {kind!r} has no derivative")
    t = np.exp(-np.abs(z))
    # sigmoid(-z) = t / (1 + t) for z >= 0 and 1 / (1 + t) for z < 0
    return b - (a + b) * (np.where(z >= 0, t, 1.0) / (1.0 + t))
