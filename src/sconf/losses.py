"""Binary margin losses.

logistic: ln(1 + exp(-y z)), evaluated in softplus form for overflow safety.
zero_one: 1 on misclassification, with sign(0) = +1 so ties are deterministic.
Only the logistic loss has a derivative; zero_one is evaluation-only.
weighted_derivative() is the derivative of a_i l(z_i, +1) + b_i l(z_i, -1),
the point objective's per-row gradient, fused into one sigmoid.
correct_signs() counts the scores whose sign matches the label, with the same
sign rule; accuracy() divides that count by the number of labels, one minus
the mean zero-one loss.
sigmoid() is the posterior of a score, 1 / (1 + exp(-x)).
check_labels() is the one label rule, (y == 1) | (y == -1), for the losses
here and for datagen.LabeledData.
"""

import numpy as np

from .errors import ConfigError

LOSS_KINDS = ("logistic", "zero_one")


def check_labels(y):
    """Raise ConfigError unless every label is -1 or +1: the one label rule."""
    ok = (y == 1 or y == -1) if y.ndim == 0 else np.all((y == 1) | (y == -1))
    if not ok:
        raise ConfigError("labels must be -1 or +1")


def loss_value(kind, z, y):
    """Loss of score z against label y, elementwise; always an ndarray (0-d
    for scalar inputs)."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y)
    check_labels(y)
    if kind == "logistic":
        m = -y * z
        out = np.maximum(m, 0.0) + np.log1p(np.exp(-np.abs(m)))
    elif kind == "zero_one":
        out = ((z >= 0.0) != (y == 1)).astype(float)
    else:
        raise ConfigError(f"unknown loss kind {kind!r}")
    return np.asarray(out)  # numpy makes a 0-d result a scalar


def correct_signs(z, y, threshold=0.0):
    """Number of the scores z whose side of threshold matches the label y in
    {-1, +1}: z >= threshold predicts +1, so ties are positive and a NaN
    score predicts -1. The correct signs are counted, not materialized as
    predictions, so counts of a set's blocks add up to the set's count."""
    return int(np.count_nonzero((z >= threshold) == (y == 1)))


def accuracy(z, y, threshold=0.0):
    """Share of the scores z whose side of threshold matches the label y:
    correct_signs over len(y). The count is exact and the one division
    correctly rounded, so this is bit for bit
    np.mean(np.where(z >= threshold, 1, -1) == y)."""
    return correct_signs(z, y, threshold) / len(y)


def sigmoid(x):
    """1 / (1 + exp(-x)), elementwise; 0.0 without a warning where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def loss_derivative(kind, z, y):
    """d loss / d z, elementwise; always an ndarray (0-d for scalar inputs).
    Defined for the logistic loss only; bounded in (-1, 1)."""
    if kind != "logistic":
        raise ConfigError(f"loss kind {kind!r} has no derivative")
    z = np.asarray(z, dtype=float)
    y = np.asarray(y)
    check_labels(y)
    # -y * sigmoid(-y z), computed without overflow for large |z|
    m = y * z
    t = np.exp(-np.abs(m))
    return np.where(m >= 0, -y * t / (1.0 + t), -y / (1.0 + t))


def weighted_derivative(kind, z, a, b):
    """d/dz of a l(z, +1) + b l(z, -1), elementwise; logistic only.

    l'(z, +1) = -sigmoid(-z) and l'(z, -1) = sigmoid(z) = 1 - sigmoid(-z), so
    the sum is b - (a + b) sigmoid(-z): one stable sigmoid, and no labels to
    check. Equal to a loss_derivative(z, 1) + b loss_derivative(z, -1) up to
    rounding.
    """
    if kind != "logistic":
        raise ConfigError(f"loss kind {kind!r} has no derivative")
    # b - (a + b) * (np.where(z >= 0, t, 1.0) / (1.0 + t)) with t = exp(-|z|),
    # the same operations in the same order, in two z-sized buffers
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    # sigmoid(-z) = t / (1 + t) for z >= 0 and 1 / (1 + t) for z < 0
    q = np.where(z >= 0, t, 1.0)
    t += 1.0
    q /= t
    q *= a + b
    return np.subtract(b, q, out=q)
