"""The package's only minibatch loop, the two trainers that run it, and ERM
with risk-based model selection.

minibatch_epochs() shuffles the rows with a stream keyed by (seed, epoch),
walks them in minibatches (a final partial batch is kept), backpropagates the
caller's gradient with respect to the batch scores, and takes one Adam step
per batch. train() feeds it the gradient of the spec's pair risk,
self-normalized by the batch size; train_weighted_points() feeds it
point_grad(), the one point gradient, of sum_i a_i l(z_i, +1) + b_i l(z_i, -1).
Supervised training is its one_hot(y) case, a = [y = +1]/n, b = [y = -1]/n.

After every epoch train() records the full-train risk, full-validation risk
(same estimator kind), and test accuracy, and stops with NonFiniteRiskError
if a risk is not finite. The returned predictor is the parameter snapshot at
the epoch of minimum validation risk; test labels are touched only inside
evaluate().
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import model, optim
from .datagen import LabeledData, SconfDataset
from .errors import ConfigError, NonFiniteRiskError
from .fileio import write_atomic
from .losses import loss_derivative
from .rng import make_rng
from .risk import (ONE_SIDED_KINDS, RiskSpec, pair_risk, partial_risks, risk_gradient_weights,
                   supervised_risk)

REPORT_COLUMNS = ("epoch", "train_risk", "val_risk", "test_acc", "test_01_risk", "lr")


@dataclass(frozen=True)
class TrainConfig:
    risk: RiskSpec
    arch: model.Architecture
    epochs: int
    seed: int
    batch_pairs: int | None = None  # None = full batch
    lr0: float = 0.1
    weight_decay: float = 0.0
    drop_every: int | None = None
    drop_factor: float = 10.0
    eval_every: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("need at least one epoch")
        if self.batch_pairs is not None and self.batch_pairs < 1:
            raise ConfigError("batch size must be positive")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be positive")


@dataclass
class TrainReport:
    rows: list = field(default_factory=list)  # tuples matching REPORT_COLUMNS
    best_epoch: int = 0
    sigma_n: float = 0.0

    def to_csv(self, path=None):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in self.rows:
            writer.writerow([row[0]] + [repr(float(v)) for v in row[1:]])
        text = buf.getvalue()
        if path is not None:
            write_atomic(path, text)
        return text

    def val_risks(self):
        return [row[2] for row in self.rows]

    def row_at(self, epoch):
        for row in self.rows:
            if row[0] == epoch:
                return row
        raise KeyError(epoch)


def evaluate(p, test):
    """(accuracy, zero-one risk) of sign(g(x)) on a labeled test set; sign(0) = +1."""
    if len(test) == 0:
        raise ConfigError("empty test set")
    scores = model.forward(p, test.X)
    p.discard_cache()
    pred = np.where(scores >= 0.0, 1, -1)
    acc = float(np.mean(pred == test.y))
    return acc, 1.0 - acc


def _pair_scores(p, ds, idx=None):
    rows = ds.rows if idx is None else ds.rows[np.concatenate([idx, idx + len(ds)])]
    z = model.forward(p, rows)
    half = len(z) // 2
    return z[:half], z[half:]


def _dataset_risk(p, ds, spec):
    if spec.kind == "supervised":
        scores = model.forward(p, ds.X)
        p.discard_cache()
        return supervised_risk(scores, ds.y, spec.loss)
    z, zp = _pair_scores(p, ds)
    p.discard_cache()
    return pair_risk(z, zp, ds.s, spec)


def _check_dataset(ds, spec, role):
    want_pairs = spec.kind != "supervised"
    if want_pairs and not isinstance(ds, SconfDataset):
        raise ConfigError(f"{role} data for kind {spec.kind!r} must be an SconfDataset")
    if not want_pairs and not isinstance(ds, LabeledData):
        raise ConfigError(f"{role} data for supervised training must be LabeledData")
    if len(ds) == 0:
        raise ConfigError(f"{role} dataset is empty")


def minibatch_epochs(p, state, n, batch, seed, epochs, score_grad):
    """The package's only minibatch loop; yields each epoch after its last step.

    score_grad(idx) scores the rows of batch idx with model.forward(p, ...)
    and returns the objective's gradient with respect to those scores. batch
    None means full batch.
    """
    size = n if batch is None else min(batch, n)
    for epoch in range(epochs):
        order = make_rng(seed, 4, epoch).permutation(n)
        for lo in range(0, n, size):
            model.backward(p, score_grad(order[lo:lo + size]))
            optim.step(state, p, epoch)
        yield epoch


def one_hot(y):
    """Point weights (a, b) = ([y = +1]/n, [y = -1]/n): under them the point
    objective is the mean loss against the labels y."""
    return (y == 1) / len(y), (y == -1) / len(y)


def point_grad(p, X, a, b, loss="logistic"):
    """score_grad of sum_i a_i l(z_i, +1) + b_i l(z_i, -1) over the rows of X;
    a minibatch's gradient is rescaled by n/|batch|."""
    n = len(X)

    def score_grad(idx):
        z = model.forward(p, X[idx])
        return n / len(idx) * (a[idx] * loss_derivative(loss, z, 1)
                               + b[idx] * loss_derivative(loss, z, -1))

    return score_grad


def train_weighted_points(X, a, b, arch, epochs, lr0, seed=0, drop_every=None,
                          weight_decay=0.0, batch=None):
    """Minimize sum_i a_i l(z_i, +1) + b_i l(z_i, -1) (logistic) with Adam;
    full batch when batch is None. Returns the final predictor."""
    X = np.asarray(X, dtype=float)
    p = model.init(arch, seed)
    state = optim.AdamState.for_predictor(p, lr0, weight_decay=weight_decay,
                                          drop_every=drop_every)
    for _ in minibatch_epochs(p, state, len(X), batch, seed, epochs, point_grad(p, X, a, b)):
        pass
    return p


def _risk_grad(p, ds, spec):
    if spec.kind == "supervised":
        return point_grad(p, ds.X, *one_hot(ds.y), spec.loss)

    def score_grad(idx):
        z, zp = _pair_scores(p, ds, idx)
        s = ds.s[idx]
        pr = None if spec.kind in ONE_SIDED_KINDS else partial_risks(z, zp, s, spec)
        w_plus, w_minus = risk_gradient_weights(s, pr, spec)
        return np.concatenate([
            w_plus * loss_derivative(spec.loss, z, 1) + w_minus * loss_derivative(spec.loss, z, -1),
            w_plus * loss_derivative(spec.loss, zp, 1) + w_minus * loss_derivative(spec.loss, zp, -1),
        ])

    return score_grad


def train(train_ds, val_ds, test, cfg):
    """Run ERM and return (predictor at the best-validation epoch, report).

    train_ds / val_ds are SconfDatasets for the pair estimator kinds and
    LabeledData for the supervised kind. val_ds may be None, in which case the
    training set doubles as the validation set (selection then follows the
    training risk). Raises NonFiniteRiskError if the train or validation risk
    of an epoch is NaN or infinite.
    """
    spec = cfg.risk
    _check_dataset(train_ds, spec, "training")
    if val_ds is None:
        val_ds = train_ds
    else:
        _check_dataset(val_ds, spec, "validation")

    p = model.init(cfg.arch, cfg.seed)
    state = optim.AdamState.for_predictor(p, cfg.lr0, weight_decay=cfg.weight_decay,
                                          drop_every=cfg.drop_every, drop_factor=cfg.drop_factor)
    report = TrainReport()
    if isinstance(train_ds, SconfDataset) and train_ds.reference_s is not None:
        report.sigma_n = float(np.abs(train_ds.s - train_ds.reference_s).sum())

    best = (np.inf, None, 0)
    for epoch in minibatch_epochs(p, state, len(train_ds), cfg.batch_pairs, cfg.seed,
                                  cfg.epochs, _risk_grad(p, train_ds, spec)):
        train_risk = _dataset_risk(p, train_ds, spec)
        val_risk = _dataset_risk(p, val_ds, spec)
        for role, value in (("train", train_risk), ("validation", val_risk)):
            if not np.isfinite(value):
                raise NonFiniteRiskError(epoch, role, value)
        test_acc, test_01 = evaluate(p, test)
        lr = optim.effective_lr(state, epoch)
        if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            report.rows.append((epoch, train_risk, val_risk, test_acc, test_01, lr))
        if val_risk < best[0]:
            best = (val_risk, p.params.copy(), epoch)

    report.best_epoch = best[2]
    chosen = model.Predictor(cfg.arch, best[1], np.zeros_like(p.params))
    return chosen, report
