"""The package's only minibatch loop, the two trainers that run it, and ERM
with risk-based model selection.

minibatch_epochs() shuffles the rows with a stream keyed by (seed, epoch),
walks them in minibatches (a final partial batch is kept), backpropagates the
caller's gradient with respect to the batch scores, and takes one Adam step
per batch. A full batch is not shuffled, since the order of its rows cannot
change its gradient: each epoch scores every row in stored order (ALL_ROWS).
train() feeds it the gradient of the spec's pair risk, self-normalized by the
batch size; train_weighted_points() feeds it point_grad(), the one point
gradient, of sum_i a_i l(z_i, +1) + b_i l(z_i, -1). Supervised training is its
one_hot(y) case, a = [y = +1]/n, b = [y = -1]/n.

train_weighted_points() also fits T independent same-shape trials at once: X
of shape (T, n, d) and a, b of shape (T, n) train a stacked linear predictor
(model.init(arch, seed, trials=T)) through the same loop, point gradient and
Adam step. A stack trains full batch only, and only the linear model stacks.
It checks the parameter block once per epoch and stops with
NonFiniteRiskError naming the epoch and the trial.

Every epoch of train() is one report row: the full-train risk and the
full-validation risk (same estimator kind), the test accuracy and zero-one
risk, and the learning rate, so row e is rows[e]. train() stops with
NonFiniteRiskError if a train or validation risk is not finite. The returned
predictor is the parameter snapshot at the epoch of minimum validation risk;
test labels are touched only inside evaluate(). evaluate() counts the scores
whose sign matches the label (losses.accuracy) rather than building an array
of +-1 predictions and averaging it; the result is the same float.
evaluate() and the per-epoch risks score through model.score(), which keeps
no activations and scores an MLP in fixed row blocks; only the training
steps call model.forward() directly, since backward() needs its cache.
"""

from dataclasses import dataclass, field

import numpy as np

from . import model, optim
from .datagen import LabeledData, SconfDataset
from .errors import ConfigError, NonFiniteRiskError
from .fileio import write_csv
from .losses import accuracy, loss_derivative, weighted_derivative
from .rng import make_rng
from .risk import (IDENTITY_KINDS, RiskSpec, pair_risk, partial_risks, risk_gradient_weights,
                   supervised_risk)

REPORT_COLUMNS = ("epoch", "train_risk", "val_risk", "test_acc", "test_01_risk", "lr")

# the batch index of a full batch: every row in stored order; X[ALL_ROWS] is a view
ALL_ROWS = slice(None)


def _check_fit_size(epochs, batch):
    # TrainConfig's and train_weighted_points' one check; batch None is full batch
    if epochs < 1:
        raise ConfigError("need at least one epoch")
    if batch is not None and batch < 1:
        raise ConfigError("batch size must be positive")


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

    def __post_init__(self):
        _check_fit_size(self.epochs, self.batch_pairs)


@dataclass
class TrainReport:
    rows: list = field(default_factory=list)  # tuples matching REPORT_COLUMNS
    best_epoch: int = 0

    def to_csv(self, path):
        """Write the rows under REPORT_COLUMNS; each column after the epoch as a float."""
        write_csv(path, REPORT_COLUMNS, [(row[0], *map(float, row[1:])) for row in self.rows])


def evaluate(p, test):
    """(accuracy, zero-one risk) of sign(g(x)) on a labeled test set; sign(0) = +1."""
    if len(test) == 0:
        raise ConfigError("empty test set")
    acc = accuracy(model.score(p, test.X), test.y)
    return acc, 1.0 - acc


def _pair_scores(p, ds, idx):
    """forward() scores of the x and x' members of the pairs in batch idx; a
    minibatch gathers its rows, a full batch (ALL_ROWS) scores the block."""
    rows = ds.rows if idx is ALL_ROWS else ds.rows[np.concatenate([idx, idx + len(ds)])]
    z = model.forward(p, rows)
    half = len(z) // 2
    return z[:half], z[half:]


def _dataset_risk(p, ds, spec):
    if spec.kind == "supervised":
        return supervised_risk(model.score(p, ds.X), ds.y, spec.loss)
    z = model.score(p, ds.rows)
    return pair_risk(z[:len(ds)], z[len(ds):], ds.s, spec)


def _check_dataset(ds, spec, role):
    want = LabeledData if spec.kind == "supervised" else SconfDataset
    if not isinstance(ds, want):
        raise ConfigError(f"{role} data for kind {spec.kind!r} must be {want.__name__}")
    if len(ds) == 0:
        raise ConfigError(f"{role} dataset is empty")


def minibatch_epochs(p, state, n, batch, seed, epochs, score_grad):
    """The package's only minibatch loop; yields each epoch after its last step.

    score_grad(idx) scores the rows of batch idx with model.forward(p, ...)
    and returns the objective's gradient with respect to those scores. A
    minibatch's idx is a slice of the permutation drawn from the stream
    (seed, 4, epoch). A full batch (batch None or >= n) is not shuffled:
    idx is ALL_ROWS, every row in stored order, and no stream is drawn.
    """
    size = n if batch is None else min(batch, n)
    for epoch in range(epochs):
        if size == n:
            batches = (ALL_ROWS,)
        else:
            order = make_rng(seed, 4, epoch).permutation(n)
            batches = (order[lo:lo + size] for lo in range(0, n, size))
        for idx in batches:
            model.backward(p, score_grad(idx), state.grads)
            optim.step(state, p, epoch)
        yield epoch


def one_hot(y):
    """Point weights (a, b) = ([y = +1]/n, [y = -1]/n): under them the point
    objective is the mean loss against the labels y."""
    return (y == 1) / len(y), (y == -1) / len(y)


def point_grad(p, X, a, b, loss="logistic"):
    """score_grad of sum_i a_i l(z_i, +1) + b_i l(z_i, -1) over the rows of X;
    a minibatch's gradient is rescaled by n/|batch|, a full batch's is not.
    For a stack, X is (T, n, d), a and b are (T, n), and idx is ALL_ROWS."""
    n = X.shape[-2]

    def score_grad(idx):
        z = model.forward(p, X[idx])
        g = weighted_derivative(loss, z, a[idx], b[idx])
        if z.shape[-1] < n:  # a full batch's factor n / n = 1.0 would change no bit
            g *= n / z.shape[-1]
        return g

    return score_grad


def train_weighted_points(X, a, b, arch, epochs, lr0, seed=0, drop_every=None,
                          weight_decay=0.0, batch=None):
    """Minimize sum_i a_i l(z_i, +1) + b_i l(z_i, -1) (logistic) with Adam;
    full batch when batch is None. Returns the final predictor.

    X of shape (T, n, d) with a, b of shape (T, n) fits T linear trials as one
    stack, full batch only; trial t of the result is p.trial(t). uint8 pixel
    codes stay codes: a minibatch gathers code rows and forward() converts them. Raises
    NonFiniteRiskError, naming the epoch and the trial (0 for a single fit),
    if a parameter is not finite after an epoch, and ConfigError, as
    TrainConfig does, for fewer than one epoch or a batch below 1.
    """
    _check_fit_size(epochs, batch)
    X = model.as_input(X)
    trials, n = (len(X) if X.ndim == 3 else None), X.shape[-2]
    if trials is not None and batch is not None and batch < n:
        raise ConfigError(f"a stack of {trials} trials trains full batch only, got batch {batch}")
    p = model.init(arch, seed, trials)
    state = optim.AdamState.for_predictor(p, lr0, weight_decay=weight_decay,
                                          drop_every=drop_every)
    for epoch in minibatch_epochs(p, state, n, batch, seed, epochs, point_grad(p, X, a, b)):
        _check_finite_params(p, epoch)
    return p


def _check_finite_params(p, epoch):
    # A non-finite gradient makes the Adam update non-finite, so the
    # parameter block shows it; it also shows parameters that overflowed to
    # +-inf while every score sat at +-inf with a finite gradient.
    if np.isfinite(p.params).all():
        return
    block = np.atleast_2d(p.params)
    trial, j = np.argwhere(~np.isfinite(block))[0]
    raise NonFiniteRiskError(epoch, "train", float(block[trial, j]), trial=int(trial))


def _risk_grad(p, ds, spec):
    if spec.kind == "supervised":
        return point_grad(p, ds.X, *one_hot(ds.y), spec.loss)

    def score_grad(idx):
        z, zp = _pair_scores(p, ds, idx)
        s = ds.s[idx]
        pr = None if spec.kind in IDENTITY_KINDS else partial_risks(z, zp, s, spec)
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
    training risk). Every epoch scores the test set and appends one row to
    the report, so report.rows[e] is epoch e. Raises NonFiniteRiskError if
    the train or validation risk of an epoch is NaN or infinite.
    """
    spec = cfg.risk
    _check_dataset(train_ds, spec, "training")
    if val_ds is None:
        val_ds = train_ds
    else:
        _check_dataset(val_ds, spec, "validation")

    p = model.init(cfg.arch, cfg.seed)
    state = optim.AdamState.for_predictor(p, cfg.lr0, weight_decay=cfg.weight_decay,
                                          drop_every=cfg.drop_every)
    report = TrainReport()

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
        report.rows.append((epoch, train_risk, val_risk, test_acc, test_01, lr))
        if val_risk < best[0]:
            best = (val_risk, p.params.copy(), epoch)

    report.best_epoch = best[2]
    return model.Predictor(cfg.arch, best[1]), report
