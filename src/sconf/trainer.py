"""The package's one training loop, the two trainers that consume it, and
ERM with risk-based model selection.

Every fit is one epoch stream (epochs() returns train()'s): it builds the
predictor (model.init) and its optim.AdamState, then each epoch walks the
rows in minibatches of the permutation drawn from make_rng(seed, 4, epoch),
a final partial batch kept, or, full batch, every row in stored order
(ALL_ROWS, no draw), with one backward and one Adam step per batch. After
the epoch's last step it yields (epoch, p): p is the live predictor, the
same object every epoch, so a consumer copies p.params to keep an epoch.

train() streams the gradient of the spec's pair risk, self-normalized by the
batch size. train_weighted_points() streams point_grad(), the gradient of
sum_i a_i l(z_i, +1) + b_i l(z_i, -1), whose one_hot(y) case is supervised
training; it also fits T same-shape linear trials as one stack, full batch
only (X (T, n, d), a and b (T, n)), and after each epoch names the epoch
and trial of a non-finite parameter.

Each epoch of train() is one report row (REPORT_COLUMNS), so row e is
rows[e], and a non-finite train or validation risk stops it. It returns the
parameter snapshot at the epoch of minimum validation risk; test labels are
touched only inside evaluate(). Scoring outside the training steps goes
through model.score(), which keeps no activations.
"""

from dataclasses import dataclass, field

import numpy as np

from . import model, optim
from .datagen import LabeledData, SconfDataset, _gather_pairs
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
    rows = ds.rows if idx is ALL_ROWS else _gather_pairs(ds.rows, idx, idx + len(ds))
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


def _stream(gradient, n, arch, epochs, lr0, seed, drop_every, weight_decay, batch,
            trials=None):
    """The epoch stream of the module docstring; gradient(p) returns
    score_grad(idx), the objective's gradient with respect to the
    model.forward(p, ...) scores of the rows of batch idx."""
    p = model.init(arch, seed, trials)
    state = optim.AdamState.for_predictor(p, lr0, weight_decay, drop_every)
    score_grad = gradient(p)
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
        yield epoch, p


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
    for epoch, p in _stream(lambda p: point_grad(p, X, a, b), n, arch, epochs, lr0, seed,
                            drop_every, weight_decay, batch, trials):
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


def epochs(train_ds, cfg):
    """The epoch stream of (epoch, p) that train() runs. train_ds is checked
    at once; the predictor is built when the stream is first advanced."""
    _check_dataset(train_ds, cfg.risk, "training")
    return _stream(lambda p: _risk_grad(p, train_ds, cfg.risk), len(train_ds), cfg.arch,
                   cfg.epochs, cfg.lr0, cfg.seed, cfg.drop_every, cfg.weight_decay,
                   cfg.batch_pairs)


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
    stream = epochs(train_ds, cfg)
    if val_ds is None:
        val_ds = train_ds
    else:
        _check_dataset(val_ds, spec, "validation")

    report = TrainReport()
    best = (np.inf, None, 0)
    for epoch, p in stream:
        train_risk = _dataset_risk(p, train_ds, spec)
        val_risk = _dataset_risk(p, val_ds, spec)
        for role, value in (("train", train_risk), ("validation", val_risk)):
            if not np.isfinite(value):
                raise NonFiniteRiskError(epoch, role, value)
        test_acc, test_01 = evaluate(p, test)
        report.rows.append((epoch, train_risk, val_risk, test_acc, test_01,
                            optim.effective_lr(cfg, epoch)))
        if val_risk < best[0]:
            best = (val_risk, p.params.copy(), epoch)

    report.best_epoch = best[2]
    return model.Predictor(cfg.arch, best[1]), report
