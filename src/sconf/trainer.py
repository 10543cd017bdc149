"""The package's one training loop, the two trainers that consume it, and
ERM with risk-based model selection.

Every fit is one epoch stream (epochs() returns train()'s): it builds the
predictor (model.init) and its optim.AdamState, then each epoch walks the
rows in minibatches of the permutation drawn from make_rng(seed, 4, epoch),
a final partial batch kept, or, full batch, every row in stored order
(ALL_ROWS, no draw). Each batch idx takes one backward of grad(p, idx), the
gradient with respect to the model.forward(p, ...) scores of its rows, and
one Adam step. After the epoch's last step it yields (epoch, p): p is the
live predictor, the same object every epoch, so a consumer copies p.params
to keep an epoch.

_objective(ds, spec, role), the one place that tells pair sets from labeled
sets, checks ds for the kind and returns (risk(p), grad(p, idx)): the pair
risk with pair_grad(), self-normalized by the batch size, or the supervised
risk with point_grad() on one_hot(y). train_weighted_points() streams
point_grad() of sum_i a_i l(z_i, +1) + b_i l(z_i, -1), and fits T linear
trials as one stack, full batch only (X (T, n, d), a and b (T, n)); after
each epoch it names the epoch and trial of a non-finite parameter.

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
from .rng import check_seed, make_rng
from .risk import (IDENTITY_KINDS, RiskSpec, pair_risk, partial_risks, risk_gradient_weights,
                   supervised_risk)

REPORT_COLUMNS = ("epoch", "train_risk", "val_risk", "test_acc", "test_01_risk", "lr")

# the batch index of a full batch: every row in stored order; X[ALL_ROWS] is a view
ALL_ROWS = slice(None)


def check_fit(epochs, seed, batch_pairs, lr0, weight_decay, drop_every):
    """Raise ConfigError unless epochs, batch_pairs (None: full batch), seed and
    drop_every (None: no drop) are ints or numpy integers, epochs >= 1,
    batch_pairs >= 1, seed >= 0, and lr0, weight_decay and drop_every pass
    optim.check_adam."""
    if not isinstance(epochs, (int, np.integer)):
        raise ConfigError(f"epochs must be an integer, got {epochs!r}")
    if batch_pairs is not None and not isinstance(batch_pairs, (int, np.integer)):
        raise ConfigError(f"batch size must be an integer, got {batch_pairs!r}")
    if epochs < 1:
        raise ConfigError("need at least one epoch")
    if batch_pairs is not None and batch_pairs < 1:
        raise ConfigError("batch size must be positive")
    check_seed(seed)
    optim.check_adam(lr0, weight_decay, drop_every)


@dataclass(frozen=True)
class TrainConfig:
    """One train() fit; construction runs check_fit() on its epochs, seed,
    batch_pairs, lr0, weight_decay and drop_every, so a size, seed or
    drop_every that is not an int or numpy integer is a ConfigError."""

    risk: RiskSpec
    arch: model.Architecture
    epochs: int
    seed: int
    batch_pairs: int | None = None  # None = full batch
    lr0: float = 0.1
    weight_decay: float = 0.0
    drop_every: int | None = None

    def __post_init__(self):
        check_fit(self.epochs, self.seed, self.batch_pairs, self.lr0, self.weight_decay,
                  self.drop_every)


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


def _stream(grad, n, arch, epochs, lr0, seed, drop_every, weight_decay, batch, trials=None):
    """The epoch stream of the module docstring."""
    p = model.init(arch, seed, trials)
    state = optim.AdamState.for_predictor(p, lr0, weight_decay, drop_every)
    size = n if batch is None else min(batch, n)
    for epoch in range(epochs):
        if size == n:
            batches = (ALL_ROWS,)
        else:
            order = make_rng(seed, 4, epoch).permutation(n)
            batches = (order[lo:lo + size] for lo in range(0, n, size))
        for idx in batches:
            model.backward(p, grad(p, idx), state.grads)
            optim.step(state, p, epoch)
        yield epoch, p


def one_hot(y):
    """Point weights (a, b) = ([y = +1]/n, [y = -1]/n): under them the point
    objective is the mean loss against the labels y."""
    return (y == 1) / len(y), (y == -1) / len(y)


def point_grad(p, idx, X, a, b, loss="logistic"):
    """grad(p, idx) of sum_i a_i l(z_i, +1) + b_i l(z_i, -1) over the rows of
    X: a minibatch's gradient is rescaled by n/|batch|, a full batch's is not.
    For a stack, X is (T, n, d), a and b are (T, n), and idx is ALL_ROWS."""
    z = model.forward(p, X[idx])
    g = weighted_derivative(loss, z, a[idx], b[idx])
    if z.shape[-1] < X.shape[-2]:  # a full batch's factor n / n = 1.0 would change no bit
        g *= X.shape[-2] / z.shape[-1]
    return g


def pair_grad(p, idx, ds, spec):
    """grad(p, idx) of spec's pair risk on batch idx, x members first; a
    minibatch gathers its rows, a full batch (ALL_ROWS) scores the block."""
    rows = ds.rows if idx is ALL_ROWS else _gather_pairs(ds.rows, idx, idx + len(ds))
    z, zp = np.split(model.forward(p, rows), 2)
    s = ds.s[idx]
    pr = None if spec.kind in IDENTITY_KINDS else partial_risks(z, zp, s, spec)
    w_plus, w_minus = risk_gradient_weights(s, pr, spec)
    return np.concatenate([
        w_plus * loss_derivative(spec.loss, z, 1) + w_minus * loss_derivative(spec.loss, z, -1),
        w_plus * loss_derivative(spec.loss, zp, 1) + w_minus * loss_derivative(spec.loss, zp, -1),
    ])


def train_weighted_points(X, a, b, arch, epochs, lr0, seed=0, drop_every=None,
                          weight_decay=0.0, batch=None):
    """Minimize sum_i a_i l(z_i, +1) + b_i l(z_i, -1) (logistic) with Adam;
    full batch when batch is None. Returns the final predictor.

    X of shape (T, n, d) with a, b of shape (T, n) fits T linear trials as one
    stack, full batch only; trial t of the result is p.trial(t). uint8 pixel
    codes stay codes: a minibatch gathers code rows and forward() converts them. Raises
    NonFiniteRiskError, naming the epoch and the trial (0 for a single fit),
    if a parameter is not finite after an epoch. Before any predictor exists,
    check_fit() raises ConfigError, as TrainConfig does, unless epochs, seed,
    batch (or None) and drop_every (or None) are ints or numpy integers,
    epochs >= 1, batch >= 1, seed >= 0, lr0 and weight_decay are finite and
    >= 0, and drop_every >= 1.
    """
    check_fit(epochs, seed, batch, lr0, weight_decay, drop_every)
    X = model.as_input(X)
    trials, n = (len(X) if X.ndim == 3 else None), X.shape[-2]
    if trials is not None and batch is not None and batch < n:
        raise ConfigError(f"a stack of {trials} trials trains full batch only, got batch {batch}")
    for epoch, p in _stream(lambda p, idx: point_grad(p, idx, X, a, b), n, arch, epochs, lr0,
                            seed, drop_every, weight_decay, batch, trials):
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


def _objective(ds, spec, role):
    """(risk(p), grad(p, idx)) of spec's risk on ds, a non-empty set of its kind."""
    want = LabeledData if spec.kind == "supervised" else SconfDataset
    if not isinstance(ds, want):
        raise ConfigError(f"{role} data for kind {spec.kind!r} must be {want.__name__}")
    if len(ds) == 0:
        raise ConfigError(f"{role} dataset is empty")
    if want is LabeledData:
        a, b = one_hot(ds.y)
        return (lambda p: supervised_risk(model.score(p, ds.X), ds.y, spec.loss),
                lambda p, idx: point_grad(p, idx, ds.X, a, b, spec.loss))
    return (lambda p: pair_risk(*np.split(model.score(p, ds.rows), 2), ds.s, spec),
            lambda p, idx: pair_grad(p, idx, ds, spec))


def _fit(train_ds, cfg):
    # the training objective's risk and the epoch stream of its gradient
    risk, grad = _objective(train_ds, cfg.risk, "training")
    return risk, _stream(grad, len(train_ds), cfg.arch, cfg.epochs, cfg.lr0, cfg.seed,
                         cfg.drop_every, cfg.weight_decay, cfg.batch_pairs)


def epochs(train_ds, cfg):
    """The epoch stream of (epoch, p) that train() runs. train_ds is checked
    at once; the predictor is built when the stream is first advanced."""
    return _fit(train_ds, cfg)[1]


def train(train_ds, val_ds, test, cfg):
    """Run ERM and return (predictor at the best-validation epoch, report).

    train_ds / val_ds are SconfDatasets for the pair estimator kinds and
    LabeledData for the supervised kind. val_ds may be None, in which case the
    training set doubles as the validation set (selection then follows the
    training risk). Every epoch scores the test set and appends one row to
    the report, so report.rows[e] is epoch e. Raises NonFiniteRiskError if
    the train or validation risk of an epoch is NaN or infinite.
    """
    risk, stream = _fit(train_ds, cfg)
    val = risk if val_ds is None else _objective(val_ds, cfg.risk, "validation")[0]

    report = TrainReport()
    best = (np.inf, None, 0)
    for epoch, p in stream:
        train_risk, val_risk = risk(p), val(p)
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
