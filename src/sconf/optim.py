"""Adam with additive L2 weight decay and a step learning-rate schedule.

The decay term is added to the gradient before the moment updates (classic
Adam-with-L2, not decoupled decay). The moment decay rates and the
denominator guard are the fixed textbook values BETA1 = 0.9, BETA2 = 0.999
and EPS = 1e-8. The schedule divides the base rate by DROP_FACTOR = 10 after
every drop_every completed epochs:
lr(epoch) = lr0 / 10 ** floor(epoch / drop_every).
Every update is elementwise, so a stack of T trials, whose parameters and
moments are (T, d + 1) blocks, takes T independent Adam steps in one.

AdamState owns the gradient: for_predictor allocates it beside the moments,
model.backward() writes each batch's gradient into it, and step() reads it.
step() walks the parameter, gradient and moment arrays in blocks of about
BLOCK elements along their first axis, through two block-sized work buffers
that for_predictor also allocates once. A step therefore allocates nothing
of the parameter vector's size (643,501 elements for the 784-500-500 MLP).
Each block runs the textbook update with the same float operations in the
same order as the unblocked expressions

    g = grads + wd * params
    m = BETA1 * m + (1 - BETA1) * g
    v = BETA2 * v + ((1 - BETA2) * g) * g
    params -= (lr * (m / (1 - BETA1**t))) / (sqrt(v / (1 - BETA2**t)) + EPS)

so its result is bit-for-bit theirs. A linear stack of up to
BLOCK // (d + 1) trials is a single block.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# elements per block of step(): ~2^15 keep a block's slices of the six arrays
# it touches (1.5 MB in float64) in cache
BLOCK = 2**15

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
DROP_FACTOR = 10.0


def check_adam(lr0, weight_decay, drop_every):
    """Raise ConfigError unless lr0 and weight_decay are finite and nonnegative
    and drop_every is None or an int or numpy integer of at least 1."""
    if not 0.0 <= weight_decay < np.inf:
        raise ConfigError(f"weight_decay must be finite and nonnegative, got {weight_decay}")
    if not (np.isfinite(lr0) and lr0 >= 0.0):
        raise ConfigError(f"learning rate lr0 must be finite and nonnegative, got {lr0}")
    if drop_every is not None and not isinstance(drop_every, (int, np.integer)):
        raise ConfigError(f"drop_every must be an integer, got {drop_every!r}")
    if drop_every is not None and drop_every < 1:
        raise ConfigError(f"drop_every must be at least 1 when set, got {drop_every}")


@dataclass
class AdamState:
    lr0: float
    weight_decay: float = 0.0
    drop_every: int | None = None
    step_count: int = 0
    m: np.ndarray = field(default=None, repr=False)
    v: np.ndarray = field(default=None, repr=False)
    grads: np.ndarray = field(default=None, repr=False)  # model.backward()'s output
    work: np.ndarray = field(default=None, repr=False)  # step()'s two block buffers

    def __post_init__(self):
        check_adam(self.lr0, self.weight_decay, self.drop_every)

    @staticmethod
    def for_predictor(p, lr0, weight_decay=0.0, drop_every=None):
        return AdamState(lr0=lr0, weight_decay=weight_decay, drop_every=drop_every,
                         m=np.zeros_like(p.params), v=np.zeros_like(p.params),
                         grads=np.zeros_like(p.params), work=_work_buffers(p.params))


def _work_buffers(params):
    """Two buffers of the first BLOCK // row_size rows of params (at least one)."""
    rows = max(1, BLOCK // (params.size // len(params)))
    return np.empty((2, min(rows, len(params))) + params.shape[1:])


def effective_lr(state, epoch):
    """lr(epoch) under the schedule of state's lr0 and drop_every; state may be
    an AdamState or a trainer.TrainConfig."""
    if not state.drop_every:
        return state.lr0
    return state.lr0 / DROP_FACTOR ** (epoch // state.drop_every)


def step(state, p, epoch):
    """One Adam update of p.params from state.grads."""
    lr = effective_lr(state, epoch)
    state.step_count += 1
    c1, c2 = 1.0 - BETA1**state.step_count, 1.0 - BETA2**state.step_count
    rows = state.work.shape[1]
    for lo in range(0, len(p.params), rows):
        block = slice(lo, lo + rows)
        x, grad, m, v = p.params[block], state.grads[block], state.m[block], state.v[block]
        g, h = state.work[:, :len(x)]
        np.multiply(state.weight_decay, x, out=g)
        g += grad
        m *= BETA1
        np.multiply(1.0 - BETA1, g, out=h)
        m += h
        v *= BETA2
        np.multiply(1.0 - BETA2, g, out=h)
        h *= g
        v += h
        np.divide(m, c1, out=g)
        g *= lr
        np.divide(v, c2, out=h)
        np.sqrt(h, out=h)
        h += EPS
        g /= h
        x -= g
