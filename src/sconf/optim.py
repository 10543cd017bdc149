"""Adam with additive L2 weight decay and a step learning-rate schedule.

The decay term is added to the gradient before the moment updates (classic
Adam-with-L2, not decoupled decay). The moment decay rates and the
denominator guard are the fixed textbook values BETA1 = 0.9, BETA2 = 0.999
and EPS = 1e-8. The schedule divides the base rate by drop_factor after
every drop_every completed epochs:
lr(epoch) = lr0 / drop_factor ** floor(epoch / drop_every).
Every update is elementwise, so a stack of T trials, whose parameters and
moments are (T, d + 1) blocks, takes T independent Adam steps in one.

step() walks the parameter, gradient and moment arrays in blocks of about
BLOCK elements along their first axis, through two block-sized work buffers
that AdamState.for_predictor allocates once, and zeroes each gradient block
while it is still in cache. A step therefore allocates nothing of the
parameter vector's size (643,501 elements for the 784-500-500 MLP). Each
block runs the textbook update with the same float operations in the same
order as the unblocked expressions

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


@dataclass
class AdamState:
    lr0: float
    weight_decay: float = 0.0
    drop_every: int | None = None
    drop_factor: float = 10.0
    step_count: int = 0
    m: np.ndarray = field(default=None, repr=False)
    v: np.ndarray = field(default=None, repr=False)
    work: np.ndarray = field(default=None, repr=False)  # step()'s two block buffers

    def __post_init__(self):
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be nonnegative")
        if not (np.isfinite(self.lr0) and self.lr0 >= 0.0):
            raise ConfigError(f"learning rate lr0 must be finite and nonnegative, got {self.lr0}")
        if self.drop_every is not None and self.drop_every < 1:
            raise ConfigError(f"drop_every must be at least 1 when set, got {self.drop_every}")
        if not self.drop_factor > 0.0:
            raise ConfigError(f"drop_factor must be positive, got {self.drop_factor}")

    @staticmethod
    def for_predictor(p, lr0, weight_decay=0.0, drop_every=None, drop_factor=10.0):
        return AdamState(lr0=lr0, weight_decay=weight_decay, drop_every=drop_every,
                         drop_factor=drop_factor, m=np.zeros_like(p.params),
                         v=np.zeros_like(p.params), work=_work_buffers(p.params))


def _work_buffers(params):
    """Two buffers of the first BLOCK // row_size rows of params (at least one)."""
    rows = max(1, BLOCK // (params.size // len(params)))
    return np.empty((2, min(rows, len(params))) + params.shape[1:])


def effective_lr(state, epoch):
    if not state.drop_every:
        return state.lr0
    return state.lr0 / state.drop_factor ** (epoch // state.drop_every)


def step(state, p, epoch):
    """One Adam update of p.params from p.grads; zeroes the gradients."""
    if not getattr(p, "grads_ready", False):
        raise ConfigError("no gradients accumulated since the last step")
    lr = effective_lr(state, epoch)
    state.step_count += 1
    c1, c2 = 1.0 - BETA1**state.step_count, 1.0 - BETA2**state.step_count
    rows = state.work.shape[1]
    for lo in range(0, len(p.params), rows):
        block = slice(lo, lo + rows)
        x, grad, m, v = p.params[block], p.grads[block], state.m[block], state.v[block]
        g, h = state.work[:, :len(x)]
        np.multiply(state.weight_decay, x, out=g)
        g += grad
        grad[...] = 0.0
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
    p.grads_ready = False
