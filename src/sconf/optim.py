"""Adam with additive L2 weight decay and a step learning-rate schedule.

The decay term is added to the gradient before the moment updates (classic
Adam-with-L2, not decoupled decay). The schedule divides the base rate by
drop_factor after every drop_every completed epochs:
lr(epoch) = lr0 / drop_factor ** floor(epoch / drop_every).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass
class AdamState:
    lr0: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    drop_every: int | None = None
    drop_factor: float = 10.0
    step_count: int = 0
    m: np.ndarray = field(default=None, repr=False)
    v: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("betas must lie in [0, 1)")
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
        n = p.params.shape[0]
        return AdamState(lr0=lr0, weight_decay=weight_decay, drop_every=drop_every,
                         drop_factor=drop_factor, m=np.zeros(n), v=np.zeros(n))


def effective_lr(state, epoch):
    if not state.drop_every:
        return state.lr0
    return state.lr0 / state.drop_factor ** (epoch // state.drop_every)


def step(state, p, epoch):
    """One Adam update of p.params from p.grads; zeroes the gradients."""
    if not getattr(p, "grads_ready", False):
        raise ConfigError("no gradients accumulated since the last step")
    lr = effective_lr(state, epoch)
    g = p.grads + state.weight_decay * p.params
    state.step_count += 1
    t = state.step_count
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * g
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * g * g
    m_hat = state.m / (1.0 - state.beta1**t)
    v_hat = state.v / (1.0 - state.beta2**t)
    p.params -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    p.grads[...] = 0.0
    p.grads_ready = False
