import tracemalloc

import numpy as np
import pytest

from sconf.errors import ConfigError
from sconf.model import Architecture, backward, forward, init
from sconf.optim import BLOCK, AdamState, effective_lr, step


def reference_adam(grads, lr0, wd=0.0, x0=0.0):
    # hand-rolled scalar Adam, written independently of the module
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = v = 0.0
    x = x0
    trace = []
    for t, g in enumerate(grads, start=1):
        g = g + wd * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        x = x - lr0 * mh / (vh**0.5 + eps)
        trace.append(x)
    return trace


def scalar_predictor():
    p = init(Architecture.linear(1))
    return p


def push_grad(p, g):
    # load an arbitrary gradient through the public surface
    forward(p, np.array([[1.0]]))
    backward(p, np.array([0.0]))
    p.grads[:] = g
    return p


class TestStep:
    def test_zero_gradient_no_move(self):
        p = scalar_predictor()
        state = AdamState.for_predictor(p, lr0=0.1)
        forward(p, np.array([[1.0]]))
        backward(p, np.zeros(1))
        step(state, p, epoch=0)
        assert np.array_equal(p.params, np.zeros(2))

    def test_first_step_magnitude(self):
        p = scalar_predictor()
        state = AdamState.for_predictor(p, lr0=0.05)
        push_grad(p, np.array([1.0, 0.0]))
        step(state, p, epoch=0)
        assert p.params[0] == pytest.approx(-0.05 / (1 + 1e-8))
        assert p.grads_ready is False
        assert np.array_equal(p.grads, np.zeros(2))
        assert state.step_count == 1

    def test_requires_gradients(self):
        p = scalar_predictor()
        state = AdamState.for_predictor(p, lr0=0.1)
        with pytest.raises(ConfigError):
            step(state, p, epoch=0)

    def test_quadratic_trajectory_matches_reference(self):
        # minimize (x - 3)^2 / 2, gradient x - 3, ten steps
        p = scalar_predictor()
        state = AdamState.for_predictor(p, lr0=0.2)
        xs = []
        for _ in range(10):
            push_grad(p, np.array([p.params[0] - 3.0, 0.0]))
            step(state, p, epoch=0)
            xs.append(p.params[0])
        ref = []
        x_ref = m = v = 0.0
        for t in range(1, 11):
            g = x_ref - 3.0
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x_ref = x_ref - 0.2 * (m / (1 - 0.9**t)) / ((v / (1 - 0.999**t)) ** 0.5 + 1e-8)
            ref.append(x_ref)
        assert np.allclose(xs, ref, atol=1e-12)

    def test_weight_decay_is_additive_l2(self):
        p = scalar_predictor()
        p.params[0] = 2.0
        state = AdamState.for_predictor(p, lr0=0.1, weight_decay=0.5)
        push_grad(p, np.array([1.0, 0.0]))
        step(state, p, epoch=0)
        ref = reference_adam([1.0], 0.1, wd=0.5, x0=2.0)
        assert p.params[0] == pytest.approx(ref[0], abs=1e-14)


class TestSchedule:
    def test_step_decay_boundaries(self):
        state = AdamState(lr0=0.1, drop_every=30, drop_factor=10.0)
        expected = {0: 0.1, 29: 0.1, 30: 0.01, 59: 0.01, 60: 0.001}
        for epoch, lr in expected.items():
            assert effective_lr(state, epoch) == pytest.approx(lr)

    def test_no_schedule(self):
        state = AdamState(lr0=0.1)
        assert effective_lr(state, 1000) == 0.1


class TestBlockedStep:
    """step() walks its arrays in blocks through two reused buffers; the
    result must be bit for bit the textbook update on whole arrays."""

    @staticmethod
    def textbook(x, grads, epochs, lr0, wd, drop_every):
        # the update written out on whole arrays, one step at a time
        b1, b2, eps = 0.9, 0.999, 1e-8
        m, v, trace = np.zeros_like(x), np.zeros_like(x), []
        for t, (g, epoch) in enumerate(zip(grads, epochs), start=1):
            lr = lr0 / 10.0 ** (epoch // drop_every)
            g = g + wd * x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            trace.append(x)
        return trace

    @pytest.mark.parametrize("arch,trials", [
        (Architecture.mlp(784, 500, 500), None),  # 19 full blocks and a partial one
        (Architecture.linear(2), 25),  # the table's stack: one block
        (Architecture.linear(2), BLOCK + 7),  # a stack in 4 blocks of rows
    ])
    def test_equals_textbook_update(self, arch, trials):
        rng = np.random.default_rng(4)
        p = init(arch, seed=2, trials=trials)
        p.params[...] = rng.normal(size=p.params.shape)
        x0 = p.params.copy()
        steps = 21
        grads = [rng.normal(size=p.params.shape) * (rng.random(p.params.shape) < 0.9)
                 for _ in range(steps)]
        epochs = [t // 3 for t in range(steps)]  # the rate drops after epoch 4
        state = AdamState.for_predictor(p, lr0=0.01, weight_decay=0.003, drop_every=5)
        for g, epoch, ref in zip(grads, epochs,
                                 self.textbook(x0, grads, epochs, 0.01, 0.003, 5)):
            p.grads[...] = g
            p.grads_ready = True
            step(state, p, epoch)
            assert np.array_equal(p.params, ref)
            assert not p.grads.any() and p.grads_ready is False

    def test_step_allocates_no_parameter_sized_array(self):
        p = init(Architecture.mlp(784, 500, 500), seed=1)
        state = AdamState.for_predictor(p, lr0=1e-3, weight_decay=1e-4)
        p.grads_ready = True
        step(state, p, epoch=0)
        p.grads[...] = 1e-3
        p.grads_ready = True
        tracemalloc.start()
        try:
            step(state, p, epoch=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the unblocked update built about ten 5.1 MB temporaries (25.7 MB peak)
        assert peak < 1_000_000
