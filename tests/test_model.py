import numpy as np
import pytest

from sconf.errors import ConfigError, DataError
from sconf.model import (Architecture, backward, forward, init, load_checkpoint,
                         save_checkpoint)


def mlp_forward_oracle(p, X):
    # independent layer-by-layer recomputation with explicit loops
    v = p.views()
    out = []
    for row in np.atleast_2d(X):
        a1 = np.array([max(0.0, float(row @ v["W1"][:, j] + v["b1"][j]))
                       for j in range(v["W1"].shape[1])])
        a2 = np.array([max(0.0, float(a1 @ v["W2"][:, j] + v["b2"][j]))
                       for j in range(v["W2"].shape[1])])
        out.append(float(a2 @ v["w3"] + v["b3"][0]))
    return np.array(out)


class TestArchitecture:
    def test_param_counts(self):
        assert Architecture.linear(2).param_count == 3
        assert Architecture.mlp(784, 500, 500).param_count == 643_501

    def test_descriptor_round_trip(self):
        for arch in (Architecture.linear(7), Architecture.mlp(64, 20, 10)):
            assert Architecture.parse(arch.descriptor()) == arch

    def test_bad_descriptor(self):
        with pytest.raises(ConfigError):
            Architecture.parse("conv 3 3")


class TestForward:
    def test_linear_zero_params(self):
        p = init(Architecture.linear(2))
        assert np.array_equal(p.params, np.zeros(3))
        assert np.allclose(forward(p, np.random.default_rng(0).normal(size=(5, 2))), 0.0)

    def test_linear_dot_product(self):
        p = init(Architecture.linear(2))
        p.params[:] = [1.0, 2.0, -1.0]
        assert forward(p, np.array([[3.0, 4.0]]))[0] == pytest.approx(10.0)

    def test_mlp_matches_loop_oracle(self):
        arch = Architecture.mlp(6, 9, 7)
        p = init(arch, seed=5)
        X = np.random.default_rng(1).normal(size=(4, 6))
        assert np.max(np.abs(forward(p, X) - mlp_forward_oracle(p, X))) < 1e-12

    def test_batch_order_equivariance(self):
        arch = Architecture.mlp(5, 12, 8)
        p = init(arch, seed=2)
        X = np.random.default_rng(3).normal(size=(20, 5))
        perm = np.random.default_rng(4).permutation(20)
        assert np.allclose(forward(p, X)[perm], forward(p, X[perm]))

    def test_dim_mismatch(self):
        p = init(Architecture.linear(3))
        with pytest.raises(ConfigError, match="dim"):
            forward(p, np.zeros((2, 4)))


class TestTrialStack:
    def test_forward_backward_equal_each_trial(self):
        rng = np.random.default_rng(6)
        p = init(Architecture.linear(3), trials=4)
        assert p.params.shape == p.grads.shape == (4, 4)
        p.params[:] = rng.normal(size=(4, 4))
        X, u = rng.normal(size=(4, 9, 3)), rng.normal(size=(4, 9))
        z = forward(p, X)
        backward(p, u)
        for t in range(4):
            one = p.trial(t)
            assert np.allclose(forward(one, X[t]), z[t], rtol=1e-14, atol=1e-14)
            backward(one, u[t])
            assert np.allclose(one.grads, p.grads[t], rtol=1e-14, atol=1e-14)

    def test_shape_mismatch(self):
        p = init(Architecture.linear(2), trials=3)
        for bad in (np.zeros((5, 2)), np.zeros((2, 5, 2)), np.zeros((3, 5, 4))):
            with pytest.raises(ConfigError):
                forward(p, bad)
        with pytest.raises(ConfigError):
            forward(init(Architecture.linear(2)), np.zeros((3, 5, 2)))
        forward(p, np.zeros((3, 5, 2)))
        with pytest.raises(ConfigError, match="one entry per batch row"):
            backward(p, np.zeros(5))

    def test_only_linear_stacks(self):
        with pytest.raises(ConfigError):
            init(Architecture.mlp(2, 3, 3), trials=2)
        with pytest.raises(ConfigError):
            init(Architecture.linear(2), trials=0)
        with pytest.raises(ConfigError):
            init(Architecture.linear(2)).trial(0)


class TestBackward:
    def test_linear_chain_rule(self):
        p = init(Architecture.linear(2))
        X = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        forward(p, X)
        backward(p, np.ones(3))
        v = p.grad_views()
        assert np.allclose(v["w"], X.sum(axis=0))
        assert v["b"][0] == pytest.approx(3.0)

    def test_zero_upstream_leaves_grads(self):
        p = init(Architecture.mlp(4, 6, 5), seed=1)
        X = np.random.default_rng(2).normal(size=(3, 4))
        forward(p, X)
        backward(p, np.zeros(3))
        assert np.array_equal(p.grads, np.zeros_like(p.grads))

    def test_accumulates(self):
        p = init(Architecture.linear(2))
        X = np.array([[1.0, 1.0]])
        forward(p, X)
        backward(p, np.ones(1))
        forward(p, X)
        backward(p, np.ones(1))
        assert np.allclose(p.grad_views()["w"], [2.0, 2.0])

    def test_requires_forward(self):
        p = init(Architecture.linear(2))
        with pytest.raises(ConfigError):
            backward(p, np.ones(1))
        forward(p, np.zeros((1, 2)))
        backward(p, np.ones(1))
        with pytest.raises(ConfigError):  # cache consumed
            backward(p, np.ones(1))

    def test_mlp_equals_boolean_index_reference(self):
        # the in-place ReLU of forward and the multiply-by-mask of backward
        # against the plain expressions, with dead units in both layers
        rng = np.random.default_rng(8)
        p = init(Architecture.mlp(30, 40, 20), seed=3)
        v = p.views()
        v["b1"][:10] = -50.0  # units that never fire
        v["b2"][:5] = -50.0
        X = rng.normal(size=(64, 30))
        u = rng.normal(size=64) * (rng.random(64) < 0.8)
        a1 = np.maximum(X @ v["W1"] + v["b1"], 0.0)
        a2 = np.maximum(a1 @ v["W2"] + v["b2"], 0.0)
        assert (a1 == 0).any(axis=0).all() and (a2 == 0).any()
        g = {name: np.zeros_like(w) for name, w in v.items()}
        g["w3"] += a2.T @ u
        g["b3"] += u.sum()
        da2 = np.outer(u, v["w3"])
        da2[a2 <= 0.0] = 0.0
        g["W2"] += a1.T @ da2
        g["b2"] += da2.sum(axis=0)
        da1 = da2 @ v["W2"].T
        da1[a1 <= 0.0] = 0.0
        g["W1"] += X.T @ da1
        g["b1"] += da1.sum(axis=0)
        assert np.array_equal(forward(p, X), a2 @ v["w3"] + v["b3"][0])
        backward(p, u)
        for name, grad in p.grad_views().items():
            assert np.array_equal(grad, g[name]), name

    @pytest.mark.parametrize("arch", [Architecture.linear(4), Architecture.mlp(4, 8, 6)])
    def test_finite_difference_gradients(self, arch):
        rng = np.random.default_rng(11)
        h = 1e-5
        for trial in range(5):
            p = init(arch, seed=trial)
            if arch.kind == "linear":
                p.params[:] = rng.normal(0, 0.5, arch.param_count)
            X = rng.normal(size=(6, arch.d))
            u = rng.normal(size=6)
            forward(p, X)
            backward(p, u)
            analytic = p.grads.copy()
            idx = rng.choice(arch.param_count, size=min(25, arch.param_count), replace=False)
            for j in idx:
                orig = p.params[j]
                p.params[j] = orig + h
                hi = float(u @ forward(p, X))
                p.params[j] = orig - h
                lo = float(u @ forward(p, X))
                p.params[j] = orig
                fd = (hi - lo) / (2 * h)
                assert analytic[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestInit:
    def test_he_variance(self):
        arch = Architecture.mlp(784, 500, 500)
        p = init(arch, seed=9)
        w1 = p.views()["W1"]
        assert abs(w1.var() - 2.0 / 784) < 0.1 * 2.0 / 784
        assert np.allclose(p.views()["b1"], 0.0)

    def test_deterministic(self):
        a = init(Architecture.mlp(10, 4, 4), seed=3)
        b = init(Architecture.mlp(10, 4, 4), seed=3)
        assert np.array_equal(a.params, b.params)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        p = init(Architecture.mlp(5, 4, 3), seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert q.arch == p.arch
        assert np.array_equal(q.params, p.params)

    def test_magic_line(self, tmp_path):
        p = init(Architecture.linear(2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path)
        assert path.read_bytes().startswith(b"SCONF-CKPT-1\nlinear 2\n")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE\nlinear 2\n" + b"\x00" * 24)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        p = init(Architecture.linear(2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError):
            load_checkpoint(path)
