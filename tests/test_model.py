from dataclasses import fields

import numpy as np
import pytest

from conftest import traced_peak
from sconf import optim
from sconf.errors import ConfigError, DataError
from sconf.model import (SCORE_BLOCK, Architecture, Predictor, backward, forward, init,
                         load_checkpoint, save_checkpoint, score)


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


def test_a_predictor_is_its_parameters(tmp_path):
    # the gradient is the optimizer's (optim.AdamState.grads), not the predictor's
    assert [f.name for f in fields(Predictor) if not f.name.startswith("_")] == ["arch", "params"]
    save_checkpoint(init(Architecture.mlp(3, 4, 2), seed=1), tmp_path / "m.ckpt")
    for p in (init(Architecture.linear(2)), init(Architecture.linear(2), trials=3).trial(1),
              load_checkpoint(tmp_path / "m.ckpt")):
        assert not hasattr(p, "grads")


def textbook_mlp_gradient(p, X, u):
    """d(sum_i u_i * score_i)/d params by the plain expressions: max(., 0) for
    the ReLU, da[a <= 0] = 0 for its mask, each block added onto zeros."""
    v = p.views()
    a1 = np.maximum(X @ v["W1"] + v["b1"], 0.0)
    a2 = np.maximum(a1 @ v["W2"] + v["b2"], 0.0)
    g = np.zeros_like(p.params)
    gv = Predictor(p.arch, g).views()
    gv["w3"] += a2.T @ u
    gv["b3"] += u.sum()
    da2 = np.outer(u, v["w3"])
    da2[a2 <= 0.0] = 0.0
    gv["W2"] += a1.T @ da2
    gv["b2"] += da2.sum(axis=0)
    da1 = da2 @ v["W2"].T
    da1[a1 <= 0.0] = 0.0
    gv["W1"] += X.T @ da1
    gv["b1"] += da1.sum(axis=0)
    return g


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

    def test_linear_gives_the_bits_of_matmul_plus_bias(self):
        rng = np.random.default_rng(20)
        p = init(Architecture.linear(5))
        p.params[:] = rng.normal(size=6)
        X = rng.normal(size=(300, 5))
        assert forward(p, X).tobytes() == (X @ p.params[:5] + p.params[5]).tobytes()

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
        assert p.params.shape == (4, 4)
        p.params[:] = rng.normal(size=(4, 4))
        X, u = rng.normal(size=(4, 9, 3)), rng.normal(size=(4, 9))
        z = forward(p, X)
        grads, one_grads = np.empty((4, 4)), np.empty(4)
        backward(p, u, grads)
        for t in range(4):
            one = p.trial(t)
            assert forward(one, X[t]).tobytes() == z[t].tobytes()
            backward(one, u[t], one_grads)
            assert one_grads.tobytes() == grads[t].tobytes()

    @pytest.mark.parametrize("d", (1, 2, 3, 16, 784))
    @pytest.mark.parametrize("n", (1, 9, 800))
    @pytest.mark.parametrize("trials", (1, 4, 25))
    @pytest.mark.parametrize("fresh", (True, False))
    def test_each_trial_computes_the_single_models_bytes(self, fresh, trials, n, d):
        # one matmul broadcast over the trial axis: row t of the stack's
        # scores and gradient are the bytes of trial t's own 2-D products
        rng = np.random.default_rng([trials, n, d])
        p = init(Architecture.linear(d), trials=trials)
        if not fresh:  # a fresh stack keeps its zero parameters
            p.params[:] = rng.normal(size=p.params.shape) * 10.0 ** rng.integers(-3, 4, (trials, 1))
        X = rng.normal(size=(trials, n, d)) * 10.0 ** rng.integers(-3, 4)
        u = rng.normal(size=(trials, n))
        z = forward(p, X)
        grads, one_grads = np.empty_like(p.params), np.empty(d + 1)
        backward(p, u, grads)
        for t in range(trials):
            one = p.trial(t)
            assert forward(one, X[t]).tobytes() == z[t].tobytes()
            backward(one, u[t], one_grads)
            assert one_grads.tobytes() == grads[t].tobytes()

    def test_shape_mismatch(self):
        p = init(Architecture.linear(2), trials=3)
        for bad in (np.zeros((5, 2)), np.zeros((2, 5, 2)), np.zeros((3, 5, 4))):
            with pytest.raises(ConfigError):
                forward(p, bad)
        with pytest.raises(ConfigError):
            forward(init(Architecture.linear(2)), np.zeros((3, 5, 2)))
        forward(p, np.zeros((3, 5, 2)))
        with pytest.raises(ConfigError, match="one entry per batch row"):
            backward(p, np.zeros(5), np.empty((3, 3)))
        for bad in (np.empty(3), np.empty((3, 4)), np.empty((4, 3))):
            forward(p, np.zeros((3, 5, 2)))
            with pytest.raises(ConfigError, match="gradient buffer"):
                backward(p, np.zeros((3, 5)), bad)

    def test_only_linear_stacks(self):
        with pytest.raises(ConfigError):
            init(Architecture.mlp(2, 3, 3), trials=2)
        with pytest.raises(ConfigError):
            init(Architecture.linear(2), trials=0)
        with pytest.raises(ConfigError):
            init(Architecture.linear(2)).trial(0)


def block_rows(arch):
    """Rows in one MLP scoring block of model.score."""
    return SCORE_BLOCK // (arch.h1 + arch.h2)


class TestScore:
    # rows in one block of the 784-500-500 MLP: 1,048
    MNIST_BLOCK = block_rows(Architecture.mlp(784))

    @pytest.mark.parametrize("trials", (None, 3))
    @pytest.mark.parametrize("n", (1, MNIST_BLOCK + 1, 200_000))
    def test_linear_gives_the_bytes_of_forward(self, trials, n):
        # a 2-feature linear block is SCORE_BLOCK // 2 = 524,288 rows, so every
        # n here is one block, and a stack is always one forward()
        rng = np.random.default_rng(n)
        p = init(Architecture.linear(2), trials=trials)
        p.params[:] = rng.normal(size=p.params.shape)
        X = rng.normal(size=(n, 2) if trials is None else (trials, n, 2))
        want = forward(p, X)
        assert p._cache is not None
        assert score(p, X).tobytes() == want.tobytes()
        assert p._cache is None

    @pytest.mark.parametrize("n", (1, 999, "block"))
    def test_mlp_of_at_most_one_block_gives_the_bytes_of_forward(self, n):
        arch = Architecture.mlp(6, 40, 24)
        n = block_rows(arch) if n == "block" else n
        p = init(arch, seed=2)
        X = np.random.default_rng(3).normal(size=(n, 6))
        want = forward(p, X)
        assert score(p, X).tobytes() == want.tobytes()
        assert p._cache is None

    def test_mlp_is_scored_block_by_block(self):
        arch = Architecture.mlp(784)
        rows = block_rows(arch)
        assert rows == 1048
        p = init(arch, seed=5)
        X = np.random.default_rng(6).uniform(0.0, 1.0, (3 * rows + 17, 784))
        got = score(p, X)
        assert p._cache is None
        for lo in range(0, len(X), rows):
            assert got[lo:lo + rows].tobytes() == forward(p, X[lo:lo + rows]).tobytes()
        # OpenBLAS sums a GEMM in an order that depends on the row count, so
        # the blocks may round apart from one pass over all rows: by at most
        # 4.1e-16 of the largest |score| in random sets of 4,000 and 9,000 rows
        whole = forward(p, X)
        assert np.max(np.abs(got - whole)) <= 1e-15 * np.max(np.abs(whole))

    def test_malformed_batch_is_named_by_its_whole_shape(self):
        p = init(Architecture.mlp(3, 500, 500))
        with pytest.raises(ConfigError, match=r"shape \(2000, 2, 3\)"):
            score(p, np.zeros((2000, 2, 3)))
        with pytest.raises(ConfigError, match="input dim 4"):
            score(p, np.zeros((2000, 4)))

    def test_mlp_memory_is_bounded_by_the_block(self):
        arch = Architecture.mlp(4, 32, 32)
        n = 8 * block_rows(arch)
        p = init(arch, seed=7)
        X = np.random.default_rng(8).normal(size=(n, 4))
        z, peak = traced_peak(score, p, X)
        # one block's two hidden layers hold 8 * SCORE_BLOCK bytes (8 MB); one
        # forward over all rows would hold 8 times that, and 8 KB a row for
        # 784-500-500
        assert z.shape == (n,)
        assert peak - z.nbytes < 1.25 * 8 * SCORE_BLOCK


class TestBackward:
    def test_linear_chain_rule(self):
        p = init(Architecture.linear(2))
        X = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        forward(p, X)
        grads = np.empty(3)
        backward(p, np.ones(3), grads)
        v = Predictor(p.arch, grads).views()
        assert np.allclose(v["w"], X.sum(axis=0))
        assert v["b"][0] == pytest.approx(3.0)

    def test_zero_upstream_leaves_grads(self):
        # zero, whatever the buffer held before
        p = init(Architecture.mlp(4, 6, 5), seed=1)
        X = np.random.default_rng(2).normal(size=(3, 4))
        forward(p, X)
        grads = np.full_like(p.params, 7.0)
        backward(p, np.zeros(3), grads)
        assert np.array_equal(grads, np.zeros_like(grads))

    @pytest.mark.parametrize("arch, trials", [(Architecture.linear(3), None),
                                              (Architecture.linear(3), 4),
                                              (Architecture.mlp(3, 7, 6), None)])
    def test_second_backward_leaves_only_the_second_batchs_gradient(self, arch, trials):
        rng = np.random.default_rng(12)
        p = init(arch, seed=1, trials=trials)
        p.params[...] = rng.normal(size=p.params.shape)
        batches = [(rng.normal(size=p.params.shape[:-1] + (9, 3)),
                    rng.normal(size=p.params.shape[:-1] + (9,))) for _ in range(2)]
        grads, want = np.empty_like(p.params), np.zeros_like(p.params)
        for X, u in batches:
            forward(p, X)
            backward(p, u, grads)
        forward(p, batches[1][0])
        backward(p, batches[1][1], want)
        assert grads.tobytes() == want.tobytes()

    def test_requires_forward(self):
        p = init(Architecture.linear(2))
        grads = np.empty(3)
        with pytest.raises(ConfigError):
            backward(p, np.ones(1), grads)
        forward(p, np.zeros((1, 2)))
        backward(p, np.ones(1), grads)
        with pytest.raises(ConfigError):  # cache consumed
            backward(p, np.ones(1), grads)

    def test_mlp_equals_boolean_index_reference(self):
        # the in-place ReLU of forward and the multiply-by-mask of backward
        # against the plain expressions, with dead units in both layers: bit
        # for bit, up to the sign of a zero gradient, which np.array_equal
        # does not see
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
        g = Predictor(p.arch, textbook_mlp_gradient(p, X, u)).views()
        assert np.array_equal(forward(p, X), a2 @ v["w3"] + v["b3"][0])
        grads = np.empty_like(p.params)
        backward(p, u, grads)
        for name, grad in Predictor(p.arch, grads).views().items():
            assert np.array_equal(grad, g[name]), name

    def test_written_gradient_gives_the_bits_of_accumulating_onto_zeros(self):
        # backward() writes each gradient block (np.matmul(out=), a sum
        # assigned in place) where the textbook adds it onto a zero buffer, so
        # only the sign of a zero gradient can differ: x + 0.0 clears it. Nor
        # does that sign reach a parameter: Adam adds the gradient, times
        # 1 - BETA1, onto its first moment, which starts at +0 and is nonzero
        # or +0 after every update, and v takes it squared. The steps below
        # take every zero of the written gradient as -0, the textbook's as +0.
        rng = np.random.default_rng(9)
        p = init(Architecture.mlp(30, 40, 20), seed=4)
        p.views()["b1"][:10] = -50.0  # dead units make exact zeros
        q = Predictor(p.arch, p.params.copy())
        state, ref = optim.AdamState.for_predictor(p, 0.01), optim.AdamState.for_predictor(q, 0.01)
        for _ in range(3):
            X, u = rng.normal(size=(64, 30)), rng.normal(size=64)
            forward(p, X)
            backward(p, u, state.grads)
            ref.grads[...] = textbook_mlp_gradient(p, X, u)
            assert (state.grads + 0.0).tobytes() == ref.grads.tobytes()
            zero = state.grads == 0.0
            assert zero.any()
            state.grads[zero] = -0.0
            optim.step(state, p, 0)
            optim.step(ref, q, 0)
            for got, want in ((p.params, q.params), (state.m, ref.m), (state.v, ref.v)):
                assert got.tobytes() == want.tobytes()

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
            analytic = np.empty_like(p.params)
            backward(p, u, analytic)
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

    # the error ends with the constructor's reason, when the fields parse
    DESCRIPTOR_ERROR_ENDS = {
        b"linear 0": "'linear 0': input dimension must be positive",
        b"mlp 4 0 5": "'mlp 4 0 5': architecture hidden widths must be positive, got 0, 5",
        b"\xff\xfe": "bad architecture descriptor '\ufffd\ufffd'",
    }

    @pytest.mark.parametrize("desc", DESCRIPTOR_ERROR_ENDS)
    def test_bad_descriptor_is_a_data_error(self, tmp_path, desc):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"SCONF-CKPT-1\n" + desc + b"\n" + b"\x00" * 24)
        with pytest.raises(DataError, match="bad architecture descriptor") as info:
            load_checkpoint(path)
        assert str(info.value).endswith(self.DESCRIPTOR_ERROR_ENDS[desc])

    def test_stack_is_refused(self, tmp_path):
        path = tmp_path / "model.ckpt"
        with pytest.raises(ConfigError, match="stack of 3 trials"):
            save_checkpoint(init(Architecture.linear(2), trials=3), path)
        assert not path.exists()

    def test_truncated(self, tmp_path):
        p = init(Architecture.linear(2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError):
            load_checkpoint(path)
