"""IDX pixel codes and their float64 features take one path.

load_idx keeps the uint8 codes of an IDX file, and the model reads a code c
as the feature c / 255 only when a batch or a scoring block reaches it
(model.features). Every output of a run on the codes must be the bytes of
the same run on codes / 255: scores, gradients, fitted parameters, pair
confidences and report rows. Keeping the codes must also keep the images at
one byte a pixel through a whole IDX run.
"""

import numpy as np
import pytest

from conftest import traced_peak
from sconf import model, trainer
from sconf.cli import _split_pairs
from sconf.datagen import LabeledData
from sconf.dataset_io import (corrupt_binary, corruption, load_idx, posterior_model_confidences,
                              write_idx_images, write_idx_labels)
from sconf.model import SCORE_BLOCK, Architecture, backward, forward, init, score
from sconf.risk import RiskSpec
from sconf.trainer import TrainConfig, one_hot, train_weighted_points

MNIST_LINEAR = Architecture.linear(784)
MNIST_MLP = Architecture.mlp(784)
MNIST_BLOCK = SCORE_BLOCK // (MNIST_MLP.h1 + MNIST_MLP.h2)  # 1,048 rows


def random_codes(shape, seed):
    return np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)


def fitted(arch, seed):
    """A predictor whose parameters are all nonzero, so every input counts."""
    p = init(arch, seed)
    if arch.kind == "linear":
        p.params[:] = np.random.default_rng(seed).normal(0.0, 0.05, p.params.shape)
    return p


def write_idx_set(directory, stem, n, seed):
    """n random 28x28 images with random digit labels, as IDX files."""
    rng = np.random.default_rng(seed)
    paths = directory / f"{stem}-images.idx", directory / f"{stem}-labels.idx"
    write_idx_images(paths[0], rng.integers(0, 256, (n, 28, 28), dtype=np.uint8))
    write_idx_labels(paths[1], rng.integers(0, 10, n, dtype=np.uint8))
    return paths


class TestFeatures:
    def test_only_uint8_is_read_as_codes(self):
        assert model.features(np.array([[51]], np.uint8)).tolist() == [[0.2]]
        ints = model.features(np.array([[51]]))
        assert ints.dtype == np.float64 and ints.tolist() == [[51.0]]
        floats = np.array([[0.5, 2.0]])
        assert model.features(floats) is floats

    def test_datasets_keep_codes_as_given(self):
        codes = random_codes((6, 4), 1)
        labeled = LabeledData(codes, np.tile([1, -1], 3))
        assert labeled.X is codes
        ints = LabeledData(np.arange(6).reshape(3, 2), [1, 1, -1])
        assert ints.X.dtype == np.float64


class TestScore:
    @pytest.mark.parametrize("arch", (MNIST_LINEAR, MNIST_MLP), ids=("linear", "mlp"))
    @pytest.mark.parametrize("n", (1, MNIST_BLOCK, 3 * MNIST_BLOCK + 17))
    def test_codes_give_the_bytes_of_their_features(self, arch, n):
        codes = random_codes((n, 784), n)
        p = fitted(arch, 2)
        got = score(p, codes)
        assert p._cache is None
        assert got.tobytes() == score(p, codes / 255.0).tobytes()

    def test_blocks_count_the_features_of_a_narrow_mlp(self):
        # 784 features outnumber the 64 hidden units: a block is 1,337 rows,
        # so its converted features hold at most SCORE_BLOCK float64 values
        arch = Architecture.mlp(784, 32, 32)
        rows = SCORE_BLOCK // 784
        assert rows == 1337
        codes = random_codes((8 * rows, 784), 3)
        p = init(arch, seed=4)
        z, peak = traced_peak(score, p, codes)
        # one forward over all rows would convert 8 times the block
        assert peak - z.nbytes < 1.25 * 8 * SCORE_BLOCK
        for lo in range(0, len(codes), rows):
            assert z[lo:lo + rows].tobytes() == forward(p, codes[lo:lo + rows]).tobytes()
        assert z.tobytes() == score(p, codes / 255.0).tobytes()

    def test_blocks_count_the_features_of_a_linear_model(self):
        # a 784-pixel linear model is scored in blocks of SCORE_BLOCK // 784 =
        # 1,337 rows too, so only one block's codes are float64 at a time
        rows = SCORE_BLOCK // 784
        codes = random_codes((8 * rows + 5, 784), 5)
        p = fitted(MNIST_LINEAR, 6)
        z, peak = traced_peak(score, p, codes)
        # one forward over all rows would convert 8 times the block
        assert peak - z.nbytes < 1.25 * 8 * SCORE_BLOCK
        for lo in range(0, len(codes), rows):
            assert z[lo:lo + rows].tobytes() == forward(p, codes[lo:lo + rows]).tobytes()
        assert z.tobytes() == score(p, codes / 255.0).tobytes()
        # the blocks may round apart from one forward over all rows (see
        # TestScore in test_model): by at most 3.0e-16 of the largest |score|
        # in sets of 10,696 to 60,000 random pixel-code rows
        whole = forward(p, codes)
        assert np.max(np.abs(z - whole)) <= 1e-15 * np.max(np.abs(whole))


@pytest.mark.parametrize("arch, trials", ((MNIST_LINEAR, None), (MNIST_LINEAR, 3),
                                          (Architecture.mlp(784, 40, 24), None)),
                         ids=("linear", "stack", "mlp"))
def test_forward_and_backward_give_the_bytes_of_the_features(arch, trials):
    codes = random_codes((50, 784) if trials is None else (trials, 50, 784), 5)
    u = np.random.default_rng(6).normal(size=codes.shape[:-1])
    out = []
    for X in (codes, codes / 255.0):
        p = init(arch, seed=7, trials=trials)
        p.params[...] = fitted(arch, 7).params
        z = forward(p, X)
        assert p._cache["X"].dtype == np.float64
        grads = np.empty_like(p.params)
        backward(p, u, grads)
        out.append((z.tobytes(), grads.tobytes()))
    assert out[0] == out[1]


@pytest.mark.parametrize("arch", (MNIST_LINEAR, Architecture.mlp(784, 16, 8)),
                         ids=("linear", "mlp"))
@pytest.mark.parametrize("batch", (None, 64), ids=("full", "minibatch"))
def test_weighted_point_fit_gives_the_bytes_of_the_features(arch, batch):
    codes = random_codes((240, 784), 8)
    y = np.where(np.random.default_rng(9).random(240) < 0.3, 1, -1)
    fits = [train_weighted_points(X, *one_hot(y), arch, epochs=3, lr0=1e-2, seed=3, batch=batch)
            for X in (codes, codes / 255.0)]
    assert fits[0].params.tobytes() == fits[1].params.tobytes()


def test_idx_run_gives_the_bytes_of_the_features(tmp_path):
    train_paths = write_idx_set(tmp_path, "train", 400, 10)
    test_paths = write_idx_set(tmp_path, "test", 150, 11)
    arch = Architecture.mlp(784, 24, 12)
    rule = corruption("mnist")
    runs = []
    for scale in (False, True):
        labeled, test = (corrupt_binary(*load_idx(*paths), rule)
                         for paths in (train_paths, test_paths))
        assert labeled.X.dtype == test.X.dtype == np.uint8
        if scale:
            labeled, test = (LabeledData(d.X / 255.0, d.y) for d in (labeled, test))
        ds, posteriors = posterior_model_confidences(labeled, arch, seed=2, epochs=2, batch=64,
                                                     lr0=1e-3)
        train_ds, val_ds = _split_pairs(ds, 0.25, seed=2)
        prior = float(np.mean(labeled.y == 1))
        cfg = TrainConfig(risk=RiskSpec("nn", prior), arch=arch, epochs=3, seed=2,
                          batch_pairs=40, lr0=1e-3)
        p, report = trainer.train(train_ds, val_ds, test, cfg)
        runs.append((posteriors.tobytes(), ds.s.tobytes(), model.features(ds.rows).tobytes(),
                     repr(report.rows), report.best_epoch, p.params.tobytes()))
    assert runs[0] == runs[1]


def test_idx_run_keeps_the_images_below_their_float64_bytes(tmp_path):
    # sizes and bound fixed before the first run: 6,000 training images of
    # 28x28 pixels are 37.6 MB as float64 and 4.7 MB as codes; a narrow MLP
    # keeps the parameters, Adam moments and activations small, so the images
    # set the peak
    n_train, n_test = 6000, 1000
    train_paths = write_idx_set(tmp_path, "train", n_train, 12)
    test_paths = write_idx_set(tmp_path, "test", n_test, 13)
    arch, rule = Architecture.mlp(784, 32, 32), corruption("mnist")

    def run():
        labeled, test = (corrupt_binary(*load_idx(*paths), rule)
                         for paths in (train_paths, test_paths))
        prior = float(np.mean(labeled.y == 1))
        ds, _ = posterior_model_confidences(labeled, arch, seed=1, epochs=2, batch=500,
                                            lr0=1e-3)
        del labeled
        train_ds, val_ds = _split_pairs(ds, 0.2, seed=1)
        del ds
        cfg = TrainConfig(risk=RiskSpec("nn", prior), arch=arch, epochs=2, seed=1,
                          batch_pairs=250, lr0=1e-3)
        return trainer.train(train_ds, val_ds, test, cfg)[1]

    report, peak = traced_peak(run)
    assert len(report.rows) == 2
    assert peak < n_train * 784 * 8
