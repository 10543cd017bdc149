import gzip
import struct

import numpy as np
import pytest

from sconf.cli import _split_pairs
from sconf.dataset_io import (BinaryCorruption, corrupt_binary, corruption,
                              load_idx, posterior_model_confidences,
                              read_idx_images, read_idx_labels,
                              write_idx_images, write_idx_labels)
from sconf.datagen import LabeledData, SconfDataset
from sconf.errors import ConfigError, DataError
from sconf.model import Architecture


@pytest.fixture
def tiny_idx(tmp_path):
    # two 2x3 images with hand-picked bytes
    images = np.array([[[0, 51, 102], [153, 204, 255]],
                       [[255, 0, 255], [0, 255, 0]]], dtype=np.uint8)
    labels = np.array([3, 8], dtype=np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labels.idx"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    return ip, lp, images, labels


class TestIdxRoundTrip:
    def test_exact_vectors(self, tiny_idx):
        ip, lp, images, labels = tiny_idx
        X, got_labels = load_idx(ip, lp)
        assert X.shape == (2, 6)
        assert np.array_equal(got_labels, labels)
        assert np.allclose(X[0], np.array([0, 51, 102, 153, 204, 255]) / 255.0)
        assert np.allclose(X[1], np.array([255, 0, 255, 0, 255, 0]) / 255.0)

    def test_byte_exact_file_round_trip(self, tiny_idx, tmp_path):
        ip, lp, images, labels = tiny_idx
        ip2, lp2 = tmp_path / "imgs2.idx", tmp_path / "labels2.idx"
        write_idx_images(ip2, read_idx_images(ip))
        write_idx_labels(lp2, read_idx_labels(lp))
        assert ip.read_bytes() == ip2.read_bytes()
        assert lp.read_bytes() == lp2.read_bytes()

    def test_header_layout(self, tiny_idx):
        ip, lp, images, _ = tiny_idx
        blob = ip.read_bytes()
        assert struct.unpack(">IIII", blob[:16]) == (0x803, 2, 2, 3)
        assert struct.unpack(">II", lp.read_bytes()[:8]) == (0x801, 2)

    def test_gzip_transparent(self, tiny_idx, tmp_path):
        ip, lp, images, labels = tiny_idx
        gz_ip = tmp_path / "imgs.idx.gz"
        gz_ip.write_bytes(gzip.compress(ip.read_bytes()))
        gz_lp = tmp_path / "labels.idx.gz"
        gz_lp.write_bytes(gzip.compress(lp.read_bytes()))
        X, got = load_idx(gz_ip, gz_lp)
        assert np.array_equal(got, labels)
        assert X.shape == (2, 6)


class TestIdxErrors:
    def test_bad_magic_with_offset(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0x9999, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(DataError, match="byte 0"):
            read_idx_images(path)

    def test_label_magic_on_image_file(self, tiny_idx):
        ip, lp, *_ = tiny_idx
        with pytest.raises(DataError, match="magic"):
            read_idx_labels(ip)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x803, 4, 28, 28) + b"\x00" * 100)
        with pytest.raises(DataError, match="truncated"):
            read_idx_images(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(DataError, match="truncated"):
            read_idx_labels(path)

    def test_count_mismatch(self, tiny_idx, tmp_path):
        ip, lp, images, _ = tiny_idx
        lp3 = tmp_path / "labels3.idx"
        write_idx_labels(lp3, np.array([1, 2, 3], dtype=np.uint8))
        with pytest.raises(DataError, match="2 images but .* 3 labels"):
            load_idx(ip, lp3)


class TestCorruption:
    def test_mnist_rule(self):
        rule = corruption("mnist")
        X = np.zeros((4, 2))
        data = corrupt_binary(X, np.array([0, 1, 2, 7]), rule)
        assert np.array_equal(data.y, [1, 1, 1, -1])

    def test_all_positive_rule(self):
        rule = BinaryCorruption("all", frozenset(range(10)), frozenset(range(10)), 1.0)
        data = corrupt_binary(np.zeros((3, 1)), np.array([0, 5, 9]), rule)
        assert np.array_equal(data.y, [1, 1, 1])

    def test_uncovered_label(self):
        rule = corruption("mnist")
        with pytest.raises(ConfigError, match=r"\[10\]"):
            corrupt_binary(np.zeros((1, 1)), np.array([10]), rule)

    def test_known_nominal_priors(self):
        assert corruption("mnist").pi_plus_nominal == 0.3
        assert corruption("kuzushiji-mnist").pi_plus_nominal == 0.7
        assert corruption("fashion-mnist").pi_plus_nominal == 0.4
        assert corruption("emnist-letters").pi_plus_nominal == 0.6153

    def test_digits_prior_near_nominal(self):
        # bundled 10-class handwritten digits under the 0-2-positive rule
        digits = pytest.importorskip("sklearn.datasets")
        X, y = digits.load_digits(return_X_y=True)
        data = corrupt_binary(X / 16.0, y, corruption("mnist"))
        assert abs(float(np.mean(data.y == 1)) - 0.3) < 0.01


class TestSplit:
    # the validation split of model-confidence pairs, through SconfDataset.subset
    def test_exact_counts_and_determinism(self):
        x = np.arange(100, dtype=float).reshape(50, 2)
        data = SconfDataset(x, -x, np.linspace(0.0, 1.0, 50), provenance="model")
        tr1, va1 = _split_pairs(data, 0.1, seed=3)
        tr2, va2 = _split_pairs(data, 0.1, seed=3)
        assert len(va1) == 5 and len(tr1) == 45
        assert np.array_equal(tr1.rows, tr2.rows) and np.array_equal(va1.rows, va2.rows)
        merged = np.vstack([tr1.x, va1.x])
        assert np.array_equal(np.sort(merged, axis=0), np.sort(data.x, axis=0))
        # each pair keeps its second member and confidence
        for part in (tr1, va1):
            row = (part.x[:, 0] / 2).astype(int)
            assert np.array_equal(part.x_prime, -part.x) and np.array_equal(part.s, data.s[row])
            assert part.provenance == "model"

    def test_bad_counts(self):
        data = SconfDataset(np.zeros((10, 2)), np.zeros((10, 2)), np.full(10, 0.5))
        with pytest.raises(ConfigError, match="empty split"):
            _split_pairs(data, 0.05, seed=1)
        with pytest.raises(ConfigError, match="empty split"):
            _split_pairs(data, 1.0, seed=1)


class TestModelConfidences:
    def test_separable_clusters_give_confident_pairs(self):
        rng = np.random.default_rng(1)
        n = 60
        X = np.vstack([rng.normal(-4, 0.3, (n, 2)), rng.normal(4, 0.3, (n, 2))])
        y = np.concatenate([np.ones(n, dtype=int), -np.ones(n, dtype=int)])
        ds, posteriors = posterior_model_confidences(
            LabeledData(X, y), Architecture.linear(2), seed=2, epochs=60, batch=32,
            lr0=0.1)
        assert posteriors.shape == (2 * n,)
        # posteriors saturate on the separable clusters
        assert float(np.mean(posteriors[:n])) > 0.9
        assert float(np.mean(posteriors[n:])) < 0.1
        same_sign = (ds.x[:, 0] > 0) == (ds.x_prime[:, 0] > 0)
        assert float(np.mean(ds.s[same_sign])) > 0.9

    def test_uninformative_labels_give_half(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(400, 2))
        y = np.where(rng.random(400) < 0.5, 1, -1)  # labels independent of X
        ds, posteriors = posterior_model_confidences(
            LabeledData(X, y), Architecture.linear(2), seed=3, epochs=30, batch=100)
        assert abs(float(np.mean(posteriors)) - 0.5) < 0.1
        assert float(np.mean(np.abs(ds.s - 0.5))) < 0.1

    def test_mean_confidence_consistent_with_mean_posterior(self):
        digits = pytest.importorskip("sklearn.datasets")
        X, y10 = digits.load_digits(return_X_y=True)
        data = corrupt_binary(X / 16.0, y10, corruption("mnist"))
        ds, posteriors = posterior_model_confidences(
            data, Architecture.mlp(X.shape[1], 64, 64), seed=4, epochs=10, batch=256)
        r_bar = float(np.mean(posteriors))
        target = r_bar**2 + (1 - r_bar) ** 2
        assert abs(float(np.mean(ds.s)) - target) < 0.03

    def test_odd_point_dropped(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(7, 2))
        y = np.where(rng.random(7) < 0.5, 1, -1)
        ds, posteriors = posterior_model_confidences(
            LabeledData(X, y), Architecture.linear(2), seed=1, epochs=2, batch=4)
        assert len(ds) == 3
        assert posteriors.shape == (7,)

    def test_empty(self):
        with pytest.raises(ConfigError):
            posterior_model_confidences(LabeledData(np.zeros((0, 2)), np.zeros(0, dtype=int)),
                                        Architecture.linear(2), seed=1)
