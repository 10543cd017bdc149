"""IDX image datasets, binary label corruption, and model-based confidences.

IDX is the big-endian binary container used by the MNIST-family datasets:
magic 0x00000803 for image tensors, 0x00000801 for label vectors, whose low
byte counts the 32-bit dimensions before the uint8 payload; _read_idx and
_write_idx carry both kinds. Gzipped files are read transparently. Pixels are
flattened and scaled into [0, 1] by 1/255.

Binary corruption maps a multiclass label space onto {-1, +1} by a fixed
positive-class set. Similarity confidences for such data come from a
probabilistic classifier trained with logistic loss on the labeled points:
trainer.train_weighted_points with the one-hot point weights
trainer.one_hot(y). Its sigmoid outputs play the role of the class
posterior, and datagen.pair_up pairs the points with them.
"""

import gzip
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import model, trainer
from .datagen import LabeledData, pair_up
from .errors import ConfigError, DataError
from .fileio import write_atomic

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def _read_bytes(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == b"\x1f\x8b":
            with gzip.open(fh) as gz:
                return gz.read()
        return fh.read()


def _be32(blob, offset, path):
    if offset + 4 > len(blob):
        raise DataError(f"{path}: truncated at byte {offset}, expected a 32-bit field")
    return struct.unpack_from(">I", blob, offset)[0]


def _read_idx(path, magic, what):
    """The uint8 tensor of an IDX file whose magic must be magic; the magic's
    low byte is the number of 32-bit dimensions that follow it."""
    blob = _read_bytes(path)
    got = _be32(blob, 0, path)
    if got != magic:
        raise DataError(f"{path}: bad {what} magic 0x{got:08x} at byte 0, "
                        f"expected 0x{magic:08x}")
    shape = tuple(_be32(blob, 4 + 4 * i, path) for i in range(magic & 0xFF))
    offset, count = 4 + 4 * len(shape), math.prod(shape)
    if len(blob) < offset + count:
        raise DataError(f"{path}: truncated at byte {len(blob)}, need {offset + count} bytes "
                        f"for {what} shape {shape}")
    return np.frombuffer(blob, dtype=np.uint8, count=count, offset=offset).reshape(shape).copy()


def read_idx_images(path):
    """Image tensor from an IDX file as a uint8 array (n, rows, cols)."""
    return _read_idx(path, IDX_IMAGE_MAGIC, "image")


def read_idx_labels(path):
    """Label vector from an IDX file as a uint8 array (n,)."""
    return _read_idx(path, IDX_LABEL_MAGIC, "label")


def load_idx(images_path, labels_path):
    """Flattened images in [0, 1] plus their original integer labels."""
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataError(f"{images_path} has {images.shape[0]} images but "
                        f"{labels_path} has {labels.shape[0]} labels")
    X = images.reshape(images.shape[0], -1).astype(float) / 255.0
    return X, labels.astype(int)


def _write_idx(path, magic, array, what):
    array = np.ascontiguousarray(array, dtype=np.uint8)
    if array.ndim != magic & 0xFF:
        raise ConfigError(f"{what} must be a uint8 array with {magic & 0xFF} dimensions")
    write_atomic(path, struct.pack(f">{1 + array.ndim}I", magic, *array.shape) + array.tobytes())


def write_idx_images(path, images):
    """Inverse of read_idx_images, for fixtures and round-trip checks."""
    _write_idx(path, IDX_IMAGE_MAGIC, images, "images (n, rows, cols)")


def write_idx_labels(path, labels):
    _write_idx(path, IDX_LABEL_MAGIC, labels, "labels (n,)")


@dataclass(frozen=True)
class BinaryCorruption:
    """Fixed partition of a multiclass label space into +1 / -1."""

    dataset_name: str
    positive_classes: frozenset
    label_space: frozenset
    pi_plus_nominal: float

    def __post_init__(self):
        object.__setattr__(self, "positive_classes", frozenset(self.positive_classes))
        object.__setattr__(self, "label_space", frozenset(self.label_space))
        if not self.positive_classes <= self.label_space:
            raise ConfigError("positive classes must be part of the label space")


CORRUPTIONS = {
    # digits 0-2 against the rest
    "mnist": BinaryCorruption("mnist", frozenset(range(3)), frozenset(range(10)), 0.3),
    # T-shirt, Pullover, Dress, Shirt against the rest
    "fashion-mnist": BinaryCorruption("fashion-mnist", frozenset({0, 2, 3, 6}),
                                      frozenset(range(10)), 0.4),
    # first seven character classes against the last three
    "kuzushiji-mnist": BinaryCorruption("kuzushiji-mnist", frozenset(range(7)),
                                        frozenset(range(10)), 0.7),
    "emnist-digits": BinaryCorruption("emnist-digits", frozenset(range(6)),
                                      frozenset(range(10)), 0.6),
    # letters a-p (labels 1-16) against q-z (17-26)
    "emnist-letters": BinaryCorruption("emnist-letters", frozenset(range(1, 17)),
                                       frozenset(range(1, 27)), 0.6153),
}


def corruption(name):
    try:
        return CORRUPTIONS[name]
    except KeyError:
        raise ConfigError(f"unknown corruption rule {name!r}; "
                          f"choose from {sorted(CORRUPTIONS)}") from None


def corrupt_binary(X, labels, rule):
    """Apply a corruption rule: y = +1 iff the original label is positive."""
    labels = np.asarray(labels)
    uncovered = {int(u) for u in np.unique(labels)} - set(rule.label_space)
    if uncovered:
        raise ConfigError(f"labels {sorted(uncovered)} are not covered by "
                          f"rule {rule.dataset_name!r}")
    pos = np.isin(labels, list(rule.positive_classes))
    return LabeledData(X, np.where(pos, 1, -1))


def posterior_model_confidences(labeled, arch, seed, epochs=10, batch=3000, lr0=1e-2):
    """Pairs with similarity confidence generated by a trained classifier.

    Trains the given architecture on (X, y) with logistic loss, reads the
    sigmoid of its scores as positive-class posteriors, drops the labels, and
    pairs the points like the synthetic pipeline (datagen.pair_up), with s
    computed from the model posteriors.

    Returns (dataset, posteriors), the posteriors aligned with the input
    order. An odd point is dropped from the pairing but keeps its posterior.
    """
    if len(labeled) == 0:
        raise ConfigError("need labeled data to fit a confidence model")
    p = trainer.train_weighted_points(labeled.X, *trainer.one_hot(labeled.y), arch, epochs, lr0,
                                      seed=seed, batch=batch)
    scores = model.forward(p, labeled.X)
    p.discard_cache()
    posteriors = 1.0 / (1.0 + np.exp(-scores))
    return pair_up(labeled.X, posteriors, seed, "model"), posteriors
