"""Differentiable scoring functions with exact backpropagation.

Two architectures: a linear-in-input model w.x + b, and a 3-layer ReLU
multilayer perceptron d-h1-h2-1. Parameters live in one flat float64 vector;
gradients accumulate into a same-shape buffer. forward() caches the
activations of its batch; backward() consumes the cache and invalidates it,
so memory stays bounded at one batch.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .fileio import write_atomic
from .rng import make_rng

CHECKPOINT_MAGIC = b"SCONF-CKPT-1"


@dataclass(frozen=True)
class Architecture:
    kind: str
    d: int
    h1: int = 500
    h2: int = 500

    def __post_init__(self):
        if self.kind not in ("linear", "mlp"):
            raise ConfigError(f"unknown architecture {self.kind!r}")
        if self.d < 1:
            raise ConfigError("input dimension must be positive")

    @staticmethod
    def linear(d):
        return Architecture("linear", d)

    @staticmethod
    def mlp(d, h1=500, h2=500):
        return Architecture("mlp", d, h1, h2)

    @property
    def param_count(self):
        if self.kind == "linear":
            return self.d + 1
        return (self.d * self.h1 + self.h1) + (self.h1 * self.h2 + self.h2) + (self.h2 + 1)

    def descriptor(self):
        if self.kind == "linear":
            return f"linear {self.d}"
        return f"mlp {self.d} {self.h1} {self.h2}"

    @staticmethod
    def parse(text):
        parts = text.split()
        try:
            if parts[0] == "linear" and len(parts) == 2:
                return Architecture.linear(int(parts[1]))
            if parts[0] == "mlp" and len(parts) == 4:
                return Architecture.mlp(int(parts[1]), int(parts[2]), int(parts[3]))
        except (ValueError, IndexError):
            pass
        raise ConfigError(f"bad architecture descriptor {text!r}")


@dataclass
class Predictor:
    arch: Architecture
    params: np.ndarray
    grads: np.ndarray
    grads_ready: bool = False
    _cache: dict | None = field(default=None, repr=False)

    def views(self):
        """Per-layer views into the flat parameter vector (shared memory)."""
        return _views(self.arch, self.params)

    def grad_views(self):
        return _views(self.arch, self.grads)

    def discard_cache(self):
        self._cache = None

    def copy(self):
        return Predictor(self.arch, self.params.copy(), np.zeros_like(self.grads))


def _views(arch, buf):
    if arch.kind == "linear":
        return {"w": buf[: arch.d], "b": buf[arch.d:]}
    d, h1, h2 = arch.d, arch.h1, arch.h2
    off = 0
    out = {}
    for name, shape in (("W1", (d, h1)), ("b1", (h1,)), ("W2", (h1, h2)),
                        ("b2", (h2,)), ("w3", (h2,)), ("b3", (1,))):
        size = int(np.prod(shape))
        out[name] = buf[off:off + size].reshape(shape)
        off += size
    return out


def init(arch, seed=0):
    """Fresh predictor: zeros for linear, He-normal weights for the MLP."""
    params = np.zeros(arch.param_count)
    if arch.kind == "mlp":
        rng = make_rng(seed, 3)
        v = _views(arch, params)
        v["W1"][...] = rng.normal(0.0, np.sqrt(2.0 / arch.d), v["W1"].shape)
        v["W2"][...] = rng.normal(0.0, np.sqrt(2.0 / arch.h1), v["W2"].shape)
        v["w3"][...] = rng.normal(0.0, np.sqrt(2.0 / arch.h2), v["w3"].shape)
    return Predictor(arch, params, np.zeros(arch.param_count))


def forward(p, X):
    """Scores for a batch; caches activations for one backward() call."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != p.arch.d:
        raise ConfigError(f"input dim {X.shape[1]} does not match architecture dim {p.arch.d}")
    v = p.views()
    if p.arch.kind == "linear":
        p._cache = {"X": X}
        return X @ v["w"] + v["b"][0]
    a1 = np.maximum(X @ v["W1"] + v["b1"], 0.0)
    a2 = np.maximum(a1 @ v["W2"] + v["b2"], 0.0)
    p._cache = {"X": X, "a1": a1, "a2": a2}
    return a2 @ v["w3"] + v["b3"][0]


def backward(p, upstream):
    """Accumulate d(sum_i upstream_i * score_i)/d params into p.grads.

    Consumes the activation cache of the last forward(). The ReLU subgradient
    at exactly 0 is taken as 0.
    """
    if p._cache is None:
        raise ConfigError("backward() needs a preceding forward() on this predictor")
    u = np.asarray(upstream, dtype=float)
    cache, p._cache = p._cache, None
    X = cache["X"]
    if u.shape != (X.shape[0],):
        raise ConfigError("upstream must have one entry per batch row")
    p.grads_ready = True
    g = p.grad_views()
    if p.arch.kind == "linear":
        g["w"] += X.T @ u
        g["b"] += u.sum()
        return
    v = p.views()
    a1, a2 = cache["a1"], cache["a2"]
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


def save_checkpoint(p, path):
    """Write magic line, architecture descriptor line, then little-endian
    float64 parameters. The write is atomic (temp file + rename)."""
    payload = CHECKPOINT_MAGIC + b"\n" + p.arch.descriptor().encode() + b"\n"
    payload += p.params.astype("<f8").tobytes()
    write_atomic(path, payload)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    head, sep, rest = blob.partition(b"\n")
    if head != CHECKPOINT_MAGIC or not sep:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    desc, sep, body = rest.partition(b"\n")
    if not sep:
        raise DataError(f"{path}: truncated checkpoint header")
    arch = Architecture.parse(desc.decode())
    expected = arch.param_count * 8
    if len(body) != expected:
        raise DataError(f"{path}: expected {expected} parameter bytes, found {len(body)}")
    params = np.frombuffer(body, dtype="<f8").astype(float)
    return Predictor(arch, params, np.zeros(arch.param_count))
