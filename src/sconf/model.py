"""Differentiable scoring functions with exact backpropagation.

Two architectures: a linear-in-input model w.x + b, and a 3-layer ReLU
multilayer perceptron d-h1-h2-1. A Predictor is its architecture and its
parameters, one flat float64 vector. forward() caches the activations of its
batch for one backward(), which consumes the cache, so memory stays bounded
at one batch.

features() is the one rule that reads input rows: a uint8 array holds pixel
codes c, read as the feature c / 255 (the bytes of codes.astype(float) /
255.0); any other array is read as float64. Datasets keep a uint8 block as
given (as_input()), so IDX images stay one byte a pixel until forward()
converts a batch, or score() a block.

The gradient belongs to the caller: backward() writes it, whole, into a
buffer of the parameters' shape (optim.AdamState.grads when training).

The linear model also comes as a stack of T independent trials
(init(arch, seed, trials=T)): a (T, d + 1) parameter block scores a
(T, n, d) batch into (T, n), and trial t computes the single model's bytes.
The MLP is never stacked.

score() is the one scoring-only pass: it keeps no activation cache, and
scores a stack in one forward() and a single model in blocks of
SCORE_BLOCK // d rows (linear) or SCORE_BLOCK // max(d, h1 + h2) rows (MLP),
so no block holds more than about SCORE_BLOCK float64 values. A block's
scores are the bytes of forward() on it; a longer set may differ from one
forward() in the last bits, within 1e-15 of the largest |score| of the set.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .fileio import write_atomic
from .rng import make_rng

CHECKPOINT_MAGIC = b"SCONF-CKPT-1"
# activation values (float64) per MLP scoring block: 8 MB, as optim.BLOCK
# bounds the Adam step's work buffers
SCORE_BLOCK = 2**20


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
        if self.kind == "mlp" and min(self.h1, self.h2) < 1:
            raise ConfigError("architecture hidden widths must be positive, "
                              f"got {self.h1}, {self.h2}")

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
        parts, sizes = text.split(), None
        try:
            if (parts[0], len(parts)) in (("linear", 2), ("mlp", 4)):
                sizes = [int(v) for v in parts[1:]]
        except (ValueError, IndexError):
            pass
        if sizes is None:
            raise ConfigError(f"bad architecture descriptor {text!r}")
        try:
            return Architecture(parts[0], *sizes)
        except ConfigError as exc:
            raise ConfigError(f"bad architecture descriptor {text!r}: {exc}") from None


@dataclass
class Predictor:
    arch: Architecture
    params: np.ndarray
    _cache: dict | None = field(default=None, repr=False)

    def views(self):
        """Per-layer views into the flat parameter vector (shared memory)."""
        return _views(self.arch, self.params)

    def discard_cache(self):
        self._cache = None

    @property
    def stacked(self):
        return self.params.ndim == 2

    def trial(self, t):
        """Trial t of a stack as a one-trial predictor (a view of its parameters)."""
        if not self.stacked:
            raise ConfigError("trial() needs a stacked predictor")
        return Predictor(self.arch, self.params[t])


def _views(arch, buf):
    if arch.kind == "linear":  # buf is (d + 1,), or (T, d + 1) for a stack
        return {"w": buf[..., :arch.d], "b": buf[..., arch.d:]}
    d, h1, h2 = arch.d, arch.h1, arch.h2
    off = 0
    out = {}
    for name, shape in (("W1", (d, h1)), ("b1", (h1,)), ("W2", (h1, h2)),
                        ("b2", (h2,)), ("w3", (h2,)), ("b3", (1,))):
        size = int(np.prod(shape))
        out[name] = buf[off:off + size].reshape(shape)
        off += size
    return out


def init(arch, seed=0, trials=None):
    """Fresh predictor: zeros for linear, He-normal weights for the MLP.

    trials=T gives a linear stack of T trials, a (T, d + 1) block of zeros.
    """
    if trials is not None and (arch.kind != "linear" or trials < 1):
        raise ConfigError(f"only the linear model stacks trials, got {arch.kind} x {trials}")
    params = np.zeros(arch.param_count if trials is None else (trials, arch.param_count))
    if arch.kind == "mlp":
        rng = make_rng(seed, 3)
        v = _views(arch, params)
        v["W1"][...] = rng.normal(0.0, np.sqrt(2.0 / arch.d), v["W1"].shape)
        v["W2"][...] = rng.normal(0.0, np.sqrt(2.0 / arch.h1), v["W2"].shape)
        v["w3"][...] = rng.normal(0.0, np.sqrt(2.0 / arch.h2), v["w3"].shape)
    return Predictor(arch, params)


def as_input(X):
    """X as a dataset keeps its input rows: a uint8 array of pixel codes as
    given, anything else as float64."""
    X = np.asarray(X)
    return X if X.dtype == np.uint8 else X.astype(float, copy=False)


def features(X):
    """The float64 features of input rows: uint8 pixel codes c read as c / 255,
    anything else converted to float64."""
    X = as_input(X)
    return np.divide(X, 255.0) if X.dtype == np.uint8 else X


def forward(p, X):
    """Scores for a batch; caches activations for one backward() call.

    A stack scores a (T, n, d) batch into (T, n): trial t computes the single model's bytes.
    X is read through features(), and the cache keeps the float64 batch.
    """
    X = np.atleast_2d(features(X))
    if X.shape[-1] != p.arch.d:
        raise ConfigError(f"input dim {X.shape[-1]} does not match architecture dim {p.arch.d}")
    if X.shape[:-2] != p.params.shape[:-1]:  # (T, n, d) for a stack of T, else (n, d)
        raise ConfigError(f"a batch of shape {X.shape} does not fit parameters of shape "
                          f"{p.params.shape}")
    v = p.views()
    if p.arch.kind == "linear":
        p._cache = {"X": X}
        z = (X @ v["w"][..., None])[..., 0]
        z += v["b"]
        return z
    a1 = X @ v["W1"]
    a1 += v["b1"]
    np.maximum(a1, 0.0, out=a1)
    a2 = a1 @ v["W2"]
    a2 += v["b2"]
    np.maximum(a2, 0.0, out=a2)
    p._cache = {"X": X, "a1": a1, "a2": a2}
    return a2 @ v["w3"] + v["b3"][0]


def score(p, X):
    """Scores for a batch without the activation cache: one forward() per
    block of SCORE_BLOCK // d rows for a linear model, SCORE_BLOCK //
    max(d, h1 + h2) for an MLP, and one forward() for a stack. Pixel codes
    stay codes until forward() converts a block. p keeps no cache afterwards."""
    X = np.atleast_2d(as_input(X))
    a = p.arch
    rows = max(1, SCORE_BLOCK // (a.d if a.kind == "linear" else max(a.d, a.h1 + a.h2)))
    # a stack is not 2-D, nor is a malformed batch: forward() rejects it by its
    # whole shape
    if len(X) <= rows or X.ndim != 2:
        z = forward(p, X)
    else:
        z = np.empty(len(X))
        for lo in range(0, len(X), rows):
            z[lo:lo + rows] = forward(p, X[lo:lo + rows])
            p.discard_cache()  # before the next block's activations exist
    p.discard_cache()
    return z


def backward(p, upstream, grads):
    """Write d(sum_i upstream_i * score_i)/d params into grads, an array of
    p.params' shape, overwriting all of it.

    Consumes the activation cache of the last forward(). The ReLU subgradient
    at exactly 0 is taken as 0. A stack's trial t computes the single model's bytes.
    """
    if p._cache is None:
        raise ConfigError("backward() needs a preceding forward() on this predictor")
    u = np.asarray(upstream, dtype=float)
    cache, p._cache = p._cache, None
    X = cache["X"]
    if u.shape != X.shape[:-1]:
        raise ConfigError("upstream must have one entry per batch row")
    if grads.shape != p.params.shape:
        raise ConfigError(f"gradient buffer {grads.shape} does not fit parameters {p.params.shape}")
    g = _views(p.arch, grads)
    if p.arch.kind == "linear":
        g["w"][...] = (X.swapaxes(-1, -2) @ u[..., None])[..., 0]
        g["b"][...] = u.sum(axis=-1, keepdims=True)
        return
    v = p.views()
    a1, a2 = cache["a1"], cache["a2"]
    np.matmul(a2.T, u, out=g["w3"])
    g["b3"][...] = u.sum()
    da2 = np.outer(u, v["w3"])
    da2 *= a2 > 0.0
    np.matmul(a1.T, da2, out=g["W2"])
    g["b2"][...] = da2.sum(axis=0)
    da1 = da2 @ v["W2"].T
    da1 *= a1 > 0.0
    np.matmul(X.T, da1, out=g["W1"])
    g["b1"][...] = da1.sum(axis=0)


def save_checkpoint(p, path):
    """Write magic line, architecture descriptor line, then little-endian
    float64 parameters. The write is atomic (temp file + rename). A stack of
    trials has no checkpoint form; save one trial(t) of it."""
    if p.stacked:
        raise ConfigError(f"cannot checkpoint a stack of {len(p.params)} trials; "
                          "save one trial(t)")
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
    try:
        arch = Architecture.parse(desc.decode(errors="replace"))
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from None
    expected = arch.param_count * 8
    if len(body) != expected:
        raise DataError(f"{path}: expected {expected} parameter bytes, found {len(body)}")
    params = np.frombuffer(body, dtype="<f8").astype(float)
    return Predictor(arch, params)
