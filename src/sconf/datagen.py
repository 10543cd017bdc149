"""Synthetic Gaussian data, unlabeled pairing, and similarity confidence.

A GaussianSetup fixes two class-conditional Gaussians and a class prior.
From it we can sample labeled points, compute exact class posteriors, pair
points into unlabeled (x, x') pairs, and attach to each pair its similarity
confidence s = P(y = y' | x, x') = r(x) r(x') + (1 - r(x)) (1 - r(x')),
where r is the positive-class posterior. Confidence noise is zero-mean
Gaussian, clipped back into [0, 1]; its std must be finite and nonnegative
(check_noise_std, the one rule for every noise level).

An SconfDataset of n pairs is its (2n, d) row block, x over x', and its n
confidences; subset and pair_up build their block with one gather, which
takes the x rows into its top half and the x' rows into its bottom half with
no whole-set index, and the dataset keeps it as given. pair_up is the one
pairing recipe: it pairs the points by pair_indices, which permutes them with
the stream (seed, 1) and pairs consecutive entries, and each pair's
confidence comes from the posteriors of its two points.

LabeledData and SconfDataset keep their rows as model.as_input does: a uint8
block of IDX pixel codes as given, since the model reads a code c as c / 255
only where it scores a batch, and anything else as float64.

A sample is drawn block by block, and scored the same way, with the bytes of
the whole-set expressions. sample_blocks is the one sampler: it yields the
sample's rows edges[k]..edges[k+1] as the loop reaches them, each class's
rows drawn straight into the block, np.matmul(Z, L.T, out=rows) then
rows += mu. Its draws continue one stream, positives first, so the blocks
concatenate to mu + Z @ L.T stacked class over class; sample_labeled is its
one-block case. block_edges(n) is the one block rule: blocks of
POSTERIOR_BLOCK rows, the last block taking the remainder, so no block is
shorter than POSTERIOR_BLOCK unless the whole set is. posterior_plus works in
those blocks, as does the sample-size sweep, which draws its 200,000-point
test set in them: LAPACK solves a single right-hand side in another order
than several, so a one-row tail block could move a posterior in its last
bit. Labels are checked by losses.check_labels.

All arithmetic is float64 and all sampling is deterministic given the seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_int
from .fileio import parse_key_values, parse_list
from .losses import check_labels, sigmoid
from .model import as_input
from .rng import make_rng

_LOG_2PI = float(np.log(2.0 * np.pi))
# rows per posterior_plus block (the last block takes the remainder): its
# density work buffers hold a few float64 values a row, not the whole set's
POSTERIOR_BLOCK = 2**14


@dataclass(frozen=True)
class GaussianSetup:
    """Two-class Gaussian mixture: means, covariances, positive-class prior."""

    mu_plus: np.ndarray
    mu_minus: np.ndarray
    sigma_plus: np.ndarray
    sigma_minus: np.ndarray
    pi_plus: float

    def __post_init__(self):
        object.__setattr__(self, "mu_plus", np.asarray(self.mu_plus, dtype=float))
        object.__setattr__(self, "mu_minus", np.asarray(self.mu_minus, dtype=float))
        object.__setattr__(self, "sigma_plus", np.asarray(self.sigma_plus, dtype=float))
        object.__setattr__(self, "sigma_minus", np.asarray(self.sigma_minus, dtype=float))
        d = self.mu_plus.shape[0]
        if self.mu_minus.shape != (d,):
            raise ConfigError("mu_plus and mu_minus must have the same dimension")
        for name, sig in (("sigma_plus", self.sigma_plus), ("sigma_minus", self.sigma_minus)):
            if sig.shape != (d, d):
                raise ConfigError(f"{name} must be {d}x{d}, got {sig.shape}")
            if not np.allclose(sig, sig.T):
                raise ConfigError(f"{name} is not symmetric")
            try:
                np.linalg.cholesky(sig)
            except np.linalg.LinAlgError:
                raise ConfigError(f"{name} is not positive-definite") from None
        # pi_plus = 1 is admitted so that degenerate single-class posteriors
        # can be expressed; sampling still takes explicit per-class counts.
        if not 0.0 < self.pi_plus <= 1.0:
            raise ConfigError(f"pi_plus must lie in (0, 1], got {self.pi_plus}")

    @property
    def dim(self):
        return self.mu_plus.shape[0]

    @property
    def pi_minus(self):
        return 1.0 - self.pi_plus


# Built-in synthetic presets. Each uses the 500/300 positive/negative training
# counts, so the generating class prior is 500/800 = 0.625.
#
# Note on preset D: the off-diagonal of sigma_minus is +5, not -5. With -5 the
# minus-class ellipse is elongated *across* the mean offset (4, 4) and a linear
# model reaches ~98% accuracy, which contradicts every reference accuracy for
# this preset (~90.5%); with +5 the geometry matches the other three presets
# (minus class elongated toward the plus cluster) and reproduces them.
PRESET_PI_PLUS = 0.625
PRESET_N_PLUS = 500
PRESET_N_MINUS = 300

SETUPS = {
    "A": GaussianSetup([0.0, 0.0], [-2.0, 5.0], [[7.0, -6.0], [-6.0, 7.0]],
                       [[2.0, 0.0], [0.0, 2.0]], PRESET_PI_PLUS),
    "B": GaussianSetup([0.0, 0.0], [4.0, 0.0], [[3.0, 0.0], [0.0, 3.0]],
                       [[2.0, 0.0], [0.0, 2.0]], PRESET_PI_PLUS),
    "C": GaussianSetup([0.0, 0.0], [3.0, -3.0], [[2.0, 0.0], [0.0, 2.0]],
                       [[4.0, -3.0], [-3.0, 4.0]], PRESET_PI_PLUS),
    "D": GaussianSetup([0.0, 0.0], [4.0, 4.0], [[2.0, 0.0], [0.0, 2.0]],
                       [[6.0, 5.0], [5.0, 6.0]], PRESET_PI_PLUS),
}


def preset(name):
    """Look up a built-in setup by name ("A".."D")."""
    try:
        return SETUPS[name]
    except KeyError:
        raise ConfigError(f"unknown setup preset {name!r}; choose from {sorted(SETUPS)}") from None


@dataclass(eq=False)
class LabeledData:
    """A batch of labeled examples: input rows X (n, d), float64 features or
    uint8 pixel codes, and labels y in {-1, +1}."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = as_input(self.X)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ConfigError("X must be (n, d) and y must be (n,)")
        _check_finite(X=self.X)
        check_labels(self.y)

    def __len__(self):
        return self.X.shape[0]


@dataclass(eq=False)
class SconfDataset:
    """Unlabeled pairs (x_i, x'_i) with confidences s_i: the (2n, d) block
    rows holds the x members over the x' members, and x and x_prime are views
    of its halves. The block given is kept, not copied: float64 features, or
    uint8 pixel codes."""

    rows: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        self.rows = as_input(self.rows)
        self.s = np.asarray(self.s, dtype=float)
        if self.rows.ndim != 2 or len(self.rows) % 2:
            raise ConfigError("rows must be (2n, d)")
        if self.s.shape != (len(self.rows) // 2,):
            raise ConfigError("s must be (n,)")
        _check_finite(x=self.x, x_prime=self.x_prime, s=self.s)
        if len(self) and (self.s.min() < 0.0 or self.s.max() > 1.0):
            raise ConfigError("confidences must lie in [0, 1]")

    @property
    def x(self):
        return self.rows[:len(self)]

    @property
    def x_prime(self):
        return self.rows[len(self):]

    def __len__(self):
        return len(self.s)

    def subset(self, idx):
        """The pairs at idx (indices or a boolean mask); the rows are one
        gather of the block."""
        idx = np.arange(len(self))[idx]
        return SconfDataset(_gather_pairs(self.rows, idx, idx + len(self)), self.s[idx])


def _gather_pairs(X, i1, i2, out=None):
    """The (2m, d) block of the m pairs (X[i1], X[i2]), x over x', filled by
    two np.take into out (a new block of X's dtype when None): the bytes of
    X[np.concatenate([i1, i2])] without the concatenated index. The indices
    must lie in range, as pair_indices and subset give them: np.take's wrap
    mode writes straight into out, where its checking mode buffers a copy."""
    m = len(i1)
    if out is None:
        out = np.empty((2 * m,) + X.shape[1:], dtype=X.dtype)
    np.take(X, i1, axis=0, out=out[:m], mode="wrap")
    np.take(X, i2, axis=0, out=out[m:], mode="wrap")
    return out


def _check_finite(**arrays):
    for name, arr in arrays.items():
        if np.issubdtype(arr.dtype, np.integer):  # pixel codes: always finite
            continue
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            raise ConfigError(f"{name} has a non-finite value in row {bad[0][0]}")


def block_edges(n):
    """Row offsets 0, POSTERIOR_BLOCK, 2 POSTERIOR_BLOCK, ..., n of the blocks
    of n rows: the last block takes the remainder, so no block is shorter
    than POSTERIOR_BLOCK unless the whole set is ([0, n] then)."""
    return [k * POSTERIOR_BLOCK for k in range(max(n // POSTERIOR_BLOCK, 1))] + [n]


def sample_blocks(setup, n_plus, n_minus, seed, edges):
    """n_plus positives then n_minus negatives from the setup, one
    LabeledData of rows edges[k]..edges[k+1] per block, drawn as the loop
    reaches it; edges runs from 0 to n_plus + n_minus. Both counts pass
    errors.check_int with a minimum of 0 before anything is drawn.

    Sampling goes through the lower Cholesky factor of each covariance, so the
    requested moments are exact in distribution and the draw is reproducible
    from the seed. Each class is drawn straight into its rows of the block,
    np.matmul(Z, L.T, out=rows) then rows += mu, and its labels are one slice
    of an np.full block. The draws continue one stream, positives first, so
    the blocks concatenate to the bytes, int labels included, of
    vstack([mu+ + Z+ @ L+.T, mu- + Z- @ L-.T]) over concatenated ones and
    minus ones, without the per-class and stacked copies.
    """
    check_int(n_plus, "n_plus", 0)
    check_int(n_minus, "n_minus", 0)
    if edges[0] != 0 or edges[-1] != n_plus + n_minus:
        raise ConfigError(f"block edges must run from 0 to {n_plus + n_minus}")
    rng = make_rng(seed)
    factors = [np.linalg.cholesky(sigma).T for sigma in (setup.sigma_plus, setup.sigma_minus)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        X = np.empty((hi - lo, setup.dim))
        cut = min(max(n_plus - lo, 0), hi - lo)  # the block's positives are its first cut rows
        for rows, mu, lt in ((X[:cut], setup.mu_plus, factors[0]),
                             (X[cut:], setup.mu_minus, factors[1])):
            np.matmul(rng.standard_normal(rows.shape), lt, out=rows)
            rows += mu
        y = np.full(hi - lo, -1, dtype=int)
        y[:cut] = 1
        yield LabeledData(X, y)


def sample_labeled(setup, n_plus, n_minus, seed):
    """Draw n_plus positives then n_minus negatives from the setup: the one
    block of sample_blocks."""
    return next(sample_blocks(setup, n_plus, n_minus, seed, [0, n_plus + n_minus]))


def sample_train_test(setup, n_plus, n_minus, seed):
    """Training sample and its held-out test set (sample_test)."""
    return sample_labeled(setup, n_plus, n_minus, seed), sample_test(setup, n_plus, n_minus, seed)


def sample_test(setup, n_plus, n_minus, seed):
    """The held-out test set of a training sample: twice its counts, drawn
    from the stream (seed, 6)."""
    return sample_labeled(setup, 2 * n_plus, 2 * n_minus, make_rng(seed, 6).integers(2**31))


def _log_density(X, mu, sigma):
    # multivariate normal log-pdf via the Cholesky factor
    L = np.linalg.cholesky(sigma)
    diff = np.atleast_2d(X) - mu
    u = np.linalg.solve(L, diff.T)
    quad = np.sum(u * u, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (quad + logdet + mu.shape[0] * _LOG_2PI)


def posterior_plus(X, setup):
    """Positive-class posterior r(x) = pi+ p+(x) / (pi+ p+(x) + pi- p-(x)).

    Evaluated in log-density space. If both weighted log densities are
    unrepresentable for some point (possible only in the extreme tails), the
    posterior falls back to the prior pi+ for that point. The result is
    always an ndarray of one posterior per row; a single point is one row.

    The rows are taken in the blocks of block_edges, so only the output is as
    long as the set. Each row's posterior is the bytes of the whole-set
    expression, since no block has a single row unless the whole set has.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    r = np.empty(len(X))
    edges = block_edges(len(X))
    for lo, hi in zip(edges[:-1], edges[1:]):
        x = X[lo:hi]
        with np.errstate(divide="ignore", over="ignore"):  # an underflowed density is -inf
            a = np.log(setup.pi_plus) + _log_density(x, setup.mu_plus, setup.sigma_plus)
            b = np.log(setup.pi_minus) + _log_density(x, setup.mu_minus, setup.sigma_minus)
        with np.errstate(invalid="ignore"):  # both underflowed: -inf - -inf is nan, r the prior
            r_block = sigmoid(a - b)  # one underflowed: a - b is +-inf, so r is 1.0 or 0.0
        r[lo:hi] = np.where(np.isnan(r_block), setup.pi_plus, r_block)
    return r


def similarity_confidence(r_x, r_xp):
    """Probability that two points share a class, from their posteriors.

    s = r r' + (1 - r)(1 - r'). Symmetric in its arguments and equal to the
    density-ratio expression of the confidence when the inputs are exact
    posteriors. Always an ndarray, 0-d for scalar posteriors.
    """
    r_x = np.asarray(r_x, dtype=float)
    r_xp = np.asarray(r_xp, dtype=float)
    for name, r in (("r_x", r_x), ("r_xp", r_xp)):
        if np.any(r < 0.0) or np.any(r > 1.0):
            raise ConfigError(f"{name} must lie in [0, 1]")
    return np.asarray(r_x * r_xp + (1.0 - r_x) * (1.0 - r_xp))


def pair_indices(n, seed):
    """Index arrays (i1, i2) of the n // 2 pairs of n points: a permutation
    from the stream (seed, 1), consecutive entries paired, an odd one out."""
    perm = make_rng(seed, 1).permutation(n)[:n - n % 2]
    return perm[0::2], perm[1::2]


def pair_up(X, r, pairs, out=None):
    """Pair the rows of X by the index arrays (i1, i2) of pair_indices, with
    confidences from their positive-class posteriors r. The pair block is
    gathered into out, a (2m, d) block of X's dtype, or a new one when None.
    The confidences come first, so their gathered posteriors and temporaries
    are gone before the block is filled."""
    i1, i2 = pairs
    s = similarity_confidence(r[i1], r[i2])
    return SconfDataset(_gather_pairs(X, i1, i2, out), s)


def make_pairs(points, setup, seed, out=None):
    """Pair up an even batch of marginal draws and attach exact confidences,
    the pair block gathered into out as pair_up does.

    Random pairing keeps the pairs i.i.d. when the points are. |pairs| = n/2.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n % 2 != 0:
        raise ConfigError(f"need an even number of points to pair, got {n}; drop one point")
    return pair_up(points, posterior_plus(points, setup), pair_indices(n, seed), out)


def check_noise_std(std):
    """Raise ConfigError unless std is a confidence noise level: finite and
    nonnegative (a NaN is neither)."""
    if not 0.0 <= std < np.inf:
        raise ConfigError(f"confidence noise std must be finite and nonnegative, got {std}")


def add_confidence_noise(ds, std, seed):
    """The pairs of ds, sharing its row block, with clipped Gaussian noise on
    each confidence.

    s -> clip(s + N(0, std^2), 0, 1); std must pass check_noise_std, and a
    std of 0 leaves s as it is. The confidences of ds are left untouched.
    """
    check_noise_std(std)
    noisy = ds.s + make_rng(seed, 2).normal(0.0, std, size=len(ds)) if std > 0 else ds.s
    return SconfDataset(ds.rows, np.clip(noisy, 0.0, 1.0))


# ---------------------------------------------------------------------------
# setup files: plain-text key=value descriptions of a synthetic experiment

SETUP_FILE_KEYS = ("mu_plus", "mu_minus", "sigma_plus", "sigma_minus",
                   "pi_plus", "n_plus", "n_minus")


@dataclass(frozen=True)
class SynthSpec:
    """A setup file's content: the mixture plus sampling counts. The seed is
    not part of it: every command that samples takes its own."""

    setup: GaussianSetup
    n_plus: int
    n_minus: int


def preset_synth(name):
    """SynthSpec for a built-in preset with its canonical 500/300 counts."""
    return SynthSpec(preset(name), PRESET_N_PLUS, PRESET_N_MINUS)


def parse_setup(text, source="<string>"):
    """Parse key=value setup text into a SynthSpec.

    Unknown and repeated keys are rejected; every key in SETUP_FILE_KEYS is
    required.
    Covariances are given as four row-major numbers.
    """
    values = parse_key_values(text, SETUP_FILE_KEYS, source)
    missing = [k for k in SETUP_FILE_KEYS if k not in values]
    if missing:
        raise ConfigError(f"{source}: missing keys: {', '.join(missing)}")

    def floats(key, count):
        lineno, val = values[key]
        parts = parse_list(val, float, f"{source}:{lineno}: {key}")
        if len(parts) != count:
            raise ConfigError(f"{source}:{lineno}: {key} needs {count} numbers, got {len(parts)}")
        return parts

    def integer(key):
        lineno, val = values[key]
        try:
            return int(val)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: {key} must be an integer, got {val!r}") from None

    setup = GaussianSetup(
        mu_plus=floats("mu_plus", 2),
        mu_minus=floats("mu_minus", 2),
        sigma_plus=np.array(floats("sigma_plus", 4)).reshape(2, 2),
        sigma_minus=np.array(floats("sigma_minus", 4)).reshape(2, 2),
        pi_plus=floats("pi_plus", 1)[0],
    )
    return SynthSpec(setup, integer("n_plus"), integer("n_minus"))


def load_setup_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_setup(fh.read(), source=str(path))
