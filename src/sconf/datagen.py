"""Synthetic Gaussian data, unlabeled pairing, and similarity confidence.

A GaussianSetup fixes two class-conditional Gaussians and a class prior.
From it we can sample labeled points, compute exact class posteriors, pair
points into unlabeled (x, x') pairs, and attach to each pair its similarity
confidence s = P(y = y' | x, x') = r(x) r(x') + (1 - r(x)) (1 - r(x')),
where r is the positive-class posterior. Confidence noise is zero-mean
Gaussian, clipped back into [0, 1]; its std must be finite and nonnegative
(check_noise_std, the one rule for every noise level).

An SconfDataset of n pairs keeps both members in one (2n, d) row block, x
over x'; subset and pair_up build their block with one take of the rows and
hand it over with SconfDataset.from_rows. pair_up is the one pairing recipe:
pair_indices permutes the points with the stream (seed, 1) and pairs
consecutive entries, and each pair's confidence comes from the posteriors of
its two points.

All arithmetic is float64 and all sampling is deterministic given the seed.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fileio import parse_key_values, parse_list
from .rng import make_rng

_LOG_2PI = float(np.log(2.0 * np.pi))


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


@dataclass
class LabeledData:
    """A batch of labeled examples: features X (n, d) and labels y in {-1, +1}."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ConfigError("X must be (n, d) and y must be (n,)")
        _check_finite(X=self.X)
        if not np.all(np.isin(self.y, (-1, 1))):
            raise ConfigError("labels must be -1 or +1")

    def __len__(self):
        return self.X.shape[0]


@dataclass
class SconfDataset:
    """Unlabeled pairs (x_i, x'_i) with confidences s_i, both members copied
    into one (2n, d) block rows whose halves x and x_prime are views.

    provenance is "exact" for posterior-derived confidences, "noisy(std=...)"
    after noise injection, or "model" when the confidences come from a trained
    probabilistic classifier. reference_s holds the pre-noise confidences when
    they are known, so downstream code can report the total confidence
    deviation of a noisy training set.
    """

    x: np.ndarray
    x_prime: np.ndarray
    s: np.ndarray
    provenance: str = "exact"
    reference_s: np.ndarray | None = field(default=None, repr=False)
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        x_prime = np.asarray(self.x_prime, dtype=float)
        if x.shape != x_prime.shape or x.ndim != 2:
            raise ConfigError("x and x_prime must both be (n, d)")
        self._adopt(np.concatenate([x, x_prime]))

    @classmethod
    def from_rows(cls, rows, s, provenance="exact", reference_s=None):
        """Pairs from a (2n, d) block, x over x'; the block is kept, not copied."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or len(rows) % 2:
            raise ConfigError("rows must be (2n, d)")
        ds = cls.__new__(cls)
        ds.s, ds.provenance, ds.reference_s = s, provenance, reference_s
        ds._adopt(rows)
        return ds

    def _adopt(self, rows):
        # rows becomes the block, x and x_prime its halves; s is checked against it
        n = len(rows) // 2
        self.rows, self.x, self.x_prime = rows, rows[:n], rows[n:]
        self.s = np.asarray(self.s, dtype=float)
        if self.s.shape != (n,):
            raise ConfigError("s must be (n,)")
        _check_finite(x=self.x, x_prime=self.x_prime, s=self.s)
        if n and (self.s.min() < 0.0 or self.s.max() > 1.0):
            raise ConfigError("confidences must lie in [0, 1]")

    def __len__(self):
        return self.x.shape[0]

    def subset(self, idx):
        """The pairs at idx (indices or a boolean mask), keeping provenance and
        reference confidences; the rows are one take of the block."""
        idx = np.arange(len(self))[idx]
        return SconfDataset.from_rows(
            self.rows[np.concatenate([idx, idx + len(self)])], self.s[idx], self.provenance,
            None if self.reference_s is None else self.reference_s[idx])


def _check_finite(**arrays):
    for name, arr in arrays.items():
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            raise ConfigError(f"{name} has a non-finite value in row {bad[0][0]}")


def sample_labeled(setup, n_plus, n_minus, seed):
    """Draw n_plus positives then n_minus negatives from the setup.

    Sampling goes through the lower Cholesky factor of each covariance, so the
    requested moments are exact in distribution and the draw is reproducible
    from the seed.
    """
    if n_plus < 0 or n_minus < 0:
        raise ConfigError("sample counts must be nonnegative")
    rng = make_rng(seed)
    lp = np.linalg.cholesky(setup.sigma_plus)
    lm = np.linalg.cholesky(setup.sigma_minus)
    xp = setup.mu_plus + rng.standard_normal((n_plus, setup.dim)) @ lp.T
    xm = setup.mu_minus + rng.standard_normal((n_minus, setup.dim)) @ lm.T
    X = np.vstack([xp, xm])
    y = np.concatenate([np.ones(n_plus, dtype=int), -np.ones(n_minus, dtype=int)])
    return LabeledData(X, y)


def sample_train_test(setup, n_plus, n_minus, seed):
    """Training sample and its held-out test set: the test set has twice the
    training counts and is drawn from the stream (seed, 6)."""
    return (sample_labeled(setup, n_plus, n_minus, seed),
            sample_labeled(setup, 2 * n_plus, 2 * n_minus, make_rng(seed, 6).integers(2**31)))


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
    posterior falls back to the prior pi+ for that point.
    """
    X = np.asarray(X, dtype=float)
    scalar = X.ndim == 1
    with np.errstate(divide="ignore"):
        a = np.log(setup.pi_plus) + _log_density(X, setup.mu_plus, setup.sigma_plus)
        b = np.log(setup.pi_minus) + _log_density(X, setup.mu_minus, setup.sigma_minus)
    with np.errstate(over="ignore", invalid="ignore"):
        r = 1.0 / (1.0 + np.exp(b - a))
    bad = ~np.isfinite(b - a)
    if np.any(bad):
        # exp(b - a) is inf/inf or nan: both densities underflowed
        both_gone = bad & ~(np.isfinite(a) | np.isfinite(b))
        r = np.where(both_gone, setup.pi_plus, r)
        r = np.where(bad & np.isfinite(a) & ~np.isfinite(b), 1.0, r)
        r = np.where(bad & np.isfinite(b) & ~np.isfinite(a), 0.0, r)
    return float(r[0]) if scalar else r


def similarity_confidence(r_x, r_xp):
    """Probability that two points share a class, from their posteriors.

    s = r r' + (1 - r)(1 - r'). Symmetric in its arguments and equal to the
    density-ratio expression of the confidence when the inputs are exact
    posteriors.
    """
    r_x = np.asarray(r_x, dtype=float)
    r_xp = np.asarray(r_xp, dtype=float)
    for name, r in (("r_x", r_x), ("r_xp", r_xp)):
        if np.any(r < 0.0) or np.any(r > 1.0):
            raise ConfigError(f"{name} must lie in [0, 1]")
    s = r_x * r_xp + (1.0 - r_x) * (1.0 - r_xp)
    return float(s) if s.ndim == 0 else s


def pair_indices(n, seed):
    """Index arrays (i1, i2) of the n // 2 pairs of n points: a permutation
    from the stream (seed, 1), consecutive entries paired, an odd one out."""
    perm = make_rng(seed, 1).permutation(n)[:n - n % 2]
    return perm[0::2], perm[1::2]


def pair_up(X, r, seed, provenance):
    """Pair the rows of X (pair_indices) with confidences from their
    positive-class posteriors r. |pairs| = n // 2."""
    i1, i2 = pair_indices(len(X), seed)
    return SconfDataset.from_rows(X[np.concatenate([i1, i2])],
                                  similarity_confidence(r[i1], r[i2]), provenance)


def make_pairs(points, setup, seed):
    """Pair up an even batch of marginal draws and attach exact confidences.

    Random pairing keeps the pairs i.i.d. when the points are. |pairs| = n/2.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n % 2 != 0:
        raise ConfigError(f"need an even number of points to pair, got {n}; drop one point")
    return pair_up(points, posterior_plus(points, setup), seed, "exact")


def check_noise_std(std):
    """Raise ConfigError unless std is a confidence noise level: finite and
    nonnegative (a NaN is neither)."""
    if not 0.0 <= std < np.inf:
        raise ConfigError(f"confidence noise std must be finite and nonnegative, got {std}")


def add_confidence_noise(ds, std, seed):
    """The pairs of ds, sharing its row block, with clipped Gaussian noise on
    each confidence.

    s -> clip(s + N(0, std^2), 0, 1); std must pass check_noise_std, and a
    std of 0 leaves s as it is. The confidences of ds are left untouched; the
    result remembers them in reference_s.
    """
    check_noise_std(std)
    noisy = ds.s + make_rng(seed, 2).normal(0.0, std, size=len(ds)) if std > 0 else ds.s
    return SconfDataset.from_rows(ds.rows, np.clip(noisy, 0.0, 1.0), f"noisy(std={std:g})",
                                  ds.s.copy())


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
            raise ConfigError(f"{source}:{lineno}: {key} must be an integer") from None

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
