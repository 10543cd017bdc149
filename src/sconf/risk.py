"""Risk estimators over unlabeled pairs with similarity confidence.

Writing l+_i = l(z_i, +1) + l(z'_i, +1) and l-_i = l(z_i, -1) + l(z'_i, -1)
for the summed pair losses, every pair estimator over an n-pair batch is

    f(r+) + f(r-),   r+ = sum_i a_i l+_i,   r- = sum_i b_i l-_i,

with the per-pair weights (a, b) of pair_weights() and the correction f of
correction(). For the paired kinds a_i = (s_i - pi-) / (2 n (pi+ - pi-)) and
b_i = (pi+ - s_i) / (2 n (pi+ - pi-)). With f the identity ("unbiased") the
total is an unbiased estimate of the supervised classification risk, but
either partial can go negative in a finite sample. The corrected estimators
use f(x) = x for x >= 0 and k|x| for x < 0:

    nn           k = 0, max(0, x)
    abs          k = 1, |x|
    corrected(k) any finite k > 0

The one-sided estimators apply to pair sets conditioned on being similar
(resp. dissimilar); they fold lead / s_i (resp. lead / (1 - s_i)) into a_i
and b_i, with lead = pi+^2 + pi-^2 (resp. 2 pi+ pi-), and f is the identity.
They are unbiased too, but when the confidences are skewed past the prior
their empirical minimizer collapses to a one-class solution, which is the
failure mode the paired estimators exist to avoid.

partial_risks() gives (r+, r-) for every pair kind, and pair_risk() is
f(r+) + f(r-) of them. f has slope 1 for the IDENTITY_KINDS, so there
risk_gradient_weights() is (a, b) and needs no partial risks; for the
corrected kinds it is (a, b) times f'(r+/-).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BalancedPriorError, ConfigError
from .losses import LOSS_KINDS, loss_value

ONE_SIDED_KINDS = ("similar_only", "dissimilar_only")
IDENTITY_KINDS = ("unbiased",) + ONE_SIDED_KINDS  # f(x) = x
PAIR_KINDS = ("unbiased", "nn", "abs", "corrected") + ONE_SIDED_KINDS
RISK_KINDS = PAIR_KINDS + ("supervised",)

# Coefficients blow up as pi+ -> pi-; refuse to construct a spec there.
PRIOR_GUARD = 1e-3


def check_estimator(kind, loss="logistic", k=None):
    """Raise ConfigError unless kind, loss and k name an estimator: RiskSpec's
    checks that do not depend on the class prior."""
    if kind not in RISK_KINDS:
        raise ConfigError(f"unknown risk kind {kind!r}; choose from {RISK_KINDS}")
    if loss not in LOSS_KINDS:
        raise ConfigError(f"unknown loss {loss!r}")
    if kind == "corrected":
        if k is None or not 0.0 < k < np.inf:
            raise ConfigError(f"corrected risk needs a finite k > 0, got {k}")
    elif k is not None:
        raise ConfigError(f"k applies only to the corrected kind, not {kind!r}")


@dataclass(frozen=True)
class RiskSpec:
    """Estimator kind, class prior, and loss choice for one training run."""

    kind: str
    pi_plus: float
    loss: str = "logistic"
    k: float | None = None

    def __post_init__(self):
        check_estimator(self.kind, self.loss, self.k)
        if not 0.0 < self.pi_plus < 1.0:
            raise ConfigError(f"pi_plus must lie in (0, 1), got {self.pi_plus}")
        if self.kind in PAIR_KINDS and abs(self.pi_plus - 0.5) < PRIOR_GUARD:
            raise BalancedPriorError(
                f"pi_plus={self.pi_plus} is within {PRIOR_GUARD} of 1/2; the pair "
                "estimator denominators (pi+ - pi-) are unusable this close to balance"
            )

    @property
    def pi_minus(self):
        return 1.0 - self.pi_plus


@dataclass(frozen=True)
class PartialRisks:
    """Positive and negative partial risks; either may be negative."""

    r_plus: float
    r_minus: float


def pair_weights(s, spec):
    """Per-pair weights (a, b) of the summed +1 and -1 pair losses, any pair kind."""
    s = np.asarray(s, dtype=float)
    if len(s) == 0:
        raise ConfigError("empty pair batch")
    if spec.kind not in PAIR_KINDS:
        raise ConfigError(f"risk kind {spec.kind!r} has no pair weights")
    denom = 2.0 * len(s) * (spec.pi_plus - spec.pi_minus)
    a, b = (s - spec.pi_minus) / denom, (spec.pi_plus - s) / denom
    if spec.kind in ONE_SIDED_KINDS:
        lead, div = _one_sided_factors(s, spec)
        a, b = lead * a / div, lead * b / div
    return a, b


def _one_sided_factors(s, spec):
    if spec.kind == "similar_only":
        if np.any(s <= 0.0):
            bad = int(np.argmax(s <= 0.0))
            raise ConfigError(f"similar-only risk needs s > 0 for every pair; pair {bad} has s=0")
        return spec.pi_plus**2 + spec.pi_minus**2, s
    if np.any(s >= 1.0):
        bad = int(np.argmax(s >= 1.0))
        raise ConfigError(f"dissimilar-only risk needs s < 1 for every pair; pair {bad} has s=1")
    return 2.0 * spec.pi_plus * spec.pi_minus, 1.0 - s


def partial_risks(z, z_prime, s, spec):
    """The two partial risks r+ = sum a l+, r- = sum b l- of a pair batch, any
    pair kind: the one computation behind every pair risk.

    z and z_prime are the scores of the first and second pair members.
    Summation is numpy pairwise summation, which keeps the accumulation error
    well under the 1e-12 oracle tolerance for batches in the thousands.
    """
    z = np.asarray(z, dtype=float)
    z_prime = np.asarray(z_prime, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (z.shape == z_prime.shape == s.shape) or z.ndim != 1:
        raise ConfigError("scores and confidences must be equal-length 1-d arrays")
    a, b = pair_weights(s, spec)
    lp = loss_value(spec.loss, z, 1) + loss_value(spec.loss, z_prime, 1)
    lm = loss_value(spec.loss, z, -1) + loss_value(spec.loss, z_prime, -1)
    return PartialRisks(float(np.sum(a * lp)), float(np.sum(b * lm)))


def correction(x, spec):
    """(f(x), f'(x)) for the spec's correction of one partial risk.

    f is the identity for the kinds without a k (unbiased, one-sided) and for
    x >= 0 (so f'(0) = 1 at the kink); a NaN passes through unchanged. Below
    zero f(x) = -k x, with k = 0 for nn and k = 1 for abs.
    """
    k = {"nn": 0.0, "abs": 1.0, "corrected": spec.k}.get(spec.kind)
    if k is None or not x < 0.0:
        return float(x), 1.0
    return float(-k * x), 0.0 - k


def total_risk(pr, spec):
    """f(r+) + f(r-) for the spec's correction; plain sum when unbiased."""
    return correction(pr.r_plus, spec)[0] + correction(pr.r_minus, spec)[0]


def risk_gradient_weights(s, pr, spec):
    """Per-pair weights (w+, w-) so that d total / d z_i decomposes as

        w+_i * dl(z_i, +1)/dz + w-_i * dl(z_i, -1)/dz

    and identically for z'_i: the pair weights (a, b), times the outer chain
    factor f'(r+/-). An identity kind has f' = 1, so pr is unused there and
    may be None.
    """
    a, b = pair_weights(s, spec)
    if spec.kind in IDENTITY_KINDS:
        return a, b
    return correction(pr.r_plus, spec)[1] * a, correction(pr.r_minus, spec)[1] * b


def supervised_risk(z, y, loss="logistic"):
    """Mean loss of scores against known labels; the oracle the pair
    estimators are unbiased for."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y)
    if z.shape != y.shape or z.ndim != 1:
        raise ConfigError("scores and labels must be equal-length 1-d arrays")
    if len(z) == 0:
        raise ConfigError("empty batch")
    return float(np.mean(loss_value(loss, z, y)))


def pair_risk(z, z_prime, s, spec):
    """Total risk f(r+) + f(r-) of a pair batch for any pair kind."""
    return total_risk(partial_risks(z, z_prime, s, spec), spec)
