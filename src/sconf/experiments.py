"""Synthetic experiment protocols built on the library primitives.

The benchmark-style runs on the built-in Gaussian setups train a linear model
with logistic loss by full-batch Adam (lr 0.1, divided by 10 every 30 epochs,
100 epochs) on the confidences of *all* unordered pairs of the training
points. Using every pair rather than a disjoint matching is what makes the
800-point runs land within a fraction of a point of the reference accuracies
with sub-point spread. all_pairs_point_weights sums each point's unbiased
pair weights (risk.pair_weights) over its partners into one (a_i, b_i); the
objective sum_i a_i l(z_i, +1) + b_i l(z_i, -1) is algebraically identical to
the full pair risk, but costs O(n) per step instead of O(n^2).
run_table_trial minimizes it, or the supervised arm's one-hot weights, with
trainer.train_weighted_points (also importable from here).

Sampling conventions for the built-in setups: the datagen preset counts of
500 positive / 300 negative training points (class prior 0.625) and the test
set of datagen.sample_train_test, twice the training size (1000/600),
everything keyed off one integer seed per trial.
"""

from dataclasses import dataclass

import numpy as np

from . import model, trainer
from .datagen import (PRESET_N_MINUS, PRESET_N_PLUS, PRESET_PI_PLUS, GaussianSetup,
                      make_pairs, pair_indices, pair_up, posterior_plus, preset, sample_labeled,
                      sample_train_test)
from .errors import ConfigError
from .rng import make_rng
from .risk import RiskSpec, pair_risk
from .trainer import TrainConfig, train_weighted_points

TRAIN_COUNTS = (PRESET_N_PLUS, PRESET_N_MINUS)

# appendix protocol for the linear synthetic runs
SYNTH_EPOCHS = 100
SYNTH_LR0 = 0.1
SYNTH_DROP = 30

# the two-Gaussian layout of the one-sided failure demonstration
COLLAPSE_SETUP = GaussianSetup([-4.0, 0.0], [2.0, 2.0],
                               [[2.0, 0.0], [0.0, 2.0]],
                               [[3.0, 0.0], [0.0, 3.0]], PRESET_PI_PLUS)


def bayes_predict(X, setup):
    """The analytic Bayes classifier sign(r(x) - 1/2), ties positive."""
    return np.where(posterior_plus(X, setup) >= 0.5, 1, -1)


def bayes_accuracy(test, setup):
    return float(np.mean(bayes_predict(test.X, setup) == test.y))


# ---------------------------------------------------------------------------
# all-pairs confidence weights


def all_pairs_point_weights(X, setup, noise_std=0.0, seed=0):
    """Per-point loss weights of the unbiased risk over all unordered pairs.

    Returns (a, b, sigma_n) where the objective is
    sum_i a_i l(z_i, +1) + b_i l(z_i, -1): point i's coefficient aggregates
    (s_ij - pi-) resp. (pi+ - s_ij) over its n-1 partners, normalized by the
    ordered pair count and 2 (pi+ - pi-) exactly as in the pair risk. With
    exact confidences the aggregation is closed-form O(n); with confidence
    noise the pair matrix is materialized once, one symmetric draw per
    unordered pair, clipped to [0, 1]. sigma_n is the summed absolute
    confidence deviation over unordered pairs (0 when exact).
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ConfigError("need at least two points to form pairs")
    r = posterior_plus(X, setup)
    pi_p, pi_m = setup.pi_plus, 1.0 - setup.pi_plus
    sigma_n = 0.0
    if noise_std == 0.0:
        total_r = r.sum()
        # sum over j != i of s_ij, expanded from s = r r' + (1-r)(1-r')
        s_row = r * (total_r - r) + (1.0 - r) * ((n - 1) - (total_r - r))
    else:
        S = np.outer(r, r) + np.outer(1.0 - r, 1.0 - r)
        iu = np.triu_indices(n, 1)
        noise = make_rng(seed, 2).normal(0.0, noise_std, size=len(iu[0]))
        noisy = np.clip(S[iu] + noise, 0.0, 1.0)
        sigma_n = float(np.abs(noisy - S[iu]).sum())
        S[iu] = noisy
        S.T[iu] = noisy
        np.fill_diagonal(S, 0.0)
        s_row = S.sum(axis=1)
    ordered = n * (n - 1)
    denom = ordered * (pi_p - pi_m)
    a = (s_row - (n - 1) * pi_m) / denom
    b = ((n - 1) * pi_p - s_row) / denom
    return a, b, sigma_n


# ---------------------------------------------------------------------------
# benchmark table: setups A-D x {exact, noisy confidences, supervised}


@dataclass(frozen=True)
class TableRun:
    setup: str
    method: str
    noise_std: float
    seed: int
    acc_final: float
    sigma_n: float


def run_table_trial(setup_name, seed, method="sconf", noise_std=0.0):
    """Final test accuracy of one table run: the points weighted by all-pairs
    confidences (method "sconf") or one-hot labels ("supervised")."""
    setup = preset(setup_name)
    train, test = sample_train_test(setup, *TRAIN_COUNTS, seed)
    if method == "supervised":
        (a, b), sigma_n = trainer.one_hot(train.y), 0.0
    else:
        a, b, sigma_n = all_pairs_point_weights(train.X, setup, noise_std=noise_std, seed=seed)
    p = train_weighted_points(train.X, a, b, model.Architecture.linear(setup.dim),
                              epochs=SYNTH_EPOCHS, lr0=SYNTH_LR0, seed=seed,
                              drop_every=SYNTH_DROP)
    acc, _ = trainer.evaluate(p, test)
    return TableRun(setup_name, method, noise_std, seed, acc, sigma_n)


def trial_seeds(trials, seeds=None):
    """The given seeds, or 1..trials; at least one is required."""
    seeds = list(seeds) if seeds is not None else list(range(1, trials + 1))
    if not seeds:
        raise ConfigError("need at least one trial")
    return seeds


def reproduce_table(trials=5, setups=("A", "B", "C", "D"), noise_stds=(0.0, 0.1, 0.2, 0.3),
                    seeds=None):
    """All runs behind the benchmark table; seeds default to 1..trials."""
    seeds = trial_seeds(trials, seeds)
    runs = []
    for name in setups:
        for std in noise_stds:
            for seed in seeds:
                runs.append(run_table_trial(name, seed, noise_std=std))
        for seed in seeds:
            runs.append(run_table_trial(name, seed, method="supervised"))
    return runs


def summarize_table(runs):
    """(setup, method, noise_std) -> (mean_acc, std_acc) over seeds, in %."""
    keys = sorted({(r.setup, r.method, r.noise_std) for r in runs},
                  key=lambda k: (k[0], k[1], k[2]))
    out = []
    for key in keys:
        accs = np.array([r.acc_final for r in runs
                         if (r.setup, r.method, r.noise_std) == key])
        out.append((key[0], key[1], key[2], 100.0 * accs.mean(), 100.0 * accs.std()))
    return out


# ---------------------------------------------------------------------------
# one-sided failure demonstration


def threshold_collapse_oracle(ds, spec, direction):
    """Exhaustive 1-d threshold ERM of a one-sided risk under the 0-1 loss.

    Projects every pair member on the direction and evaluates the spec's risk
    for each of the n+1 threshold classifiers sign(proj - t) (thresholds in
    the gaps of the sorted projections plus both extremes). Returns the
    minimizing threshold and the fraction of training pair members it calls
    positive.
    """
    direction = np.asarray(direction, dtype=float)
    proj = ds.rows @ direction
    proj1, proj2 = proj[:len(ds)], proj[len(ds):]
    allproj = np.sort(proj)
    cuts = [allproj[0] - 1.0]
    cuts += [(allproj[k] + allproj[k + 1]) / 2.0 for k in range(len(allproj) - 1)]
    cuts += [allproj[-1] + 1.0]
    spec01 = RiskSpec(spec.kind, spec.pi_plus, loss="zero_one", k=spec.k)
    best = (np.inf, None)
    for t in cuts:
        risk = pair_risk(proj1 - t, proj2 - t, ds.s, spec01)
        if risk < best[0]:
            best = (risk, t)
    t = best[1]
    frac_pos = float(np.mean(proj >= t))
    return t, frac_pos


def split_pairs_by_label(train, setup, seed):
    """Disjoint pairing of a labeled sample, split into the one-sided regimes.

    Similar pairs are those with equal true labels whose confidence satisfies
    s >= pi+; dissimilar pairs have unequal labels and s <= pi-. The trimming
    matches the skewed-confidence premise under which one-sided ERM provably
    collapses; without it a handful of near-boundary pairs with extreme 1/s
    (or 1/(1-s)) weights dominate the objective.
    """
    all_ds = pair_up(train.X, posterior_plus(train.X, setup), seed, "exact")
    i1, i2 = pair_indices(len(train), seed)
    same = train.y[i1] == train.y[i2]
    sim = same & (all_ds.s >= setup.pi_plus)
    dis = ~same & (all_ds.s <= setup.pi_minus)
    return all_ds.subset(sim), all_ds.subset(dis), all_ds


def collapse_demo(seed):
    """Train one-sided vs unbiased linear models on the demo layout.

    One-sided arms follow the reference demo protocol (Adam, lr 0.1, weight
    decay 1e-3, batch 128, 30 epochs) through the generic trainer; the
    unbiased arm uses the all-pairs synthetic protocol with the same batch
    size. Alongside the trained models, the exhaustive 0-1 threshold oracle
    reports the actual one-sided empirical minimizer, which is fully
    collapsed. Returns per-method records plus the pooled confidences.
    """
    setup = COLLAPSE_SETUP
    train, test = sample_train_test(setup, *TRAIN_COUNTS, seed)
    sim_ds, dis_ds, all_ds = split_pairs_by_label(train, setup, seed)
    axis = setup.mu_minus - setup.mu_plus

    results = []
    for kind, ds in (("similar_only", sim_ds), ("dissimilar_only", dis_ds)):
        spec = RiskSpec(kind, setup.pi_plus)
        cfg = TrainConfig(risk=spec, arch=model.Architecture.linear(setup.dim),
                          epochs=30, seed=seed, batch_pairs=128, lr0=0.1,
                          weight_decay=1e-3)
        p, _ = trainer.train(ds, None, test, cfg)
        _, oracle_frac = threshold_collapse_oracle(ds, spec, axis)
        results.append(_collapse_record(kind, len(ds), p, test, oracle_frac))

    a, b, _ = all_pairs_point_weights(train.X, setup)
    p = train_weighted_points(train.X, a, b, model.Architecture.linear(setup.dim),
                              epochs=30, lr0=0.1, seed=seed, weight_decay=1e-3,
                              batch=128)
    n_pairs = len(train) * (len(train) - 1) // 2
    results.append(_collapse_record("unbiased", n_pairs, p, test, float("nan")))
    return results, all_ds, test, bayes_accuracy(test, setup)


def _collapse_record(method, n_pairs, p, test, oracle_frac):
    scores = model.forward(p, test.X)
    p.discard_cache()
    return {"method": method, "n_pairs": n_pairs,
            "frac_positive": float(np.mean(scores >= 0.0)),
            "test_acc": float(np.mean(np.where(scores >= 0, 1, -1) == test.y)),
            "oracle_frac_positive": oracle_frac, "predictor": p}


# ---------------------------------------------------------------------------
# sample-size sweep


SWEEP_EPOCHS = 40
SWEEP_LR0 = 0.1
SWEEP_DROP = 15
SWEEP_TEST_N = 200_000


def sweep_test_set(setup, seed=424242):
    n_plus = round(SWEEP_TEST_N * setup.pi_plus)
    return sample_labeled(setup, n_plus, SWEEP_TEST_N - n_plus, seed)


def sweep_n_run(setup, n_pairs, seed, test, bayes_risk):
    """Train on n disjoint exact-confidence pairs; 0-1 excess over Bayes.

    The sweep protocol is a fixed 40-epoch full-batch budget (lr 0.1, divided
    by 10 every 15 epochs) at every n, so the curve reflects sample size, not
    a per-n tuning choice; the budget is deliberately shorter than the
    benchmark protocol because fully minimizing the pair risk at small n
    chases estimator noise into one-class solutions and inflates the
    small-sample end of the curve.
    """
    n_points = 2 * n_pairs
    n_plus = round(n_points * setup.pi_plus)
    train_points = sample_labeled(setup, n_plus, n_points - n_plus, seed)
    ds = make_pairs(train_points.X, setup, seed)
    spec = RiskSpec("unbiased", setup.pi_plus)
    cfg = TrainConfig(risk=spec, arch=model.Architecture.linear(setup.dim),
                      epochs=SWEEP_EPOCHS, seed=seed, lr0=SWEEP_LR0,
                      drop_every=SWEEP_DROP)
    # final-epoch test risk; there is no independent validation set here, so
    # the best-epoch snapshot would just echo the training minimum
    _, report = trainer.train(ds, None, test, cfg)
    return report.rows[-1][4] - bayes_risk


def sweep_n(setup_name, n_grid, trials, base_seed=1):
    """Mean 0-1 excess risk per n and the fitted log-log slope (None if the
    grid is degenerate)."""
    if list(n_grid) != sorted(n_grid):
        raise ConfigError("n grid must be ascending")
    seeds = trial_seeds(trials)
    setup = preset(setup_name)
    test = sweep_test_set(setup)
    bayes_risk = 1.0 - bayes_accuracy(test, setup)
    rows = []
    for n_pairs in n_grid:
        excesses = []
        for t in seeds:
            seed = base_seed * 100_000 + 7 * n_pairs + t
            # final-epoch model of the fixed-budget protocol
            excesses.append(sweep_n_run(setup, n_pairs, seed, test, bayes_risk))
        rows.append((n_pairs, float(np.mean(excesses)), float(np.std(excesses))))
    slope = None
    if len(rows) >= 2:
        ln = np.log([r[0] for r in rows])
        le = np.log([max(r[1], 1e-6) for r in rows])
        slope = float(np.polyfit(ln, le, 1)[0])
    return rows, slope


# ---------------------------------------------------------------------------
# noise sweep


def sweep_noise(setup_name, stds, trials, seeds=None):
    """Accuracy and summed confidence deviation per noise level."""
    seeds = trial_seeds(trials, seeds)
    rows = []
    for std in stds:
        runs = [run_table_trial(setup_name, seed, noise_std=std) for seed in seeds]
        accs = np.array([r.acc_final for r in runs])
        sig = np.array([r.sigma_n for r in runs])
        rows.append((float(std), 100.0 * accs.mean(), 100.0 * accs.std(), float(sig.mean())))
    return rows


# ---------------------------------------------------------------------------
# prior estimation experiment


def prior_experiment(setup, n_pairs, seed, noise_std=0.0):
    """Estimate pi+ from n exact (or noisy) confidence pairs of the setup."""
    from .datagen import add_confidence_noise
    from .prior import estimate_prior

    n_points = 2 * n_pairs
    n_plus = round(n_points * setup.pi_plus)
    points = sample_labeled(setup, n_plus, n_points - n_plus, seed)
    ds = make_pairs(points.X, setup, seed)
    if noise_std > 0:
        ds = add_confidence_noise(ds, noise_std, seed)
    return estimate_prior(ds)
