"""Synthetic experiment protocols built on the library primitives.

The benchmark-style runs on the built-in Gaussian setups train a linear model
with logistic loss by full-batch Adam (lr 0.1, divided by 10 every 30 epochs,
100 epochs) on the confidences of *all* unordered pairs of the training
points. Using every pair rather than a disjoint matching is what makes the
800-point runs land within a fraction of a point of the reference accuracies
with sub-point spread. all_pairs_point_weights sums each point's unbiased
pair weights (risk.pair_weights) over its partners into one (a_i, b_i); the
objective sum_i a_i l(z_i, +1) + b_i l(z_i, -1) is algebraically identical to
the full pair risk, but costs O(n) per step instead of O(n^2). With noisy
confidences, the pair noise of a sample at level std is std times one draw
of standard normals (pair_normals), which is what Generator.normal(0, std)
returns from the same stream; the table weights each seed at all its noise
levels in one call, which draws the normals and builds the pair blocks once
and only scales and clips them per level.

The linear protocols are many independent fits of one shape, so each is run
as a trial stack (see trainer.train_weighted_points, also importable from
here): one full-batch Adam run over a (T, d + 1) parameter block. table_runs
fits every (seed, method, noise level) trial of one setup at once, which
serves reproduce_table and sweep_noise; sweep_n fits the trials of each n at
once, every trial being the unbiased disjoint-pair risk in point form. Each
trial is scored on its test set alone, after the last epoch. Stacks are full
batch and linear only; collapse_demo's minibatch arm trains one predictor.

Sampling conventions for the built-in setups: the datagen preset counts of
500 positive / 300 negative training points (class prior 0.625) and the test
set of datagen.sample_train_test, twice the training size (1000/600),
everything keyed off one integer seed per trial.
"""

from dataclasses import dataclass

import numpy as np

from . import model, trainer
from .datagen import (PRESET_N_MINUS, PRESET_N_PLUS, PRESET_PI_PLUS, GaussianSetup,
                      add_confidence_noise, check_noise_std, make_pairs, pair_indices, pair_up,
                      posterior_plus, preset, sample_labeled, sample_train_test)
from .errors import ConfigError
from .prior import estimate_prior
from .rng import make_rng
from .risk import RiskSpec, pair_risk, pair_weights
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


def pair_normals(seed, n, out=None):
    """The standard normals behind the noisy all-pairs confidences of n points:
    one per unordered pair (i < j, row-major) from the stream (seed, 2),
    written into out if it is given."""
    return make_rng(seed, 2).standard_normal(n * (n - 1) // 2, out=out)


def all_pairs_point_weights(X, setup, noise_stds=(0.0,), normals=None):
    """Per-point loss weights of the unbiased risk over all unordered pairs,
    one (a, b, sigma_n) per noise level of noise_stds, in its order.

    The objective is sum_i a_i l(z_i, +1) + b_i l(z_i, -1): point i's
    coefficient aggregates (s_ij - pi-) resp. (pi+ - s_ij) over its n-1
    partners, normalized by the ordered pair count and 2 (pi+ - pi-) exactly
    as in the pair risk. The exact confidences aggregate in closed form, O(n).
    At a level std, confidence noise is std times normals, one standard normal
    per unordered pair (the draw of pair_normals(seed, n), which a nonzero
    level needs), clipped to [0, 1]; each point adds the change it makes to
    its pair confidences to the closed form (_noise_deltas), without
    materializing the pair matrix. The levels of one call share the
    posterior, the closed form and the O(n^2) pair blocks, so a caller that
    weights one sample at several levels passes them all at once. Every level
    is checked before any work. sigma_n is the summed absolute confidence
    deviation over unordered pairs (0 when exact).
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ConfigError("need at least two points to form pairs")
    if len(noise_stds) == 0:
        raise ConfigError("need at least one noise level")
    for std in noise_stds:
        check_noise_std(std)
    noisy = [std for std in noise_stds if std != 0.0]
    if noisy and (normals is None or len(normals) != n * (n - 1) // 2):
        raise ConfigError(f"noise std {noisy[0]} needs the pair normals of {n} points")
    r = posterior_plus(X, setup)
    pi_p, pi_m = setup.pi_plus, 1.0 - setup.pi_plus
    total_r = r.sum()
    # sum over j != i of s_ij, expanded from s = r r' + (1-r)(1-r')
    s_row = r * (total_r - r) + (1.0 - r) * ((n - 1) - (total_r - r))
    deltas = zip(*_noise_deltas(r, normals, noisy)) if noisy else None
    ordered = n * (n - 1)
    denom = ordered * (pi_p - pi_m)
    out = []
    for std in noise_stds:
        s, sigma_n = s_row, 0.0
        if std != 0.0:
            delta_row, sigma_n = next(deltas)
            s = s_row + delta_row
        out.append(((s - (n - 1) * pi_m) / denom, ((n - 1) * pi_p - s) / denom, sigma_n))
    return out


def _noise_deltas(r, normals, stds):
    """For each level std of stds: per-point sums of
    delta_ij = clip(s_ij + std * normals_ij, 0, 1) - s_ij over its partners,
    and sum |delta_ij| over i < j. Returns an (len(stds), n) array of the
    sums and the list of the |delta| totals.

    normals holds the pairs i < j in row-major order. A block of rows at a
    time builds, once for every level, its s_ij block, its upper-triangle
    mask and its segment of normals scattered into the upper triangle of a
    zeroed buffer; each level then scales that buffer by std into a scratch
    block, and adds its row sums to the block's points and its column sums
    to their partners. std * z is the value Generator.normal(0, std) draws
    from the same stream (0 + std * z; the 0 + changes at most the sign of a
    zero, which s_ij + 0 absorbs).
    """
    n = len(r)
    q = 1.0 - r
    cols = np.arange(n)
    sums = np.zeros((len(stds), n))
    sigma_n, start = [0.0] * len(stds), 0
    block = max(1, 2**15 // n)  # rows per block: ~2^15 pairs keep the buffers in cache
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        upper = cols[lo:hi, None] < cols
        S = np.multiply.outer(r[lo:hi], r)
        S += np.multiply.outer(q[lo:hi], q)
        z = np.zeros_like(S)
        stop = start + np.count_nonzero(upper)
        z[upper] = normals[start:stop]
        start = stop
        delta = np.empty_like(S)
        for k, std in enumerate(stds):
            np.multiply(z, std, out=delta)
            delta += S
            np.clip(delta, 0.0, 1.0, out=delta)
            delta -= S
            delta *= upper
            sums[k, lo:hi] += delta.sum(axis=1)
            sums[k] += delta.sum(axis=0)
            sigma_n[k] += float(np.abs(delta, out=delta).sum())
    return sums, sigma_n


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


def table_runs(setup_name, trials):
    """One TableRun per (seed, method, noise_std) trial of one setup.

    Each trial weights its seed's training points by all-pairs confidences
    (method "sconf") or one-hot labels ("supervised"), see _trial_weights.
    Every trial has the same (800, 2) shape, so all of them are fit as one
    stack, in the order given; each final predictor is scored on its seed's
    test set.
    """
    if not trials:
        return []
    setup = preset(setup_name)
    data = {seed: sample_train_test(setup, *TRAIN_COUNTS, seed) for seed in {t[0] for t in trials}}
    a, b, sigma_n = _trial_weights(setup, trials, data)
    X = np.stack([data[seed][0].X for seed, _, _ in trials])
    p = train_weighted_points(X, np.stack(a), np.stack(b), model.Architecture.linear(setup.dim),
                              epochs=SYNTH_EPOCHS, lr0=SYNTH_LR0, drop_every=SYNTH_DROP)
    return [TableRun(setup_name, method, noise_std, seed,
                     trainer.evaluate(p.trial(t), data[seed][1])[0], sigma_n[t])
            for t, (seed, method, noise_std) in enumerate(trials)]


def _trial_weights(setup, trials, data):
    """Lists a, b, sigma_n of table_runs' trials, in their order. The trials
    are weighted seed by seed: one all_pairs_point_weights call covers every
    noise level of a seed's sconf trials, so the seed's O(n^2) pair work is
    done once, and its pair normals are drawn once, only if a level is
    nonzero, into one buffer that every seed refills."""
    a, b, sigma_n = ([None] * len(trials) for _ in range(3))
    sconf = {}  # seed -> its all-pairs trials
    for t, (seed, method, _) in enumerate(trials):
        if method == "supervised":
            (a[t], b[t]), sigma_n[t] = trainer.one_hot(data[seed][0].y), 0.0
        else:
            sconf.setdefault(seed, []).append(t)
    normals = None
    for seed, ts in sconf.items():
        points = data[seed][0]
        stds = [trials[t][2] for t in ts]
        if any(std != 0.0 for std in stds):
            normals = pair_normals(seed, len(points), out=normals)
        for t, weights in zip(ts, all_pairs_point_weights(points.X, setup, stds, normals)):
            a[t], b[t], sigma_n[t] = weights
    return a, b, sigma_n


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
        runs += table_runs(name, [(seed, "sconf", std) for std in noise_stds for seed in seeds]
                           + [(seed, "supervised", 0.0) for seed in seeds])
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

    (a, b, _), = all_pairs_point_weights(train.X, setup)
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
SWEEP_TEST_SEED = 424242


def sweep_test_set(setup):
    """The sweep's fixed test set: SWEEP_TEST_N points at the setup's prior."""
    n_plus = round(SWEEP_TEST_N * setup.pi_plus)
    return sample_labeled(setup, n_plus, SWEEP_TEST_N - n_plus, SWEEP_TEST_SEED)


def sweep_n_excess(setup, n_pairs, seeds, test, bayes_risk):
    """0-1 excess over Bayes of one fit per seed on n disjoint exact-confidence
    pairs, the trials fit as one stack.

    The sweep protocol is a fixed 40-epoch full-batch budget (lr 0.1, divided
    by 10 every 15 epochs) at every n, so the curve reflects sample size, not
    a per-n tuning choice; the budget is deliberately shorter than the
    benchmark protocol because fully minimizing the pair risk at small n
    chases estimator noise into one-class solutions and inflates the
    small-sample end of the curve.

    Each trial is the unbiased pair risk in point form: the pair block
    ds.rows with pair_weights(ds.s) on both halves. Its correction f is the
    identity, so the gradient is trainer.train's. The final-epoch model is
    scored once: there is no independent validation set here, so the
    best-epoch snapshot would just echo the training minimum.
    """
    n_points = 2 * n_pairs
    n_plus = round(n_points * setup.pi_plus)
    spec = RiskSpec("unbiased", setup.pi_plus)
    rows, a, b = [], [], []
    for seed in seeds:
        ds = make_pairs(sample_labeled(setup, n_plus, n_points - n_plus, seed).X, setup, seed)
        a_t, b_t = pair_weights(ds.s, spec)
        rows.append(ds.rows)
        a.append(np.tile(a_t, 2))
        b.append(np.tile(b_t, 2))
    p = train_weighted_points(np.stack(rows), np.stack(a), np.stack(b),
                              model.Architecture.linear(setup.dim), epochs=SWEEP_EPOCHS,
                              lr0=SWEEP_LR0, drop_every=SWEEP_DROP)
    # one trial at a time: a (200k, T) score block would raise peak memory T-fold
    return [trainer.evaluate(p.trial(t), test)[1] - bayes_risk for t in range(len(seeds))]


def sweep_n(setup_name, n_grid, trials, base_seed=1):
    """Mean 0-1 excess risk per n and the fitted log-log slope (None if the
    grid is degenerate)."""
    if list(n_grid) != sorted(n_grid):
        raise ConfigError("n grid must be ascending")
    if base_seed < 0:  # a trial seed of a large n could still come out nonnegative
        raise ConfigError(f"seeds must be nonnegative, got base seed {base_seed}")
    seeds = trial_seeds(trials)
    setup = preset(setup_name)
    test = sweep_test_set(setup)
    bayes_risk = 1.0 - bayes_accuracy(test, setup)
    rows = []
    for n_pairs in n_grid:
        excesses = sweep_n_excess(setup, n_pairs, [base_seed * 100_000 + 7 * n_pairs + t
                                                   for t in seeds], test, bayes_risk)
        rows.append((n_pairs, float(np.mean(excesses)), float(np.std(excesses))))
    slope = None
    if len(rows) >= 2:
        ln = np.log([r[0] for r in rows])
        le = np.log([max(r[1], 1e-6) for r in rows])
        slope = float(np.polyfit(ln, le, 1)[0])
    return rows, slope


# ---------------------------------------------------------------------------
# noise sweep


def sweep_noise(setup_name, stds, trials):
    """Accuracy and summed confidence deviation per noise level, over the
    seeds 1..trials."""
    seeds = trial_seeds(trials)
    all_runs = table_runs(setup_name, [(seed, "sconf", std) for std in stds for seed in seeds])
    rows = []
    for k, std in enumerate(stds):
        runs = all_runs[k * len(seeds):(k + 1) * len(seeds)]
        accs = np.array([r.acc_final for r in runs])
        sig = np.array([r.sigma_n for r in runs])
        rows.append((float(std), 100.0 * accs.mean(), 100.0 * accs.std(), float(sig.mean())))
    return rows


# ---------------------------------------------------------------------------
# prior estimation experiment


def prior_experiment(setup, n_pairs, seed, noise_std=0.0):
    """Estimate pi+ from n exact (or noisy) confidence pairs of the setup."""
    n_points = 2 * n_pairs
    n_plus = round(n_points * setup.pi_plus)
    points = sample_labeled(setup, n_plus, n_points - n_plus, seed)
    return estimate_prior(add_confidence_noise(make_pairs(points.X, setup, seed), noise_std, seed))
