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
confidences, the pair noise at level std is std times the standard normals of
make_rng(seed, 2), which is what Generator.normal(0, std) draws from it. The
table weights every setup's sample of a seed at all its levels in one call,
which draws each row block's normals, right of the diagonal only, as the pair
loop reaches it, and only scales and clips them per setup and level.

The linear protocols are many independent fits of one shape, so each is run
as a trial stack (see trainer.train_weighted_points, also importable from
here): one full-batch Adam run over a (T, d + 1) parameter block. table_runs
fits every (seed, method, noise level) trial of a setup at once, which
serves reproduce_table and sweep_noise; sweep_n fits the trials of each n at
once, every trial being the unbiased disjoint-pair risk in point form. A
table trial is scored on its seed's test set after the last epoch; the sweep
fits every n first, then scores the Bayes rule and every trial in one pass
over its fixed test set, drawn block by block. Stacks are full batch and
linear only; collapse_demo's minibatch arm trains one predictor.

Sampling conventions for the built-in setups: the datagen preset counts of
500 positive / 300 negative training points (class prior 0.625) and the test
set of datagen.sample_train_test, twice the training size (1000/600),
everything keyed off one integer seed per trial.
"""

from dataclasses import dataclass

import numpy as np

from . import model, trainer
from .datagen import (PRESET_N_MINUS, PRESET_N_PLUS, PRESET_PI_PLUS, GaussianSetup,
                      add_confidence_noise, block_edges, check_noise_std, make_pairs,
                      pair_indices, pair_up, posterior_plus, preset, sample_blocks,
                      sample_labeled, sample_test, sample_train_test)
from .errors import ConfigError, check_int
from .losses import accuracy, correct_signs
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


def bayes_correct(test, setup):
    """Correct signs of the analytic Bayes classifier sign(r(x) - 1/2), ties
    positive, on a labeled set."""
    return correct_signs(posterior_plus(test.X, setup), test.y, threshold=0.5)


def bayes_accuracy(test, setup):
    """Test accuracy of the Bayes classifier: bayes_correct over the set's size."""
    return bayes_correct(test, setup) / len(test)


# ---------------------------------------------------------------------------
# all-pairs confidence weights


def all_pairs_point_weights(X, setup, noise_stds=(0.0,), normals=None):
    """Per-point loss weights of the unbiased risk over all unordered pairs,
    one (a, b, sigma_n) per noise level of noise_stds, in its order.

    The objective is sum_i a_i l(z_i, +1) + b_i l(z_i, -1): point i's
    coefficient aggregates (s_ij - pi-) resp. (pi+ - s_ij) over its n-1
    partners, normalized by the ordered pair count and 2 (pi+ - pi-) exactly
    as in the pair risk. The exact confidences aggregate in closed form, O(n).
    At a level std, confidence noise is std times one standard normal per
    unordered pair (i < j, row-major) drawn from the Generator normals, which
    a nonzero level needs (the protocols pass make_rng(seed, 2)), clipped to
    [0, 1]; each point adds the change it makes to its pair confidences to the
    closed form (_noise_deltas), without materializing the pair matrix. The
    levels of one call share the posterior, the closed form and the O(n^2)
    pair blocks; a (K, n, d) stack X with a sequence of K setups shares the
    pair normals too, and gives a and b a leading K axis and sigma_n as a (K,)
    array. Every level is checked before any work. sigma_n is the summed
    absolute confidence deviation over unordered pairs (0 when exact).
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[-2]
    if n < 2:
        raise ConfigError("need at least two points to form pairs")
    if len(noise_stds) == 0:
        raise ConfigError("need at least one noise level")
    for std in noise_stds:
        check_noise_std(std)
    noisy = [std for std in noise_stds if std != 0.0]
    if noisy and not isinstance(normals, np.random.Generator):
        raise ConfigError(f"noise std {noisy[0]} needs a Generator of pair normals")
    setups = setup if X.ndim == 3 else [setup]
    r = np.stack([posterior_plus(x, s) for x, s in zip(X.reshape(-1, n, X.shape[-1]), setups,
                                                       strict=True)])
    pi_p = np.array([[s.pi_plus] for s in setups])
    pi_m = 1.0 - pi_p
    total_r = r.sum(axis=1, keepdims=True)
    # sum over j != i of s_ij, expanded from s = r r' + (1-r)(1-r')
    s_row = r * (total_r - r) + (1.0 - r) * ((n - 1) - (total_r - r))
    deltas = zip(*_noise_deltas(r, normals, noisy)) if noisy else None
    denom = n * (n - 1) * (pi_p - pi_m)
    out = []
    for std in noise_stds:
        s, sigma_n = s_row, np.zeros(len(setups))
        if std != 0.0:
            delta_row, sigma_n = next(deltas)
            s = s_row + delta_row
        a, b = (s - (n - 1) * pi_m) / denom, ((n - 1) * pi_p - s) / denom
        out.append((a, b, sigma_n) if X.ndim == 3 else (a[0], b[0], float(sigma_n[0])))
    return out


def _noise_deltas(r, normals, stds):
    """For each level std of stds and each posterior of r, one (n,) or a
    (K, n) stack: per-point sums of delta_ij = clip(s_ij + std * normals_ij,
    0, 1) - s_ij over its partners, and sum |delta_ij| over i < j, shaped
    (len(stds),) + r.shape resp. (len(stds),) + r.shape[:-1].

    normals is the Generator of the pair normals, the pairs i < j in row-major
    order. A block of rows lo..hi draws its hi (2n - hi - 1) / 2 - lo (2n - lo
    - 1) / 2 normals as the loop reaches it (a generator's next draws continue
    its one-call draw) and scatters them right of the diagonal (columns
    lo+1..n-1) once. Each posterior builds the block's s_ij; each level scales
    the normals by std, zeroes the entries on or left of the diagonal and adds
    its column sums to the partners; the row sums and |delta| total sum a copy
    in a zero-padded full-width buffer, so numpy's pairwise summation sees each
    value where the full block had it. std * z is what Generator.normal(0, std)
    draws (0 + std * z can flip only a zero's sign, which s_ij + 0 absorbs).
    """
    n = r.shape[-1]
    rows = r.reshape(-1, n)
    sums = np.zeros((len(stds), len(rows), n))
    sigma_n = np.zeros((len(stds), len(rows)))
    block = max(1, 2**15 // n)  # rows per block: ~2^15 pairs keep the buffers in cache
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        # row i's pairs start at i (2n - i - 1) / 2 in the row-major order
        start, stop = lo * (2 * n - lo - 1) // 2, hi * (2 * n - hi - 1) // 2
        upper = np.arange(lo, hi)[:, None] < np.arange(lo + 1, n)
        z, S, delta = np.zeros(upper.shape), np.empty(upper.shape), np.empty(upper.shape)
        z[upper] = normals.standard_normal(stop - start)
        full = np.zeros((hi - lo, n))
        for j, (p, q) in enumerate(zip(rows, 1.0 - rows)):
            S[:] = p[lo + 1:]
            S *= p[lo:hi, None]
            delta[:] = q[lo + 1:]
            delta *= q[lo:hi, None]
            S += delta
            for k, std in enumerate(stds):
                np.multiply(z, std, out=delta)
                delta += S
                np.clip(delta, 0.0, 1.0, out=delta)
                delta -= S
                delta[:, :hi - lo] *= upper[:, :hi - lo]
                full[:, lo + 1:] = delta
                sums[k, j, lo:hi] += full.sum(axis=1)
                sums[k, j, lo + 1:] += delta.sum(axis=0)
                sigma_n[k, j] += np.abs(full, out=full).sum()
    return sums.reshape((len(stds),) + r.shape), sigma_n.reshape((len(stds),) + r.shape[:-1])


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


def table_runs(setup_names, trials):
    """One TableRun per setup of setup_names and (seed, method, noise_std)
    trial, setup by setup, each in the order given.

    Trials are weighted seed by seed, by all-pairs confidences ("sconf") or
    one-hot labels ("supervised"), straight into one (trials, n) block per
    setup. One all_pairs_point_weights call per seed weights every setup at
    all its levels, drawing the seed's pair normals (if a level is nonzero)
    block by block from make_rng(seed, 2), each block once for all setups.
    Each setup's trials are fit as one stack and scored on their seeds' tests.
    """
    if not trials or not setup_names:
        return []
    by_seed = {}  # seed -> (its all-pairs trials, its supervised trials)
    for t, (seed, method, _) in enumerate(trials):
        by_seed.setdefault(seed, ([], []))[method == "supervised"].append(t)
    data = {(name, seed): sample_labeled(preset(name), *TRAIN_COUNTS, seed)
            for name in setup_names for seed in by_seed}
    weights = np.empty((len(setup_names), 2, len(trials), sum(TRAIN_COUNTS)))
    sigma_n = np.zeros((len(setup_names), len(trials)))
    for seed, (sconf, supervised) in by_seed.items():
        stds = [trials[t][2] for t in sconf]
        X = np.stack([data[name, seed].X for name in setup_names])
        normals = make_rng(seed, 2) if any(stds) else None
        levels = all_pairs_point_weights(X, [preset(name) for name in setup_names], stds,
                                         normals) if sconf else ()
        for t, level in zip(sconf, levels):
            weights[:, 0, t], weights[:, 1, t], sigma_n[:, t] = level
        for (a, b), name in zip(weights, setup_names):
            a[supervised], b[supervised] = trainer.one_hot(data[name, seed].y)
    runs = []
    for (a, b), sigma, name in zip(weights, sigma_n, setup_names):
        X = np.stack([data[name, seed].X for seed, _, _ in trials])
        tests = {seed: sample_test(preset(name), *TRAIN_COUNTS, seed) for seed in by_seed}
        p = train_weighted_points(X, a, b, model.Architecture.linear(preset(name).dim),
                                  epochs=SYNTH_EPOCHS, lr0=SYNTH_LR0, drop_every=SYNTH_DROP)
        runs += [TableRun(name, method, noise_std, seed,
                          trainer.evaluate(p.trial(t), tests[seed])[0], float(sigma[t]))
                 for t, (seed, method, noise_std) in enumerate(trials)]
    return runs


def trial_seeds(trials, seeds=None):
    """The given seeds, or 1..trials; trials, or the number of given seeds,
    passes errors.check_int with a minimum of 1."""
    seeds = list(range(1, check_int(trials, "trials", 1) + 1) if seeds is None else seeds)
    check_int(len(seeds), "trial seeds", 1)
    return seeds


def reproduce_table(trials=5, setups=("A", "B", "C", "D"), noise_stds=(0.0, 0.1, 0.2, 0.3),
                    seeds=None):
    """All runs behind the benchmark table; seeds default to 1..trials."""
    seeds = trial_seeds(trials, seeds)
    return table_runs(setups, [(seed, "sconf", std) for std in noise_stds for seed in seeds]
                      + [(seed, "supervised", 0.0) for seed in seeds])


def summarize_table(runs):
    """(setup, method, noise_std) -> (mean_acc, std_acc) over seeds, in %."""
    keys = sorted({(r.setup, r.method, r.noise_std) for r in runs})
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
    i1, i2 = pairs = pair_indices(len(train), seed)
    all_ds = pair_up(train.X, posterior_plus(train.X, setup), pairs)
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
    scores = model.score(p, test.X)
    return {"method": method, "n_pairs": n_pairs,
            "frac_positive": float(np.mean(scores >= 0.0)),
            "test_acc": accuracy(scores, test.y),
            "oracle_frac_positive": oracle_frac, "predictor": p}


# ---------------------------------------------------------------------------
# sample-size sweep


SWEEP_EPOCHS = 40
SWEEP_LR0 = 0.1
SWEEP_DROP = 15
SWEEP_TEST_N = 200_000
SWEEP_TEST_SEED = 424242


def _sweep_test_blocks(setup, edges):
    """The sweep's fixed test set, SWEEP_TEST_N points at the setup's prior,
    one LabeledData per block of edges."""
    n_plus = round(SWEEP_TEST_N * setup.pi_plus)
    return sample_blocks(setup, n_plus, SWEEP_TEST_N - n_plus, SWEEP_TEST_SEED, edges)


def sweep_test_set(setup):
    """The sweep's fixed test set as one block."""
    return next(_sweep_test_blocks(setup, [0, SWEEP_TEST_N]))


def _sweep_fit(setup, n_pairs, seeds):
    """The stacked fit of one trial per seed on n disjoint exact-confidence
    pairs.

    The sweep protocol is a fixed 40-epoch full-batch budget (lr 0.1, divided
    by 10 every 15 epochs) at every n, so the curve reflects sample size, not
    a per-n tuning choice; the budget is deliberately shorter than the
    benchmark protocol because fully minimizing the pair risk at small n
    chases estimator noise into one-class solutions and inflates the
    small-sample end of the curve.

    Each trial is the unbiased pair risk in point form: the pair block
    ds.rows with pair_weights(ds.s) on both halves. Its correction f is the
    identity, so the gradient is trainer.train's expression up to rounding.
    make_pairs gathers trial t's pair block straight into rows[t] of the
    (T, 2n, d) stack, and its weights fill both halves of a[t] and b[t].
    The final-epoch model is scored: there is no independent validation set
    here, so the best-epoch snapshot would just echo the training minimum.
    """
    n_points = 2 * n_pairs
    n_plus = round(n_points * setup.pi_plus)
    spec = RiskSpec("unbiased", setup.pi_plus)
    rows = np.empty((len(seeds), n_points, setup.dim))
    a, b = np.empty((2, len(seeds), n_points))
    for t, seed in enumerate(seeds):
        ds = make_pairs(sample_labeled(setup, n_plus, n_points - n_plus, seed).X, setup, seed,
                        out=rows[t])
        a_t, b_t = pair_weights(ds.s, spec)
        a[t].reshape(2, n_pairs)[:] = a_t  # the x and x' halves share their pair's weights
        b[t].reshape(2, n_pairs)[:] = b_t
    return train_weighted_points(rows, a, b, model.Architecture.linear(setup.dim),
                                 epochs=SWEEP_EPOCHS, lr0=SWEEP_LR0, drop_every=SWEEP_DROP)


def sweep_n(setup_name, n_grid, trials, base_seed=1):
    """Mean 0-1 excess risk over Bayes per n and the fitted log-log slope
    (None if the grid is degenerate).

    Every n's trial stack is fit first (_sweep_fit). Then one pass over the
    fixed test set, drawn block by block in posterior_plus's blocks
    (block_edges), counts on each block the correct signs of the Bayes rule
    and of every trial, one model.score per trial. A trial's excess is its
    0-1 risk minus the Bayes risk, each one minus its count over
    SWEEP_TEST_N: the bytes of scoring each trial on the whole set, without
    holding the set or passing over it once per trial.

    Each n (in pairs, at least 1), trials (at least 1) and base_seed (at
    least 0) pass errors.check_int before anything is drawn.
    """
    for n in n_grid:
        check_int(n, "n grid value", 1)
    if list(n_grid) != sorted(set(n_grid)):  # a repeated n would rerun its trial seeds
        raise ConfigError(f"n grid must be strictly ascending, got {list(n_grid)}")
    check_int(base_seed, "base seed", 0)  # a large n's trial seed could still be nonnegative
    seeds = trial_seeds(trials)
    setup = preset(setup_name)
    fits = [_sweep_fit(setup, n_pairs, [base_seed * 100_000 + 7 * n_pairs + t for t in seeds])
            for n_pairs in n_grid]
    bayes, correct = 0, [[0] * len(seeds) for _ in fits]
    for test in _sweep_test_blocks(setup, block_edges(SWEEP_TEST_N)):
        bayes += bayes_correct(test, setup)
        for p, counts in zip(fits, correct):
            for t in range(len(seeds)):
                counts[t] += correct_signs(model.score(p.trial(t), test.X), test.y)
    bayes_risk = 1.0 - bayes / SWEEP_TEST_N
    rows = []
    for n_pairs, counts in zip(n_grid, correct):
        excesses = [(1.0 - c / SWEEP_TEST_N) - bayes_risk for c in counts]
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
    runs = table_runs((setup_name,), [(seed, "sconf", std) for std in stds for seed in seeds])
    accs = np.array([r.acc_final for r in runs]).reshape(len(stds), len(seeds))
    sigs = np.array([r.sigma_n for r in runs]).reshape(len(stds), len(seeds))
    return [(float(std), 100.0 * acc.mean(), 100.0 * acc.std(), float(sig.mean()))
            for std, acc, sig in zip(stds, accs, sigs)]


# ---------------------------------------------------------------------------
# prior estimation experiment


def prior_experiment(setup, n_pairs, seed, noise_std=0.0):
    """Estimate pi+ from n exact (or noisy) confidence pairs of the setup;
    n_pairs passes errors.check_int with a minimum of 1."""
    n_points = 2 * check_int(n_pairs, "n_pairs", 1)
    n_plus = round(n_points * setup.pi_plus)
    points = sample_labeled(setup, n_plus, n_points - n_plus, seed)
    return estimate_prior(add_confidence_noise(make_pairs(points.X, setup, seed), noise_std, seed))
