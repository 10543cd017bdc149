"""Invariants across code paths that share one objective or one loop.

The table protocol's per-point weights must reproduce the unbiased pair risk
over every materialized pair, with exact or noisy confidences, the weighted-point trainer must reproduce
the confidence model's supervised fit when the weights are one-hot labels,
the score gradient the trainer backpropagates must be the gradient of
the dataset risk it reports, for every risk kind, a trial stack must fit
each of its trials as the one-trial fit does, in pair or in point form, and
every risk kind must equal its weighted-row form: f(sum a l(u, +1)) +
f(sum b l(u, -1)) over the scored rows u, with one_hot(y) weights and the
identity f for the supervised kind, and the sample-size sweep's streamed pass
must give the rows of scoring each trial on the whole test set.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from sconf import datagen, experiments, model, trainer
from sconf.dataset_io import posterior_model_confidences
from sconf.datagen import (POSTERIOR_BLOCK, LabeledData, SconfDataset, posterior_plus, preset,
                           sample_labeled)
from sconf.errors import ConfigError
from sconf.experiments import all_pairs_point_weights, train_weighted_points
from sconf.losses import LOSS_KINDS, loss_value
from sconf.datagen import make_pairs
from sconf.risk import (PAIR_KINDS, RISK_KINDS, RiskSpec, correction, pair_risk, pair_weights,
                        partial_risks, supervised_risk)
from sconf.rng import make_rng


def all_pairs_dataset(X, setup, noise_std=0.0, seed=0):
    """Materialized SconfDataset of every unordered pair (i < j) of X.

    With noise_std > 0 the confidences get the draws of all_pairs_point_weights:
    one normal draw per pair in triu_indices order from the stream (seed, 2),
    clipped to [0, 1].
    """
    i, j = np.triu_indices(X.shape[0], 1)
    r = posterior_plus(X, setup)
    s = r[i] * r[j] + (1.0 - r[i]) * (1.0 - r[j])
    if noise_std > 0:
        s = np.clip(s + make_rng(seed, 2).normal(0.0, noise_std, size=len(s)), 0.0, 1.0)
    return SconfDataset(np.concatenate([X[i], X[j]]), s)


@pytest.mark.parametrize("noise_std", (0.0, 0.2))
def test_point_weights_equal_materialized_pair_risk(noise_std):
    setup, seed = preset("B"), 7
    X = sample_labeled(setup, 25, 15, seed).X
    z = X @ np.array([-0.8, 0.3]) + 0.5
    (a, b, _), = all_pairs_point_weights(X, setup, (noise_std,), normals=make_rng(seed, 2))
    point_form = np.sum(a * loss_value("logistic", z, 1) + b * loss_value("logistic", z, -1))

    ds = all_pairs_dataset(X, setup, noise_std=noise_std, seed=seed)
    i, j = np.triu_indices(len(X), 1)
    assert len(ds) == 40 * 39 // 2
    pair_form = pair_risk(z[i], z[j], ds.s, RiskSpec("unbiased", setup.pi_plus))
    assert abs(point_form - pair_form) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 60), noise_std=st.floats(0.0, 0.5, exclude_min=True),
       seed=st.integers(0, 2**32 - 1), setup_name=st.sampled_from("ABCD"))
def test_noisy_point_weights_equal_materialized_pair_risk(n, noise_std, seed, setup_name):
    setup = preset(setup_name)
    rng = np.random.default_rng(seed)
    n_plus = int(rng.integers(0, n + 1))
    X = sample_labeled(setup, n_plus, n - n_plus, seed).X
    z = X @ rng.normal(size=2) + rng.normal()
    (a, b, sigma_n), = all_pairs_point_weights(X, setup, (noise_std,),
                                               normals=make_rng(seed, 2))
    point_form = np.sum(a * loss_value("logistic", z, 1) + b * loss_value("logistic", z, -1))

    noisy = all_pairs_dataset(X, setup, noise_std=noise_std, seed=seed)
    i, j = np.triu_indices(n, 1)
    pair_form = pair_risk(z[i], z[j], noisy.s, RiskSpec("unbiased", setup.pi_plus))
    assert abs(point_form - pair_form) <= 1e-12
    exact = all_pairs_dataset(X, setup)
    assert sigma_n == pytest.approx(np.abs(noisy.s - exact.s).sum(), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("seed", (1, 5))
def test_noise_level_scales_one_standard_normal_draw(seed):
    # the numpy property the table relies on to draw each seed's pair noise
    # once for all its levels: normal(0, std) is std times the stream's
    # standard normals, element for element
    n_pairs = 800 * 799 // 2
    z = make_rng(seed, 2).standard_normal(n_pairs)
    for std in (0.1, 0.2, 0.3):
        assert np.array_equal(make_rng(seed, 2).normal(0.0, std, n_pairs), std * z)


def test_shared_pair_normals_give_the_same_weights(monkeypatch):
    setup, seed = preset("C"), 4
    X = sample_labeled(setup, 30, 20, seed).X
    normals = make_rng(seed, 2)
    # one call for several levels shares one draw of the pair normals and
    # gives each level's weights from a call of its own, byte for byte
    levels = (0.0, 0.1, 0.2, 0.3, 0.2)
    for name in "ABCD":
        X_s = sample_labeled(preset(name), 30, 20, seed).X
        together = all_pairs_point_weights(X_s, preset(name), levels, normals=make_rng(seed, 2))
        assert len(together) == len(levels)
        for std, got in zip(levels, together):
            alone, = all_pairs_point_weights(X_s, preset(name), (std,),
                                             normals=make_rng(seed, 2))
            assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in alone]
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="noise std"):
            all_pairs_point_weights(X, setup, (bad,), normals=normals)
    # the normals come only from their stream: a drawn array is refused
    for missing in (None, make_rng(seed, 2).standard_normal(len(X) * (len(X) - 1) // 2)):
        with pytest.raises(ConfigError, match="pair normals"):
            all_pairs_point_weights(X, setup, (0.1,), normals=missing)
    # an empty level list, or one bad level among good ones, fails before
    # any work: the posterior is never computed
    posteriors = []
    monkeypatch.setattr(experiments, "posterior_plus",
                        lambda *args: posteriors.append(args) or posterior_plus(*args))
    with pytest.raises(ConfigError, match="at least one noise level"):
        all_pairs_point_weights(X, setup, (), normals=normals)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="noise std"):
            all_pairs_point_weights(X, setup, (0.0, 0.1, bad, 0.3), normals=normals)
    assert posteriors == []
    all_pairs_point_weights(X, setup, (0.0, 0.1), normals=normals)
    assert len(posteriors) == 1


# (method, noise std, seed) -> (acc_final, sigma_n) of table_runs((setup,), TABLE_TRIALS),
# as weighting each setup and noise level in its own call gave them
TABLE_A_PIN = {
    ("sconf", 0.0, 1): (0.881875, 0.0),
    ("sconf", 0.0, 2): (0.900625, 0.0),
    ("sconf", 0.1, 1): (0.890625, 20200.18280520342),
    ("sconf", 0.1, 2): (0.901875, 20633.064356507606),
    ("sconf", 0.2, 1): (0.89375, 37750.35706758824),
    ("sconf", 0.2, 2): (0.90125, 38624.67919392993),
    ("sconf", 0.3, 1): (0.89375, 53340.4911850453),
    ("sconf", 0.3, 2): (0.9025, 54549.632169902994),
    ("supervised", 0.0, 1): (0.890625, 0.0),
    ("supervised", 0.0, 2): (0.900625, 0.0),
}
TABLE_B_PIN = {
    ("sconf", 0.0, 1): (0.889375, 0.0),
    ("sconf", 0.0, 2): (0.90875, 0.0),
    ("sconf", 0.1, 1): (0.88875, 22013.933818507394),
    ("sconf", 0.1, 2): (0.90625, 21613.633549069407),
    ("sconf", 0.2, 1): (0.89, 40278.824100725564),
    ("sconf", 0.2, 2): (0.904375, 39711.21399110122),
    ("sconf", 0.3, 1): (0.88875, 56189.99695309164),
    ("sconf", 0.3, 2): (0.905, 55551.06343636512),
    ("supervised", 0.0, 1): (0.888125, 0.0),
    ("supervised", 0.0, 2): (0.9075, 0.0),
}
TABLE_C_PIN = {
    ("sconf", 0.0, 1): (0.860625, 0.0),
    ("sconf", 0.0, 2): (0.871875, 0.0),
    ("sconf", 0.1, 1): (0.860625, 23471.233892671404),
    ("sconf", 0.1, 2): (0.871875, 23387.238834495245),
    ("sconf", 0.2, 1): (0.860625, 42866.97527941901),
    ("sconf", 0.2, 2): (0.865625, 42606.95419289539),
    ("sconf", 0.3, 1): (0.860625, 59352.16221907031),
    ("sconf", 0.3, 2): (0.86, 58960.35007254879),
    ("supervised", 0.0, 1): (0.861875, 0.0),
    ("supervised", 0.0, 2): (0.868125, 0.0),
}
TABLE_D_PIN = {
    ("sconf", 0.0, 1): (0.904375, 0.0),
    ("sconf", 0.0, 2): (0.911875, 0.0),
    ("sconf", 0.1, 1): (0.905, 22387.091016042035),
    ("sconf", 0.1, 2): (0.911875, 22365.138390972126),
    ("sconf", 0.2, 1): (0.90125, 40290.58166477858),
    ("sconf", 0.2, 2): (0.914375, 40018.03010465723),
    ("sconf", 0.3, 1): (0.898125, 55842.05292029859),
    ("sconf", 0.3, 2): (0.9125, 55364.89789205283),
    ("supervised", 0.0, 1): (0.904375, 0.0),
    ("supervised", 0.0, 2): (0.911875, 0.0),
}
TABLE_PINS = {"A": TABLE_A_PIN, "B": TABLE_B_PIN, "C": TABLE_C_PIN, "D": TABLE_D_PIN}
TABLE_TRIALS = ([(seed, "sconf", std) for std in (0.0, 0.1, 0.2, 0.3) for seed in (1, 2)]
                + [(seed, "supervised", 0.0) for seed in (1, 2)])


def counted_normal_streams(monkeypatch):
    """The seeds of every pair-normals stream, make_rng(seed, 2), that
    experiments opens from here on."""
    streams = []

    def counting_make_rng(seed, *stream):
        if stream == (2,):
            streams.append(seed)
        return make_rng(seed, *stream)

    monkeypatch.setattr(experiments, "make_rng", counting_make_rng)
    return streams


def test_table_runs_pin_and_one_normals_draw_per_seed(monkeypatch):
    streams = counted_normal_streams(monkeypatch)
    for name, pin in TABLE_PINS.items():
        streams.clear()
        runs = experiments.table_runs((name,), TABLE_TRIALS)
        assert {r.setup for r in runs} == {name}
        assert {(r.method, r.noise_std, r.seed): (r.acc_final, r.sigma_n) for r in runs} == pin
        assert len(runs) == len(pin)
        assert sorted(streams) == [1, 2]


def test_reproduce_table_draws_each_seeds_normals_once_for_all_setups(monkeypatch):
    alone = [run for name in "ABCD" for run in experiments.table_runs((name,), TABLE_TRIALS)]
    streams = counted_normal_streams(monkeypatch)
    runs = experiments.reproduce_table(seeds=[1, 2])
    assert sorted(streams) == [1, 2]
    # field for field, in the same order, what each setup gives alone
    assert [dataclasses.astuple(r) for r in runs] == [dataclasses.astuple(r) for r in alone]
    assert all(type(r.sigma_n) is float for r in runs)
    # exact confidences and supervised trials need no normals at all
    streams.clear()
    assert len(experiments.reproduce_table(seeds=[1, 2], noise_stds=(0.0,))) == 4 * 2 * 2
    assert streams == []


def test_reproduce_table_peak_memory():
    # the pair normals are drawn block by block, never held as one
    # n (n - 1) / 2 buffer; the bound is the peak of weighting each setup alone
    experiments.reproduce_table(seeds=[1, 2, 3, 4, 5])
    _, peak = traced_peak(lambda: experiments.reproduce_table(seeds=[1, 2, 3, 4, 5]))
    assert peak <= 4.36e6


def test_prior_experiment_peak_memory():
    # bound fixed before the first run, from what the design holds at the
    # 200,000 points of 100,000 pairs: the points (3.2 MB) and their labels
    # (1.6 MB), the posteriors (1.6 MB) and the permutation (1.6 MB), then
    # either the confidence step's two gathered posteriors and three
    # temporaries (4.0 MB) or, after it, the pair block (3.2 MB) and the
    # confidences (0.8 MB): 12.0 MB, plus 1 MB for small buffers. With the
    # concatenated take index and the posteriors gathered next to the pair
    # block it peaked at 15.2 MB
    experiments.prior_experiment(preset("A"), 100_000, 1)
    _, peak = traced_peak(lambda: experiments.prior_experiment(preset("A"), 100_000, 1))
    assert peak <= 13.0e6


def materialized_sweep_n(setup_name, n_grid, trials, base_seed):
    """experiments.sweep_n as it was before its streamed pass: per-trial pair
    blocks and np.tile weights stacked per n, the fixed test set held whole,
    its Bayes accuracy, and one trainer.evaluate of each trial on the whole
    set. The oracle of the sweep's rows and slope."""
    setup = preset(setup_name)
    test = experiments.sweep_test_set(setup)
    bayes_risk = 1.0 - experiments.bayes_accuracy(test, setup)
    spec = RiskSpec("unbiased", setup.pi_plus)
    out = []
    for n_pairs in n_grid:
        n_points = 2 * n_pairs
        n_plus = round(n_points * setup.pi_plus)
        rows, a, b = [], [], []
        for t in range(1, trials + 1):
            seed = base_seed * 100_000 + 7 * n_pairs + t
            ds = make_pairs(sample_labeled(setup, n_plus, n_points - n_plus, seed).X, setup, seed)
            a_t, b_t = pair_weights(ds.s, spec)
            rows.append(ds.rows)
            a.append(np.tile(a_t, 2))
            b.append(np.tile(b_t, 2))
        p = train_weighted_points(np.stack(rows), np.stack(a), np.stack(b),
                                  model.Architecture.linear(setup.dim),
                                  epochs=experiments.SWEEP_EPOCHS, lr0=experiments.SWEEP_LR0,
                                  drop_every=experiments.SWEEP_DROP)
        excesses = [trainer.evaluate(p.trial(t), test)[1] - bayes_risk for t in range(trials)]
        out.append((n_pairs, float(np.mean(excesses)), float(np.std(excesses))))
    ln = np.log([r[0] for r in out])
    le = np.log([max(r[1], 1e-6) for r in out])
    return out, float(np.polyfit(ln, le, 1)[0])


SWEEP_GRID = (50, 100, 200, 400, 800, 1600)


@pytest.mark.parametrize("n_grid, trials, base_seed", (
    ((25, 50, 100), 3, 1), ((25, 50, 100), 3, 2), (SWEEP_GRID, 10, 1)))
def test_streamed_sweep_equals_materialized_sweep(n_grid, trials, base_seed):
    assert (experiments.sweep_n("B", n_grid, trials, base_seed)
            == materialized_sweep_n("B", n_grid, trials, base_seed))


def test_sweep_n_peak_memory():
    # bound fixed before the first run, from what the design holds: the
    # n = 1600 stack, 10 trials of 3200 rows of 2 features and 2 weights
    # (1.02 MB), plus one 2^14-row block of the test set at 16 float64
    # values a row (2.10 MB: its rows, labels, posteriors and density work
    # buffers, which also covers the 19,776-row last block's 13 values a row).
    # Holding the whole test set and evaluating each trial on it peaked at
    # 8.08 MB
    trials, n_points, d = 10, 2 * SWEEP_GRID[-1], 2
    experiments.sweep_n("B", SWEEP_GRID, trials)
    _, peak = traced_peak(lambda: experiments.sweep_n("B", SWEEP_GRID, trials))
    assert peak <= trials * n_points * (d + 2) * 8 + POSTERIOR_BLOCK * 16 * 8


def _full_block_noise_deltas(r, normals, stds):
    """experiments._noise_deltas as it was before it worked right of the
    diagonal only: every level's arithmetic over full-width (rows, n) blocks,
    masked to the upper triangle. The oracle of its sums' bytes."""
    n = len(r)
    q = 1.0 - r
    cols = np.arange(n)
    sums = np.zeros((len(stds), n))
    sigma_n, start = [0.0] * len(stds), 0
    block = max(1, 2**15 // n)
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


@pytest.mark.parametrize("n", (2, 3, 41, 800))
def test_right_of_diagonal_noise_deltas_equal_the_full_blocks(n):
    # several row blocks at n = 800 (40 rows each), a lone one below; levels
    # that clip nothing, some, most, and the exact one
    levels = (0.1, 0.2, 0.3, 3.0, 0.0, 1e-9)
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        r = rng.uniform(size=n)
        r[:2] = (0.0, 1.0)[:n]  # s_ij of exactly 0 and 1 sit on the clip bounds
        stream = copy.deepcopy(rng)  # draws the same normals, block by block
        normals = rng.standard_normal(n * (n - 1) // 2)
        sums, sigma_n = experiments._noise_deltas(r, stream, levels)
        want_sums, want_sigma_n = _full_block_noise_deltas(r, normals, levels)
        assert sums.tobytes() == want_sums.tobytes()
        assert [v.hex() for v in sigma_n] == [v.hex() for v in want_sigma_n]


@pytest.mark.parametrize("n", (2, 3, 41, 800, 801))
def test_streamed_pair_normals_equal_the_drawn_ones(n):
    # 801 points end on a partial row block (40 rows each); the generator
    # form draws each block's normals as the loop reaches it
    levels = (0.1, 0.3, 0.0, 3.0)
    seed = 3
    rng = np.random.default_rng(n)
    r = rng.uniform(size=(4, n))
    stream = make_rng(seed, 2)
    got_sums, got_sigma_n = experiments._noise_deltas(r, stream, levels)
    # the stream ends where the pairs end: its next draw continues a longer draw
    drawn = make_rng(seed, 2).standard_normal(n * (n - 1) // 2 + 1)
    assert stream.standard_normal() == drawn[-1]
    for k, p in enumerate(r):
        sums, sigma_n = _full_block_noise_deltas(p, drawn[:-1], levels)
        # a (4, n) stack gives each posterior's lone sums, byte for byte
        assert got_sums[:, k].tobytes() == sums.tobytes()
        assert [v.hex() for v in got_sigma_n[:, k]] == [v.hex() for v in sigma_n]
        streamed = experiments._noise_deltas(p, make_rng(seed, 2), levels)
        assert streamed[0].tobytes() == sums.tobytes()
        assert [v.hex() for v in streamed[1]] == [v.hex() for v in sigma_n]


def test_split_pairs_by_label_pairs_once():
    setup, seed = experiments.COLLAPSE_SETUP, 3
    train, _ = datagen.sample_train_test(setup, *experiments.TRAIN_COUNTS, seed)
    calls, pair_indices = [], datagen.pair_indices

    def counting_pair_indices(n, seed):
        calls.append(n)
        return pair_indices(n, seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "pair_indices", counting_pair_indices)
        mp.setattr(datagen, "pair_indices", counting_pair_indices)
        got = experiments.split_pairs_by_label(train, setup, seed)
    assert calls == [len(train)]
    # the two-draw recipe it replaces gives the same three datasets, byte for byte
    all_ds = make_pairs(train.X, setup, seed)
    i1, i2 = datagen.pair_indices(len(train), seed)
    same = train.y[i1] == train.y[i2]
    want = (all_ds.subset(same & (all_ds.s >= setup.pi_plus)),
            all_ds.subset(~same & (all_ds.s <= setup.pi_minus)), all_ds)
    assert [(ds.rows.tobytes(), ds.s.tobytes()) for ds in got] == \
        [(ds.rows.tobytes(), ds.s.tobytes()) for ds in want]
    assert 0 < len(got[0]) and 0 < len(got[1])


@pytest.mark.parametrize("arch", (model.Architecture.linear(2), model.Architecture.mlp(2, 8, 6)))
def test_weighted_points_reproduce_confidence_model(arch):
    # 100 points in batches of 32: the final partial batch of 4 is exercised
    labeled = sample_labeled(preset("B"), 62, 38, 5)
    seed, epochs, batch, lr0 = 3, 4, 32, 0.05
    _, posteriors = posterior_model_confidences(labeled, arch, seed, epochs=epochs,
                                                batch=batch, lr0=lr0)

    n = len(labeled)
    a, b = (labeled.y == 1) / n, (labeled.y == -1) / n
    p = train_weighted_points(labeled.X, a, b, arch, epochs, lr0, seed=seed, batch=batch)
    weighted = 1.0 / (1.0 + np.exp(-model.forward(p, labeled.X)))
    assert np.max(np.abs(weighted - posteriors)) <= 1e-12


def _dataset_risk_of(p, ds, spec):
    if spec.kind == "supervised":
        return supervised_risk(model.forward(p, ds.X), ds.y, spec.loss)
    return pair_risk(model.forward(p, ds.x), model.forward(p, ds.x_prime), ds.s, spec)


@pytest.mark.parametrize("kind", RISK_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       pi_plus=st.floats(0.1, 0.9).filter(lambda v: abs(v - 0.5) > 0.05),
       n=st.integers(2, 12), s_mid=st.floats(0.05, 0.95))
def test_trainer_gradient_matches_finite_differences(kind, seed, pi_plus, n, s_mid):
    rng = np.random.default_rng(seed)
    d = 3
    spec = RiskSpec(kind, pi_plus, k=0.5 if kind == "corrected" else None)
    if kind == "supervised":
        ds = LabeledData(rng.normal(size=(n, d)), rng.choice([-1, 1], size=n))
    else:
        # confidences bunched around s_mid: below pi- (above pi+) the
        # partial risk r+ (r-) tends to go negative
        ds = SconfDataset(np.concatenate([rng.normal(size=(n, d)), rng.normal(size=(n, d))]),
                          np.clip(rng.normal(s_mid, 0.15, size=n), 0.02, 0.98))
    p = model.init(model.Architecture.linear(d))
    p.params[:] = rng.normal(0.0, 0.7, d + 1)
    if kind in ("nn", "abs", "corrected"):
        # stay away from the kink of f at 0
        pr = partial_risks(model.forward(p, ds.x), model.forward(p, ds.x_prime), ds.s, spec)
        assume(min(abs(pr.r_plus), abs(pr.r_minus)) > 1e-3)

    # the trainer's own objective and full-batch step: score gradient, then
    # backward; both as a batch of every index and as the loop's shuffle-free
    # ALL_ROWS. Its risk is checked against the independent one it differences.
    risk, grad = trainer._objective(ds, spec, "training")
    analytic = []
    for idx in (np.arange(n), trainer.ALL_ROWS):
        analytic.append(np.empty_like(p.params))
        model.backward(p, grad(p, idx), analytic[-1])

    h = 1e-6
    for j in range(d + 1):
        orig = p.params[j]
        p.params[j] = orig + h
        hi = risk(p)
        assert hi == pytest.approx(_dataset_risk_of(p, ds, spec), rel=1e-12, abs=1e-15)
        p.params[j] = orig - h
        lo = risk(p)
        assert lo == pytest.approx(_dataset_risk_of(p, ds, spec), rel=1e-12, abs=1e-15)
        p.params[j] = orig
        for grads in analytic:
            assert grads[j] == pytest.approx((hi - lo) / (2 * h), rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("kind", PAIR_KINDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       pi_plus=st.floats(0.05, 0.95).filter(lambda v: abs(v - 0.5) > 0.05),
       n=st.integers(1, 50), loss=st.sampled_from(LOSS_KINDS))
def test_pair_risk_equals_weighted_row_risk(kind, seed, pi_plus, n, loss):
    # the pair set as its 2n scored rows u = (z, z'), each pair's weights on
    # both of its rows: r+ = sum a' l(u, +1), r- = sum b' l(u, -1), then f
    rng = np.random.default_rng(seed)
    spec = RiskSpec(kind, pi_plus, loss=loss, k=0.5 if kind == "corrected" else None)
    z, zp = rng.normal(0.0, 3.0, size=(2, n))
    s = rng.uniform(0.01, 0.99, size=n)
    u = np.concatenate([z, zp])
    a, b = (np.tile(w, 2) for w in pair_weights(s, spec))
    rows = (correction(np.sum(a * loss_value(loss, u, 1)), spec)[0]
            + correction(np.sum(b * loss_value(loss, u, -1)), spec)[0])
    assert abs(pair_risk(z, zp, s, spec) - rows) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50), loss=st.sampled_from(LOSS_KINDS))
def test_supervised_risk_equals_one_hot_row_risk(seed, n, loss):
    rng = np.random.default_rng(seed)
    z, y = rng.normal(0.0, 3.0, size=n), rng.choice([-1, 1], size=n)
    a, b = trainer.one_hot(y)
    rows = np.sum(a * loss_value(loss, z, 1)) + np.sum(b * loss_value(loss, z, -1))
    assert abs(supervised_risk(z, y, loss) - rows) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(trials=st.integers(1, 6), n=st.integers(2, 40), d=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), epochs=st.integers(1, 25))
def test_every_stacked_trial_matches_its_single_fit(trials, n, d, seed, epochs):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(trials, n, d))
    a = rng.uniform(-0.5, 1.0, size=(trials, n)) / n
    b = rng.uniform(-0.5, 1.0, size=(trials, n)) / n
    arch = model.Architecture.linear(d)
    # a stack scores and backpropagates each trial as the single model does,
    # so every step, and so every parameter, is the single fit's bit for bit
    stack = train_weighted_points(X, a, b, arch, epochs, 0.1, drop_every=7)
    for t in range(trials):
        single = train_weighted_points(X[t], a[t], b[t], arch, epochs, 0.1, drop_every=7)
        assert stack.params[t].tobytes() == single.params.tobytes()


# trainer.train's pair step takes loss_derivative once per label and adds the
# weighted terms; the point step takes weighted_derivative's one fused sigmoid.
# The two round differently, and the drift after a dozen Adam steps stays
# within this, relative to the largest parameter
STACK_TOL = 1e-13


@pytest.mark.parametrize("n_pairs", (7, 60))
def test_pair_risk_training_matches_point_form_stack(n_pairs):
    # trainer.train on the unbiased pair risk and the point-form stack of the
    # same pair sets (ds.rows, pair weights on both halves) take the same
    # steps: f is the identity, so the gradients are one expression
    setup, epochs = preset("B"), 12
    spec = RiskSpec("unbiased", setup.pi_plus)
    arch = model.Architecture.linear(2)
    test = sample_labeled(setup, 250, 150, 99)
    sets = [make_pairs(sample_labeled(setup, n_pairs + 3, n_pairs - 3, seed).X, setup, seed)
            for seed in (1, 2, 3)]
    weights = [pair_weights(ds.s, spec) for ds in sets]
    stack = train_weighted_points(np.stack([ds.rows for ds in sets]),
                                  np.stack([np.tile(a, 2) for a, _ in weights]),
                                  np.stack([np.tile(b, 2) for _, b in weights]),
                                  arch, epochs, 0.1, drop_every=5)
    for t, ds in enumerate(sets):
        cfg = trainer.TrainConfig(spec, arch, epochs=epochs, seed=t, drop_every=5)
        chosen, report = trainer.train(ds, None, test, cfg)
        # the final epoch's test 0-1 risk is what the sample-size sweep reads
        assert report.rows[-1][4] == trainer.evaluate(stack.trial(t), test)[1]
        # the parameters trainer.train keeps are those after best_epoch + 1 steps
        upto = train_weighted_points(ds.rows[None], np.tile(weights[t][0], 2)[None],
                                     np.tile(weights[t][1], 2)[None], arch,
                                     report.best_epoch + 1, 0.1, drop_every=5)
        want = chosen.params
        assert np.max(np.abs(upto.params[0] - want)) <= STACK_TOL * max(1.0, np.max(np.abs(want)))
