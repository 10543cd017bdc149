"""Experiment command line.

Subcommands: reproduce-table1, collapse-demo, sweep-n, sweep-noise, prior,
train, gen-synth. Every stochastic command is seeded: collapse-demo, prior and
gen-synth need --seed, sweep-n's trial seeds derive from its --seed (default
1), reproduce-table1 and sweep-noise run the trial seeds 1..trials, and train
takes its config's seed key (default 1). Outputs are CSV files, written by
fileio.write_csv, plus SVG plots; a table's or curve's plot is drawn from the
rows just written to its CSV. train writes report.csv, one row per epoch
(train and validation risk, test accuracy and zero-one risk, learning rate),
its curves.svg, and model.ckpt, the predictor at the best-validation epoch.
All files are written atomically.

Config files are key=value text; a key given twice is an error. Each train
--set KEY=VALUE item is parsed like a config line and overrides the file, and
a repeated --set key is an error too, not last-wins. Every key a train config
gives must be read by the run (noise_std or pi_plus with estimator=supervised
exits 2), and every setting is checked before any data is sampled or loaded.
Integer keys (seed, epochs, batch_pairs, drop_every, subsample and the
confidence model's epochs and batch) must be written as integers: seed=1.5
is an error, not seed 1. Seeds must be nonnegative, and a confidence noise
std finite and nonnegative.
--out or SCONF_OUT_DIR names the output directory (default: the working
directory). A command that fails, by any exception, leaves none of its
outputs: main removes every file the command wrote, then the directory if
main made it and it is now empty. Exit codes: 0 success, 2 config error,
3 data or file error, 4 numeric guard (class prior too balanced for the pair
estimators), 5 training diverged (a train or validation risk became NaN or
infinite); any other exception propagates after the cleanup.
"""

import argparse
import os
import sys

import numpy as np

from . import dataset_io, experiments, model, svgplot, trainer
from .datagen import (PRESET_PI_PLUS, add_confidence_noise, check_noise_std, load_setup_file,
                      make_pairs, preset_synth, sample_train_test)
from .errors import BalancedPriorError, ConfigError, DataError, NonFiniteRiskError, check_int
from .fileio import parse_key_values, parse_list, write_csv
from .risk import RiskSpec, check_estimator
from .rng import make_rng
from .trainer import TrainConfig

# the classes are disjoint, so the first isinstance match is the exit code
EXIT_CODES = {BalancedPriorError: 4, ConfigError: 2, NonFiniteRiskError: 5, DataError: 3,
              OSError: 3}


# ---------------------------------------------------------------------------
# subcommands


def cmd_reproduce_table1(args, write):
    runs = experiments.reproduce_table(trials=args.trials)
    summary = experiments.summarize_table(runs)
    csv_path = write("table1.csv", write_csv,
                     ("setup", "method", "noise_std", "mean_acc", "std_acc"), summary)
    setups = sorted({r[0] for r in summary})
    mean_acc = {r[:3]: r[3] for r in summary}
    series = {f"sconf std={std}": [mean_acc.get((s, "sconf", std), float("nan")) for s in setups]
              for std in sorted({r[2] for r in summary if r[1] == "sconf"})}
    series["supervised"] = [mean_acc.get((s, "supervised", 0.0), float("nan")) for s in setups]
    write("table1.svg", svgplot.bar_chart, setups, series,
          title="Mean test accuracy over trials", ylabel="accuracy [%]")
    for row in summary:
        print(f"{row[0]} {row[1]:10s} std={row[2]:.1f}: {row[3]:.2f} +- {row[4]:.2f}")
    print(f"wrote {csv_path}")


def cmd_collapse_demo(args, write):
    results, all_ds, test, bayes_acc = experiments.collapse_demo(args.seed)
    csv_path = write("collapse.csv", write_csv,
                     ("method", "n_pairs", "frac_positive", "test_acc", "oracle_frac_positive"),
                     [(r["method"], r["n_pairs"], r["frac_positive"], r["test_acc"],
                       r["oracle_frac_positive"]) for r in results])
    counts, edges = np.histogram(all_ds.s, bins=40, range=(0.0, 1.0))
    write("confidence_hist.csv", write_csv, ("bin_left", "bin_right", "count"),
          zip(edges, edges[1:], counts))
    write("confidence_hist.svg", svgplot.histogram, edges, counts,
          title="Similarity confidence of unlabeled pairs", xlabel="s",
          vlines=((PRESET_PI_PLUS, "pi+"), (1 - PRESET_PI_PLUS, "pi-")))
    points = [(float(x[0]), float(x[1]), 0 if y > 0 else 1) for x, y in zip(test.X, test.y)]
    lines = {}
    for r in results:
        v = r["predictor"].views()
        lines[r["method"]] = (float(v["w"][0]), float(v["w"][1]), float(v["b"][0]))
    write("boundaries.svg", svgplot.scatter_with_lines, points, lines, title="Decision boundaries")
    for r in results:
        print(f"{r['method']:16s} pairs={r['n_pairs']:6d} frac+={r['frac_positive']:.3f} "
              f"acc={r['test_acc']:.3f} oracle_frac+={r['oracle_frac_positive']:.3f}")
    print(f"bayes accuracy {bayes_acc:.4f}; wrote {csv_path}")


def cmd_sweep_n(args, write):
    grid = parse_list(args.n_grid, int, "--n-grid")
    rows, slope = experiments.sweep_n(args.setup, grid, args.trials, base_seed=args.seed)
    csv_path = write("sweep_n.csv", write_csv,
                     ("n_pairs", "mean_excess_01_risk", "std_excess_01_risk"), rows)
    write("sweep_n.svg", svgplot.line_plot, [r[0] for r in rows],
          {"mean excess 0-1 risk": [max(r[1], 1e-6) for r in rows]}, title="Excess risk vs pairs",
          xlabel="n pairs", ylabel="excess risk", logx=True, logy=True)
    for r in rows:
        print(f"n={r[0]:5d} mean excess {r[1]:.4f} (+- {r[2]:.4f})")
    print("single-point grid: no slope" if slope is None else f"log-log slope: {slope:.3f}")
    print(f"wrote {csv_path}")


def cmd_sweep_noise(args, write):
    stds = parse_list(args.stds, float, "--stds")
    rows = experiments.sweep_noise(args.setup, stds, args.trials)
    csv_path = write("sweep_noise.csv", write_csv,
                     ("noise_std", "mean_acc", "std_acc", "mean_sigma_n"), rows)
    write("sweep_noise.svg", svgplot.line_plot, [r[0] for r in rows],
          {"mean accuracy [%]": [r[1] for r in rows]}, xlabel="confidence noise std",
          ylabel="accuracy [%]", title=f"Noise robustness, setup {args.setup}")
    for r in rows:
        print(f"std={r[0]}: acc {r[1]:.2f} +- {r[2]:.2f}, sigma_n {r[3]:.1f}")
    print(f"wrote {csv_path}")


def _synth(args):
    """The SynthSpec of --setup-file if given, else of the --setup preset."""
    return load_setup_file(args.setup_file) if args.setup_file else preset_synth(args.setup)


def cmd_prior(args, write):
    setup = _synth(args).setup
    est = experiments.prior_experiment(setup, args.n, args.seed, noise_std=args.noise_std)
    if est.n < 100:
        print(f"warning: only {est.n} pairs; the confidence mean is wide-sample here")
    err = abs(est.pi_plus_hat - setup.pi_plus)
    write("prior.csv", write_csv,
          ("n_pairs", "pi_s_hat", "pi_plus_hat", "clamped", "true_pi_plus", "abs_error"),
          [(est.n, est.pi_s_hat, est.pi_plus_hat, int(est.clamped), float(setup.pi_plus), err)])
    print(f"pi_s_hat={est.pi_s_hat:.5f} pi_plus_hat={est.pi_plus_hat:.5f} "
          f"clamped={est.clamped} (true pi+ {setup.pi_plus:.4f}, error {err:.5f})")


def cmd_gen_synth(args, write):
    synth = _synth(args)
    train, test = sample_train_test(synth.setup, synth.n_plus, synth.n_minus, args.seed)
    ds = add_confidence_noise(make_pairs(train.X, synth.setup, args.seed), args.noise_std,
                              args.seed)
    pairs_path = write("pairs.csv", write_csv, ("x1", "x2", "xp1", "xp2", "s"),
                       [(float(a[0]), float(a[1]), float(b[0]), float(b[1]), float(s))
                        for a, b, s in zip(ds.x, ds.x_prime, ds.s)])
    test_path = write("test.csv", write_csv, ("x1", "x2", "y"),
                      [(float(x[0]), float(x[1]), int(y)) for x, y in zip(test.X, test.y)])
    print(f"wrote {pairs_path} ({len(ds)} pairs) and {test_path} ({len(test)} examples)")


# ---------------------------------------------------------------------------
# train: key=value config file driving one trainer run


TRAIN_KEYS = {
    "estimator": "unbiased", "k": "", "arch": "linear", "epochs": "100",
    "batch_pairs": "full", "lr0": "0.1", "weight_decay": "0.0", "drop_every": "",
    "seed": "1", "pi_plus": "",
    # synthetic source
    "setup": "", "noise_std": "0.0", "val_fraction": "0.0",
    # IDX source
    "idx_images": "", "idx_labels": "", "idx_test_images": "", "idx_test_labels": "",
    "corruption": "", "subsample": "", "confidence_epochs": "10",
    "confidence_batch": "3000", "confidence_lr0": "0.01",
}
IDX_FILE_KEYS = ("idx_images", "idx_labels", "idx_test_images", "idx_test_labels")


def _train_from_config(given, write):
    """One trainer run from the config values given ({key: text}), straight
    down: read and check every key (a key not given takes its TRAIN_KEYS
    default; a given key the run never reads is a ConfigError), then load,
    pair, split, fit and write."""
    read = set()

    def get(key):
        read.add(key)
        return given.get(key, TRAIN_KEYS[key])

    def num(key, cast=float):
        try:
            return cast(get(key))
        except ValueError:
            what = "an integer" if cast is int else "a number"
            raise ConfigError(f"config key {key} must be {what}, got {get(key)!r}") from None

    def opt(key, cast=float):
        return num(key, cast) if get(key) else None

    def count(key):
        return check_int(num(key, int), f"config key {key}", 1)

    # every setting is checked here, before any data is loaded: the estimator,
    # architecture, a given class prior, the seed, the Adam and loop schedule,
    # and the source's own settings; only the input width waits for the data
    risk = dict(kind=get("estimator"), k=opt("k"))
    check_estimator(**risk)
    pairs = risk["kind"] != "supervised"
    seed, arch = num("seed", int), get("arch")
    _parse_arch(arch, 1)
    pi_plus = opt("pi_plus") if pairs else None  # the supervised risk has no prior
    if pi_plus is not None:
        RiskSpec(pi_plus=pi_plus, **risk)
    schedule = dict(epochs=count("epochs"), seed=seed,
                    batch_pairs=None if get("batch_pairs") == "full" else count("batch_pairs"),
                    lr0=num("lr0"), weight_decay=num("weight_decay"),
                    drop_every=opt("drop_every", int))
    trainer.check_fit(**schedule)
    synth = preset_synth(get("setup")) if get("setup") else None
    if synth:
        noise_std = num("noise_std") if pairs else 0.0
        check_noise_std(noise_std)
    elif get("idx_images"):
        files = [get(key) for key in IDX_FILE_KEYS]
        for key, path in zip(IDX_FILE_KEYS, files):
            if not path:
                raise ConfigError(f"IDX training needs the {key} path")
            if not os.path.exists(path):
                raise DataError(f"{key} path does not exist: {path}")
        rule = dataset_io.corruption(get("corruption"))
        subsample = count("subsample") if get("subsample") else None
        if pairs:
            confidence = dict(epochs=count("confidence_epochs"),
                              batch=count("confidence_batch"), lr0=num("confidence_lr0"))
            if not 0.0 <= confidence["lr0"] < np.inf:
                raise ConfigError("config key confidence_lr0 must be finite and nonnegative, "
                                  f"got {confidence['lr0']}")
    else:
        raise ConfigError("config must name either a synthetic setup or IDX paths")
    val_fraction = num("val_fraction") if pairs else 0.0
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigError(f"config key val_fraction must lie in [0, 1), got {val_fraction}")
    unread = sorted(set(given) - read)
    if unread:
        raise ConfigError(f"config keys this run never reads: {', '.join(unread)}")

    if synth:
        ds, test = sample_train_test(synth.setup, synth.n_plus, synth.n_minus, seed)
        prior = synth.setup.pi_plus
    else:
        ds, test = (dataset_io.corrupt_binary(*dataset_io.load_idx(*pair), rule)
                    for pair in (files[:2], files[2:]))
        if ds.X.shape[1] != test.X.shape[1]:
            raise DataError(f"{files[0]} has images of {ds.X.shape[1]} pixels but "
                            f"{files[2]} has images of {test.X.shape[1]}")
        if subsample is not None:
            if subsample > len(ds):
                raise ConfigError(f"config key subsample is {subsample}, more than the "
                                  f"{len(ds)} training images")
            idx = make_rng(seed, 7).permutation(len(ds))[:subsample]
            ds = type(ds)(ds.X[idx], ds.y[idx])
        classes = np.unique(ds.y).tolist()
        if len(classes) < 2:  # every estimator, and the confidence model, needs both
            raise DataError(f"{files[1]}: training needs both classes, but after corruption "
                            f"and subsampling its labels hold only {classes}")
        prior = float(np.mean(ds.y == 1))
    net = _parse_arch(arch, test.X.shape[1])
    if pairs and synth:
        ds = add_confidence_noise(make_pairs(ds.X, synth.setup, seed), noise_std, seed)
    elif pairs:
        ds, _ = dataset_io.posterior_model_confidences(ds, net, seed, **confidence)
    train_ds, val_ds = _split_pairs(ds, val_fraction, seed)
    del ds  # a split copies the rows; the unsplit block is not needed in training
    spec = RiskSpec(pi_plus=prior if pi_plus is None else pi_plus, **risk)
    predictor, report = trainer.train(train_ds, val_ds, test,
                                      TrainConfig(risk=spec, arch=net, **schedule))

    report_path = write("report.csv", report.to_csv)
    write("model.ckpt", lambda path: model.save_checkpoint(predictor, path))
    epochs, train_risk, val_risk, _, test_01, _ = zip(*report.rows)
    write("curves.svg", svgplot.line_plot, epochs,
          {"train risk": train_risk, "val risk": val_risk, "test 0-1 risk": test_01},
          title="Learning curves", xlabel="epoch", ylabel="risk")
    final = report.rows[-1]
    best = report.rows[report.best_epoch]
    print(f"final epoch {final[0]}: train_risk {final[1]:.5f} test_acc {final[3]:.4f}")
    print(f"best val epoch {report.best_epoch}: test_acc {best[3]:.4f}")
    print(f"wrote {report_path}")


def _split_pairs(ds, val_fraction, seed):
    if val_fraction == 0:
        return ds, None
    n_val = int(len(ds) * val_fraction)
    if n_val == 0 or n_val >= len(ds):
        raise ConfigError("val_fraction leaves an empty split")
    perm = make_rng(seed, 8).permutation(len(ds))
    return ds.subset(perm[n_val:]), ds.subset(perm[:n_val])


def _parse_arch(text, d):
    if text == "linear":
        return model.Architecture.linear(d)
    if text == "mlp":
        return model.Architecture.mlp(d)
    if text.startswith("mlp:"):
        sizes = parse_list(text[4:], int, "arch")
        if len(sizes) == 2:
            return model.Architecture.mlp(d, *sizes)
    raise ConfigError(f"unknown arch {text!r} (use linear, mlp, or mlp:H1,H2)")


def cmd_train(args, write):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    given = {}
    for lines, source in ((text, args.config), ("\n".join(args.set or ()), "--set")):
        given.update((k, v) for k, (_, v) in parse_key_values(lines, TRAIN_KEYS, source).items())
    _train_from_config(given, write)


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(prog="sconf", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    synth = argparse.ArgumentParser(add_help=False)
    synth.add_argument("--setup", default="A")
    synth.add_argument("--setup-file", default=None)
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--noise-std", type=float, default=0.0)

    p = sub.add_parser("reproduce-table1", parents=[common], help="synthetic benchmark table")
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(fn=cmd_reproduce_table1)

    p = sub.add_parser("collapse-demo", parents=[common],
                       help="one-sided failure demonstration")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_collapse_demo)

    p = sub.add_parser("sweep-n", parents=[common], help="excess risk against sample size")
    p.add_argument("--setup", default="B")
    p.add_argument("--n-grid", default="50,100,200,400,800,1600")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_sweep_n)

    p = sub.add_parser("sweep-noise", parents=[common], help="accuracy against confidence noise")
    p.add_argument("--setup", default="A")
    p.add_argument("--stds", default="0.0,0.1,0.2,0.3")
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(fn=cmd_sweep_noise)

    p = sub.add_parser("prior", parents=[common, synth],
                       help="class-prior estimation from confidences")
    p.add_argument("--n", type=int, default=100_000)
    p.set_defaults(fn=cmd_prior)

    p = sub.add_parser("train", parents=[common], help="one training run from a config file")
    p.add_argument("config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("gen-synth", parents=[common, synth],
                       help="write a synthetic pair dataset as CSV")
    p.set_defaults(fn=cmd_gen_synth)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = args.out or os.environ.get("SCONF_OUT_DIR") or "."
    fresh = not os.path.exists(out)
    written = []

    def write(name, writer, *values, **options):
        # recorded once the writer returns: a path that blocked a write is not removed
        path = os.path.join(out, name)
        writer(path, *values, **options)
        written.append(path)
        return path

    try:
        os.makedirs(out, exist_ok=True)
        args.fn(args, write)
    except BaseException as exc:
        # a failed command leaves none of its outputs, nor a directory it made
        for path in written:
            os.remove(path)
        if fresh and os.path.isdir(out) and not os.listdir(out):
            os.rmdir(out)
        code = next((code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)), None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
