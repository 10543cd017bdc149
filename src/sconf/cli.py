"""Experiment command line.

Subcommands: reproduce-table1, collapse-demo, sweep-n, sweep-noise, prior,
train, gen-synth. Every stochastic command takes an explicit seed (sweep and
table trials default to seeds 1..trials). Outputs are CSV files plus SVG
plots rendered purely from the CSV contents; all files are written atomically.

Config files are plain key=value text; command-line flags override file
values; a key given twice in one file is an error. The default output
directory comes from --out or the SCONF_OUT_DIR environment variable. Exit
codes: 0 success, 2 configuration error, 3 data error, 4 numeric guard
(class prior too balanced for the pair estimators), 5 training diverged (a
train or validation risk became NaN or infinite; no report or checkpoint is
written).
"""

import argparse
import csv
import io
import os
import sys

import numpy as np

from . import dataset_io, experiments, model, svgplot, trainer
from .datagen import (PRESET_PI_PLUS, add_confidence_noise, load_setup_file, make_pairs,
                      preset, preset_synth, sample_train_test)
from .errors import BalancedPriorError, ConfigError, DataError, NonFiniteRiskError
from .fileio import parse_key_values, write_atomic
from .risk import RiskSpec
from .rng import make_rng
from .trainer import TrainConfig

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_GUARD = 4
EXIT_DIVERGED = 5


def _out_dir(args):
    out = args.out or os.environ.get("SCONF_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    write_atomic(path, buf.getvalue())


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def parse_list(text, cast, name):
    """The comma-separated values of one flag or config key, each cast."""
    try:
        return [cast(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{name} expects comma-separated numbers, got {text!r}") from None


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


# ---------------------------------------------------------------------------
# subcommands


def cmd_reproduce_table1(args):
    out = _out_dir(args)
    runs = experiments.reproduce_table(trials=args.trials)
    summary = experiments.summarize_table(runs)
    csv_path = os.path.join(out, "table1.csv")
    write_csv(csv_path, ("setup", "method", "noise_std", "mean_acc", "std_acc"),
              summary)

    header, rows = read_csv(csv_path)
    setups = sorted({r[0] for r in rows})
    series = {}
    for method, std in (("sconf", "0.0"), ("sconf", "0.1"), ("sconf", "0.2"),
                        ("sconf", "0.3"), ("supervised", "0.0")):
        label = method if method == "supervised" else f"sconf std={std}"
        vals = []
        for s in setups:
            match = [float(r[3]) for r in rows
                     if r[0] == s and r[1] == method and float(r[2]) == float(std)]
            vals.append(match[0] if match else float("nan"))
        series[label] = vals
    svgplot.bar_chart(os.path.join(out, "table1.svg"), setups, series,
                      title="Mean test accuracy over trials", ylabel="accuracy [%]")
    for row in summary:
        print(f"{row[0]} {row[1]:10s} std={row[2]:.1f}: {row[3]:.2f} +- {row[4]:.2f}")
    print(f"wrote {csv_path}")
    return 0


def cmd_collapse_demo(args):
    out = _out_dir(args)
    results, all_ds, test, bayes_acc = experiments.collapse_demo(args.seed)
    csv_path = os.path.join(out, "collapse.csv")
    write_csv(csv_path,
              ("method", "n_pairs", "frac_positive", "test_acc", "oracle_frac_positive"),
              [(r["method"], r["n_pairs"], r["frac_positive"], r["test_acc"],
                r["oracle_frac_positive"]) for r in results])

    hist_path = os.path.join(out, "confidence_hist.csv")
    counts, edges = np.histogram(all_ds.s, bins=40, range=(0.0, 1.0))
    write_csv(hist_path, ("bin_left", "bin_right", "count"),
              [(float(edges[i]), float(edges[i + 1]), int(c)) for i, c in enumerate(counts)])

    _, hrows = read_csv(hist_path)
    svgplot.histogram(os.path.join(out, "confidence_hist.svg"),
                      [ (float(r[0]) + float(r[1])) / 2.0 for r in hrows
                        for _ in range(int(r[2])) ],
                      bins=40, title="Similarity confidence of unlabeled pairs",
                      xlabel="s", vlines=((PRESET_PI_PLUS, "pi+"),
                                          (1 - PRESET_PI_PLUS, "pi-")))
    points = [(float(x[0]), float(x[1]), 0 if y > 0 else 1)
              for x, y in zip(test.X, test.y)]
    lines = {}
    for r in results:
        v = r["predictor"].views()
        lines[r["method"]] = (float(v["w"][0]), float(v["w"][1]), float(v["b"][0]))
    svgplot.scatter_with_lines(os.path.join(out, "boundaries.svg"), points, lines,
                               title="Decision boundaries")
    for r in results:
        print(f"{r['method']:16s} pairs={r['n_pairs']:6d} frac+={r['frac_positive']:.3f} "
              f"acc={r['test_acc']:.3f} oracle_frac+={r['oracle_frac_positive']:.3f}")
    print(f"bayes accuracy {bayes_acc:.4f}; wrote {csv_path}")
    return 0


def cmd_sweep_n(args):
    out = _out_dir(args)
    grid = parse_list(args.n_grid, int, "--n-grid")
    rows, slope = experiments.sweep_n(args.setup, grid, args.trials, base_seed=args.seed)
    csv_path = os.path.join(out, "sweep_n.csv")
    write_csv(csv_path, ("n_pairs", "mean_excess_01_risk", "std_excess_01_risk"), rows)
    header, crows = read_csv(csv_path)
    xs = [int(r[0]) for r in crows]
    ys = [max(float(r[1]), 1e-6) for r in crows]
    if len(xs) >= 2:
        svgplot.line_plot(os.path.join(out, "sweep_n.svg"), xs,
                          {"mean excess 0-1 risk": ys}, title="Excess risk vs pairs",
                          xlabel="n pairs", ylabel="excess risk", logx=True, logy=True)
    for r in rows:
        print(f"n={r[0]:5d} mean excess {r[1]:.4f} (+- {r[2]:.4f})")
    if slope is None:
        print("single-point grid: no slope")
    else:
        print(f"log-log slope: {slope:.3f}")
    print(f"wrote {csv_path}")
    return 0


def cmd_sweep_noise(args):
    out = _out_dir(args)
    stds = parse_list(args.stds, float, "--stds")
    rows = experiments.sweep_noise(args.setup, stds, args.trials)
    csv_path = os.path.join(out, "sweep_noise.csv")
    write_csv(csv_path, ("noise_std", "mean_acc", "std_acc", "mean_sigma_n"), rows)
    _, crows = read_csv(csv_path)
    svgplot.line_plot(os.path.join(out, "sweep_noise.svg"),
                      [float(r[0]) for r in crows],
                      {"mean accuracy [%]": [float(r[1]) for r in crows]},
                      title=f"Noise robustness, setup {args.setup}",
                      xlabel="confidence noise std", ylabel="accuracy [%]")
    for r in rows:
        print(f"std={r[0]:.1f}: acc {r[1]:.2f} +- {r[2]:.2f}, sigma_n {r[3]:.1f}")
    print(f"wrote {csv_path}")
    return 0


def cmd_prior(args):
    out = _out_dir(args)
    if args.setup_file:
        synth = load_setup_file(args.setup_file)
        setup = synth.setup
    else:
        setup = preset(args.setup)
    est = experiments.prior_experiment(setup, args.n, args.seed, noise_std=args.noise_std)
    if est.n < 100:
        print(f"warning: only {est.n} pairs; the confidence mean is wide-sample here")
    err = abs(est.pi_plus_hat - setup.pi_plus)
    write_csv(os.path.join(out, "prior.csv"),
              ("n_pairs", "pi_s_hat", "pi_plus_hat", "clamped", "true_pi_plus", "abs_error"),
              [(est.n, est.pi_s_hat, est.pi_plus_hat, int(est.clamped),
                float(setup.pi_plus), err)])
    print(f"pi_s_hat={est.pi_s_hat:.5f} pi_plus_hat={est.pi_plus_hat:.5f} "
          f"clamped={est.clamped} (true pi+ {setup.pi_plus:.4f}, error {err:.5f})")
    return 0


def cmd_gen_synth(args):
    out = _out_dir(args)
    synth = (load_setup_file(args.setup_file) if args.setup_file
             else preset_synth(args.setup, args.seed))
    seed = args.seed if args.seed is not None else synth.seed
    train, test = sample_train_test(synth.setup, synth.n_plus, synth.n_minus, seed)
    ds = make_pairs(train.X, synth.setup, seed)
    if args.noise_std > 0:
        ds = add_confidence_noise(ds, args.noise_std, seed)
    pairs_path = os.path.join(out, "pairs.csv")
    write_csv(pairs_path, ("x1", "x2", "xp1", "xp2", "s"),
              [(float(a[0]), float(a[1]), float(b[0]), float(b[1]), float(s))
               for a, b, s in zip(ds.x, ds.x_prime, ds.s)])
    test_path = os.path.join(out, "test.csv")
    write_csv(test_path, ("x1", "x2", "y"),
              [(float(x[0]), float(x[1]), int(y)) for x, y in zip(test.X, test.y)])
    print(f"wrote {pairs_path} ({len(ds)} pairs) and {test_path} ({len(test)} examples)")
    return 0


# ---------------------------------------------------------------------------
# train: key=value config file driving one trainer run


TRAIN_KEYS = {
    "estimator": "unbiased", "k": "", "loss": "logistic", "arch": "linear",
    "epochs": "100", "batch_pairs": "full", "lr0": "0.1", "weight_decay": "0.0",
    "drop_every": "", "drop_factor": "10.0", "eval_every": "1", "seed": "1",
    "pi_plus": "",
    # synthetic source
    "setup": "", "noise_std": "0.0", "val_fraction": "0.0",
    # IDX source
    "idx_images": "", "idx_labels": "", "idx_test_images": "", "idx_test_labels": "",
    "corruption": "", "subsample": "", "confidence_epochs": "10",
    "confidence_batch": "3000", "confidence_lr0": "0.01",
}


def parse_config(text, source="<config>"):
    values = dict(TRAIN_KEYS)
    for key, (_, val) in parse_key_values(text, TRAIN_KEYS, source).items():
        values[key] = val
    return values


def _train_from_config(cfg, out):
    def num(key, cast=float):
        try:
            return cast(cfg[key])
        except ValueError:
            raise ConfigError(f"config key {key} is not numeric: {cfg[key]!r}") from None

    seed = num("seed", int)
    if cfg["setup"]:
        synth = preset_synth(cfg["setup"], seed)
        pi_plus = num("pi_plus") if cfg["pi_plus"] else synth.setup.pi_plus
        train_pts, test = sample_train_test(synth.setup, synth.n_plus, synth.n_minus, seed)
        if cfg["estimator"] == "supervised":
            train_ds, val_ds = train_pts, None
        else:
            ds = make_pairs(train_pts.X, synth.setup, seed)
            if num("noise_std") > 0:
                ds = add_confidence_noise(ds, num("noise_std"), seed)
            train_ds, val_ds = _split_pairs(ds, num("val_fraction"), seed)
        d = synth.setup.dim
    elif cfg["idx_images"]:
        for key in ("idx_images", "idx_labels", "idx_test_images", "idx_test_labels"):
            if not cfg[key]:
                raise ConfigError(f"IDX training needs the {key} path")
            if not os.path.exists(cfg[key]):
                raise DataError(f"{key} path does not exist: {cfg[key]}")
        if not cfg["corruption"]:
            raise ConfigError("IDX training needs a corruption rule")
        rule = dataset_io.corruption(cfg["corruption"])
        X, labels = dataset_io.load_idx(cfg["idx_images"], cfg["idx_labels"])
        Xt, labels_t = dataset_io.load_idx(cfg["idx_test_images"], cfg["idx_test_labels"])
        labeled = dataset_io.corrupt_binary(X, labels, rule)
        test = dataset_io.corrupt_binary(Xt, labels_t, rule)
        if cfg["subsample"]:
            k = num("subsample", int)
            idx = make_rng(seed, 7).permutation(len(labeled))[:k]
            labeled = type(labeled)(labeled.X[idx], labeled.y[idx])
        pi_plus = num("pi_plus") if cfg["pi_plus"] else float(np.mean(labeled.y == 1))
        if cfg["estimator"] == "supervised":
            train_ds, val_ds = labeled, None
        else:
            arch_conf = _parse_arch(cfg["arch"], labeled.X.shape[1])
            ds, _ = dataset_io.posterior_model_confidences(
                labeled, arch_conf, seed, epochs=num("confidence_epochs", int),
                batch=num("confidence_batch", int), lr0=num("confidence_lr0"))
            train_ds, val_ds = _split_pairs(ds, num("val_fraction"), seed)
        d = test.X.shape[1]
    else:
        raise ConfigError("config must name either a synthetic setup or IDX paths")

    spec = RiskSpec(cfg["estimator"], pi_plus, loss=cfg["loss"],
                    k=num("k") if cfg["k"] else None)
    arch = _parse_arch(cfg["arch"], d)
    batch = None if cfg["batch_pairs"] in ("", "full") else num("batch_pairs", int)
    tc = TrainConfig(risk=spec, arch=arch, epochs=num("epochs", int), seed=seed,
                     batch_pairs=batch, lr0=num("lr0"), weight_decay=num("weight_decay"),
                     drop_every=num("drop_every", int) if cfg["drop_every"] else None,
                     drop_factor=num("drop_factor"), eval_every=num("eval_every", int))
    predictor, report = trainer.train(train_ds, val_ds, test, tc)

    report_path = os.path.join(out, "report.csv")
    report.to_csv(report_path)
    model.save_checkpoint(predictor, os.path.join(out, "model.ckpt"))
    _, rows = read_csv(report_path)
    xs = [int(r[0]) for r in rows]
    svgplot.line_plot(os.path.join(out, "curves.svg"), xs,
                      {"train risk": [float(r[1]) for r in rows],
                       "val risk": [float(r[2]) for r in rows],
                       "test 0-1 risk": [float(r[4]) for r in rows]},
                      title="Learning curves", xlabel="epoch", ylabel="risk")
    final = report.rows[-1]
    best = report.row_at(report.best_epoch)
    print(f"final epoch {final[0]}: train_risk {final[1]:.5f} test_acc {final[3]:.4f}")
    print(f"best val epoch {report.best_epoch}: test_acc {best[3]:.4f}")
    print(f"wrote {report_path}")
    return 0


def _split_pairs(ds, val_fraction, seed):
    if val_fraction <= 0:
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


def cmd_train(args):
    out = _out_dir(args)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    cfg = parse_config(text, source=args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        if key not in TRAIN_KEYS:
            raise ConfigError(f"--set: unknown key {key!r}")
        cfg[key] = val
    return _train_from_config(cfg, out)


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(prog="sconf", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce-table1", help="synthetic benchmark table")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_reproduce_table1)

    p = sub.add_parser("collapse-demo", help="one-sided failure demonstration")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_collapse_demo)

    p = sub.add_parser("sweep-n", help="excess risk against sample size")
    p.add_argument("--setup", default="B")
    p.add_argument("--n-grid", default="50,100,200,400,800,1600")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep_n)

    p = sub.add_parser("sweep-noise", help="accuracy against confidence noise")
    p.add_argument("--setup", default="A")
    p.add_argument("--stds", default="0.0,0.1,0.2,0.3")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep_noise)

    p = sub.add_parser("prior", help="class-prior estimation from confidences")
    p.add_argument("--setup", default="A")
    p.add_argument("--setup-file", default=None)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_prior)

    p = sub.add_parser("train", help="one training run from a config file")
    p.add_argument("config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("gen-synth", help="write a synthetic pair dataset as CSV")
    p.add_argument("--setup", default="A")
    p.add_argument("--setup-file", default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen_synth)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BalancedPriorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
