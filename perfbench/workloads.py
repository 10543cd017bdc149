"""The benchmark's workloads: inputs, the timed call, output checks and counts.

Each workload object has

    setup(seed, workdir) -> inputs     built before the timed call (setup_s)
    call(inputs) -> output             the timed call into sconf (run_s)
    check(inputs, output) -> list      failed output checks, empty when correct
    fingerprint(output)                compared exactly between repeated calls
    test_err_pct(inputs, output)       the quality of the result, in %
    train_rows(inputs)                 rows fed to a backward pass per call,
                                       from the workload spec, not the trace

The output checks reuse the repository's acceptance gates unchanged
(tests/test_acceptance.py, criteria 1, 2 and 8). Those gates are statistical
bands on means over 5 (table) or 10 (sweep) trials; at the seed commit they
failed for one table seed group (36-40) and one sweep base seed (6) out of
the ones tried, so the benchmark maps its --seed onto the groups on which the
gates held. A failing check then means the program changed its answer.
"""

import io
import math
import os
from contextlib import redirect_stdout

import numpy as np

from sconf import cli, dataset_io, experiments, model, trainer
from sconf.datagen import preset

# tests/test_acceptance.py: setup -> (Sconf exact, supervised) accuracy in %
PAPER_TABLE = {"A": (89.91, 89.66), "B": (90.62, 90.71), "C": (88.05, 88.14), "D": (90.43, 90.56)}
BAND_PP = 1.5          # criterion 1
NOISE_DROP_PP = 2.0    # criterion 2
SLOPE_RANGE = (-0.75, -0.25)  # criterion 8

# first trial seed of each 5-seed table group, and sweep base seeds, on which
# the gates held at the seed commit
TABLE_GROUPS = tuple(5 * k + 1 for k in range(19) if k != 7)
SWEEP_BASE_SEEDS = tuple(b for b in range(1, 16) if b != 6)


def pick(pool, seed):
    return pool[(seed - 1) % len(pool)]


class Table:
    """reproduce_table + summarize_table over setups x {exact, noisy, supervised}."""

    name = "table"

    def __init__(self, setups=("A", "B", "C", "D"), noise_stds=(0.0, 0.1, 0.2, 0.3), trials=5):
        self.setups, self.noise_stds, self.trials = tuple(setups), tuple(noise_stds), trials

    def setup(self, seed, workdir):
        first = pick(TABLE_GROUPS, seed)
        return {"seeds": list(range(first, first + self.trials))}

    def call(self, inputs):
        runs = experiments.reproduce_table(setups=self.setups, noise_stds=self.noise_stds,
                                           seeds=inputs["seeds"])
        return experiments.summarize_table(runs)

    def check(self, inputs, summary):
        means = {(s, m, std): mean for s, m, std, mean, _ in summary}
        failed = []
        for setup in self.setups:
            ref_sconf, ref_sup = PAPER_TABLE[setup]
            exact = means[(setup, "sconf", 0.0)]
            sup = means[(setup, "supervised", 0.0)]
            if abs(exact - ref_sconf) > BAND_PP or abs(sup - ref_sup) > BAND_PP:
                failed.append(f"criterion 1 {setup}: sconf {exact:.2f} (ref {ref_sconf}), "
                              f"supervised {sup:.2f} (ref {ref_sup}), band {BAND_PP}")
            if 0.3 in self.noise_stds:
                drop = exact - means[(setup, "sconf", 0.3)]
                if drop > NOISE_DROP_PP:
                    failed.append(f"criterion 2 {setup}: noise drop {drop:.2f} > {NOISE_DROP_PP}")
        return failed

    def fingerprint(self, summary):
        return tuple(summary)

    def test_err_pct(self, inputs, summary):
        return float(np.mean([100.0 - row[3] for row in summary if row[1] == "sconf"]))

    def train_rows(self, inputs):
        per_trial = experiments.SYNTH_EPOCHS * sum(experiments.TRAIN_COUNTS)
        return len(self.setups) * (len(self.noise_stds) + 1) * self.trials * per_trial


class SweepN:
    """sweep_n on setup B; every epoch is evaluated on the 200k-point test set."""

    name = "sweep_n"

    def __init__(self, grid=(50, 100, 200, 400, 800, 1600), trials=10):
        self.grid, self.trials = list(grid), trials
        self._bayes_risk = None

    def setup(self, seed, workdir):
        return {"base_seed": pick(SWEEP_BASE_SEEDS, seed)}

    def call(self, inputs):
        return experiments.sweep_n("B", self.grid, self.trials, base_seed=inputs["base_seed"])

    def check(self, inputs, output):
        rows, slope = output
        failed = []
        if slope is None or not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
            failed.append(f"criterion 8: slope {slope} outside {SLOPE_RANGE}")
        if not all(rows[i + 1][1] <= rows[i][1] + rows[i][2] for i in range(len(rows) - 1)):
            failed.append(f"criterion 8: curve not non-increasing within 1 sigma: {rows}")
        return failed

    def fingerprint(self, output):
        rows, slope = output
        return tuple(rows), slope

    def bayes_risk(self):
        # the sweep's test set is fixed, so its Bayes risk is a constant
        if self._bayes_risk is None:
            setup = preset("B")
            test = experiments.sweep_test_set(setup)
            self._bayes_risk = 1.0 - experiments.bayes_accuracy(test, setup)
        return self._bayes_risk

    def excess_pct(self, output):
        return 100.0 * output[0][-1][1]

    def test_err_pct(self, inputs, output):
        """Mean test 0-1 error at the largest n: Bayes risk plus the excess."""
        return 100.0 * self.bayes_risk() + self.excess_pct(output)

    def train_rows(self, inputs):
        return sum(self.trials * experiments.SWEEP_EPOCHS * 2 * n for n in self.grid)


# ---------------------------------------------------------------------------
# idx_mlp: the CLI train command on generated IDX files


PROTOTYPE_SEED = 20210213
PIXEL_NOISE = 0.1
# the training split is fixed, like a real dataset's: one training run's test
# error moves by several points between training draws (the nn-corrected
# validation risk sometimes picks an early epoch), more than any bound allows
TRAIN_KEY = (PROTOTYPE_SEED, 0)


def idx_fixture(key, n):
    """n 28x28 uint8 images from 10 overlapping class prototypes, with labels.

    Each prototype is a few Gaussian blobs, the same for every key. An image
    blends its own class's prototype with a random other one (up to 60%) and
    adds pixel noise, so some images sit nearer another class and the test
    error stays well above zero. The draws come from default_rng(key).
    """
    rng = np.random.default_rng(PROTOTYPE_SEED)
    yy, xx = np.mgrid[0:28, 0:28]
    protos = np.zeros((10, 28, 28))
    for k in range(10):
        for cy, cx, width in zip(*rng.uniform((4, 4, 2), (24, 24, 5), (4, 3)).T):
            protos[k] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width**2))
    protos /= protos.max(axis=(1, 2), keepdims=True)
    rng = np.random.default_rng(key)
    labels = rng.integers(0, 10, n)
    mix = rng.uniform(0.0, 0.6, n)[:, None, None]
    images = ((1.0 - mix) * protos[labels] + mix * protos[rng.integers(0, 10, n)]
              + rng.normal(0.0, PIXEL_NOISE, (n, 28, 28)))
    return np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8), labels.astype(np.uint8)


def write_idx_pair(directory, stem, images, labels):
    """Write images/labels with dataset_io and check they read back unchanged."""
    img_path = os.path.join(directory, f"{stem}-images-idx3-ubyte")
    lab_path = os.path.join(directory, f"{stem}-labels-idx1-ubyte")
    dataset_io.write_idx_images(img_path, images)
    dataset_io.write_idx_labels(lab_path, labels)
    if not (np.array_equal(dataset_io.read_idx_images(img_path), images)
            and np.array_equal(dataset_io.read_idx_labels(lab_path), labels)):
        raise RuntimeError(f"IDX round trip changed {img_path}")
    return img_path, lab_path


class IdxMlp:
    """cli train with estimator=nn, arch=mlp on generated IDX files."""

    name = "idx_mlp"
    confidence_epochs = 10
    val_fraction = 0.2

    def __init__(self, n_train=3000, n_test=4000, epochs=10, arch="mlp", batch_pairs=150,
                 confidence_batch=300):
        self.n_train, self.n_test, self.epochs, self.arch = n_train, n_test, epochs, arch
        self.batch_pairs, self.confidence_batch = batch_pairs, confidence_batch

    def setup(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        train = write_idx_pair(workdir, "train", *idx_fixture(TRAIN_KEY, self.n_train))
        test = write_idx_pair(workdir, "t10k", *idx_fixture((seed, 1), self.n_test))
        config = f"""\
idx_images={train[0]}
idx_labels={train[1]}
idx_test_images={test[0]}
idx_test_labels={test[1]}
corruption=mnist
estimator=nn
arch={self.arch}
epochs={self.epochs}
batch_pairs={self.batch_pairs}
lr0=0.001
drop_every=4
weight_decay=0.0001
val_fraction={self.val_fraction}
seed=1
confidence_epochs={self.confidence_epochs}
confidence_batch={self.confidence_batch}
confidence_lr0=0.001
"""
        cfg_path = os.path.join(workdir, "train.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(config)
        return {"config": cfg_path, "out": os.path.join(workdir, "out"), "test": test}

    def call(self, inputs):
        with redirect_stdout(io.StringIO()):
            code = cli.main(["train", inputs["config"], "--out", inputs["out"]])
        out = inputs["out"]
        report = _read(os.path.join(out, "report.csv")) if code == 0 else b""
        ckpt = _read(os.path.join(out, "model.ckpt")) if code == 0 else b""
        return {"code": code, "report": report, "ckpt": ckpt}

    def _rows(self, output):
        lines = output["report"].decode().splitlines()
        return lines[0], [line.split(",") for line in lines[1:]]

    def check(self, inputs, output):
        if output["code"] != 0:
            return [f"cli train exited with {output['code']}"]
        header, rows = self._rows(output)
        failed = []
        if header != ",".join(trainer.REPORT_COLUMNS):
            failed.append(f"report.csv header {header!r}")
        if [int(r[0]) for r in rows] != list(range(self.epochs)):
            failed.append(f"report.csv has epochs {[r[0] for r in rows]}, want 0..{self.epochs - 1}")
        if not all(math.isfinite(float(v)) for r in rows for v in r[1:3]):
            failed.append("non-finite risk in report.csv")
        if failed:
            return failed
        rule = dataset_io.corruption("mnist")
        test = dataset_io.corrupt_binary(*dataset_io.load_idx(*inputs["test"]), rule)
        acc, _ = trainer.evaluate(model.load_checkpoint(os.path.join(inputs["out"], "model.ckpt")),
                                  test)
        best = self._best_row(rows)
        if acc != float(best[3]):
            failed.append(f"checkpoint test_acc {acc!r} != best-epoch row {best[3]}")
        return failed

    @staticmethod
    def _best_row(rows):
        # the trainer keeps the first epoch of minimum validation risk
        return min(rows, key=lambda r: float(r[2]))

    def fingerprint(self, output):
        return output["code"], output["report"], output["ckpt"]

    def test_err_pct(self, inputs, output):
        return 100.0 * (1.0 - float(self._best_row(self._rows(output)[1])[3]))

    def train_rows(self, inputs):
        pairs = self.n_train // 2
        train_pairs = pairs - int(pairs * self.val_fraction)
        return self.confidence_epochs * self.n_train + self.epochs * 2 * train_pairs


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


WORKLOADS = {w.name: w for w in (Table, SweepN, IdxMlp)}
