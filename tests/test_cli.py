import os
import re

import numpy as np
import pytest

from sconf import cli, dataset_io, svgplot
from sconf.cli import TRAIN_KEYS, main


def run_cli(argv):
    return main(argv)


def random_idx_source(directory):
    """Config lines of an IDX source: 120 train and 40 test random 4x4 images
    with random digit labels, under the mnist rule."""
    from sconf.dataset_io import write_idx_images, write_idx_labels

    rng = np.random.default_rng(3)
    for stem, n in (("train", 120), ("test", 40)):
        write_idx_images(directory / f"{stem}.idx", rng.integers(0, 256, (n, 4, 4), np.uint8))
        write_idx_labels(directory / f"{stem}-labels.idx", rng.integers(0, 10, n, np.uint8))
    return "\n".join(f"{key}={directory / name}" for key, name in (
        ("idx_images", "train.idx"), ("idx_labels", "train-labels.idx"),
        ("idx_test_images", "test.idx"), ("idx_test_labels", "test-labels.idx"))
    ) + "\ncorruption=mnist"


class TestGenSynth:
    def test_writes_and_reproduces(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["gen-synth", "--setup", "B", "--seed", "3", "--out", str(out1)]) == 0
        assert run_cli(["gen-synth", "--setup", "B", "--seed", "3", "--out", str(out2)]) == 0
        assert (out1 / "pairs.csv").read_text() == (out2 / "pairs.csv").read_text()
        assert (out1 / "test.csv").read_text() == (out2 / "test.csv").read_text()
        lines = (out1 / "pairs.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,xp1,xp2,s"
        assert len(lines) == 1 + 400

    def test_different_seed_differs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(["gen-synth", "--setup", "B", "--seed", "3", "--out", str(out1)])
        run_cli(["gen-synth", "--setup", "B", "--seed", "4", "--out", str(out2)])
        assert (out1 / "pairs.csv").read_text() != (out2 / "pairs.csv").read_text()

    SETUP_FILE = ("mu_plus=0 0\nmu_minus=4 0\nsigma_plus=3 0 0 3\n"
                  "sigma_minus=2 0 0 2\npi_plus=0.625\nn_plus=40\nn_minus=24\n")

    def test_setup_file(self, tmp_path):
        sf = tmp_path / "setup.txt"
        sf.write_text(self.SETUP_FILE)
        out = tmp_path / "o"
        assert run_cli(["gen-synth", "--setup-file", str(sf), "--seed", "9",
                        "--out", str(out)]) == 0
        assert len((out / "pairs.csv").read_text().splitlines()) == 1 + 32

    def test_setup_file_seed_is_an_unknown_key(self, tmp_path, capsys):
        # the seed comes from --seed; a setup file's own seed would change nothing
        sf = tmp_path / "setup.txt"
        sf.write_text(self.SETUP_FILE + "seed=9\n")
        out = tmp_path / "o"
        assert run_cli(["gen-synth", "--setup-file", str(sf), "--seed", "9",
                        "--out", str(out)]) == 2
        assert "unknown key 'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCONF_OUT_DIR", str(tmp_path / "env_out"))
        assert run_cli(["gen-synth", "--setup", "A", "--seed", "1"]) == 0
        assert (tmp_path / "env_out" / "pairs.csv").exists()


class TestPrior:
    def test_small_n_warns_and_writes(self, tmp_path, capsys):
        assert run_cli(["prior", "--setup", "A", "--n", "4", "--seed", "2",
                        "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wide-sample" in out
        header = (tmp_path / "prior.csv").read_text().splitlines()[0]
        assert header == "n_pairs,pi_s_hat,pi_plus_hat,clamped,true_pi_plus,abs_error"

    def test_noisy_flag_runs(self, tmp_path):
        assert run_cli(["prior", "--setup", "A", "--n", "200", "--seed", "2",
                        "--noise-std", "0.3", "--out", str(tmp_path)]) == 0


class TestTrain:
    def write_cfg(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        return cfg

    def test_synthetic_quick_run(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "setup=B\nepochs=3\nseed=1\nlr0=0.05\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_risk,val_risk,test_acc,test_01_risk,lr"
        assert len(lines) == 1 + 3
        assert (out / "model.ckpt").exists()
        assert (out / "curves.svg").exists()

    def test_flag_overrides_config(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "setup=B\nepochs=3\nseed=1\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--set", "epochs=2", "--out", str(out)]) == 0
        assert len((out / "report.csv").read_text().splitlines()) == 1 + 2

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "setup=B\nwhatever=3\nseed=1\n")
        assert run_cli(["train", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert ":2" in capsys.readouterr().err

    def test_repeated_key_is_config_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "setup=B\nepochs=3\nseed=1\nepochs=2\n")
        out = tmp_path / "o"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}:4: duplicate key 'epochs'" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_zero_noise_std_keeps_the_noiseless_bytes(self, tmp_path, monkeypatch):
        # an explicit noise_std=0.0, the default, and a run whose noise step is
        # skipped altogether write the same files
        base = "setup=B\nestimator=nn\nepochs=3\nbatch_pairs=64\nseed=2\n"
        runs = {"explicit": base + "noise_std=0.0\n", "default": base, "skipped": base}
        files = {}
        for name, text in runs.items():
            if name == "skipped":
                monkeypatch.setattr(cli, "add_confidence_noise", lambda ds, std, seed: ds)
            out = tmp_path / name
            assert run_cli(["train", str(self.write_cfg(tmp_path, text)), "--out", str(out)]) == 0
            files[name] = {f: (out / f).read_bytes()
                           for f in ("report.csv", "model.ckpt", "curves.svg")}
        assert files["explicit"] == files["default"] == files["skipped"]

    def test_diverged_training_exit_code_no_partial_files(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "setup=B\nepochs=3\nseed=1\nlr0=1e308\n")
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run_cli(["train", str(cfg), "--out", str(out)]) == 5
        assert "epoch 0: train risk is nan" in capsys.readouterr().err
        assert not (out / "report.csv").exists()
        assert not (out / "model.ckpt").exists()

    def test_diverged_confidence_model_exit_code(self, tmp_path, capsys):
        # the IDX confidence model is a weighted-point fit: its parameter check
        # names the epoch and the trial (0 for a single fit)
        cfg = self.write_cfg(tmp_path, f"""
            {random_idx_source(tmp_path)}
            epochs=2
            seed=1
            confidence_epochs=5
            confidence_batch=32
            confidence_lr0=1e308
        """)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run_cli(["train", str(cfg), "--out", str(out)]) == 5
        assert "trial 0 train parameter is" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_confidence_scores_past_the_float_range_exit_code(self, tmp_path, capsys):
        # a full-batch confidence fit at lr 1e308 keeps finite parameters near
        # 4e307 that score some rows +-inf; the run must not train on the
        # saturated confidences of the rest
        cfg = self.write_cfg(tmp_path, f"""
            {random_idx_source(tmp_path)}
            epochs=2
            seed=1
            confidence_epochs=3
            confidence_batch=120
            confidence_lr0=1e308
        """)
        out = tmp_path / "out"
        with np.errstate(over="ignore"):  # the diverging fit overflows on the way
            assert run_cli(["train", str(cfg), "--out", str(out)]) == 5
        assert re.search(r"epoch 2: confidence model score of row \d+ is -?inf",
                         capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("lr0", ("1e3", "1e50", "1e200", "1e300"))
    def test_saturated_wrong_confidence_model_exit_code(self, tmp_path, capsys, lr0):
        # at these rates the confidence fit scores every row far past the
        # sigmoid's range: every posterior is exactly 0 or 1, and 36 of the
        # 120 contradict their labels, so the confidences carry no similarity
        cfg = self.write_cfg(tmp_path, f"""
            {random_idx_source(tmp_path)}
            epochs=2
            seed=1
            confidence_epochs=3
            confidence_batch=120
            confidence_lr0={lr0}
        """)
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 5
        assert re.search(r"epoch 2: saturated confidence model score of row \d+ is -?\d",
                         capsys.readouterr().err)
        assert not out.exists()

    def test_unsaturated_confidence_model_trains(self, tmp_path):
        cfg = self.write_cfg(tmp_path, f"""
            {random_idx_source(tmp_path)}
            epochs=2
            seed=1
            confidence_epochs=3
            confidence_batch=120
            confidence_lr0=1e-2
        """)
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["curves.svg", "model.ckpt", "report.csv"]

    def test_missing_config_file(self, tmp_path):
        assert run_cli(["train", str(tmp_path / "absent.cfg"),
                        "--out", str(tmp_path / "o")]) == 2

    def test_missing_idx_paths_no_partial_files(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "idx_images=/nonexistent/i.idx\n"
                                       "idx_labels=/nonexistent/l.idx\n"
                                       "idx_test_images=/nonexistent/ti.idx\n"
                                       "idx_test_labels=/nonexistent/tl.idx\n"
                                       "corruption=mnist\nseed=1\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 3
        assert not (out / "report.csv").exists()
        assert not (out / "model.ckpt").exists()

    # each command with one of its outputs, the last it writes where it has several
    BLOCKED_OUTPUTS = [
        ("train {cfg}", "report.csv"), ("train {cfg}", "model.ckpt"),
        ("train {cfg}", "curves.svg"), ("reproduce-table1 --trials 1", "table1.svg"),
        ("collapse-demo --seed 1", "boundaries.svg"),
        ("sweep-n --n-grid 30,60 --trials 1", "sweep_n.svg"),
        ("sweep-noise --stds 0.0,0.3 --trials 1", "sweep_noise.svg"),
        ("prior --seed 1 --n 200", "prior.csv"), ("gen-synth --seed 1", "test.csv"),
    ]

    @pytest.mark.parametrize("argv,blocked", BLOCKED_OUTPUTS,
                             ids=[blocked for _, blocked in BLOCKED_OUTPUTS])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys, argv, blocked):
        # the output is a directory, so the rename onto it fails: exit 3, the
        # atomic writer removes its temp file, and the command removes the
        # outputs it wrote before, but not the directory that blocked it
        cfg = self.write_cfg(tmp_path, "setup=B\nepochs=1\nseed=1\n")
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert run_cli(argv.format(cfg=cfg).split() + ["--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error:")
        assert os.listdir(out) == [blocked]
        assert (out / blocked).is_dir()

    def test_interrupted_command_propagates_after_removing_its_outputs(self, tmp_path,
                                                                       monkeypatch):
        # an exception outside the exit-code table is not turned into an exit
        # code, but the files written before it are removed all the same
        def interrupt(*args, **kwargs):
            assert os.listdir(out) == ["sweep_n.csv"]
            raise KeyboardInterrupt

        monkeypatch.setattr(svgplot, "line_plot", interrupt)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            run_cli(["sweep-n", "--n-grid", "30", "--trials", "1", "--out", str(out)])
        assert not out.exists()

    def test_balanced_prior_guard_exit_code(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "setup=B\nepochs=1\nseed=1\npi_plus=0.5\n")
        assert run_cli(["train", str(cfg), "--out", str(tmp_path / "o")]) == 4

    def test_supervised_estimator(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "setup=B\nepochs=2\nseed=1\nestimator=supervised\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 0
        assert len((out / "report.csv").read_text().splitlines()) == 3

    def test_idx_pipeline_end_to_end(self, tmp_path):
        sklearn_datasets = pytest.importorskip("sklearn.datasets")
        from sconf.dataset_io import write_idx_images, write_idx_labels

        X, y = sklearn_datasets.load_digits(return_X_y=True)
        imgs = np.round(X.reshape(-1, 8, 8) * (255.0 / 16.0)).astype(np.uint8)
        write_idx_images(tmp_path / "train.idx", imgs[:600])
        write_idx_labels(tmp_path / "train-labels.idx", y[:600].astype(np.uint8))
        write_idx_images(tmp_path / "t10k.idx", imgs[600:900])
        write_idx_labels(tmp_path / "t10k-labels.idx", y[600:900].astype(np.uint8))
        cfg = self.write_cfg(tmp_path, f"""
            idx_images={tmp_path / 'train.idx'}
            idx_labels={tmp_path / 'train-labels.idx'}
            idx_test_images={tmp_path / 't10k.idx'}
            idx_test_labels={tmp_path / 't10k-labels.idx'}
            corruption=mnist
            arch=mlp:32,32
            epochs=2
            batch_pairs=128
            lr0=0.001
            seed=1
            val_fraction=0.2
            confidence_epochs=4
            confidence_batch=128
        """)
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.csv").exists()


class TestSweeps:
    def test_sweep_n_degenerate_grid(self, tmp_path, capsys):
        assert run_cli(["sweep-n", "--setup", "B", "--n-grid", "40", "--trials", "2",
                        "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no slope" in out
        lines = (tmp_path / "sweep_n.csv").read_text().splitlines()
        assert lines[0] == "n_pairs,mean_excess_01_risk,std_excess_01_risk"
        assert len(lines) == 2

    def test_sweep_n_small(self, tmp_path, capsys):
        assert run_cli(["sweep-n", "--setup", "B", "--n-grid", "30,60", "--trials", "2",
                        "--out", str(tmp_path)]) == 0
        assert "slope" in capsys.readouterr().out
        assert (tmp_path / "sweep_n.svg").exists()

    def test_sweep_n_figure_is_redrawn_for_a_single_point(self, tmp_path):
        # a one-point grid still draws its figure, so none from an earlier
        # grid is left beside the new CSV
        for grid in ("30,60", "40"):
            assert run_cli(["sweep-n", "--setup", "B", "--n-grid", grid, "--trials", "1",
                            "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "sweep_n.csv").read_text().splitlines()) == 2
        assert (tmp_path / "sweep_n.svg").read_text().count("<circle") == 1

    def test_sweep_n_unsorted_grid(self, tmp_path):
        assert run_cli(["sweep-n", "--n-grid", "100,50", "--trials", "1",
                        "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("grid,named", (("0,10", "got 0"), ("-5,10", "got -5")))
    def test_sweep_n_grid_below_one_pair(self, tmp_path, capsys, grid, named):
        assert run_cli(["sweep-n", f"--n-grid={grid}", "--trials", "1",
                        "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "n grid value must be at least 1, " in err and named in err
        assert os.listdir(tmp_path) == []

    def test_sweep_noise_schema(self, tmp_path):
        assert run_cli(["sweep-noise", "--setup", "A", "--stds", "0.0,0.3",
                        "--trials", "1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep_noise.csv").read_text().splitlines()
        assert lines[0] == "noise_std,mean_acc,std_acc,mean_sigma_n"
        assert len(lines) == 3
        # sigma_n is zero for exact confidences, positive under noise
        rows = [ln.split(",") for ln in lines[1:]]
        assert float(rows[0][3]) == 0.0
        assert float(rows[1][3]) > 0.0

    def test_sweep_noise_prints_each_level_as_given(self, tmp_path, capsys):
        assert run_cli(["sweep-noise", "--setup", "A", "--stds", "0.05,0.1,0.15",
                        "--trials", "1", "--out", str(tmp_path)]) == 0
        levels = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[:3]]
        assert levels == ["std=0.05", "std=0.1", "std=0.15"]


class TestReproduceTable1:
    def test_figure_draws_every_level_of_the_table(self, tmp_path):
        assert run_cli(["reproduce-table1", "--trials", "1", "--out", str(tmp_path)]) == 0
        rows = [ln.split(",") for ln in (tmp_path / "table1.csv").read_text().splitlines()[1:]]
        assert len(rows) == 20  # 4 setups x (4 sconf noise levels + supervised)
        svg = (tmp_path / "table1.svg").read_text()
        for level in {r[2] for r in rows if r[1] == "sconf"}:
            assert f"sconf std={level}" in svg
        assert "supervised" in svg


class TestCollapseDemo:
    def test_outputs_and_oracle_columns(self, tmp_path):
        assert run_cli(["collapse-demo", "--seed", "1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "collapse.csv").read_text().splitlines()
        assert lines[0] == "method,n_pairs,frac_positive,test_acc,oracle_frac_positive"
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert set(rows) == {"similar_only", "dissimilar_only", "unbiased"}
        assert float(rows["similar_only"][4]) >= 0.99
        assert float(rows["dissimilar_only"][4]) <= 0.01
        assert float(rows["unbiased"][3]) >= 0.95
        assert (tmp_path / "confidence_hist.csv").exists()
        assert (tmp_path / "confidence_hist.svg").exists()
        assert (tmp_path / "boundaries.svg").exists()

    def test_histogram_draws_the_csv_bins(self, tmp_path):
        assert run_cli(["collapse-demo", "--seed", "1", "--out", str(tmp_path)]) == 0
        bins = [(float(lo), float(hi), int(c)) for lo, hi, c in
                (ln.split(",") for ln in
                 (tmp_path / "confidence_hist.csv").read_text().splitlines()[1:])]
        svg = (tmp_path / "confidence_hist.svg").read_text()
        x_ticks = re.findall(rf'<text x="[\d.]+" y="{svgplot.H - svgplot.MB + 16}" '
                             r'text-anchor="middle">([^<]+)</text>', svg)
        assert (float(x_ticks[0]), float(x_ticks[-1])) == (bins[0][0], bins[-1][1]) == (0.0, 1.0)
        bars = [tuple(map(float, m)) for m in re.findall(
            r'<rect x="([\d.]+)" y="[\d.]+" width="([\d.]+)" height="([\d.]+)" '
            rf'fill="{svgplot.PALETTE[0]}"/>', svg)]
        assert len(bars) == len(bins) == 40
        span = svgplot.W - svgplot.ML - svgplot.MR
        # heights are proportional to the counts; both sides are rounded to 0.1 px
        px_per_count = max(h for *_, h in bars) / max(c for *_, c in bins)
        for (x, width, height), (lo, hi, count) in zip(bars, bins):
            assert x == pytest.approx(svgplot.ML + lo * span, abs=0.05)
            assert width == pytest.approx((hi - lo) * span, abs=0.1)
            assert height == pytest.approx(count * px_per_count, abs=0.1)


class TestInputValidation:
    """Malformed lists and out-of-range counts or rates exit 2 before writing."""

    @pytest.mark.parametrize("argv,named", [
        (["sweep-n", "--n-grid", "50,x", "--trials", "1"], "--n-grid"),
        (["sweep-noise", "--stds", "0.1,abc", "--trials", "1"], "--stds"),
    ])
    def test_malformed_flag_list(self, tmp_path, capsys, argv, named):
        assert run_cli(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("arch", ("mlp:5", "mlp:a,b", "mlp:0,5"))
    def test_malformed_arch(self, tmp_path, capsys, arch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"setup=B\nepochs=1\nseed=1\narch={arch}\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "arch" in err and "Traceback" not in err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("command,output", [
        ("sweep-n", "sweep_n.csv"),
        ("sweep-noise", "sweep_noise.csv"),
        ("reproduce-table1", "table1.csv"),
    ])
    def test_zero_trials(self, tmp_path, capsys, command, output):
        assert run_cli([command, "--trials", "0", "--out", str(tmp_path)]) == 2
        assert "trials must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / output).exists()

    @pytest.mark.parametrize("text,named", [
        ("setup=B\n{idx}", "idx_images"),
        ("{idx}\nnoise_std=0.1", "noise_std"),
        ("setup=B\nestimator=supervised\nval_fraction=0.2", "val_fraction"),
        ("setup=B\nestimator=supervised\nnoise_std=0.3", "noise_std"),
        ("setup=B\nestimator=supervised\ncorruption=mnist", "corruption"),
        ("setup=B\nestimator=supervised\nsubsample=50", "subsample"),
        ("setup=B\nestimator=supervised\nconfidence_epochs=7", "confidence_epochs"),
        ("setup=B\nconfidence_lr0=5", "confidence_lr0"),
        ("setup=B\nidx_test_images=/nope", "idx_test_images"),
        ("setup=B\nestimator=supervised\npi_plus=0.9", "pi_plus"),
    ])
    def test_ignored_train_key(self, tmp_path, capsys, text, named):
        # each key would change nothing: the run exits 2 instead of ignoring it
        cfg = tmp_path / "run.cfg"
        idx = random_idx_source(tmp_path) + "\nconfidence_epochs=1"
        cfg.write_text(text.format(idx=idx) + "\nepochs=1\nseed=1\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_every_unread_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("setup=B\nestimator=supervised\nepochs=1\nnoise_std=0.3\n"
                       "corruption=mnist\nsubsample=50\nconfidence_epochs=7\n")
        assert run_cli(["train", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert ("confidence_epochs, corruption, noise_std, subsample"
                in capsys.readouterr().err)

    def test_subsample_above_the_training_set_exits_2(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the confidence model was fit")

        monkeypatch.setattr(dataset_io, "posterior_model_confidences", never)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(random_idx_source(tmp_path) + "\nepochs=1\nsubsample=1000\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "subsample is 1000, more than the 120 training images" in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ("subsample=1", "one-class labels"))
    @pytest.mark.parametrize("setting", ("", "estimator=supervised", "pi_plus=0.3"))
    def test_one_class_training_labels_exit_3_before_the_confidence_fit(
            self, tmp_path, monkeypatch, capsys, setting, source):
        def never(*args, **kwargs):
            raise AssertionError("the confidence model was fit")

        monkeypatch.setattr(dataset_io, "posterior_model_confidences", never)
        text = random_idx_source(tmp_path)
        labels = tmp_path / "train-labels.idx"
        if source == "subsample=1":
            text += "\nsubsample=1"
        else:  # digits 3-9 are all negative under the mnist rule
            dataset_io.write_idx_labels(labels, np.arange(120, dtype=np.uint8) % 7 + 3)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{text}\nepochs=1\n{setting}\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{labels}: training needs both classes" in err
        assert re.search(r"hold only \[(-1|1)\]$", err.strip())
        if source == "one-class labels":
            assert err.strip().endswith("hold only [-1]")
        assert not out.exists()

    @pytest.mark.parametrize("stem", ("train", "test"))
    def test_empty_idx_images_exit_3_before_the_confidence_fit(self, tmp_path, monkeypatch,
                                                               capsys, stem):
        def never(*args, **kwargs):
            raise AssertionError("the confidence model was fit")

        monkeypatch.setattr(dataset_io, "posterior_model_confidences", never)
        text = random_idx_source(tmp_path)
        empty = tmp_path / f"{stem}.idx"
        dataset_io.write_idx_images(empty, np.zeros((0, 4, 4), np.uint8))
        dataset_io.write_idx_labels(tmp_path / f"{stem}-labels.idx", np.zeros(0, np.uint8))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\nepochs=1\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{empty} holds no images" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ("100,50", "50,50", "50,100,100"))
    def test_sweep_n_grid_must_strictly_ascend(self, tmp_path, capsys, grid):
        # a repeated n would rerun its trial seeds and repeat its row
        assert run_cli(["sweep-n", "--n-grid", grid, "--trials", "1",
                        "--out", str(tmp_path)]) == 2
        assert "n grid must be strictly ascending" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_train_and_test_image_widths_must_match(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the confidence model was fit")

        monkeypatch.setattr(dataset_io, "posterior_model_confidences", never)
        source = random_idx_source(tmp_path)
        wide = tmp_path / "wide.idx"
        dataset_io.write_idx_images(wide, np.zeros((40, 5, 5), np.uint8))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(source.replace(str(tmp_path / "test.idx"), str(wide)) + "\nepochs=1\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'train.idx'} has images of 16 pixels but {wide} has images of 25"
                in err)
        assert not out.exists()

    def test_unread_idx_key_exits_before_the_confidence_fit(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the confidence model was fit")

        monkeypatch.setattr(dataset_io, "posterior_model_confidences", never)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(random_idx_source(tmp_path) + "\nepochs=1\nnoise_std=0.1\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("setting,named", [
        ("lr0=-1", "lr0"), ("estimator=bogus", "bogus"),
        ("estimator=corrected", "k > 0"), ("k=0.5", "k applies"),
        ("drop_every=0", "drop_every"), ("epochs=0", "epochs"), ("batch_pairs=0", "batch_pairs"),
        ("arch=mlp:5", "arch"), ("arch=mlp:0,5", "hidden width h1 must be at least 1"),
        ("arch=cnn", "arch"),
        ("pi_plus=1.5", "pi_plus"), ("pi_plus=0.5005", "1/2"),
        ("confidence_batch=0", "confidence_batch"), ("confidence_epochs=0", "confidence_epochs"),
        ("val_fraction=-0.5", "val_fraction"), ("val_fraction=1.5", "val_fraction"),
        ("subsample=0", "subsample"), ("seed=-1", "seed must be at least 0, got -1"),
        ("confidence_lr0=-1", "confidence_lr0"), ("weight_decay=nan", "weight_decay"),
        ("weight_decay=inf", "weight_decay"), ("estimator=corrected\nk=inf", "finite k > 0"),
    ])
    def test_bad_setting_exits_before_the_idx_load(self, tmp_path, monkeypatch, capsys,
                                                   setting, named):
        def never(*args, **kwargs):
            raise AssertionError("the IDX data was read")

        monkeypatch.setattr(dataset_io, "load_idx", never)
        monkeypatch.setattr(dataset_io, "posterior_model_confidences", never)
        cfg = tmp_path / "run.cfg"
        # epochs=1 unless the setting is epochs itself: a repeated key is an error
        epochs = "" if setting.startswith("epochs=") else "epochs=1\n"
        cfg.write_text(random_idx_source(tmp_path) + f"\n{epochs}{setting}\n")
        out = tmp_path / "out"
        # a prior within the guard of 1/2 is the numeric guard's exit 4
        assert run_cli(["train", str(cfg), "--out", str(out)]) == (4 if named == "1/2" else 2)
        err = capsys.readouterr().err
        assert named in err and err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,named", [
        ("gen-synth --seed -1", "seed must be at least 0, got -1"),
        ("collapse-demo --seed -1", "seed must be at least 0, got -1"),
        ("prior --seed -1 --n 100", "seed must be at least 0, got -1"),
        ("sweep-n --seed -1 --trials 1", "seed must be at least 0, got -1"),
        ("sweep-n --seed -1 --trials 1 --n-grid 15000", "seed must be at least 0, got -1"),
        ("gen-synth --seed 1 --noise-std -1", "noise std"),
        ("prior --seed 1 --n 100 --noise-std nan", "noise std"),
    ])
    def test_negative_seed_or_bad_noise_std_exits_2(self, tmp_path, capsys, argv, named):
        assert run_cli(argv.split() + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and named in err
        assert os.listdir(tmp_path) == []

    def test_failed_command_removes_only_a_directory_it_made(self, tmp_path, monkeypatch):
        made, kept, full = tmp_path / "made", tmp_path / "kept", tmp_path / "full"
        kept.mkdir()
        full.mkdir()
        (full / "old.csv").write_text("x\n")
        for out in (made, kept, full):
            assert run_cli(["prior", "--seed", "-1", "--out", str(out)]) == 2
        assert not made.exists()
        assert kept.is_dir() and os.listdir(kept) == []
        assert os.listdir(full) == ["old.csv"]
        # the same for a directory named by SCONF_OUT_DIR; a parent it made stays
        monkeypatch.setenv("SCONF_OUT_DIR", str(tmp_path / "env" / "out"))
        assert run_cli(["gen-synth", "--seed", "-1"]) == 2
        assert os.listdir(tmp_path / "env") == []
        # a command that succeeds keeps the directory it made
        assert run_cli(["gen-synth", "--seed", "1", "--out", str(made)]) == 0
        assert sorted(os.listdir(made)) == ["pairs.csv", "test.csv"]

    @pytest.mark.parametrize("setting,named", [
        ("seed=-1", "seed must be at least 0, got -1"), ("noise_std=-1", "noise std"),
        ("noise_std=nan", "noise std"), ("weight_decay=nan", "weight_decay"),
        ("weight_decay=inf", "weight_decay"), ("estimator=corrected\nk=inf", "finite k > 0"),
    ])
    def test_bad_synthetic_train_setting_exits_2(self, tmp_path, monkeypatch, capsys, setting,
                                                 named):
        def never(*args, **kwargs):
            raise AssertionError("the synthetic data was sampled")

        monkeypatch.setattr(cli, "sample_train_test", never)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"setup=B\nepochs=1\n{setting}\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("items,message", [
        (["epochs"], "--set:1: expected key=value"),
        (["epochs=1", "whatever=3"], "--set:2: unknown key 'whatever'"),
        (["epochs=1", "epochs=2"], "--set:2: duplicate key 'epochs'"),
        (["eval_every=4"], "--set:1: unknown key 'eval_every'"),
        (["drop_factor=3"], "--set:1: unknown key 'drop_factor'"),
        (["loss=logistic"], "--set:1: unknown key 'loss'"),
    ])
    def test_malformed_set_item(self, tmp_path, capsys, items, message):
        # --set items are parsed like config lines: a repeated key is an
        # error, not last-wins
        cfg = tmp_path / "run.cfg"
        cfg.write_text("setup=B\nepochs=1\n")
        out = tmp_path / "out"
        argv = ["train", str(cfg), "--out", str(out)]
        for item in items:
            argv += ["--set", item]
        assert run_cli(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # a setting per key where the key applies: a synthetic setup=B run, or an
    # IDX run for the keys in IDX_SOURCE_KEYS (whose source sets the file keys)
    VALID_SETTINGS = {
        "estimator": "estimator=nn", "k": "estimator=corrected k=0.1",
        "arch": "arch=mlp:4,4", "epochs": "epochs=2", "batch_pairs": "batch_pairs=64",
        "lr0": "lr0=0.05", "weight_decay": "weight_decay=0.001", "drop_every": "drop_every=1",
        "seed": "seed=2", "pi_plus": "pi_plus=0.7", "setup": "setup=A",
        "noise_std": "noise_std=0.1", "val_fraction": "val_fraction=0.2",
        "idx_images": "", "idx_labels": "", "idx_test_images": "", "idx_test_labels": "",
        "corruption": "", "subsample": "subsample=60", "confidence_epochs": "confidence_epochs=2",
        "confidence_batch": "confidence_batch=32", "confidence_lr0": "confidence_lr0=0.005",
    }
    IDX_SOURCE_KEYS = {"idx_images", "idx_labels", "idx_test_images", "idx_test_labels",
                       "corruption", "subsample", "confidence_epochs", "confidence_batch",
                       "confidence_lr0"}

    @pytest.mark.parametrize("key", sorted(TRAIN_KEYS))
    def test_no_valid_key_is_rejected(self, tmp_path, key):
        if key in self.IDX_SOURCE_KEYS:
            source, values = random_idx_source(tmp_path), {"epochs": "1", "confidence_epochs": "1"}
        else:
            source, values = "", {"setup": "B", "epochs": "1"}
        values.update(item.split("=") for item in self.VALID_SETTINGS[key].split())
        cfg = tmp_path / "run.cfg"
        cfg.write_text(source + "\n" + "".join(f"{k}={v}\n" for k, v in values.items()))
        assert run_cli(["train", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("setting", ("lr0=-1", "lr0=nan", "drop_every=0"))
    def test_bad_learning_rate_schedule(self, tmp_path, capsys, setting):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"setup=B\nepochs=1\nseed=1\n{setting}\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not (out / "report.csv").exists() and not (out / "model.ckpt").exists()
