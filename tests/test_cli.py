import os

import numpy as np
import pytest

from sconf.cli import main


def run_cli(argv):
    return main(argv)


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

    def test_setup_file(self, tmp_path):
        sf = tmp_path / "setup.txt"
        sf.write_text("mu_plus=0 0\nmu_minus=4 0\nsigma_plus=3 0 0 3\n"
                      "sigma_minus=2 0 0 2\npi_plus=0.625\nn_plus=40\nn_minus=24\nseed=9\n")
        out = tmp_path / "o"
        assert run_cli(["gen-synth", "--setup-file", str(sf), "--seed", "9",
                        "--out", str(out)]) == 0
        assert len((out / "pairs.csv").read_text().splitlines()) == 1 + 32

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

    def test_diverged_training_exit_code_no_partial_files(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "setup=B\nepochs=3\nseed=1\nlr0=1e308\n")
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run_cli(["train", str(cfg), "--out", str(out)]) == 5
        assert "epoch 0: train risk is nan" in capsys.readouterr().err
        assert not (out / "report.csv").exists()
        assert not (out / "model.ckpt").exists()

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

    def test_sweep_n_unsorted_grid(self, tmp_path):
        assert run_cli(["sweep-n", "--n-grid", "100,50", "--trials", "1",
                        "--out", str(tmp_path)]) == 2

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

    @pytest.mark.parametrize("arch", ("mlp:5", "mlp:a,b"))
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
        assert "at least one trial" in capsys.readouterr().err
        assert not (tmp_path / output).exists()

    @pytest.mark.parametrize("setting", ("lr0=-1", "lr0=nan", "drop_every=0", "drop_factor=0"))
    def test_bad_learning_rate_schedule(self, tmp_path, capsys, setting):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"setup=B\nepochs=1\nseed=1\n{setting}\n")
        out = tmp_path / "out"
        assert run_cli(["train", str(cfg), "--out", str(out)]) == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not (out / "report.csv").exists() and not (out / "model.ckpt").exists()
