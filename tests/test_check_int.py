"""errors.check_int, the one rule for every size, count and seed, at each
place where one enters: a non-integer, or a value below the minimum, is a
ConfigError in the rule's words, raised before anything is sampled."""

import numpy as np
import pytest

from sconf import experiments, model, optim, trainer
from sconf.cli import main
from sconf.datagen import preset, sample_labeled
from sconf.errors import ConfigError, check_int
from sconf.rng import check_seed

# (id, call of the value, a non-integer, a value below the minimum, the
# name in the message, the minimum)
LIBRARY_SITES = [
    ("check_fit-epochs", lambda v: trainer.check_fit(v, 1, None, 0.1, 0.0, None),
     2.5, 0, "epochs", 1),
    ("check_fit-batch", lambda v: trainer.check_fit(2, 1, v, 0.1, 0.0, None),
     16.5, 0, "batch size", 1),
    ("check_seed", check_seed, 1.5, -1, "seed", 0),
    ("check_adam-drop_every", lambda v: optim.check_adam(0.1, 0.0, v), 1.5, 0, "drop_every", 1),
    ("sample_labeled-n_plus", lambda v: sample_labeled(preset("B"), v, 3, 1),
     2.5, -1, "n_plus", 0),
    ("sample_labeled-n_minus", lambda v: sample_labeled(preset("B"), 3, v, 1),
     2.5, -1, "n_minus", 0),
    ("reproduce_table-trials", lambda v: experiments.reproduce_table(trials=v),
     1.5, 0, "trials", 1),
    ("reproduce_table-seeds", lambda v: experiments.reproduce_table(seeds=[1] * v),
     None, 0, "trial seeds", 1),
    ("sweep_noise-trials", lambda v: experiments.sweep_noise("A", [0.0], v), 1.5, 0, "trials", 1),
    ("sweep_n-trials", lambda v: experiments.sweep_n("B", [25, 50], v), 2.5, 0, "trials", 1),
    ("sweep_n-grid", lambda v: experiments.sweep_n("B", [v, 50], 2), 25.5, 0, "n grid value", 1),
    ("sweep_n-base_seed", lambda v: experiments.sweep_n("B", [25], 1, v),
     1.5, -1, "base seed", 0),
    ("prior_experiment-n_pairs", lambda v: experiments.prior_experiment(preset("B"), v, 1),
     10.5, 0, "n_pairs", 1),
    ("Architecture-d", model.Architecture.mlp, 784.5, 0, "architecture input dimension d", 1),
    ("Architecture-linear-d", model.Architecture.linear, 2.5, 0,
     "architecture input dimension d", 1),
    ("Architecture-h1", lambda v: model.Architecture.mlp(4, v, 5), 2.5, 0,
     "architecture hidden width h1", 1),
    ("Architecture-h2", lambda v: model.Architecture.mlp(4, 5, v), 2.5, 0,
     "architecture hidden width h2", 1),
    ("init-trials", lambda v: model.init(model.Architecture.linear(2), 0, v),
     2.5, 0, "trials", 1),
]


@pytest.fixture
def no_draws(monkeypatch):
    # every random stream of the package is a Philox generator made by
    # rng.make_rng; building one fails the test
    def never(*args, **kwargs):
        raise AssertionError("a random stream was built")

    monkeypatch.setattr(np.random, "Philox", never)


@pytest.mark.parametrize("call,bad,low,name,minimum",
                         [pytest.param(*site[1:], id=site[0]) for site in LIBRARY_SITES])
def test_library_site_refuses_non_integers_and_small_values(no_draws, call, bad, low, name,
                                                            minimum):
    if bad is not None:
        with pytest.raises(ConfigError) as info:
            call(bad)
        assert str(info.value) == f"{name} must be an integer, got {bad!r}"
    with pytest.raises(ConfigError) as info:
        call(low)
    assert str(info.value) == f"{name} must be at least {minimum}, got {low}"


# sconf train keys, each given as text in a config on setup B: (key, a
# non-integer text, a text below the minimum, the message of each)
TRAIN_KEY_SITES = [
    ("seed", "1.5", "-1", "config key seed must be an integer, got '1.5'",
     "seed must be at least 0, got -1"),
    ("epochs", "1.5", "0", "config key epochs must be an integer, got '1.5'",
     "config key epochs must be at least 1, got 0"),
    ("batch_pairs", "1.5", "0", "config key batch_pairs must be an integer, got '1.5'",
     "config key batch_pairs must be at least 1, got 0"),
    ("drop_every", "1.5", "0", "config key drop_every must be an integer, got '1.5'",
     "drop_every must be at least 1, got 0"),
]


def exits_2_with(argv, message, capsys, out):
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key,bad,low,bad_message,low_message", TRAIN_KEY_SITES,
                         ids=[site[0] for site in TRAIN_KEY_SITES])
def test_train_key_refuses_non_integers_and_small_values(no_draws, tmp_path, capsys, key, bad,
                                                         low, bad_message, low_message):
    for text, message in ((bad, bad_message), (low, low_message)):
        cfg = tmp_path / "run.cfg"
        epochs = "" if key == "epochs" else "epochs=1\n"
        cfg.write_text(f"setup=B\n{epochs}{key}={text}\n")
        exits_2_with(["train", str(cfg)], message, capsys, tmp_path / "out")


def test_train_float_key_names_the_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("setup=B\nepochs=1\nlr0=fast\n")
    exits_2_with(["train", str(cfg)], "config key lr0 must be a number, got 'fast'", capsys,
                 tmp_path / "out")


SETUP_FILE = ("mu_plus=0 0\nmu_minus=4 0\nsigma_plus=3 0 0 3\n"
              "sigma_minus=2 0 0 2\npi_plus=0.625\n")


@pytest.mark.parametrize("counts,message", [
    ("n_plus=1.5\nn_minus=24\n", "{path}:6: n_plus must be an integer, got '1.5'"),
    ("n_plus=40\nn_minus=2.5\n", "{path}:7: n_minus must be an integer, got '2.5'"),
    ("n_plus=-1\nn_minus=24\n", "n_plus must be at least 0, got -1"),
], ids=["n_plus-1.5", "n_minus-2.5", "n_plus--1"])
def test_setup_file_counts_follow_the_rule(no_draws, tmp_path, capsys, counts, message):
    setup = tmp_path / "setup.txt"
    setup.write_text(SETUP_FILE + counts)
    exits_2_with(["gen-synth", "--setup-file", str(setup), "--seed", "1"],
                 message.format(path=setup), capsys, tmp_path / "out")


def test_check_int_returns_ints_and_numpy_integers_as_given():
    for value in (3, np.int64(3), np.uint8(3)):
        assert check_int(value, "n", 3) is value
    assert type(check_seed(np.int32(4))) is int
    for value in (3.0, "3", None, np.float64(3.0)):  # a whole float is refused too
        with pytest.raises(ConfigError) as info:
            check_int(value, "n", 0)
        assert str(info.value) == f"n must be an integer, got {value!r}"
