"""Tests of the benchmark itself: tracer arithmetic, patch coverage, tiny runs
of every workload, and that tracing leaves outputs unchanged."""

import argparse
import json
from pathlib import Path

import pytest

import sconf
from sconf import losses, trainer
from sconf.datagen import make_pairs, preset, sample_labeled
from sconf.model import Architecture
from sconf.risk import RiskSpec

from perfbench import harness
from perfbench.tracer import Tracer
from perfbench.workloads import IdxMlp, SweepN, Table

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "table": lambda: Table(setups=("A",), noise_stds=(0.0, 0.3)),
    "sweep_n": lambda: SweepN(grid=(50, 200, 800), trials=3),
    "idx_mlp": lambda: IdxMlp(n_train=200, n_test=100, epochs=2, arch="mlp:16,16",
                              batch_pairs=50, confidence_batch=100),
}


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.5, 10.0])
    spans = {"outer": ("m", "outer", None, ()), "inner": ("m", "inner", None, ("rows",))}
    tracer = Tracer(spans, clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda rows: None, lambda rows: {"rows": rows})
    outer = tracer.wrap("outer", lambda: (inner(3), inner(4)))
    outer()
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "self_s": 10.0 - 2.0 - 2.5}
    assert summary["inner"] == {"calls": 2, "self_s": 4.5, "rows": 7}
    assert [rec[1] for rec in tracer.records] == [-1, 0, 0]


def test_install_patches_every_namespace_and_restores_them():
    original = losses.loss_derivative
    with Tracer() as tracer:
        assert trainer.loss_derivative is not original
        assert trainer.loss_derivative is losses.loss_derivative is sconf.loss_derivative
        setup = preset("B")
        ds = make_pairs(sample_labeled(setup, 25, 15, 1).X, setup, 1)
        cfg = trainer.TrainConfig(RiskSpec("unbiased", setup.pi_plus), Architecture.linear(2),
                                  epochs=2, seed=1)
        trainer.train(ds, None, sample_labeled(setup, 50, 30, 2), cfg)
    assert trainer.loss_derivative is losses.loss_derivative is sconf.loss_derivative is original
    summary = tracer.summary()
    # four derivative calls per step (trainer's own import), two steps
    assert summary["losses.loss_derivative"]["calls"] == 8
    assert summary["trainer.train"]["calls"] == 1
    assert summary["model.backward"]["rows"] == 2 * 2 * len(ds)
    assert summary["risk.pair_risk"]["calls"] == 2 * 2  # train and val risk per epoch


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    args = argparse.Namespace(workload=name, seed=1, seconds=0.0, trace=trace)
    result = harness.run(args, TINY[name](), str(tmp_path))
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] == 1 + trace
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("name", ("table", "idx_mlp"))
def test_tracing_leaves_outputs_identical(name, tmp_path):
    workload = TINY[name]()
    inputs = workload.setup(3, str(tmp_path))
    plain = workload.call(inputs)
    with Tracer():
        traced = workload.call(inputs)
    assert workload.test_err_pct(inputs, traced) == workload.test_err_pct(inputs, plain)
    assert workload.fingerprint(traced) == workload.fingerprint(plain)
    if name == "idx_mlp":
        assert traced["report"] == plain["report"]  # byte-identical report.csv
        assert workload.check(inputs, traced) == []

