"""Benchmark runner: set up a workload, time repeated calls, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client. This process makes one call into
sconf at a time and starts the next call when the previous one has returned.
BLAS keeps its own threading; no thread variable is set here.

--trace 0 reports the end-to-end metrics:

    setup_s           median over SETUP_REPS of (import sconf in a fresh
                      interpreter + build the workload's inputs)
    run_s             median wall time of one workload call
    train_rows_per_s  rows fed to a backward pass per call / run_s
    peak_rss_mb       peak resident memory of this process
    test_err_pct      the quality of the result (see workloads.py)

--trace 1 alternates untraced and traced calls and reports, per traced span,
.calls, .self_s (median over traced calls) and the span's counters, plus
model.forward.rows_per_step_row, model.{forward,backward}.gflops_s (FLOPs
computed from the layer shapes) and trace_overhead_frac.

Every call's output is checked, and every call must give the same output as
the first, traced or not. The last stdout line is the JSON result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from perfbench.tracer import SPANS, Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 9
# stop starting calls once this much wall time is used, to end well within 180 s
WALL_LIMIT_S = 120.0

IMPORT_PROBE = ("import time; t = time.perf_counter(); import sconf; "
                "print(time.perf_counter() - t)")


def import_seconds():
    """Time of `import sconf` in a fresh interpreter that uses this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def measure_setup(workload, seed, workdir, reps):
    """(median set-up seconds, inputs of the last repetition)."""
    times, inputs = [], None
    for k in range(reps):
        t_import = import_seconds()
        t0 = time.perf_counter()
        inputs = workload.setup(seed, os.path.join(workdir, f"setup{k}"))
        times.append(t_import + time.perf_counter() - t0)
    return statistics.median(times), inputs


class Runner:
    """Calls the workload, checks every output, and counts attempts and failures."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = self.failed = 0
        self.reference = None
        self.output = None

    def call(self, tracer=None):
        """Seconds of one call, or None when it raised or its output check failed."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            if tracer is None:
                output = self.workload.call(self.inputs)
            else:
                with tracer:
                    output = self.workload.call(self.inputs)
            seconds = time.perf_counter() - t0
            problems = self.workload.check(self.inputs, output)
            fingerprint = self.workload.fingerprint(output)
        except Exception:  # a crashing call is a failed operation; keep measuring
            traceback.print_exc()
            self.failed += 1
            return None
        if self.reference is None:
            self.reference, self.output = fingerprint, output
        elif fingerprint != self.reference:
            problems.append("output differs from the first call"
                            + (" (traced)" if tracer is not None else ""))
        if problems:
            print("check failed: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return None
        return seconds


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def manifest(args, inputs):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
        "workload": args.workload,
        "seed": args.seed,
        "inputs": {k: v for k, v in inputs.items() if k in ("seeds", "base_seed")},
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, runner, times, setup_s):
    run_s = statistics.median(times)
    q1, q3 = quartiles(times)
    print(f"run_s samples: n={len(times)} median={run_s:.4f} q1={q1:.4f} q3={q3:.4f}")
    return {
        "setup_s": metric(setup_s, "s"),
        "run_s": metric(run_s, "s"),
        "train_rows_per_s": metric(workload.train_rows(runner.inputs) / run_s, "rows/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "test_err_pct": metric(workload.test_err_pct(runner.inputs, runner.output), "%"),
    }


SPAN_UNITS = {"calls": "count", "self_s": "s", "rows": "rows", "bytes": "B"}


def per_layer(summaries, plain_times, traced_times):
    """Per-span metrics over the traced calls; counts come from the first."""
    first = summaries[0]
    out = {}
    for name in SPANS:
        for key, value in first[name].items():
            if key == "flops":  # reported as gflops_s below
                continue
            if key == "self_s":
                value = statistics.median(s[name]["self_s"] for s in summaries)
            out[f"{name}.{key}"] = metric(value, SPAN_UNITS[key])
    fwd, bwd = first["model.forward"], first["model.backward"]
    out["model.forward.rows_per_step_row"] = metric(
        fwd["rows"] / bwd["rows"] if bwd["rows"] else 0.0, "ratio")
    for name in ("model.forward", "model.backward"):
        self_s = out[f"{name}.self_s"]["value"]
        flops = first[name]["flops"]
        out[f"{name}.gflops_s"] = metric(flops / self_s / 1e9 if self_s > 0 else 0.0, "GFLOP/s")
    out["trace_overhead_frac"] = metric(
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0, "ratio")
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")
    return args


def run(args, workload, workdir):
    """Measure one workload; returns the result object."""
    setup_s, inputs = measure_setup(workload, args.seed, workdir,
                                    1 if args.trace else SETUP_REPS)
    print("manifest: " + json.dumps(manifest(args, inputs), sort_keys=True))
    runner = Runner(workload, inputs)
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    while True:
        t = runner.call()
        if t is not None:
            plain.append(t)
        if args.trace:
            tracer = Tracer()
            t = runner.call(tracer)
            if t is not None:
                traced.append(t)
                summaries.append(tracer.summary())
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds or elapsed >= WALL_LIMIT_S:
            break
    correct = runner.failed == 0 and bool(plain) and (bool(traced) or not args.trace)
    metrics = {}
    if args.trace and traced and plain:
        metrics = per_layer(summaries, plain, traced)
    elif not args.trace and plain:
        metrics = end_to_end(workload, runner, plain, setup_s)
        if hasattr(workload, "excess_pct"):
            print(f"excess 0-1 risk at the largest n: {workload.excess_pct(runner.output):.4f} %")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, workload, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0
