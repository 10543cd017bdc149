"""Outside-in span tracer for the sconf package.

The tracer wraps public functions of the ``sconf`` modules from outside the
package. Several modules import functions by name (``trainer`` and
``experiments`` hold their own ``loss_derivative``; ``risk`` holds
``loss_value``; ``datagen``, ``trainer`` and others hold ``make_rng``), so
patching only the defining module would miss those calls. ``install`` therefore
rebinds a wrapper in every loaded ``sconf.*`` namespace whose attribute *is*
the original function, and ``uninstall`` puts every original back.

Each call records one span: name, parent span (the innermost traced call still
open on the stack), start, end and optional counters such as rows. Spans stay
in memory until ``summary`` folds them into per-name totals:

    calls    number of spans
    self_s   sum of (duration - time covered by direct child spans)
    <count>  sum of each counter the span recorded
"""

import functools
import importlib
import os
import sys
import time

import numpy as np


def _forward_counts(p, X, *_, **__):
    rows = int(np.atleast_2d(X).shape[0])
    return {"rows": rows, "flops": rows * forward_flops_per_row(p.arch)}


def _backward_counts(p, upstream, *_, **__):
    rows = int(np.size(upstream))
    return {"rows": rows, "flops": rows * backward_flops_per_row(p.arch)}


def _idx_counts(images_path, labels_path, *_, **__):
    return {"bytes": os.path.getsize(images_path) + os.path.getsize(labels_path)}


def forward_flops_per_row(arch):
    """Multiply-adds (x2) of one forward row, computed from the layer shapes."""
    if arch.kind == "linear":
        return 2 * arch.d
    return 2 * (arch.d * arch.h1 + arch.h1 * arch.h2 + arch.h2)


def backward_flops_per_row(arch):
    """Backward FLOPs of one row: every weight gradient, plus the activation
    gradients of the two hidden layers (none for the input)."""
    if arch.kind == "linear":
        return 2 * arch.d
    return 2 * (arch.d * arch.h1 + 2 * arch.h1 * arch.h2 + 2 * arch.h2)


def _rows_of(position):
    """Counter: rows = len() of the call's argument at this position."""
    return lambda *args, **kwargs: {"rows": len(args[position])}


# span name -> (module, attribute, counter of the call's arguments, counter keys)
SPANS = {
    "experiments.reproduce_table": ("experiments", "reproduce_table", None, ()),
    "experiments.sweep_n": ("experiments", "sweep_n", None, ()),
    "experiments.all_pairs_point_weights": ("experiments", "all_pairs_point_weights",
                                            _rows_of(0), ("rows",)),
    "experiments.train_weighted_points": ("experiments", "train_weighted_points",
                                          _rows_of(0), ("rows",)),
    "trainer.train": ("trainer", "train", _rows_of(0), ("rows",)),
    "trainer.evaluate": ("trainer", "evaluate", _rows_of(1), ("rows",)),
    "trainer.TrainReport.to_csv": ("trainer", "TrainReport.to_csv",
                                   lambda report, *a, **k: {"rows": len(report.rows)}, ("rows",)),
    "model.forward": ("model", "forward", _forward_counts, ("rows", "flops")),
    "model.backward": ("model", "backward", _backward_counts, ("rows", "flops")),
    "model.save_checkpoint": ("model", "save_checkpoint", None, ()),
    "optim.step": ("optim", "step", None, ()),
    "risk.partial_risks": ("risk", "partial_risks", _rows_of(2), ("rows",)),
    "risk.risk_gradient_weights": ("risk", "risk_gradient_weights", _rows_of(0), ("rows",)),
    "risk.pair_risk": ("risk", "pair_risk", _rows_of(2), ("rows",)),
    "losses.loss_value": ("losses", "loss_value",
                          lambda kind, z, *a, **k: {"rows": int(np.size(z))}, ("rows",)),
    "losses.loss_derivative": ("losses", "loss_derivative",
                               lambda kind, z, *a, **k: {"rows": int(np.size(z))}, ("rows",)),
    "datagen.sample_labeled": ("datagen", "sample_labeled",
                               lambda setup, n_plus, n_minus, *a, **k: {"rows": n_plus + n_minus},
                               ("rows",)),
    "datagen.posterior_plus": ("datagen", "posterior_plus",
                               lambda X, *a, **k: {"rows": len(np.atleast_2d(X))}, ("rows",)),
    "datagen.make_pairs": ("datagen", "make_pairs", _rows_of(0), ("rows",)),
    "rng.make_rng": ("rng", "make_rng", None, ()),
    "dataset_io.load_idx": ("dataset_io", "load_idx", _idx_counts, ("bytes",)),
    "dataset_io.posterior_model_confidences": ("dataset_io", "posterior_model_confidences",
                                               _rows_of(0), ("rows",)),
    "svgplot.line_plot": ("svgplot", "line_plot", _rows_of(1), ("rows",)),
    "cli.main": ("cli", "main", None, ()),
}


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self, spans=None, clock=time.perf_counter):
        self.spans = SPANS if spans is None else spans
        self.clock = clock
        self.names = list(self.spans)
        self.records = []   # [name index, parent record index, start, end, counts]
        self._stack = []
        self._patches = []  # (namespace, attribute, original)

    def wrap(self, name, fn, counter=None):
        """A wrapper of fn that records one span named name per call."""
        code = self.names.index(name)
        records, stack, clock = self.records, self._stack, self.clock

        def traced(*args, **kwargs):
            rec = [code, stack[-1] if stack else -1, 0.0, 0.0, None]
            records.append(rec)
            stack.append(len(records) - 1)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(*args, **kwargs)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Rebind every listed function in each sconf namespace that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        for name, (module, attr, counter, _) in self.spans.items():
            owner = importlib.import_module(f"sconf.{module}")
            if "." in attr:  # a method: patch the class once, every holder shares it
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(name, original, counter))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "sconf" or mod_name.startswith("sconf.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, traced)

    def _patch(self, holder, key, original, traced):
        setattr(holder, key, traced)
        self._patches.append((holder, key, original))

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self):
        """Per span name: calls, self_s and each of its summed counters."""
        child_time = [0.0] * len(self.records)
        for code, parent, start, end, _ in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: dict({"calls": 0, "self_s": 0.0}, **{key: 0 for key in spec[3]})
               for name, spec in self.spans.items()}
        for i, (code, _, start, end, counts) in enumerate(self.records):
            agg = out[self.names[code]]
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child_time[i]
            for key, value in (counts or {}).items():
                agg[key] += value
        return out
