"""Spans recorded from outside the program, and the per-layer metrics built from them.

The tracer wraps public functions of ``layerfuse`` at every name a caller
resolves them through (a module attribute or a class attribute), so the
program's own files stay untouched.  Each call becomes a span with a name,
start, end, parent span and run id.  Spans stay in memory until the run ends.
"""

import functools
import json
import os
import statistics
import time
from collections import Counter, namedtuple

Span = namedtuple("Span", "name start end parent run_id")

# Span name -> (module, attribute) for every wrapped function.  Several
# functions may share one span name; their time and calls then add up.
FUNCTIONS = {
    "synthetic.generate": [("synthetic", "generate_task")],
    "bank.read": [("bank", "read_bank")],
    "bank.write": [("bank", "write_bank")],
    "bank.load_params": [("bank", "load_params")],
    "bank.save_params": [("bank", "save_params")],
    "tensor.sigmoid": [("tensor", "sigmoid")],
    "tensor.conv1x1": [("tensor", "conv1x1")],
    "tensor.batch_norm": [("tensor", "batch_norm")],
    "tensor.broadcast_add": [("tensor", "broadcast_add")],
    "tensor.elementwise_mul": [("tensor", "elementwise_mul")],
    "tensor.mean_pool_tokens": [("tensor", "mean_pool_tokens")],
    "tensor.relu": [("tensor", "relu")],
    "tensor.sub_scale_shift": [("tensor", "sub"), ("tensor", "scale"), ("tensor", "shift")],
    "tensor.backward": [("tensor", "backward")],
    "gate.global_branch": [("gate", "global_branch_forward")],
    "gate.local_branch": [("gate", "local_branch_forward")],
    "fusion.fuse_layers": [("fusion", "fuse_layers")],
    "training.loss": [("training", "softmax_cross_entropy")],
    "training.evaluate": [("training", "evaluate")],
    "training.train": [("training", "train")],
    "training.layer_sweep": [("training", "layer_sweep")],
    "gradcheck.finite_difference": [("gradcheck", "finite_difference_check")],
}

# Span name -> (class path, method) for wrapped methods.
METHODS = {
    "fusion.fused_batch": [("fusion.FusionSystem", "fused_batch"),
                           ("fusion.BaselineSystem", "fused_batch")],
    "training.adamw_step": [("training.AdamW", "step")],
}

TENSOR_OPS = ("sigmoid", "conv1x1", "batch_norm", "broadcast_add", "elementwise_mul",
              "mean_pool_tokens", "relu", "sub_scale_shift")

# Per-layer metric -> (kind, span or counter name).  Times are seconds per
# timed command; "self" excludes the time of child spans, "inclusive" does not.
# SETUP_METRICS are taken from the traced set-up instead, per set-up.
PER_LAYER = {
    "synthetic.generate_s": ("self", "synthetic.generate"),
    "bank.read_s": ("self", "bank.read"),
    "bank.write_s": ("self", "bank.write"),
    "bank.read_bytes": ("counter", "bank.read_bytes"),
    "bank.write_bytes": ("counter", "bank.write_bytes"),
    "bank.load_params_s": ("self", "bank.load_params"),
    "bank.save_params_s": ("self", "bank.save_params"),
    **{f"tensor.{op}_s": ("self", f"tensor.{op}") for op in TENSOR_OPS},
    **{f"tensor.{op}_calls": ("calls", f"tensor.{op}") for op in TENSOR_OPS},
    "tensor.backward_s": ("self", "tensor.backward"),
    "tensor.backward_calls": ("calls", "tensor.backward"),
    "gate.global_branch_s": ("inclusive", "gate.global_branch"),
    "gate.local_branch_s": ("inclusive", "gate.local_branch"),
    "fusion.fuse_layers_s": ("inclusive", "fusion.fuse_layers"),
    "fusion.fused_batch_s": ("inclusive", "fusion.fused_batch"),
    "training.adamw_step_s": ("self", "training.adamw_step"),
    "training.adamw_steps": ("calls", "training.adamw_step"),
    "training.loss_s": ("self", "training.loss"),
    "training.evaluate_s": ("self", "training.evaluate"),
    "training.train_s": ("self", "training.train"),
    "training.layer_sweep_s": ("self", "training.layer_sweep"),
    "gradcheck.finite_difference_s": ("self", "gradcheck.finite_difference"),
    "gradcheck.probes": ("calls", "gradcheck.probe"),
    "gradcheck.probe_ms_p50": ("probe_ms", 50),
    "gradcheck.probe_ms_p99": ("probe_ms", 99),
    "cli.self_s": ("self", "cli"),
}
SETUP_METRICS = ("synthetic.generate_s",)
# Traced over untraced median command time, minus one.
OVERHEAD = "trace.overhead_ratio"


class Tracer:
    """Collects spans and counters in memory for one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counters = Counter()
        self._open = []

    def wrap(self, name, fn, after=None):
        """Return ``fn`` recording a span per call; ``after(args)`` runs on success."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else None
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, self.run_id)
            if after is not None:
                after(args)
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps([index, *span]) + "\n")


def install(tracer, package):
    """Wrap every function in FUNCTIONS and METHODS wherever ``package`` binds it.

    A module that did ``from .tensor import sigmoid`` resolves its own
    attribute, so each module attribute holding the original object is
    replaced.  ``gradcheck.probe`` wraps the objective that
    ``classification_pipeline`` returns to the command.
    """
    modules = [package] + [getattr(package, name) for name in dir(package)
                           if type(getattr(package, name)) is type(package)]

    def size_of(arg_index, counter):
        def after(args):
            tracer.counters[counter] += os.path.getsize(args[arg_index])
        return after

    after = {"bank.read": size_of(0, "bank.read_bytes"),
             "bank.write": size_of(1, "bank.write_bytes")}
    for name, targets in FUNCTIONS.items():
        for module_name, attribute in targets:
            original = getattr(getattr(package, module_name), attribute)
            traced = tracer.wrap(name, original, after.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
    for name, targets in METHODS.items():
        for class_path, method in targets:
            module_name, class_name = class_path.split(".")
            cls = getattr(getattr(package, module_name), class_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method)))

    pipeline = package.gradcheck.classification_pipeline

    def traced_pipeline(*args, **kwargs):
        loss_fn, params = pipeline(*args, **kwargs)
        return tracer.wrap("gradcheck.probe", loss_fn), params

    package.cli.classification_pipeline = traced_pipeline


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(spans, counters, runs):
    """Every PER_LAYER metric, each a total divided by ``runs`` (commands or set-ups)."""
    self_by_name, inclusive_by_name, calls = Counter(), Counter(), Counter()
    for span, own in zip(spans, self_times(spans)):
        self_by_name[span.name] += own
        inclusive_by_name[span.name] += span.end - span.start
        calls[span.name] += 1
    totals = {"self": self_by_name, "inclusive": inclusive_by_name,
              "calls": calls, "counter": Counter(counters)}
    probe_ms = [(s.end - s.start) * 1e3 for s in spans if s.name == "gradcheck.probe"]
    metrics = {}
    for metric, (kind, key) in PER_LAYER.items():
        if kind == "probe_ms":
            metrics[metric] = _percentile(probe_ms, key)
        else:
            metrics[metric] = totals[kind][key] / runs
    return metrics


def metric_unit(metric):
    for suffix, unit in (("_s", "s"), ("_ms_p50", "ms"), ("_ms_p99", "ms"),
                         ("_bytes", "bytes"), ("_mb", "MB"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"
