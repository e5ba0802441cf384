"""In-memory span tracer for the benchmark's traced run.

Spans are recorded by wrapping public functions of the curveflow modules
from outside the package, so nothing under ``src/`` knows it is traced.
Each span is ``[name, start, end, parent]`` with ``parent`` the index of
the enclosing span (-1 for none). The process runs one command at a time
on one thread, so one stack gives the parent of every span.
"""

import functools
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

from curveflow import (cli, datagen, losses, metrics, svgplot, training,
                       velocity)
from curveflow.schedules import NeuralSchedule

MIB = float(2 ** 20)


class Tracer:
    """Span stack plus named counters; patches are undone by ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def begin(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` by a function that records a span per call."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            sid = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(sid)
            if after is not None:
                after(tracer, args)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self):
        """Wrap every layer boundary the per-layer metrics are built from."""
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "train", "training.train")
        self.wrap(cli, "save_checkpoint", "config.save_checkpoint",
                  after=_count_checkpoint)
        self.wrap(cli, "load_checkpoint", "config.load_checkpoint",
                  before=_count_checkpoint)
        self.wrap(cli, "sample_batch", "sampling.sample_batch")
        self.wrap(training, "total_loss_graph", "training.total_loss_graph")
        self.wrap(training, "backward", "engine.backward",
                  before=_count_tape)
        self.wrap(training, "adamw_step", "training.adamw_step")
        self.wrap(losses, "curve_fm_loss", "losses.curve_fm_loss")
        self.wrap(losses, "robust_curvature_loss",
                  "losses.robust_curvature_loss")
        self.wrap(losses, "grid_derivatives", "schedules.grid_derivatives")
        self.wrap(losses, "pointwise_derivatives",
                  "schedules.pointwise_derivatives")
        self.wrap(NeuralSchedule, "residual_term", "schedules.residual_term",
                  before=_count_residual_points)
        self.wrap(velocity.VelocityField, "__call__", "velocity.forward",
                  before=_count_velocity_rows)
        # velocity.py binds engine.silu at import; this is the name it calls.
        self.wrap(velocity, "silu", "engine.silu")
        self.wrap(datagen, "generate_split", "datagen.generate_split")
        self.wrap(datagen, "export_csv", "datagen.export_csv")
        self.wrap(svgplot, "scatter", "svgplot.scatter")
        self.wrap(metrics, "energy_distance", "metrics.energy_distance")
        self.wrap(metrics, "sliced_wasserstein", "metrics.sliced_wasserstein")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _count_checkpoint(tracer, args):
    tracer.counts["checkpoint_files"] += 1
    tracer.counts["checkpoint_bytes"] += os.path.getsize(args[0])


def _count_residual_points(tracer, args):
    # residual_term(self, prefix, t, params=None)
    tracer.counts["residual_points"] += int(np.size(args[2]))


def _count_velocity_rows(tracer, args):
    # VelocityField.__call__(self, z, t, params=None)
    shape = args[1].shape
    tracer.counts["velocity_rows"] += shape[0] if len(shape) == 2 else 1


def _count_tape(tracer, args):
    """Nodes and value bytes of the graph handed to backward().

    Walks ``Tensor._parents`` the way ``engine.backward`` does. Bytes are
    computed from node values only; arrays captured by the backward
    closures are not counted. The walk is its own ``trace.`` span so it
    is charged to tracing, not to the step.
    """
    sid = tracer.begin("trace.tape_walk")
    seen = set()
    stack = [args[0]]
    nodes = nbytes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += 1
        nbytes += node.value.nbytes
        stack.extend(node._parents)
    tracer.counts["tape_nodes"] += nodes
    tracer.counts["tape_bytes"] += nbytes
    tracer.end(sid)


def span_totals(spans):
    """Per name: (calls, total seconds, self seconds), tracing time removed.

    Self time is a span's duration minus its children's. Time spent in
    ``trace.`` spans is also taken out of every ancestor's duration.
    """
    children = defaultdict(float)
    tracing_below = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
        if name.startswith("trace."):
            p = parent
            while p >= 0:
                tracing_below[p] += end - start
                p = spans[p][3]
    calls = Counter()
    total = defaultdict(float)
    self_time = defaultdict(float)
    for sid, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start - tracing_below[sid]
        self_time[name] += end - start - children[sid]
    return calls, total, self_time


# (name, unit) of every per-layer metric, in the order they are printed.
LAYER_METRICS = (
    ("engine.backward_ms", "ms"),
    ("engine.tape_nodes", "count"),
    ("engine.tape_mb", "MiB"),
    ("engine.silu_ms", "ms"),
    ("losses.fm_fwd_ms", "ms"),
    ("losses.reg_fwd_ms", "ms"),
    ("schedules.grid_derivatives_ms", "ms"),
    ("schedules.pointwise_derivatives_ms", "ms"),
    ("schedules.residual_points", "count"),
    ("velocity.forward_ms", "ms"),
    ("velocity.calls", "count"),
    ("velocity.rows", "count"),
    ("training.adamw_ms", "ms"),
    ("training.step_ms", "ms"),
    ("training.step_self_ms", "ms"),
    ("sampling.integrate_s", "s"),
    ("sampling.self_ms", "ms"),
    ("metrics.energy_distance_ms", "ms"),
    ("metrics.sliced_wasserstein_ms", "ms"),
    ("config.save_checkpoint_ms", "ms"),
    ("config.load_checkpoint_ms", "ms"),
    ("config.checkpoint_bytes", "bytes"),
    ("datagen.generate_split_ms", "ms"),
    ("datagen.export_csv_ms", "ms"),
    ("svgplot.scatter_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def layer_metrics(tracer, traced_ops, overhead_pct):
    """Per-layer values from the spans and counts of ``traced_ops`` ops.

    ``*_ms``/``*_s`` values are per call of the wrapped function, except
    the ``training.step*`` ones, which are per optimizer step. Counts are
    per step (tape, residual points), per op (velocity calls) or per call
    (rows, checkpoint bytes). A layer that a workload never reaches reads 0.
    """
    calls, total, self_time = span_totals(tracer.spans)
    counts = tracer.counts
    steps = calls["training.adamw_step"]

    def per(value, n):
        return value / n if n else 0.0

    def ms(name):
        return 1e3 * per(total[name], calls[name])

    values = {
        "engine.backward_ms": ms("engine.backward"),
        "engine.tape_nodes": per(counts["tape_nodes"], calls["engine.backward"]),
        "engine.tape_mb": per(counts["tape_bytes"], calls["engine.backward"]) / MIB,
        "engine.silu_ms": ms("engine.silu"),
        "losses.fm_fwd_ms": ms("losses.curve_fm_loss"),
        "losses.reg_fwd_ms": ms("losses.robust_curvature_loss"),
        "schedules.grid_derivatives_ms": ms("schedules.grid_derivatives"),
        "schedules.pointwise_derivatives_ms": ms("schedules.pointwise_derivatives"),
        "schedules.residual_points": per(counts["residual_points"], steps),
        "velocity.forward_ms": ms("velocity.forward"),
        "velocity.calls": per(calls["velocity.forward"], traced_ops),
        "velocity.rows": per(counts["velocity_rows"], calls["velocity.forward"]),
        "training.adamw_ms": ms("training.adamw_step"),
        "training.step_ms": 1e3 * per(total["training.train"], steps),
        "training.step_self_ms": 1e3 * per(self_time["training.train"], steps),
        "sampling.integrate_s": per(total["sampling.sample_batch"],
                                    calls["sampling.sample_batch"]),
        "sampling.self_ms": 1e3 * per(self_time["sampling.sample_batch"],
                                      calls["sampling.sample_batch"]),
        "metrics.energy_distance_ms": ms("metrics.energy_distance"),
        "metrics.sliced_wasserstein_ms": ms("metrics.sliced_wasserstein"),
        "config.save_checkpoint_ms": ms("config.save_checkpoint"),
        "config.load_checkpoint_ms": ms("config.load_checkpoint"),
        "config.checkpoint_bytes": per(counts["checkpoint_bytes"],
                                       counts["checkpoint_files"]),
        "datagen.generate_split_ms": ms("datagen.generate_split"),
        "datagen.export_csv_ms": ms("datagen.export_csv"),
        "svgplot.scatter_ms": ms("svgplot.scatter"),
        "cli.self_ms": 1e3 * per(self_time["cli.main"], calls["cli.main"]),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in LAYER_METRICS}
