"""Workloads, timed operations and correctness checks of the benchmark.

Every measured operation ("op") is one real command, run in process
through ``curveflow.cli.main``. README.md says why each workload exists
and which layer each metric should move.
"""

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy

import curveflow
from curveflow import cli, datagen, metrics
from curveflow.config import load_checkpoint
from curveflow.engine import ParameterSet
from curveflow.schedules import NeuralSchedule

from tracer import Tracer, layer_metrics

WORKLOADS = ("train_rf", "train_curveflow", "sample_eval")

BATCH = 16
PROJECTIONS = 64
HISTORY_HEADER = "step,fm_loss,curvature_loss,total,lr"
# Every train command (dataset, initial weights, training stream, and so
# the sample_eval checkpoint) is a fixture with this seed. The workload
# seed draws the noise that ``curveflow sample`` integrates, in the op of
# sample_eval and in the evaluation of the train workloads. Throughput and
# memory do not depend on the values trained on; the quality guards do:
# when the seed also drove training, the energy distance after one epoch
# spread by 13-21% between seeds, too close to the 0.25 cap on a bound.
FIXTURE_SEED = 0

# (name, unit) of every end-to-end metric, in the order they are printed.
END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("samples_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("fm_loss_last_epoch", "loss"),
    ("energy_distance", "distance"),
    ("sliced_wasserstein", "distance"),
)


@dataclass(frozen=True)
class Size:
    """Input sizes of the workloads. ``FULL`` is what the benchmark runs."""

    count: int = 2000            # training points; held-out has as many
    hidden: int = 128            # velocity MLP width
    time_features: int = 16
    schedule_hidden: int = 64
    schedule_embed: int = 8
    grid_m: int = 1000
    rf_epochs: int = 2
    curveflow_epochs: int = 1
    fixture_epochs: int = 1      # the sample_eval checkpoint
    sample_count: int = 2000
    solver_steps: int = 100
    setup_reps: int = 3


FULL = Size()
# Seconds-long harness smoke test: few points, few steps, Heun-4.
TINY = Size(count=64, hidden=16, time_features=4, schedule_hidden=8,
            grid_m=16, rf_epochs=1, sample_count=64, solver_steps=4,
            setup_reps=2)
SIZES = {"full": FULL, "tiny": TINY}


class CheckFailed(Exception):
    pass


def experiment_config(size, workload):
    """The JSON config a user would write for ``workload``'s train command."""
    if workload == "train_curveflow":
        schedule, lam, train_schedule = "neural", 1e-3, True
        epochs = size.curveflow_epochs
    else:
        schedule, lam, train_schedule = "linear", 0.0, False
        epochs = size.rf_epochs if workload == "train_rf" else size.fixture_epochs
    return {
        "data": {"kind": "gaussians8", "count": size.count,
                 "seed": FIXTURE_SEED, "noise_std": 0.1},
        "schedule": {"kind": schedule, "hidden": size.schedule_hidden,
                     "embed": size.schedule_embed, "seed": FIXTURE_SEED},
        "model": {"hidden": size.hidden, "time_features": size.time_features,
                  "seed": FIXTURE_SEED},
        "train": {"epochs": epochs, "batch_size": BATCH, "base_lr": 1e-3,
                  "lam": lam, "grid_m": size.grid_m, "seed": FIXTURE_SEED,
                  "train_schedule": train_schedule},
        "solver": {"method": "heun", "steps": size.solver_steps},
        "metrics": {"projections": PROJECTIONS,
                    "eval_count": size.sample_count, "seed": FIXTURE_SEED},
    }


def environment():
    """Everything besides the code that changes speed or the last digits."""
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


def _finite_rows(path, header, width):
    """Rows of a CSV written by curveflow; raises CheckFailed unless all finite."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed("%s: bad header" % path)
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != width:
            raise CheckFailed("%s: row %r has %d fields" % (path, line, len(fields)))
        values = [float(f) for f in fields]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed("%s: non-finite row %r" % (path, line))
        rows.append(values)
    return rows


class Run:
    """One invocation: set-up, the timed op loop, checks and metrics."""

    def __init__(self, root, workload, seed, seconds, trace, size):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % workload)
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.work = os.path.join(root, ".perfbench_work",
                                 "%s-seed%d-trace%d" % (workload, seed, trace))
        self.attempted = 0
        self.failed = 0
        self.reference = {}        # artifact bytes of the first op
        self.tracer = Tracer() if trace else None
        steps_per_epoch = math.ceil(size.count / BATCH)
        cfg = experiment_config(size, workload)
        self.steps_per_op = cfg["train"]["epochs"] * steps_per_epoch
        self.steps_per_epoch = steps_per_epoch

    # -- set-up -------------------------------------------------------------

    def setup_once(self):
        """What a user pays before the first op; returns its wall time.

        A fresh interpreter importing the CLI (numpy, scipy, curveflow),
        writing the config and, for sample_eval, training the checkpoint
        that the op samples from.
        """
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(curveflow.__file__))
        env["PYTHONPATH"] = src
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import curveflow.cli"],
                              env=env, cwd=self.root, capture_output=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("importing curveflow.cli failed:\n%s"
                               % proc.stderr.decode(errors="replace"))
        cfg = experiment_config(self.size, self.workload)
        self.config_path = os.path.join(self.work, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(cfg, fh, indent=2)
        if self.workload == "sample_eval":
            self.fixture = os.path.join(self.work, "fixture")
            self._command(["train", "--config", self.config_path,
                           "--out", self.fixture])
        return time.perf_counter() - start

    def setup(self):
        if os.path.isdir(self.work):
            shutil.rmtree(self.work)
        os.makedirs(self.work)
        times = []
        for _ in range(self.size.setup_reps):
            times.append(self.setup_once())
            if self.workload == "sample_eval":
                self.attempted += 1
                self._check_history(self.fixture, self.size.fixture_epochs
                                    * self.steps_per_epoch, "fixture")
        self.setup_s = statistics.median(times)
        self.setup_times = times
        held = datagen.generate_split(
            datagen.DatasetSpec(kind="gaussians8", count=self.size.count,
                                seed=FIXTURE_SEED))[1]
        self.held_out = held[:self.size.sample_count]

    # -- commands and checks --------------------------------------------------

    def _command(self, argv):
        """Run one CLI command quietly; returns its wall time in seconds."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        if code != 0:
            raise CheckFailed("curveflow %s exited %s" % (argv[0], code))
        return wall

    def _check_history(self, outdir, expected_rows, key):
        path = os.path.join(outdir, "history.csv")
        rows = _finite_rows(path, HISTORY_HEADER, 5)
        if len(rows) != expected_rows:
            raise CheckFailed("history.csv has %d rows, expected %d"
                              % (len(rows), expected_rows))
        self._check_same(path, key)
        return rows

    def _check_samples(self, outdir, key):
        path = os.path.join(outdir, "samples.csv")
        rows = _finite_rows(path, "x,y", 2)
        if len(rows) != self.size.sample_count:
            raise CheckFailed("samples.csv has %d rows, expected %d"
                              % (len(rows), self.size.sample_count))
        self._check_same(path, key)

    def _check_same(self, path, key):
        """Artifacts must be byte-identical to the first op's in this run."""
        with open(path, "rb") as fh:
            data = fh.read()
        first = self.reference.setdefault(key, data)
        if data != first:
            raise CheckFailed("%s differs from the first op's" % path)

    def _check_boundaries(self, outdir):
        """The trained neural schedule meets a(0)=1, b(0)=0, a(1)=0, b(1)=1."""
        ckpt = load_checkpoint(os.path.join(outdir, "checkpoint.json"))
        sc = ckpt.config.schedule
        schedule = NeuralSchedule(hidden=sc.hidden, embed=sc.embed, seed=sc.seed)
        schedule.params = ParameterSet({n: a for n, a in ckpt.params.items()
                                        if n.startswith(("a/", "b/"))})
        got = (schedule.a(0.0), schedule.b(0.0), schedule.a(1.0), schedule.b(1.0))
        if got != (1.0, 0.0, 0.0, 1.0):
            raise CheckFailed("schedule boundary values %r" % (got,))

    def _score(self, outdir):
        samples = np.loadtxt(os.path.join(outdir, "samples.csv"),
                             delimiter=",", skiprows=1, ndmin=2)
        ed = metrics.energy_distance(samples, self.held_out, seed=FIXTURE_SEED)
        sw = metrics.sliced_wasserstein(samples, self.held_out,
                                        projections=PROJECTIONS,
                                        seed=FIXTURE_SEED)
        return ed, sw

    def _sample_argv(self, checkpoint, outdir):
        return ["sample", "--checkpoint", checkpoint,
                "--count", str(self.size.sample_count),
                "--steps", str(self.size.solver_steps), "--method", "heun",
                "--seed", str(self.seed), "--out", outdir]

    # -- the measured op ------------------------------------------------------

    def op(self, outdir):
        """One measured command; returns a dict of readings."""
        if self.workload == "sample_eval":
            start = time.perf_counter()
            wall = self._command(self._sample_argv(
                os.path.join(self.fixture, "checkpoint.json"), outdir))
            ed, sw = self._score(outdir)
            return {"op_s": time.perf_counter() - start,
                    "steps_per_s": self.size.solver_steps / wall,
                    "samples_per_s": self.size.sample_count / wall,
                    "energy_distance": ed, "sliced_wasserstein": sw}
        wall = self._command(["train", "--config", self.config_path,
                              "--out", outdir])
        return {"op_s": wall,
                "steps_per_s": self.steps_per_op / wall,
                "samples_per_s": self.steps_per_op * BATCH / wall}

    def check(self, outdir, reading):
        """Checks of one op's artifacts, run after the op and untraced."""
        if self.workload == "sample_eval":
            self._check_samples(outdir, "samples")
            ed, sw = reading["energy_distance"], reading["sliced_wasserstein"]
            if not (math.isfinite(ed) and math.isfinite(sw)):
                raise CheckFailed("non-finite distances %r %r" % (ed, sw))
            return
        self._check_history(outdir, self.steps_per_op, "history")
        if self.workload == "train_curveflow":
            self._check_boundaries(outdir)

    def measure(self):
        """Run ops until ``seconds`` would be exceeded (at least three ops).

        The first op is a warm-up: it is checked and its artifacts are the
        reference, but its time is not used: on sample_eval it is 30-45%
        slower than the rest, likely the allocator settling (see README).
        In a traced run every other later op is traced, so traced and
        untraced op times come from the same run for ``trace.overhead_pct``.
        """
        outdir = os.path.join(self.work, "op")
        readings = []
        durations = []
        deadline = time.perf_counter() + self.seconds
        while True:
            estimate = statistics.median(durations) if durations else 0.0
            if len(durations) >= 3 and time.perf_counter() + estimate > deadline:
                break
            warmup = not durations
            traced = self.trace and len(durations) % 2 == 1
            start = time.perf_counter()
            self.attempted += 1
            reading = None
            try:
                if traced:
                    self.tracer.install()
                    sid = self.tracer.begin("op")
                try:
                    reading = self.op(outdir)
                finally:
                    if traced:
                        self.tracer.end(sid)
                        self.tracer.uninstall()
                # An op whose command ran keeps its timing even when a
                # check fails; it still counts as failed.
                self.check(outdir, reading)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
            if reading is not None and not warmup:
                reading["traced"] = traced
                readings.append(reading)
            durations.append(time.perf_counter() - start)
        self.readings = readings
        # Taken before the train workloads' evaluation, whose 2000x2000
        # distance matrices are not part of their ops.
        self.peak_rss_mb = peak_rss_mb()

    def evaluate(self):
        """Score the train workloads' model the way sample_eval scores its own.

        Untimed and untraced: samples the last op's checkpoint with the
        sample_eval solver settings and the workload seed. Without it the
        distances cannot be reported, so a failure here ends the run.
        """
        if self.workload == "sample_eval":
            first = self.readings[0]
            return first["energy_distance"], first["sliced_wasserstein"]
        outdir = os.path.join(self.work, "eval")
        self.attempted += 1
        self._command(self._sample_argv(
            os.path.join(self.work, "op", "checkpoint.json"), outdir))
        self._check_samples(outdir, "eval-samples")
        return self._score(outdir)

    def fm_loss_last_epoch(self):
        if self.workload == "sample_eval":
            path = os.path.join(self.fixture, "history.csv")
        else:
            path = os.path.join(self.work, "op", "history.csv")
        rows = _finite_rows(path, HISTORY_HEADER, 5)
        return statistics.fmean(r[1] for r in rows[-self.steps_per_epoch:])

    # -- results ---------------------------------------------------------------

    def end_to_end(self):
        ed, sw = self.evaluate()
        untraced = [r for r in self.readings if not r["traced"]]

        def median(key):
            return statistics.median(r[key] for r in untraced)

        values = {
            "setup_s": self.setup_s,
            "steps_per_s": median("steps_per_s"),
            "samples_per_s": median("samples_per_s"),
            "peak_rss_mb": self.peak_rss_mb,
            "fm_loss_last_epoch": self.fm_loss_last_epoch(),
            "energy_distance": ed,
            "sliced_wasserstein": sw,
        }
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in END_TO_END}

    def per_layer(self):
        traced = [r["op_s"] for r in self.readings if r["traced"]]
        plain = [r["op_s"] for r in self.readings if not r["traced"]]
        overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        self.tracer.write(os.path.join(self.work, "spans.jsonl"))
        return layer_metrics(self.tracer, len(traced), overhead)

    def result(self):
        if self.trace:
            have = {r["traced"] for r in self.readings}
            if have != {True, False}:
                raise RuntimeError("a traced run needs a traced and an "
                                   "untraced op that succeeded")
            found = self.per_layer()
        else:
            if not self.readings:
                raise RuntimeError("no op succeeded")
            found = self.end_to_end()
        bad = [n for n, m in found.items() if not math.isfinite(m["value"])]
        if bad:
            raise RuntimeError("non-finite metric(s): %s" % ", ".join(bad))
        return {"correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": found}


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(root, workload, seed, seconds, trace, size_name="full"):
    """Set up, measure and check one workload; returns (result, environment)."""
    bench = Run(root, workload, seed, seconds, trace, SIZES[size_name])
    env = environment()
    bench.setup()
    bench.measure()
    result = bench.result()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "size": size_name, "environment": env,
              "setup_times_s": bench.setup_times,
              "ops": bench.readings, "result": result}
    with open(os.path.join(bench.work, "result.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    return result, env
