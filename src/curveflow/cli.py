"""Command-line entry point: train, sample, analyze, compare, gradcheck.

Exit codes: 0 success, 1 check failure, 2 invalid input, 3 divergence or,
in ``analyze``, a degenerate trajectory. Artifacts are deterministic text
given config and seed, except the run manifest's timestamp and environment.
"""

import argparse
import copy
import json
import os
import platform
import sys
import time
from dataclasses import replace

import numpy as np

from . import datagen, losses, metrics, svgplot
from .config import (Checkpoint, ExperimentConfig, config_to_dict,
                     load_checkpoint, load_config, save_checkpoint)
from .engine import (evaluate_with_gradients, finite_difference_gradient,
                     max_relative_error)
from .errors import ConfigError, DegenerateTrajectoryError, DivergenceError
from .sampling import BLAS_VARS, SolverConfig, sample_batch
from .schedules import NeuralSchedule, make_schedule
from .training import train
from .velocity import VelocityField

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_DIVERGED = 3


def _fmt(x):
    return repr(float(x))


def build_schedule(config):
    sc = config.schedule
    return make_schedule(sc.kind, hidden=sc.hidden, embed=sc.embed,
                         seed=sc.seed)


def build_model(config, dim):
    mc = config.model
    return VelocityField(dim, hidden=mc.hidden,
                         time_features=mc.time_features, seed=mc.seed)


def write_history_csv(path, history):
    with open(path, "w") as fh:
        fh.write("step,fm_loss,curvature_loss,total,lr\n")
        for row in history:
            fh.write("%d,%s,%s,%s,%s\n" % (row.step, _fmt(row.fm_loss),
                                           _fmt(row.curvature_loss),
                                           _fmt(row.total), _fmt(row.lr)))


def _blas_kernel():
    """The kernel the loaded scipy-openblas library runs (e.g. "SkylakeX"),
    or None where no mapped OpenBLAS has scipy-openblas's corename symbol."""
    import ctypes  # only the manifest needs it
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh
                     if "openblas" in line}
    except OSError:  # no /proc/self/maps: not Linux
        paths = ()
    for path in sorted(paths):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def _write_manifest(path, config, steps):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    doc = {"config": config_to_dict(config),
           "seed": config.train.seed,
           "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
           "steps": steps,
           "python": platform.python_version(), "numpy": np.__version__,
           "blas": {k: blas.get(k) for k in ("name", "version")},
           "blas_kernel": _blas_kernel(),
           "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def run_experiment(config):
    """Train one model per the config: (result, schedule, model, held_out)."""
    train_data, held_out = datagen.generate_split(config.data)
    schedule = build_schedule(config)
    model = build_model(config, dim=train_data.shape[1])
    result = train(config.train, train_data, schedule, model)
    return result, schedule, model, held_out


def evaluate_model(config, schedule, model, held_out):
    """(energy distance, sliced Wasserstein) of fresh samples against the
    held-out set, and the schedule's determinant integral."""
    n = min(config.metrics.eval_count, held_out.shape[0])
    samples = sample_batch(model, n, held_out.shape[1], config.metrics.seed,
                           config.solver)
    ref = held_out[:n]
    ed = metrics.energy_distance(samples, ref, seed=config.metrics.seed)
    sw = metrics.sliced_wasserstein(samples, ref,
                                    projections=config.metrics.projections,
                                    seed=config.metrics.seed)
    return ed, sw, float(losses.determinant_integral(schedule))


def _diagnostic_pairs(config):
    x0s = datagen.generate(replace(config.data, count=64))
    eps = datagen.sample_noise(len(x0s), x0s.shape[1], config.data.seed + 1)
    return list(zip(x0s, eps))


# -- commands ------------------------------------------------------------


def cmd_train(args):
    config = _load_config_with_overrides(args)
    os.makedirs(args.out, exist_ok=True)
    try:
        result = run_experiment(config)[0]
    except DivergenceError as exc:
        # keep the last finite state; main reports the divergence
        _write_run(args.out, config, exc.params, exc.history)
        raise
    _write_run(args.out, config, result.params, result.history)
    print("trained %d steps; outputs in %s" % (len(result.history), args.out))
    return EXIT_OK


def _write_run(outdir, config, params, history):
    """Checkpoint, history and manifest of a run of ``len(history)`` steps."""
    steps = len(history)
    save_checkpoint(os.path.join(outdir, "checkpoint.json"),
                    Checkpoint(config, params, steps))
    write_history_csv(os.path.join(outdir, "history.csv"), history)
    _write_manifest(os.path.join(outdir, "run_manifest.json"), config, steps)


def _load_config_with_overrides(args):
    config = load_config(args.config)
    if args.seed is not None:
        config.train.seed = args.seed
    return config.validate()


def load_run(path):
    """A checkpoint with its model and schedule, holding the trained weights.

    Raises ConfigError if the parameter names or shapes do not fit the
    model and schedule sections of the checkpoint's config.
    """
    ckpt = load_checkpoint(path)
    model = build_model(ckpt.config, VelocityField.dim_of(ckpt.params))
    schedule = build_schedule(ckpt.config)
    expected = {**model.params, **schedule.params}
    if ({n: a.shape for n, a in ckpt.params.items()}
            != {n: a.shape for n, a in expected.items()}):
        raise ConfigError(
            "checkpoint %s: parameter names or shapes do not fit the model "
            "and schedule sections of its config" % path)
    model.params = {n: ckpt.params[n] for n in model.params}
    schedule.params = {n: ckpt.params[n] for n in schedule.params}
    return ckpt, model, schedule


def cmd_sample(args):
    ckpt, model, _ = load_run(args.checkpoint)
    config = ckpt.config
    solver = SolverConfig(
        method=config.solver.method if args.method is None else args.method,
        steps=config.solver.steps if args.steps is None else args.steps)
    seed = (config.metrics.seed if args.seed is None
            else datagen.check_seed(args.seed, "--seed"))
    # sample_batch validates the count and the solver before any output
    samples = sample_batch(model, args.count, model.dim, seed, solver)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    datagen.export_csv(os.path.join(outdir, "samples.csv"), samples)
    if model.dim >= 2:  # the plot draws the first two coordinates
        _, held_out = datagen.generate_split(config.data)
        svgplot.scatter(os.path.join(outdir, "samples.svg"),
                        [("held-out", held_out), ("generated", samples)],
                        title="generated vs held-out")
    print("wrote %d samples to %s" % (len(samples), outdir))
    return EXIT_OK


def cmd_analyze(args):
    if bool(args.checkpoint) == bool(args.schedule):
        raise ConfigError("pass exactly one of --checkpoint or --schedule")
    if args.checkpoint:
        ckpt, _, schedule = load_run(args.checkpoint)
        config = ckpt.config
    else:
        config = ExperimentConfig()
        schedule = make_schedule(args.schedule)
    t, kappa, det = metrics.schedule_diagnostics(
        schedule, config.train.grid_m, _diagnostic_pairs(config))
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "curvature_profile.csv")
    with open(csv_path, "w") as fh:
        fh.write("t,mean_kappa,det\n")
        for ti, k, d in zip(t, kappa, det):
            fh.write("%s,%s,%s\n" % (_fmt(ti), _fmt(k), _fmt(d)))
    svgplot.lines(os.path.join(outdir, "curvature_profile.svg"), t,
                  [("mean curvature", kappa), ("determinant", det)],
                  title="schedule geometry")
    print("determinant_integral %s"
          % _fmt(losses.determinant_integral(schedule)))
    return EXIT_OK


def cmd_compare(args):
    config = _load_config_with_overrides(args)
    if not config.lambda_grid:
        raise ConfigError("lambda_grid is empty")
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)

    variants = [("rf_uniform", "linear", 0.0, "uniform"),
                ("rf_logit_normal", "linear", 0.0, "logit-normal")]
    for lam in config.lambda_grid:
        variants.append(("curveflow_lam_%g" % lam, "neural", lam,
                         config.train.timestep_sampler))

    # every variant gets a row, so a diverged one is not dropped silently
    diverged = []
    results_path = os.path.join(outdir, "results.csv")
    with open(results_path, "w") as fh:
        fh.write("variant,lambda,energy_distance,sliced_wasserstein,"
                 "determinant_integral,status\n")
        for name, kind, lam, sampler in variants:
            vcfg = copy.deepcopy(config)
            vcfg.schedule.kind = kind
            vcfg.train.lam = lam
            vcfg.train.timestep_sampler = sampler
            try:
                _, schedule, model, held_out = run_experiment(vcfg)
                ed, sw, integral = evaluate_model(vcfg, schedule, model,
                                                  held_out)
            except DivergenceError as exc:
                print("variant %s diverged: %s" % (name, exc), file=sys.stderr)
                diverged.append(name)
                fh.write("%s,%s,,,,diverged\n" % (name, _fmt(lam)))
            else:
                fh.write("%s,%s,%s,%s,%s,ok\n" % (name, _fmt(lam), _fmt(ed),
                                                  _fmt(sw), _fmt(integral)))
                print("%s: energy=%.4f sliced_w=%.4f det_integral=%.6f"
                      % (name, ed, sw, integral))
            fh.flush()
    if diverged:
        print("diverged variants: %s" % ", ".join(diverged), file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def gradcheck(seed=0):
    """Autodiff vs finite differences on a small total-loss instance.

    Returns (max relative error, worst parameter name).
    """
    rng = datagen.philox(seed)
    dim, batch = 2, 4
    schedule = NeuralSchedule(hidden=8, embed=8, seed=seed)
    # perturb all schedule weights so the residual nets are active
    schedule.params = {n: a + 0.1 * rng.standard_normal(a.shape)
                       for n, a in schedule.params.items()}
    model = VelocityField(dim, hidden=16, time_features=8, seed=seed + 1)
    params = {**model.params, **schedule.params}
    x0 = rng.standard_normal((batch, dim))
    eps = rng.standard_normal((batch, dim))
    t = np.clip(rng.random(batch), 0.05, 0.95)

    def loss_fn(p):
        fm, reg = losses.total_loss_graph((x0, eps, t), model, schedule,
                                          0.1, p)
        return fm + reg

    _, g_ad = evaluate_with_gradients(loss_fn, params)
    g_fd = finite_difference_gradient(loss_fn, params, step=1e-5)
    return max_relative_error(g_ad, g_fd)


def cmd_gradcheck(args):
    datagen.check_seed(args.seed, "--seed")
    datagen.check_seed(args.seed + 1, "--seed + 1")
    err, worst = gradcheck(seed=args.seed)
    print("max relative error %s (parameter %s)" % (_fmt(err), worst or "-"))
    if err < 1e-4:
        return EXIT_OK
    print("gradcheck FAILED: worst offender %s" % worst, file=sys.stderr)
    return EXIT_CHECK_FAILED


def make_parser():
    parser = argparse.ArgumentParser(prog="curveflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="sample from a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--method", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("analyze", help="schedule geometry diagnostics")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--schedule", default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="train the lambda grid plus RF baselines")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gradcheck", help="autodiff vs finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    """Run one subcommand; the one place that maps errors to exit codes.

    Only errors in the input and numerical divergence become exit codes.
    Any other exception, a ``ValueError`` that is not a ``ConfigError``
    among them, is a fault in the program and propagates as a traceback.
    """
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DivergenceError, DegenerateTrajectoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID if isinstance(exc, ConfigError) else EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
