"""The benchmark tracer wraps curveflow names; renaming one must fail here.

The tracer only runs under ``perfbench/run.py --trace 1``, so without this
test a renamed function under ``src/`` would surface only in a traced
benchmark run.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import numpy as np  # noqa: E402

from curveflow import losses  # noqa: E402
from curveflow.engine import Tensor  # noqa: E402
from curveflow.losses import curve_fm_loss  # noqa: E402
from curveflow.schedules import NeuralSchedule  # noqa: E402
from curveflow.training import TrainConfig, train  # noqa: E402
from curveflow.velocity import VelocityField  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_tracer_installs_on_the_current_names():
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_fm_target_derivatives_are_traced():
    # the FM target takes its derivatives through pointwise_derivatives,
    # so the benchmark's schedules.pointwise_derivatives_ms measures it
    rng = np.random.default_rng(0)
    schedule = NeuralSchedule(hidden=8, embed=8, seed=0)
    model = VelocityField(2, seed=1, hidden=8, time_features=4)
    leaves = {n: Tensor(a) for n, a in
              {**model.params, **schedule.params}.items()}
    batch = (rng.standard_normal((4, 2)), rng.standard_normal((4, 2)),
             rng.random(4))
    tracer = Tracer()
    tracer.install()
    try:
        curve_fm_loss(batch, model, schedule, params=leaves)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert "schedules.pointwise_derivatives" in names


def test_regularizer_derivatives_are_traced():
    # the regularizer takes its derivatives through grid_derivatives, which
    # reaches the residual nets through residual_term; otherwise the
    # benchmark's schedules.grid_derivatives_ms and residual_points read 0
    schedule = NeuralSchedule(hidden=8, embed=8, seed=0)
    tracer = Tracer()
    tracer.install()
    try:
        losses.robust_curvature_loss(schedule, 0.1)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert "schedules.grid_derivatives" in names
    assert "schedules.residual_term" in names
    assert tracer.counts["residual_points"] > 0


def test_optimizer_and_backward_are_traced():
    # train calls backward and adamw_step through training's globals, which
    # the tracer wraps; otherwise training.adamw_ms and engine.backward_ms
    # read 0
    data = np.random.default_rng(0).standard_normal((8, 2))
    cfg = TrainConfig(epochs=2, batch_size=8, lam=0.01, grid_m=16, seed=0)
    model = VelocityField(2, seed=1, hidden=8, time_features=4)
    tracer = Tracer()
    tracer.install()
    try:
        train(cfg, data, NeuralSchedule(hidden=8, embed=8, seed=0), model)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("training.adamw_step") == 2
    assert names.count("engine.backward") == 2
