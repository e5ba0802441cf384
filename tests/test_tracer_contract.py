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


def _traced(run):
    """The tracer after ``run()`` with it installed."""
    tracer = Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer


def _traced_neural_step(lam):
    """The tracer after one neural loss graph on a batch of 4 rows."""
    rng = np.random.default_rng(0)
    schedule = NeuralSchedule(hidden=8, embed=8, seed=0)
    model = VelocityField(2, seed=1, hidden=8, time_features=4)
    leaves = {n: Tensor(a) for n, a in
              {**model.params, **schedule.params}.items()}
    step = (rng.standard_normal((4, 2)), rng.standard_normal((4, 2)),
            rng.random(4))
    return _traced(lambda: losses.total_loss_graph(step, model, schedule,
                                                   lam, leaves))


def test_fm_target_derivatives_are_traced():
    # a training step reads the schedule once, through pointwise_derivatives
    # at the batch's t followed by the 64 quadrature nodes, so the
    # benchmark's schedules.pointwise_derivatives_ms measures it and
    # residual_points counts both residual nets over those rows
    tracer = _traced_neural_step(0.1)
    names = [span[0] for span in tracer.spans]
    assert names.count("schedules.pointwise_derivatives") == 1
    assert names.count("schedules.residual_term") == 2
    assert tracer.counts["residual_points"] == 2 * (4 + 64)
    assert names.count("losses.curve_fm_loss") == 1
    # at lambda = 0 the step reads the batch's t alone
    tracer = _traced_neural_step(0.0)
    names = [span[0] for span in tracer.spans]
    assert names.count("schedules.pointwise_derivatives") == 1
    assert tracer.counts["residual_points"] == 2 * 4


def test_regularizer_derivatives_are_traced():
    # the regularizer reads the nodes' rows of the step's one evaluation,
    # so a step calls no grid_derivatives; the diagnostics' determinant
    # integral reads the nodes alone through grid_derivatives, which
    # reaches the residual nets through residual_term
    names = [span[0] for span in _traced_neural_step(0.1).spans]
    assert names.count("losses.robust_curvature_loss") == 1
    assert "schedules.grid_derivatives" not in names
    schedule = NeuralSchedule(hidden=8, embed=8, seed=0)
    tracer = _traced(lambda: losses.determinant_integral(schedule))
    names = [span[0] for span in tracer.spans]
    assert names.count("schedules.grid_derivatives") == 1
    assert names.count("schedules.residual_term") == 2
    assert tracer.counts["residual_points"] == 2 * 64


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
