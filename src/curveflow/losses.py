"""Flow-matching data loss and robust curvature regularizer.

The data term is a weighted mean over the batch of the squared (summed
over dimensions) error between the velocity field and the schedule's
instantaneous velocity target da(t) x0 + db(t) eps. Row i carries the
weight

    w_i = ((1 - t_i)^2 + t_i^2) / (a(t_i)^2 + b(t_i)^2)

Rescaling the schedule to s(t) (a, b) multiplies the conditional variance
of the target given z_t -- the part of the error no velocity field can
remove -- by s^2; the weight divides it back out, so the loss cannot be
lowered by shrinking the interpolant toward the origin (compare the
schedule invariance of VDM, Kingma et al., arXiv:2107.00630). The weight
is 1.0 exactly on the linear schedule, so rectified flow keeps the plain
flow-matching loss bit for bit. On a fixed non-linear schedule it is a
timestep weighting ((1 - t)^2 + t^2 on the trig schedule) that leaves the
optimal velocity field unchanged. This weight is a deviation from the
paper's unweighted loss. The regularizer is

    lambda * sum_i w_i (da_i ddb_i - db_i dda_i)^2

the 64-node Gauss-Legendre rule (nodes t_i, weights w_i on [0, 1]) for
lambda times the integral of the squared determinant over [0, 1]; the
paper takes a Riemann sum. Both terms read the schedule's exact
derivatives through its one ``derivatives`` method: the data term by
``pointwise_derivatives`` at the batch's t, the regularizer by
``grid_derivatives`` at the quadrature nodes.
"""

from dataclasses import dataclass

import numpy as np

from .engine import square
from .errors import ConfigError
from .schedules import grid_derivatives, pointwise_derivatives, quadrature


@dataclass
class LossReport:
    step: int
    fm_loss: float
    curvature_loss: float
    total: float
    lr: float = 0.0


def as_batch(batch):
    """Normalize a 3-tuple (x0, eps, t) to float arrays of matching rows."""
    x0, eps, t = batch
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    eps = np.atleast_2d(np.asarray(eps, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if x0.shape[0] == 0:
        raise ConfigError("empty batch")
    if x0.shape != eps.shape or x0.shape[0] != t.shape[0]:
        raise ConfigError("inconsistent batch shapes: x0 %s, eps %s, t %s"
                          % (x0.shape, eps.shape, t.shape))
    return x0, eps, t


def curve_fm_loss(batch, model, schedule, params=None):
    """Schedule-weighted mean squared velocity-matching error over the batch.

    Row i is weighted by w_i = ((1 - t_i)^2 + t_i^2) / (a(t_i)^2 + b(t_i)^2)
    (see the module docstring), so the loss is invariant to rescaling the
    schedule by a smooth s(t). The weight is computed by true division, so
    it is exactly 1.0 on the linear schedule and on a zeroed neural one.
    a, b and the target's first derivatives come from one call to
    ``pointwise_derivatives``.

    When ``params`` holds engine Tensors the result is a Tensor and
    gradients flow to the model and, through z_t, the target and the
    weight, to the schedule.
    """
    x0, eps, t = as_batch(batch)
    if params is None:
        params = {**model.params, **schedule.params}
    tc = t[:, None]  # the fields come as columns over the batch's rows
    dg = pointwise_derivatives(schedule, tc, params)
    z = dg.a * x0 + dg.b * eps
    u = dg.da * x0 + dg.db * eps
    v = model(z, t, params)
    w = (np.square(1.0 - tc) + np.square(tc)) / (square(dg.a) + square(dg.b))
    return (square(v - u) * w).sum() * (1.0 / x0.shape[0])


def determinant_profile(deriv_grid):
    """d_i = da_i ddb_i - db_i dda_i at the nodes of ``deriv_grid``."""
    return (deriv_grid.da * deriv_grid.ddb
            - deriv_grid.db * deriv_grid.dda)


def determinant_integral(schedule, params=None):
    """sum_i w_i d_i^2 at the Gauss-Legendre nodes: the squared determinant
    integrated over [0, 1]."""
    d = determinant_profile(grid_derivatives(schedule, params))
    return (square(d) * quadrature()[1]).sum()


def robust_curvature_loss(schedule, lam, params=None):
    """lambda times the determinant integral at the quadrature nodes."""
    if lam < 0:
        raise ConfigError("lambda must be >= 0, got %g" % lam)
    if lam == 0:
        return 0.0
    return lam * determinant_integral(schedule, params)


def total_loss_graph(batch, model, schedule, lam, params):
    """(fm, regularizer) terms, Tensors when ``params`` holds Tensors."""
    fm = curve_fm_loss(batch, model, schedule, params=params)
    reg = robust_curvature_loss(schedule, lam, params=params)
    return fm, reg
