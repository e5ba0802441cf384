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
paper takes a Riemann sum. A training step reads both terms from one
``pointwise_derivatives`` call at the batch's t and the quadrature nodes;
``determinant_integral`` reads the nodes alone through ``grid_derivatives``.
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


def curve_fm_loss(batch, model, dg, params=None):
    """Schedule-weighted mean squared velocity-matching error over the batch.

    ``dg`` holds the schedule's fields at the batch's t, as a column. Row i
    carries the row weight of the module docstring, so the loss is invariant
    to rescaling the schedule by a smooth s(t). The weight is computed by true
    division, so it is exactly 1.0 on the linear schedule and on a zeroed
    neural one. With Tensor fields or ``params`` the result is a Tensor;
    gradients flow to the schedule through z_t, the target and the weight.
    """
    x0, eps, t = as_batch(batch)
    tc = t[:, None]
    z = dg.a * x0 + dg.b * eps
    u = dg.da * x0 + dg.db * eps
    v = model(z, t, params)
    w = (np.square(1.0 - tc) + np.square(tc)) / (square(dg.a) + square(dg.b))
    return (square(v - u) * w).sum() * (1.0 / x0.shape[0])


def determinant_profile(dg):
    """d_i = da_i ddb_i - db_i dda_i at the times of the fields ``dg``."""
    return dg.da * dg.ddb - dg.db * dg.dda


def robust_curvature_loss(dg, lam):
    """lambda times sum_i w_i d_i^2 from the fields ``dg`` at the Gauss-
    Legendre nodes, in a row or a column; not read when lambda is 0."""
    if lam < 0:
        raise ConfigError("lambda must be >= 0, got %g" % lam)
    if lam == 0:
        return 0.0
    d = determinant_profile(dg)
    return lam * (square(d) * quadrature()[1].reshape(d.shape)).sum()


def determinant_integral(schedule):
    """The integral of d(t)^2 over [0, 1]: the regularizer at lambda = 1."""
    return robust_curvature_loss(grid_derivatives(schedule), 1.0)


def total_loss_graph(batch, model, schedule, lam, params):
    """(fm, regularizer) terms, Tensors when ``params`` holds Tensors, from
    one schedule evaluation at the batch's t and, if lambda > 0, the nodes."""
    t = as_batch(batch)[2]
    times = np.concatenate([t, quadrature()[0]]) if lam > 0 else t
    dg, nodes = pointwise_derivatives(schedule, times[:, None], params), None
    if lam > 0:  # the batch's rows, then the nodes'
        dg, nodes = dg.rows(slice(t.size)), dg.rows(slice(t.size, None))
    return (curve_fm_loss(batch, model, dg, params),
            robust_curvature_loss(nodes, lam))
