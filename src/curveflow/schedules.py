"""Interpolant coefficient schedules a(t), b(t) on [0, 1].

Boundary conditions a(0)=1, b(0)=0, a(1)=0, b(1)=1 are enforced by
construction: the neural variant writes

    a(t) = (1 - t) + t (1 - t) f(t)
    b(t) = t + t (1 - t) g(t)

so they hold to machine equality for any residual-network parameters, and
zeroing the residual networks recovers the linear (rectified-flow)
schedule exactly. Every kind's derivatives are exact: closed forms for
the analytic kinds, Taylor-mode jets (value, d/dt, d^2/dt^2) pushed
through the residual networks for the neural kind (Griewank & Walther,
Evaluating Derivatives, 2nd ed., ch. 13).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .datagen import philox
from .engine import take, tanh_jet
from .errors import ConfigError

_HALF_PI = 0.5 * np.pi


@functools.cache
def quadrature():
    """(nodes, weights) of the regularizer's 64-node Gauss-Legendre rule on
    [0, 1] (Golub & Welsch, Math. Comp. 1969), exact to degree 127. Built
    on first use: its eigensolver adds ~1 MiB to a process's peak memory."""
    x, w = np.polynomial.legendre.leggauss(64)
    return 0.5 * (x + 1.0), 0.5 * w


def sinusoidal_features(t, width):
    """Fixed sin/cos embedding of scalar time, shape (len(t), width)."""
    if width % 2 != 0:
        raise ConfigError("embedding width must be even, got %d" % width)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    freqs = (2.0 ** np.arange(width // 2)) * np.pi
    ang = np.outer(t, freqs)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def xavier_layers(rng, prefix, widths, zero_last=False):
    """An MLP's parameters "<prefix>/w<i>", "<prefix>/b<i>" for the layer
    widths ``widths``: Xavier-uniform weights, +-sqrt(6/(fan_in+fan_out)),
    drawn from ``rng`` layer by layer, and zero biases. ``zero_last`` zeroes
    the output layer's weights instead of drawing them."""
    params = {}
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = (np.zeros((fan_in, fan_out)) if zero_last and i == len(widths) - 2
             else rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        params["%s/w%d" % (prefix, i)] = w
        params["%s/b%d" % (prefix, i)] = np.zeros(fan_out)
    return params


def _feature_jets(t, width):
    """sinusoidal_features of t stacked over its d/dt and d^2/dt^2 rows."""
    v = sinusoidal_features(t, width)
    half = width // 2
    w = np.tile((2.0 ** np.arange(half)) * np.pi, 2)
    d1 = np.concatenate([v[:, half:], -v[:, :half]], axis=1) * w
    return np.concatenate([v, d1, -(w * w) * v])


@dataclass
class DerivativeGrid:
    """a, b and their first and second derivatives at a set of times.

    Fields are arrays over the times, or Tensors when the schedule was
    evaluated with Tensor parameters.
    """

    a: object
    b: object
    da: object
    db: object
    dda: object
    ddb: object

    def rows(self, index):
        """The fields' rows ``index``, a basic index, taken on the tape."""
        return DerivativeGrid(*(take(f, index) for f in vars(self).values()))


class CoefficientSchedule:
    """Base class. Each kind gives one table, ``fields(t, params=None)``:
    (a, b, da, db, dda, ddb) at a float array t already checked to lie in
    [0, 1]. ``derivatives``, a(t) and b(t) follow from it.
    """

    kind = "abstract"

    def __init__(self):
        self.params = {}

    def a(self, t):
        return self.derivatives(t).a

    def b(self, t):
        return self.derivatives(t).b

    def fields(self, t, params=None):
        raise NotImplementedError

    def derivatives(self, t, params=None):
        """Exact DerivativeGrid at the times t in [0, 1], shaped like t."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValueError("t must lie in [0, 1]")
        return DerivativeGrid(*self.fields(t, params))


class LinearSchedule(CoefficientSchedule):
    """Rectified flow: a = 1 - t, b = t."""

    kind = "linear"

    @staticmethod
    def fields(t, params=None):
        return (1.0 - t, t + 0.0, -np.ones_like(t), np.ones_like(t),
                np.zeros_like(t), np.zeros_like(t))


class TrigSchedule(CoefficientSchedule):
    """a = cos(pi t / 2), b = sin(pi t / 2): quarter-circle in (a, b)."""

    kind = "trigonometric"

    @staticmethod
    def fields(t, params=None):
        c, s = np.cos(_HALF_PI * t), np.sin(_HALF_PI * t)
        return (c, s, -_HALF_PI * s, _HALF_PI * c,
                -_HALF_PI ** 2 * c, -_HALF_PI ** 2 * s)


class PolynomialSchedule(CoefficientSchedule):
    """a = (1 - t)^2, b = t^2; constant determinant d = -4."""

    kind = "polynomial"

    @staticmethod
    def fields(t, params=None):
        return ((1.0 - t) ** 2, t ** 2, -2.0 * (1.0 - t), 2.0 * t,
                2.0 * np.ones_like(t), 2.0 * np.ones_like(t))


class NeuralSchedule(CoefficientSchedule):
    """Learnable schedule with 3-layer residual MLPs f and g.

    Parameter names are prefixed "a/" and "b/". The residual MLPs read a
    fixed sinusoidal embedding of t, use tanh activations, and output a
    scalar. The output layer is initialized to zero so a fresh schedule
    starts exactly at the linear one.
    """

    kind = "neural"

    def __init__(self, hidden=64, embed=8, seed=0):
        super().__init__()
        self.embed = embed
        rng = philox(seed)
        widths = (embed, hidden, hidden, 1)
        self.params = {**xavier_layers(rng, "a", widths, zero_last=True),
                       **xavier_layers(rng, "b", widths, zero_last=True)}

    def residual_term(self, prefix, t, params=None):
        """Jets (r, dr/dt, d^2r/dt^2) of r = t (1 - t) f(t), the part of a/b
        beyond the linear base, each shaped like the times t. Each hidden
        layer is one matmul and one tanh_jet over the jets stacked as 3n rows.
        """
        p = self.params if params is None else params
        t = np.asarray(t, dtype=float)
        x = _feature_jets(t, self.embed)
        for layer in (0, 1):
            x = tanh_jet(x @ p["%s/w%d" % (prefix, layer)],
                         p["%s/b%d" % (prefix, layer)])
        out = (x @ p["%s/w2" % prefix]).reshape((3,) + t.shape)
        # the (1,)-shaped bias made 0-d, so a scalar t gives 0-d jets
        f = take(out, 0) + p["%s/b2" % prefix].reshape(())
        df, ddf = take(out, 1), take(out, 2)
        q, dq = t * (1.0 - t), 1.0 - 2.0 * t
        return q * f, dq * f + q * df, -2.0 * f + (2.0 * dq) * df + q * ddf

    def fields(self, t, params=None):
        # with zeroed residual nets this is the linear schedule exactly
        ra, dra, ddra = self.residual_term("a", t, params)
        rb, drb, ddrb = self.residual_term("b", t, params)
        return ((1.0 - t) + ra, (t + 0.0) + rb, -1.0 + dra, 1.0 + drb,
                ddra, ddrb)


_ANALYTIC = {cls.kind: cls
             for cls in (LinearSchedule, TrigSchedule, PolynomialSchedule)}
KINDS = (NeuralSchedule.kind,) + tuple(_ANALYTIC)


def make_schedule(kind, **kwargs):
    if kind == NeuralSchedule.kind:
        return NeuralSchedule(**kwargs)
    try:
        return _ANALYTIC[kind]()
    except KeyError:
        raise ConfigError("unknown schedule kind %r" % kind) from None


def pointwise_derivatives(schedule, t, params=None):
    """DerivativeGrid at the times t, shaped like t."""
    return schedule.derivatives(t, params)


def grid_derivatives(schedule):
    """DerivativeGrid at the regularizer's Gauss-Legendre nodes alone."""
    return schedule.derivatives(quadrature()[0])
