"""Interpolant coefficient schedules a(t), b(t) on [0, 1].

Boundary conditions a(0)=1, b(0)=0, a(1)=0, b(1)=1 are enforced by
construction: the neural variant writes

    a(t) = (1 - t) + t (1 - t) f(t)
    b(t) = t + t (1 - t) g(t)

so they hold to machine equality for any residual-network parameters, and
zeroing the residual networks recovers the linear (rectified-flow)
schedule exactly.
"""

from dataclasses import dataclass

import numpy as np

from .engine import ParameterSet, take, tanh, value_of
from .errors import ConfigError, DomainError

_HALF_PI = 0.5 * np.pi
TARGET_STEP = 1e-3  # difference step of the neural flow-matching target


def sinusoidal_features(t, width):
    """Fixed sin/cos embedding of scalar time, shape (len(t), width)."""
    if width % 2 != 0:
        raise ConfigError("embedding width must be even, got %d" % width)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    freqs = (2.0 ** np.arange(width // 2)) * np.pi
    ang = np.outer(t, freqs)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@dataclass(frozen=True)
class GridSpec:
    """Uniform Riemann grid t_i = i/m, i = 0..m."""

    m: int = 1000

    def __post_init__(self):
        if self.m < 4:
            raise ConfigError("grid size m must be >= 4, got %d" % self.m)

    @property
    def dt(self):
        return 1.0 / self.m

    @property
    def nodes(self):
        return np.arange(self.m + 1) / self.m

    @property
    def interior(self):
        return self.nodes[1:-1]


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


def _check_domain(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise DomainError("t must lie in [0, 1]")
    return t


class CoefficientSchedule:
    """Base class; subclasses provide the derivatives, a(t) and b(t) follow."""

    kind = "abstract"

    def __init__(self):
        self.params = ParameterSet({})

    def a(self, t, params=None):
        return pointwise_derivatives(self, t, params).a

    def b(self, t, params=None):
        return pointwise_derivatives(self, t, params).b

    def derivatives(self, nodes, h, params=None):
        """DerivativeGrid at ``nodes[1:-1]`` along axis 0, whose neighbours
        along axis 0 lie ``h`` before and after them."""
        raise NotImplementedError


class _AnalyticSchedule(CoefficientSchedule):
    """Closed-form schedule; its derivatives are exact and ignore ``h``.

    Each kind gives one table, ``fields(t)``: (a, b, da, db, dda, ddb) at
    a float array t already checked to lie in [0, 1].
    """

    @staticmethod
    def fields(t):
        raise NotImplementedError

    def derivatives(self, nodes, h, params=None):
        return DerivativeGrid(*self.fields(_check_domain(nodes[1:-1])))


class LinearSchedule(_AnalyticSchedule):
    """Rectified flow: a = 1 - t, b = t."""

    kind = "linear"

    @staticmethod
    def fields(t):
        return (1.0 - t, t + 0.0, -np.ones_like(t), np.ones_like(t),
                np.zeros_like(t), np.zeros_like(t))


class TrigSchedule(_AnalyticSchedule):
    """a = cos(pi t / 2), b = sin(pi t / 2): quarter-circle in (a, b)."""

    kind = "trigonometric"

    @staticmethod
    def fields(t):
        c, s = np.cos(_HALF_PI * t), np.sin(_HALF_PI * t)
        return (c, s, -_HALF_PI * s, _HALF_PI * c,
                -_HALF_PI ** 2 * c, -_HALF_PI ** 2 * s)


class PolynomialSchedule(_AnalyticSchedule):
    """a = (1 - t)^2, b = t^2; constant determinant d = -4."""

    kind = "polynomial"

    @staticmethod
    def fields(t):
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
        self.hidden = hidden
        self.embed = embed
        rng = np.random.Generator(np.random.Philox(key=seed))
        entries = {}
        for prefix in ("a", "b"):
            dims = [(embed, hidden), (hidden, hidden), (hidden, 1)]
            for layer, (fan_in, fan_out) in enumerate(dims):
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                if layer == len(dims) - 1:
                    w = np.zeros((fan_in, fan_out))
                else:
                    w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
                entries["%s/w%d" % (prefix, layer)] = w
                entries["%s/b%d" % (prefix, layer)] = np.zeros(fan_out)
        self.params = ParameterSet(entries)

    def _residual_net(self, prefix, t, p):
        feats = sinusoidal_features(value_of(t), self.embed)
        h = tanh(feats @ p["%s/w0" % prefix] + p["%s/b0" % prefix])
        h = tanh(h @ p["%s/w1" % prefix] + p["%s/b1" % prefix])
        out = h @ p["%s/w2" % prefix] + p["%s/b2" % prefix]
        return out.reshape(t.shape)

    def residual_term(self, prefix, t, params=None):
        """t (1 - t) f(t) — the part of a/b beyond the linear base."""
        p = self.params if params is None else params
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (t * (1.0 - t)) * self._residual_net(prefix, t, p)

    def derivatives(self, nodes, h, params=None):
        # The linear base is differentiated exactly; the residual term takes
        # one central difference: each residual net runs once over all nodes
        # and the -h/0/+h values are its slices. t (1 - t) f(t) is smooth
        # past 0 and 1, so the outer nodes may lie outside [0, 1]. With
        # zeroed residual nets this is the linear schedule exactly.
        t = _check_domain(nodes[1:-1])
        ra = _stencil(self.residual_term("a", nodes, params))
        rb = _stencil(self.residual_term("b", nodes, params))
        inv2 = 1.0 / (2.0 * h)
        invsq = 1.0 / (h * h)
        return DerivativeGrid(
            (1.0 - t) + ra[1],
            (t + 0.0) + rb[1],
            -1.0 + (ra[2] - ra[0]) * inv2,
            1.0 + (rb[2] - rb[0]) * inv2,
            (ra[2] - 2.0 * ra[1] + ra[0]) * invsq,
            (rb[2] - 2.0 * rb[1] + rb[0]) * invsq,
        )


def _stencil(r):
    """Values of ``r`` at nodes i - 1, i, i + 1 for every middle node i."""
    return (take(r, slice(None, -2)), take(r, slice(1, -1)),
            take(r, slice(2, None)))


_KINDS = {
    "linear": LinearSchedule,
    "trigonometric": TrigSchedule,
    "polynomial": PolynomialSchedule,
}


def make_schedule(kind, **kwargs):
    if kind == "neural":
        return NeuralSchedule(**kwargs)
    try:
        return _KINDS[kind]()
    except KeyError:
        raise ConfigError("unknown schedule kind %r" % kind) from None


def pointwise_derivatives(schedule, t, params=None):
    """DerivativeGrid at the flow-matching target's times t, shaped like t.

    Analytic kinds give closed forms. The neural schedule steps by
    TARGET_STEP, whatever the regularizer's grid: its nodes are the rows
    t - h, t, t + h.
    """
    t = np.asarray(t, dtype=float)
    h = TARGET_STEP
    dg = schedule.derivatives(np.stack([t - h, t, t + h]), h, params)
    return DerivativeGrid(*(f.reshape(t.shape) for f in vars(dg).values()))


def grid_derivatives(schedule, grid, params=None):
    """DerivativeGrid at the interior grid nodes.

    Analytic kinds give closed forms. The neural schedule differences its
    residual over the grid nodes, with the grid spacing as step: a fixed
    1e-3 leaves enough roundoff in its second differences to fail the
    finite-difference gradient check on a 16-node grid.
    """
    return schedule.derivatives(grid.nodes, grid.dt, params)
