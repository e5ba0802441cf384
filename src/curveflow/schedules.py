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

from . import engine
from .engine import ParameterSet, tanh, value_of
from .errors import ConfigError, DomainError

_HALF_PI = 0.5 * np.pi


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
    """First/second schedule derivatives at the interior grid nodes."""

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
    """Base class; subclasses provide a(t), b(t) and their first derivatives."""

    kind = "abstract"
    has_exact_derivatives = False

    def __init__(self):
        self.params = ParameterSet({})

    def a(self, t, params=None):
        raise NotImplementedError

    def b(self, t, params=None):
        raise NotImplementedError

    def first_derivatives(self, t, h=1e-3, params=None):
        """(da/dt, db/dt) at t; ``h`` is the step of a finite difference."""
        raise NotImplementedError


class _AnalyticSchedule(CoefficientSchedule):
    has_exact_derivatives = True

    def first_derivatives(self, t, h=1e-3, params=None):
        t = _check_domain(t)
        return self.da(t), self.db(t)


class LinearSchedule(_AnalyticSchedule):
    """Rectified flow: a = 1 - t, b = t."""

    kind = "linear"

    def a(self, t, params=None):
        return 1.0 - _check_domain(t)

    def b(self, t, params=None):
        return _check_domain(t) + 0.0

    def da(self, t):
        return -np.ones_like(np.asarray(t, dtype=float))

    def db(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def dda(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    ddb = dda


class TrigSchedule(_AnalyticSchedule):
    """a = cos(pi t / 2), b = sin(pi t / 2): quarter-circle in (a, b)."""

    kind = "trigonometric"

    def a(self, t, params=None):
        return np.cos(_HALF_PI * _check_domain(t))

    def b(self, t, params=None):
        return np.sin(_HALF_PI * _check_domain(t))

    def da(self, t):
        return -_HALF_PI * np.sin(_HALF_PI * np.asarray(t, dtype=float))

    def db(self, t):
        return _HALF_PI * np.cos(_HALF_PI * np.asarray(t, dtype=float))

    def dda(self, t):
        return -_HALF_PI ** 2 * np.cos(_HALF_PI * np.asarray(t, dtype=float))

    def ddb(self, t):
        return -_HALF_PI ** 2 * np.sin(_HALF_PI * np.asarray(t, dtype=float))


class PolynomialSchedule(_AnalyticSchedule):
    """a = (1 - t)^2, b = t^2; constant determinant d = -4."""

    kind = "polynomial"

    def a(self, t, params=None):
        return (1.0 - _check_domain(t)) ** 2

    def b(self, t, params=None):
        return _check_domain(t) ** 2

    def da(self, t):
        return -2.0 * (1.0 - np.asarray(t, dtype=float))

    def db(self, t):
        return 2.0 * np.asarray(t, dtype=float)

    def dda(self, t):
        return 2.0 * np.ones_like(np.asarray(t, dtype=float))

    ddb = dda


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
        return out.reshape(np.atleast_1d(np.asarray(t, float)).shape)

    def residual_term(self, prefix, t, params=None):
        """t (1 - t) f(t) — the part of a/b beyond the linear base."""
        p = self.params if params is None else params
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (t * (1.0 - t)) * self._residual_net(prefix, t, p)

    def _eval(self, prefix, base, t, params):
        t_in = _check_domain(t)
        scalar = np.ndim(t_in) == 0
        t1 = np.atleast_1d(t_in)
        out = base(t1) + self.residual_term(prefix, t1, params)
        if scalar and not isinstance(out, engine.Tensor):
            return float(out[0])
        return out

    def a(self, t, params=None):
        return self._eval("a", lambda t1: 1.0 - t1, t, params)

    def b(self, t, params=None):
        return self._eval("b", lambda t1: t1 + 0.0, t, params)

    def first_derivatives(self, t, h=1e-3, params=None):
        # The linear base is differentiated exactly; only the residual term
        # goes through clamped differences. With zeroed residual nets this
        # returns (-1, 1) exactly, matching the linear schedule.
        t = np.atleast_1d(_check_domain(t))
        tp = np.minimum(t + h, 1.0)
        tm = np.maximum(t - h, 0.0)
        inv = 1.0 / (tp - tm)
        da = -1.0 + (self.residual_term("a", tp, params)
                     - self.residual_term("a", tm, params)) * inv
        db = 1.0 + (self.residual_term("b", tp, params)
                    - self.residual_term("b", tm, params)) * inv
        return da, db


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


def pointwise_derivatives(schedule, t, h=1e-3, params=None):
    """(da/dt, db/dt) at t: exact for analytic kinds, differences otherwise."""
    if h <= 0:
        raise ConfigError("step h must be positive")
    return schedule.first_derivatives(t, h=h, params=params)


def grid_derivatives(schedule, grid, exact=False, params=None):
    """Central-difference derivative arrays at the interior grid nodes.

    da_i = (a_{i+1} - a_{i-1}) / (2 dt),
    dda_i = (a_{i+1} - 2 a_i + a_{i-1}) / dt^2, same for b. With
    ``exact=True`` analytic schedules substitute closed forms.
    """
    nodes = grid.nodes
    dt = grid.dt
    if exact:
        if not schedule.has_exact_derivatives:
            raise ConfigError("schedule kind %r has no exact derivatives"
                              % schedule.kind)
        ti = grid.interior
        return DerivativeGrid(schedule.da(ti), schedule.db(ti),
                              schedule.dda(ti), schedule.ddb(ti))
    am = schedule.a(nodes[:-2], params)
    a0 = schedule.a(nodes[1:-1], params)
    ap = schedule.a(nodes[2:], params)
    bm = schedule.b(nodes[:-2], params)
    b0 = schedule.b(nodes[1:-1], params)
    bp = schedule.b(nodes[2:], params)
    inv2 = 1.0 / (2.0 * dt)
    invsq = 1.0 / (dt * dt)
    return DerivativeGrid(
        (ap - am) * inv2,
        (bp - bm) * inv2,
        (ap - 2.0 * a0 + am) * invsq,
        (bp - 2.0 * b0 + bm) * invsq,
    )
