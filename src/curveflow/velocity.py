"""Trainable velocity field v(z, t) for low-dimensional data.

A SiLU MLP (3 hidden layers, default width 128) on [z, time-embedding].
Parameter names are prefixed "v/" so the field's parameters can share one
dict with a neural schedule's during training.
"""

import numpy as np

from .datagen import philox
from .engine import concat, silu, value_of
from .errors import ConfigError
from .schedules import sinusoidal_features, xavier_layers


class VelocityField:
    """The MLP v(z, t): Xavier-uniform weights drawn from the Philox stream
    keyed by ``seed``, zero biases."""

    def __init__(self, dim, hidden=128, time_features=16, seed=0):
        if dim < 1:
            raise ConfigError("dim must be >= 1")
        self.dim = dim
        self.time_features = time_features
        widths = (dim + time_features, hidden, hidden, hidden, dim)
        self.params = xavier_layers(philox(seed), "v", widths)

    def __call__(self, z, t, params=None):
        """Velocity at the rows of z, (batch, dim); t is scalar or (batch,)."""
        p = self.params if params is None else params
        t = np.broadcast_to(np.asarray(t, dtype=float), value_of(z).shape[:1])
        temb = sinusoidal_features(t, self.time_features)
        h = concat(z, temb, axis=1)
        h = silu(h @ p["v/w0"] + p["v/b0"])
        h = silu(h @ p["v/w1"] + p["v/b1"])
        h = silu(h @ p["v/w2"] + p["v/b2"])
        return h @ p["v/w3"] + p["v/b3"]
