"""Trainable velocity field v(z, t) for low-dimensional data.

A SiLU MLP (3 hidden layers, default width 128) on [z, time-embedding].
Parameter names are prefixed "v/" so the field's parameters can share one
dict with a neural schedule's during training.
"""

import numpy as np

from .datagen import philox
from .engine import Tensor, concat, sigmoid, silu, value_of
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

    @staticmethod
    def dim_of(params):
        """The data dim ``params`` hold weights for: the output bias's
        length (2 if it is missing; the shape check then rejects them)."""
        return np.size(params.get("v/b3", ())) or 2

    def __call__(self, z, t, params=None, scratch=None):
        """Velocity at the rows of z, (batch, dim); t is scalar or (batch,).
        With no Tensor among z and the parameters it runs on plain arrays in
        the parameters' dtype; a ``scratch`` dict keeps the hidden buffers
        for the caller's later calls."""
        p = self.params if params is None else params
        # a scalar t's features are computed once and broadcast over the rows
        feats = sinusoidal_features(t, self.time_features)
        feats = np.broadcast_to(feats, (len(value_of(z)), feats.shape[1]))
        if any(isinstance(a, Tensor) for a in (z, *p.values())):
            h = concat(z, feats)
            for i in range(3):
                h = silu(h @ p["v/w%d" % i] + p["v/b%d" % i])
        else:
            # the input rows in the parameters' dtype, and two buffers of it:
            # the sigmoid borrows the one the next matmul writes
            h = np.concatenate([z, feats], axis=1, dtype=p["v/w0"].dtype)
            shape = (2, len(h), p["v/w0"].shape[1])
            scratch = {} if scratch is None else scratch
            if shape not in scratch:
                scratch[shape] = np.empty(shape, h.dtype)
            out, spare = scratch[shape]
            for i in range(3):
                h = np.matmul(h, p["v/w%d" % i], out=out)
                h += p["v/b%d" % i]
                h *= sigmoid(h, spare)
                out, spare = spare, out
        return h @ p["v/w3"] + p["v/b3"]
