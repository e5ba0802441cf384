"""Seeded synthetic 2D datasets and the Gaussian noise source.

All generators are pure functions of their spec: randomness comes from a
counter-based Philox stream keyed by the seed, and normals are that
stream's own ``standard_normal`` (numpy's ziggurat, whose few libm calls
are scalar), so outputs are identical across runs and do not depend on
numpy's SIMD dispatch.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError


@dataclass
class DatasetSpec:
    kind: str = "gaussians8"
    count: int = 2000
    seed: int = 0
    noise_std: float = 0.1

    def validate(self):
        if self.kind not in KINDS:
            raise ConfigError("unknown dataset kind %r" % self.kind)
        if self.count < 1:
            raise ConfigError("count must be >= 1")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError("noise_std must be finite and >= 0")
        return self


def check_seed(seed, where=None):
    """``seed`` if it is a Philox key, in [0, 2**128); else ConfigError,
    naming the config field ``where`` when one is given."""
    if not 0 <= seed < 2 ** 128:
        raise ConfigError("seed must lie in [0, 2**128), got %d%s"
                          % (seed, " (%s)" % where if where else ""))
    return seed


def philox(seed):
    """The Philox stream keyed by ``seed``: every seeded draw starts here."""
    return np.random.Generator(np.random.Philox(key=check_seed(seed)))


def sample_noise(count, dim, seed):
    """i.i.d. standard-normal points, shape (count, dim)."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    if dim < 1:
        raise ConfigError("dim must be >= 1")
    return philox(seed).standard_normal((count, dim))


def _gaussians8(rng, n):
    comp = rng.integers(0, 8, size=n)
    ang = 2.0 * np.pi * comp / 8.0
    return 4.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _two_moons(rng, n):
    n_out = n // 2
    n_in = n - n_out
    th_out = np.pi * rng.random(n_out)
    th_in = np.pi * rng.random(n_in)
    outer = np.stack([np.cos(th_out), np.sin(th_out)], axis=1)
    inner = np.stack([1.0 - np.cos(th_in), 0.5 - np.sin(th_in)], axis=1)
    return 2.0 * np.concatenate([outer, inner])


def _checkerboard(rng, n):
    x1 = rng.random(n) * 4.0 - 2.0
    x2 = rng.random(n) - rng.integers(0, 2, size=n) * 2.0
    x2 = x2 + np.floor(x1) % 2
    return np.stack([x1, x2], axis=1) * 2.0


def _spiral(rng, n):
    th = 3.0 * np.pi * np.sqrt(rng.random(n))
    r = th / (3.0 * np.pi) * 4.0
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


_GENERATORS = {
    "gaussians8": _gaussians8,
    "two_moons": _two_moons,
    "checkerboard": _checkerboard,
    "spiral": _spiral,
}
KINDS = tuple(_GENERATORS)


def generate(spec):
    """Points for the spec, shape (count, 2): the kind's shape draws, then
    noise_std times ``standard_normal`` draws from the same Philox stream."""
    spec.validate()
    rng, n = philox(spec.seed), spec.count
    pts = _GENERATORS[spec.kind](rng, n)
    return pts + spec.noise_std * rng.standard_normal((n, 2))


def generate_split(spec):
    """(train, held_out) of spec.count each: 2*count points split by parity."""
    pts = generate(replace(spec, count=2 * spec.count))
    return pts[0::2], pts[1::2]


def export_csv(path, points):
    """One row per point, one column per coordinate: the header is ``x,y``
    for 2-D points and ``x0,x1,...`` for any other width."""
    points = np.asarray(points, dtype=float)
    header = ",".join("x%d" % i for i in range(points.shape[1]))
    with open(path, "w") as fh:
        fh.write(("x,y" if header == "x0,x1" else header) + "\n")
        for row in points.tolist():
            fh.write(",".join(map(repr, row)) + "\n")
