"""Generation: integrate dz/dt = v(z, t) from noise (t=1) down to data (t=0)."""

import functools
import os
from dataclasses import dataclass

import numpy as np

from .datagen import sample_noise
from .errors import ConfigError, DivergenceError
from .velocity import VelocityField

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class SolverConfig:
    method: str = "heun"
    steps: int = 50

    def validate(self):
        if self.method not in ("euler", "heun"):
            raise ConfigError("unknown solver method %r" % self.method)
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        return self


def integrate(velocity, z_start, config):
    """Integrate t: 1 -> 0 with Euler or Heun (trapezoidal) steps.

    ``velocity`` is any callable (z, t) -> dz/dt, read only at t = j/n;
    z may be a single point or a batch (rows are integrated independently).
    """
    config.validate()
    z = np.array(z_start, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ConfigError("z_start must be finite")
    n = config.steps
    h = 1.0 / n
    for k in range(n):
        t = (n - k) / n
        v1 = np.asarray(velocity(z, t), dtype=float)
        z_next = z - h * v1
        # Heun's corrector needs a finite predictor; an overflowed one is
        # reported below as divergence, like an overflowed step
        if config.method == "heun" and np.all(np.isfinite(z_next)):
            v2 = np.asarray(velocity(z_next, (n - k - 1) / n), dtype=float)
            z_next = z - 0.5 * h * (v1 + v2)
        z = z_next
        if not np.all(np.isfinite(z)):
            raise DivergenceError("sampling diverged at step %d" % k, step=k)
    return z


def sample_batch(model, count, dim, seed, config):
    """Draw seeded Gaussian noise and integrate each point to t=0, in
    ceil(count / 1024) row blocks that start at multiples of 16 rows, so the
    bits do not depend on the core count. The blocks run on threads when
    BLAS's threads (every CPU, unless a BLAS variable is set) leave CPUs."""
    eps = sample_noise(count, dim, seed)
    blocks = -(-count // 1024)
    cuts = [16 * (count * i // blocks // 16) for i in range(blocks)] + [count]
    blas = next((os.environ[v] for v in BLAS_VARS if v in os.environ), "")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    blas = int(blas) if blas.isdigit() and int(blas) > 0 else cpus
    workers = min(blocks, cpus // blas)
    field = lambda: model
    if isinstance(model, VelocityField):
        # a float32 network, cast once, with hidden buffers made once per
        # block; integrate keeps z, the steps and the checks in float64
        params = {k: v.astype(np.float32) for k, v in model.params.items()}
        field = lambda: functools.partial(model, params=params, scratch={})

    def run(start, stop):
        try:
            return integrate(field(), eps[start:stop], config)
        except DivergenceError as exc:  # raised below at the earliest step
            return exc
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # loads with a pool
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(run, cuts, cuts[1:]))
    else:
        parts = list(map(run, cuts, cuts[1:]))
    diverged = [p for p in parts if isinstance(p, DivergenceError)]
    if diverged:
        raise min(diverged, key=lambda exc: exc.step)
    return np.concatenate(parts)
