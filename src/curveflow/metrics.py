"""Distributional distances and schedule geometry diagnostics.

Energy distance and sliced Wasserstein stand in for featurizer-based image
metrics: both are exact on 2D point clouds and need no pretrained models.

The curvature of the interpolant trajectory z(t) = a(t) x0 + b(t) eps is

    kappa(t) = |da ddb - db dda| * ||x0 x eps|| / speed^3

with speed^2 = da^2 ||x0||^2 + 2 da db (x0 . eps) + db^2 ||eps||^2. The
cross-product magnitude is taken in the n-dimensional sense via the
Lagrange identity.
"""

import numpy as np

from .datagen import philox
from .errors import ConfigError, DegenerateTrajectoryError
from .losses import determinant_profile

MAX_PAIRWISE = 5000  # above this, a seeded subsample caps the O(n^2) time
ROW_BLOCK = 256  # rows of the first set whose distances are held at once
SPEED_EPS = 1e-18  # below this, the curvature denominator is treated as zero


def _points(name, arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    if arr.shape[0] == 0:
        raise ConfigError("%s is empty" % name)
    return arr


def _maybe_subsample(arr, rng):
    if arr.shape[0] <= MAX_PAIRWISE:
        return arr
    idx = rng.choice(arr.shape[0], size=MAX_PAIRWISE, replace=False)
    return arr[np.sort(idx)]


def _mean_distance(x, y):
    """Mean Euclidean distance over all pairs of rows of x and y, each one as
    scipy's cdist computes it, held one ROW_BLOCK-row block of x at a time;
    the block sums add up in block order."""
    diff, sq = np.zeros((2, min(ROW_BLOCK, len(x)), len(y)))
    columns, total = np.ascontiguousarray(y.T), 0.0
    for start in range(0, len(x), ROW_BLOCK):
        block = x[start:start + ROW_BLOCK]
        d, s = diff[:len(block)], sq[:len(block)]
        for k in range(x.shape[1]):
            out = d if k else s  # the first squares go straight into s
            np.copyto(out, block[:, k:k + 1])  # then -=; x - y is ~1.6x slower
            out -= columns[k]
            out *= out
            if k:
                s += d
        total += np.sqrt(s, out=s).sum()
    return total / (len(x) * len(y))


def energy_distance(a, b, seed=0):
    """2 E||a-b|| - E||a-a'|| - E||b-b'||, clamped at zero."""
    a = _points("A", a)
    b = _points("B", b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("dimension mismatch: %d vs %d" % (a.shape[1], b.shape[1]))
    rng = philox(seed)
    a = _maybe_subsample(a, rng)
    b = _maybe_subsample(b, rng)
    return max(2.0 * _mean_distance(a, b) - _mean_distance(a, a)
               - _mean_distance(b, b), 0.0)


def sliced_wasserstein(a, b, projections=64, seed=0):
    """Mean 1D Wasserstein-1 over random unit directions (sorted matching).

    Requires equal-size point sets so the 1D computation is exact.
    """
    a = _points("A", a)
    b = _points("B", b)
    if a.shape != b.shape:
        raise ConfigError("sliced_wasserstein requires equal-size sets, got %s vs %s"
                          % (a.shape, b.shape))
    if projections < 1:
        raise ConfigError("projections must be >= 1")
    rng = philox(seed)
    directions = rng.standard_normal((projections, a.shape[1]))
    directions = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    pa = np.sort(a @ directions.T, axis=0)
    pb = np.sort(b @ directions.T, axis=0)
    return float(np.abs(pa - pb).mean())


def cross_magnitude(x0, eps):
    """||x0 x eps|| in n dimensions: sqrt(|x0|^2 |eps|^2 - (x0.eps)^2)."""
    g = (x0 @ x0) * (eps @ eps) - (x0 @ eps) ** 2
    return float(np.sqrt(max(g, 0.0)))


def curvature(fields, x0, eps):
    """Trajectory curvature kappa at the times of ``fields``, a schedule's
    ``DerivativeGrid``; the result has the shape of its fields. Raises
    DegenerateTrajectoryError if the speed vanishes at any t, where the
    curvature is undefined.
    """
    x0 = np.asarray(x0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x0.shape != eps.shape:
        raise ValueError("x0 and eps must share a shape, got %s vs %s"
                         % (x0.shape, eps.shape))
    da, db = fields.da, fields.db
    sp2 = (da * da * (x0 @ x0) + 2.0 * da * db * (x0 @ eps)
           + db * db * (eps @ eps))
    if np.any(sp2 < SPEED_EPS):
        raise DegenerateTrajectoryError(
            "trajectory speed vanishes (min speed^2=%g)" % np.min(sp2))
    return (np.abs(determinant_profile(fields)) * cross_magnitude(x0, eps)
            / sp2 ** 1.5)


def schedule_diagnostics(schedule, m, sample_pairs):
    """(t, mean curvature, determinant) at the interior nodes t = i/m,
    0 < i < m, of the uniform grid. ``sample_pairs`` is a sequence of
    (x0, eps) pairs; pairs whose speed vanishes anywhere on the grid are
    skipped (error if all do, or if there are none).
    """
    t = np.arange(1, m) / m
    dg = schedule.derivatives(t)
    profiles = []
    for x0, eps in sample_pairs:
        try:
            profiles.append(curvature(dg, x0, eps))
        except DegenerateTrajectoryError:
            continue
    if not profiles:
        raise DegenerateTrajectoryError("all sample pairs are degenerate")
    return t, np.mean(profiles, axis=0), determinant_profile(dg)
