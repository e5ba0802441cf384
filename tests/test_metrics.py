import itertools
import tracemalloc

import numpy as np
import pytest

from curveflow import metrics
from curveflow.datagen import philox
from curveflow.errors import ConfigError, DegenerateTrajectoryError
from curveflow.metrics import (energy_distance, schedule_diagnostics,
                               sliced_wasserstein)
from curveflow.schedules import LinearSchedule, TrigSchedule
from curveflow.losses import determinant_integral, total_loss_graph
from curveflow.velocity import VelocityField

HALF_PI = np.pi / 2


def mean_dist(x, y):
    """The mean pairwise distance from the whole distance matrix."""
    return np.linalg.norm(x[:, None] - y[None], axis=2).mean()


def test_energy_distance_identity():
    a = np.random.default_rng(0).standard_normal((50, 2))
    assert energy_distance(a, a) == 0.0


def test_energy_distance_singletons():
    assert energy_distance([[0.0, 0.0]], [[3.0, 4.0]]) == 10.0


def test_energy_distance_symmetry():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((30, 2))
    b = rng.standard_normal((40, 2)) + 1.0
    assert energy_distance(a, b) == energy_distance(b, a)


def test_energy_distance_zero_iff_identical_small_sets():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 2))
    for perm in itertools.permutations(range(4)):
        assert energy_distance(a, a[list(perm)]) < 1e-12
    b = a.copy()
    b[0] += 0.5
    assert energy_distance(a, b) > 0.0


def test_energy_distance_validation():
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        energy_distance(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ConfigError):
        energy_distance(np.zeros((0, 2)), np.zeros((3, 2)))


def test_energy_distance_subsamples_large_sets(monkeypatch):
    # above MAX_PAIRWISE points, each set is cut to a seeded subsample:
    # A's rows first, then B's, from one Philox stream
    monkeypatch.setattr(metrics, "MAX_PAIRWISE", 50)
    rng = np.random.default_rng(11)
    a = rng.standard_normal((60, 2))
    b = rng.standard_normal((60, 2)) + 1.0

    for seed in (0, 3):
        draws = philox(seed)
        sa = a[np.sort(draws.choice(60, size=50, replace=False))]
        sb = b[np.sort(draws.choice(60, size=50, replace=False))]
        by_hand = (2.0 * mean_dist(sa, sb) - mean_dist(sa, sa)
                   - mean_dist(sb, sb))
        got = energy_distance(a, b, seed=seed)
        assert got == pytest.approx(by_hand, rel=1e-12)
        assert energy_distance(a, b, seed=seed) == got
    assert energy_distance(a, b, seed=0) != energy_distance(a, b, seed=3)


@pytest.mark.parametrize("m", [300, 2000])
@pytest.mark.parametrize("n", [1, 255, 256, 257, 600, 2000])
def test_blocked_mean_distance_matches_the_whole_matrix(n, m):
    # one block of rows sums as the whole matrix does, bit for bit; past
    # one block, the block sums add up in another order
    rng = np.random.default_rng(n * m)
    x = rng.standard_normal((n, 2))
    y = rng.standard_normal((m, 2)) + 0.5
    got = metrics._mean_distance(x, y)
    if n <= metrics.ROW_BLOCK:
        assert got == mean_dist(x, y)
    else:
        assert got == pytest.approx(mean_dist(x, y), rel=1e-12)


def test_energy_distance_memory_is_bounded_by_the_block():
    # the whole 2000 x 2000 matrix is 30.5 MiB; two buffers of 256 rows
    # against 2000 are 7.8 MiB
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2000, 2))
    b = rng.standard_normal((2000, 2))
    tracemalloc.start()
    try:
        energy_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2 ** 20


def test_sliced_wasserstein_identity_and_symmetry():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 2))
    b = rng.standard_normal((40, 2))
    assert sliced_wasserstein(a, a) == 0.0
    assert sliced_wasserstein(a, b) == sliced_wasserstein(b, a)
    assert sliced_wasserstein(a, b) >= 0.0


def test_sliced_wasserstein_axis_direction_oracle():
    # in 1-D every unit direction is +-1, and either way the sorted
    # matching of {0, 1} with {1, 2} moves each point by exactly 1
    a = np.array([[0.0], [1.0]])
    b = np.array([[1.0], [2.0]])
    for projections, seed in itertools.product((1, 64, 500), (0, 1, 7)):
        assert sliced_wasserstein(a, b, projections, seed) == 1.0


def test_sliced_wasserstein_translation_bound():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((100, 2))
    for _ in range(10):
        v = rng.standard_normal(2)
        shifted = sliced_wasserstein(a, a + v)
        assert shifted <= np.linalg.norm(v) + 1e-12


def test_sliced_wasserstein_requires_equal_sizes():
    with pytest.raises(ConfigError):
        sliced_wasserstein(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ConfigError, match="projections must be >= 1"):
        sliced_wasserstein(np.zeros((3, 2)), np.zeros((3, 2)), projections=0)


def test_sliced_wasserstein_seeded():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 2))
    b = rng.standard_normal((30, 2))
    assert sliced_wasserstein(a, b, seed=1) == sliced_wasserstein(a, b, seed=1)


def test_diagnostics_linear_schedule():
    pairs = [(np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
    kappa = schedule_diagnostics(LinearSchedule(), 100, pairs)[1]
    assert determinant_integral(LinearSchedule()) == 0.0
    assert np.allclose(kappa, 0.0, atol=1e-9)


def test_diagnostics_trig_closed_forms():
    pairs = [(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
             (np.array([0.0, 2.0]), np.array([-2.0, 0.0]))]
    kappa = schedule_diagnostics(TrigSchedule(), 1000, pairs)[1]
    exact = HALF_PI ** 6
    assert abs(determinant_integral(TrigSchedule()) - exact) / exact < 0.01
    # orthonormal pair has curvature 1, the scaled pair 1/2: mean 0.75
    assert np.allclose(kappa, 0.75, atol=1e-3)


def test_determinant_integral_matches_regularizer():
    # the integral reads the nodes alone; a training step reads them
    # after the batch's t in one evaluation
    integral = float(determinant_integral(TrigSchedule()))
    batch = (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([0.4]))
    model = VelocityField(2, seed=0, hidden=8, time_features=4)
    for lam in (0.3, 1.0, 2.5):
        loss = total_loss_graph(batch, model, TrigSchedule(), lam, None)[1]
        assert abs(integral - loss / lam) < 1e-12 * loss / lam


def test_diagnostics_all_degenerate_pairs():
    x0 = np.array([1.0, 1.0])
    with pytest.raises(DegenerateTrajectoryError):
        schedule_diagnostics(LinearSchedule(), 50, [(x0, x0)])
    with pytest.raises(DegenerateTrajectoryError):
        schedule_diagnostics(LinearSchedule(), 50, [])


def test_diagnostics_skips_degenerate_pairs():
    x0 = np.array([1.0, 1.0])
    good = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    kappa = schedule_diagnostics(TrigSchedule(), 100, [(x0, x0), good])[1]
    assert np.allclose(kappa, 1.0, atol=1e-3)


def test_diagnostics_profile_grid_interior():
    pair = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    t, kappa, det = schedule_diagnostics(LinearSchedule(), 10, [pair])
    assert len(t) == 9
    assert t[0] == 1 / 10
    assert t[-1] == 9 / 10
    assert np.all(np.diff(t) > 0)
    assert len(det) == len(kappa) == 9
