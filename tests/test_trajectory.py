"""Geometry of interpolant trajectories: metrics.curvature and its parts."""

import numpy as np
import pytest

from curveflow.errors import DegenerateTrajectoryError
from curveflow.metrics import cross_magnitude, curvature
from curveflow.schedules import (DerivativeGrid, LinearSchedule, TrigSchedule,
                                 pointwise_derivatives)
from test_schedule import random_neural

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def kappa(schedule, x0, eps, t):
    """Curvature at t of an analytic schedule, from its closed forms."""
    dg = pointwise_derivatives(schedule, t)
    return curvature(dg, x0, eps)


def test_target_velocity_linear_is_difference():
    lin = LinearSchedule()
    x0 = np.array([1.0, 2.0])
    eps = np.array([-3.0, 0.5])
    for t in (0.0, 0.25, 0.9):
        dg = pointwise_derivatives(lin, t)
        assert np.array_equal(dg.da * x0 + dg.db * eps, eps - x0)
    # coincident endpoints: u = (da + db) x0 = 0 for the linear schedule
    dg = pointwise_derivatives(lin, 0.4)
    assert np.array_equal(dg.da * x0 + dg.db * x0, np.zeros(2))


def test_target_velocity_trig_midpoint():
    dg = pointwise_derivatives(TrigSchedule(), 0.5)
    u = dg.da * E1 + dg.db * E2
    expected = (np.pi / 2) * np.sin(np.pi / 4)
    assert np.allclose(u, [-expected, expected], atol=1e-9)
    assert np.allclose(np.abs(u), 1.110721, atol=1e-6)


def test_cross_magnitude_cases():
    assert cross_magnitude(E1, E2) == 1.0
    assert cross_magnitude(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == 0.0
    assert abs(cross_magnitude(np.array([1.0, 2.0]), np.array([3.0, 4.0])) - 2.0) < 1e-12


def test_cross_magnitude_symmetry_and_shear_invariance():
    rng = np.random.default_rng(0)
    for _ in range(100):
        dim = rng.integers(2, 6)
        x0 = rng.standard_normal(dim)
        eps = rng.standard_normal(dim)
        c = rng.normal()
        assert abs(cross_magnitude(x0, eps) - cross_magnitude(eps, x0)) < 1e-9
        assert abs(cross_magnitude(x0, eps + c * x0)
                   - cross_magnitude(x0, eps)) < 1e-9


def test_linear_schedule_zero_curvature():
    lin = LinearSchedule()
    rng = np.random.default_rng(1)
    for _ in range(1000):
        dim = rng.integers(2, 9)
        x0 = rng.standard_normal(dim)
        eps = rng.standard_normal(dim)
        t = rng.random()
        assert kappa(lin, x0, eps, t) < 1e-9


def test_trig_quarter_circle_curvature():
    trig = TrigSchedule()
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    k = kappa(trig, E1, E2, t)
    assert k.shape == t.shape
    assert np.all(np.abs(k - 1.0) < 1e-9)
    dg = pointwise_derivatives(trig, t)
    det = dg.da * dg.ddb - dg.db * dg.dda
    assert np.all(np.abs(det - (np.pi / 2) ** 3) < 1e-9)


def test_parallel_endpoints_zero_curvature_not_degenerate():
    lin = LinearSchedule()
    assert kappa(lin, np.array([1.0, 1.0]), np.array([2.0, 2.0]), 0.5) == 0.0


def test_degenerate_trajectory_error():
    lin = LinearSchedule()
    x0 = np.array([1.0, 1.0])
    with pytest.raises(DegenerateTrajectoryError):
        kappa(lin, x0, x0, 0.5)  # speed identically zero
    # one degenerate node is enough to reject the whole profile
    with pytest.raises(DegenerateTrajectoryError):
        curvature(DerivativeGrid(None, None, np.array([1.0, 0.0]),
                                 np.array([0.0, 0.0]), np.zeros(2),
                                 np.zeros(2)), E1, E2)


def test_interpolate_shape_mismatch():
    # the interpolant a x0 + b eps needs endpoints of one shape
    with pytest.raises(ValueError, match="x0 and eps must share a shape"):
        kappa(LinearSchedule(), np.zeros(2), np.zeros(3), 0.5)
    with pytest.raises(ValueError, match="x0 and eps must share a shape"):
        kappa(TrigSchedule(), np.zeros((2, 1)), np.zeros(2), 0.5)


def test_curvature_point_reconstructs_formula():
    trig = TrigSchedule()
    rng = np.random.default_rng(2)
    for _ in range(50):
        x0 = rng.standard_normal(3)
        eps = rng.standard_normal(3)
        t = rng.random()
        dg = pointwise_derivatives(trig, t)
        da, db, dda, ddb = dg.da, dg.db, dg.dda, dg.ddb
        velocity = da * x0 + db * eps
        accel = dda * x0 + ddb * eps
        speed = np.linalg.norm(velocity)
        # |v x a| / |v|^3 with the cross product of the 3-vectors directly
        rebuilt = np.linalg.norm(np.cross(velocity, accel)) / speed ** 3
        k = kappa(trig, x0, eps, t)
        assert abs(rebuilt - k) <= 1e-9 * max(1.0, k)


def test_curvature_scaling_inverse():
    trig = TrigSchedule()
    rng = np.random.default_rng(3)
    for _ in range(20):
        x0 = rng.standard_normal(2)
        eps = rng.standard_normal(2)
        t = rng.random()
        s = 0.5 + 2.0 * rng.random()
        k1 = kappa(trig, x0, eps, t)
        k2 = kappa(trig, s * x0, s * eps, t)
        if k1 > 1e-12:
            assert abs(k2 - k1 / s) / (k1 / s) < 1e-6


def test_neural_curvature_runs():
    dg = pointwise_derivatives(random_neural(5), np.arange(1, 100) / 100)
    k = curvature(dg, E1, E2)
    assert k.shape == (99,)
    assert np.all(k >= 0.0)
    assert np.all(np.isfinite(k))
