import numpy as np
import pytest

from curveflow.engine import (evaluate_with_gradients,
                              finite_difference_gradient, max_relative_error,
                              value_of)
from curveflow.errors import ConfigError
from curveflow.losses import (curve_fm_loss, determinant_profile,
                              robust_curvature_loss, total_loss_graph)
from curveflow.schedules import (LinearSchedule, NeuralSchedule,
                                 PolynomialSchedule, TrigSchedule,
                                 grid_derivatives, quadrature)
from curveflow.velocity import VelocityField
from test_schedule import CustomSchedule, quadratic_stub, random_neural

HALF_PI = np.pi / 2


class OracleModel:
    """Stand-in velocity field returning a fixed function of (z, t)."""

    def __init__(self, fn, dim=2):
        self.fn = fn
        self.dim = dim
        self.params = {}

    def __call__(self, z, t, params=None):
        return self.fn(value_of(z), np.asarray(t))


def zero_model():
    return OracleModel(lambda z, t: np.zeros_like(z))


def fm_loss(batch, model, schedule):
    """curve_fm_loss on the schedule's fields at the batch's t, a column."""
    t = np.atleast_1d(np.asarray(batch[2], dtype=float))
    return curve_fm_loss(batch, model, schedule.derivatives(t[:, None]))


def test_fm_loss_zero_for_perfect_model():
    lin = LinearSchedule()
    x0 = np.array([[1.0, 0.0], [0.3, -0.2]])
    eps = np.array([[0.0, 1.0], [1.0, 0.5]])
    t = np.array([0.2, 0.7])
    perfect = OracleModel(lambda z, tt: eps - x0)
    assert fm_loss((x0, eps, t), perfect, lin) == 0.0


def test_fm_loss_direct_value():
    lin = LinearSchedule()
    batch = (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([0.4]))
    assert fm_loss(batch, zero_model(), lin) == 2.0
    # mean reduction: two identical samples give the same value
    batch2 = tuple(np.concatenate([part, part]) for part in batch)
    assert fm_loss(batch2, zero_model(), lin) == 2.0


def test_fm_loss_invariant_to_schedule_scale():
    # Rescaling the schedule to s(t) (a, b) and transforming the field to
    # match, v'(z', t) = s v(z' / s, t) + (s' / s) z', multiplies the
    # per-row error by s^2; the schedule weight must cancel it, or joint
    # training can lower the loss by shrinking the schedule.
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal((64, 2))
    eps = rng.standard_normal((64, 2))
    t = rng.uniform(0.05, 0.95, 64)

    def s(tt):
        return 1.0 - 0.8 * np.sin(np.pi * tt)

    def ds(tt):
        return -0.8 * np.pi * np.cos(np.pi * tt)

    def dds(tt):
        return 0.8 * np.pi ** 2 * np.sin(np.pi * tt)

    def field(z, tt):
        return np.tanh(z) * (1.0 + tt[:, None]) + np.array([0.3, -0.2])

    def scaled_field(z, tt):
        k = s(tt)[:, None]
        return k * field(z / k, tt) + (ds(tt) / s(tt))[:, None] * z

    scaled = CustomSchedule(lambda tt: s(tt) * (1.0 - tt),
                            lambda tt: s(tt) * tt,
                            lambda tt: ds(tt) * (1.0 - tt) - s(tt),
                            lambda tt: ds(tt) * tt + s(tt),
                            lambda tt: dds(tt) * (1.0 - tt) - 2.0 * ds(tt),
                            lambda tt: dds(tt) * tt + 2.0 * ds(tt))
    plain = fm_loss((x0, eps, t), OracleModel(field), LinearSchedule())
    rescaled = fm_loss((x0, eps, t), OracleModel(scaled_field), scaled)
    assert plain > 1.0
    assert abs(rescaled - plain) < 1e-8 * plain


def test_fm_loss_weight_exactly_one_on_linear_schedule():
    # x * (1 / x) != x / x for about one t in nine (49 * (1 / 49) != 1), so
    # only a truly divided weight leaves the rectified-flow loss unchanged.
    # One row per call, so a 1-ulp weight error is not rounded away in a sum.
    rng = np.random.default_rng(12)
    lin = LinearSchedule()
    for t in np.arange(1, 200) / 200:
        x0, eps = rng.standard_normal((2, 1, 2))
        assert fm_loss((x0, eps, np.array([t])), zero_model(), lin) \
            == np.square(eps - x0).sum(), t


def test_fm_loss_empty_batch():
    with pytest.raises(ConfigError):
        fm_loss((np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0)),
                zero_model(), LinearSchedule())
    with pytest.raises(ConfigError, match="inconsistent batch shapes"):
        fm_loss((np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(2)),
                zero_model(), LinearSchedule())


def test_determinant_profile_linear_zero():
    dg = grid_derivatives(LinearSchedule())
    assert np.allclose(determinant_profile(dg), 0.0, atol=1e-9)


def test_determinant_profile_trig_constant():
    dg = grid_derivatives(TrigSchedule())
    det = determinant_profile(dg)
    assert np.max(np.abs(det - HALF_PI ** 3)) < 1e-3


def test_determinant_profile_polynomial_stub():
    dg = grid_derivatives(quadratic_stub())
    assert np.allclose(determinant_profile(dg), -2.0, atol=1e-8)


def test_robust_curvature_loss_values():
    def reg(schedule, lam):
        return robust_curvature_loss(grid_derivatives(schedule), lam)

    assert reg(LinearSchedule(), 1.0) == 0.0
    zeroed = NeuralSchedule(hidden=16, embed=8, seed=0)
    assert reg(zeroed, 1.0) == 0.0
    trig = reg(TrigSchedule(), 1.0)
    assert abs(trig - HALF_PI ** 6) / HALF_PI ** 6 < 0.01
    assert reg(TrigSchedule(), 0.0) == 0.0
    with pytest.raises(ConfigError):
        reg(TrigSchedule(), -0.5)


def test_robust_curvature_loss_linear_in_lambda():
    sch = random_neural(0)
    l1 = robust_curvature_loss(grid_derivatives(sch), 0.3)
    l2 = robust_curvature_loss(grid_derivatives(sch), 0.6)
    assert l2 == 2.0 * l1


def test_regularizer_converges_to_integral():
    # the Gauss-Legendre rule integrates a constant determinant exactly
    exact = HALF_PI ** 6
    reg = robust_curvature_loss(grid_derivatives(TrigSchedule()), 1.0)
    assert abs(reg - exact) <= 1e-12 * exact
    reg = robust_curvature_loss(grid_derivatives(PolynomialSchedule()), 1.0)
    assert abs(reg - 16.0) <= 1e-12 * 16.0


def test_total_loss_report():
    lin = LinearSchedule()
    batch = (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([0.4]))
    perfect = OracleModel(lambda z, tt: np.array([[-1.0, 1.0]]))
    fm, reg = total_loss_graph(batch, perfect, lin, 1.0, None)
    assert fm + reg == 0.0

    fm, reg = total_loss_graph(batch, perfect, TrigSchedule(), 1.0, None)
    assert fm > 0.0  # trig target differs from the linear one
    assert reg > 0.0
    fm0, reg0 = total_loss_graph(batch, zero_model(), lin, 0.0, None)
    assert reg0 == 0.0
    assert fm0 == 2.0


def test_total_loss_regularizer_only_case():
    x0 = np.array([[1.0, 0.0]])
    eps = np.array([[0.0, 1.0]])
    t = np.array([0.5])
    trig = TrigSchedule()
    da = -HALF_PI * np.sin(HALF_PI * 0.5)
    db = HALF_PI * np.cos(HALF_PI * 0.5)
    perfect = OracleModel(lambda z, tt: da * x0 + db * eps)
    fm, reg = total_loss_graph((x0, eps, t), perfect, trig, 1.0, None)
    assert fm < 1e-20
    assert abs(fm + reg - HALF_PI ** 6) / HALF_PI ** 6 < 0.01


def _neural_batch(seed, n=16):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, 2)), rng.standard_normal((n, 2)),
            np.clip(rng.random(n), 1e-5, 1.0 - 1e-5))


@pytest.mark.parametrize("lam,rows", [(0.05, 16 + 64), (0.0, 16)])
def test_total_loss_evaluates_the_schedule_once(monkeypatch, lam, rows):
    schedule = random_neural(2)
    model = VelocityField(2, seed=3, hidden=8, time_features=4)
    sizes = []
    original = schedule.derivatives

    def counting(t, params=None):
        sizes.append(np.size(t))
        return original(t, params)

    monkeypatch.setattr(schedule, "derivatives", counting)
    total_loss_graph(_neural_batch(4), model, schedule, lam, None)
    assert sizes == [rows]


def test_one_evaluation_matches_two_call_oracle():
    # the oracle reads the schedule twice, at the batch's t and at the
    # nodes; one evaluation over both changes only the order in which the
    # weight gradients sum their rows
    schedule = random_neural(5)
    model = VelocityField(2, seed=6, hidden=16, time_features=8)
    params = {**model.params, **schedule.params}
    batch = _neural_batch(7)
    t, lam = batch[2], 0.05

    def oracle(p):
        fm = curve_fm_loss(batch, model, schedule.derivatives(t[:, None], p),
                           p)
        reg = robust_curvature_loss(
            schedule.derivatives(quadrature()[0], p), lam)
        return fm, reg

    for p in (params, None):
        got, want = total_loss_graph(batch, model, schedule, lam, p), oracle(p)
        for g, w in zip(got, want):
            assert abs(value_of(g) - value_of(w)) <= 1e-14 * abs(value_of(w))

    _, g_one = evaluate_with_gradients(
        lambda p: sum(total_loss_graph(batch, model, schedule, lam, p)),
        params)
    _, g_two = evaluate_with_gradients(lambda p: sum(oracle(p)), params)
    for name, want in g_two.items():
        scale = np.max(np.abs(want))
        assert scale > 0.0, name
        assert np.max(np.abs(g_one[name] - want)) <= 1e-10 * scale, name


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    schedule = random_neural(1, scale=0.2)
    model = VelocityField(2, seed=2, hidden=8, time_features=4)
    params = {**model.params, **schedule.params}
    x0 = rng.standard_normal((3, 2))
    eps = rng.standard_normal((3, 2))
    t = np.clip(rng.random(3), 0.05, 0.95)

    def loss_fn(p):
        fm, reg = total_loss_graph((x0, eps, t), model, schedule, 0.05, p)
        return fm + reg

    _, g_ad = evaluate_with_gradients(loss_fn, params)
    g_fd = finite_difference_gradient(loss_fn, params, step=1e-5)
    err, name = max_relative_error(g_ad, g_fd)
    assert err < 1e-4, name


def test_fm_loss_nonnegative_random():
    rng = np.random.default_rng(3)
    schedule = random_neural(4)
    model = VelocityField(2, seed=5, hidden=8, time_features=4)
    for _ in range(20):
        x0 = rng.standard_normal((4, 2))
        eps = rng.standard_normal((4, 2))
        t = np.clip(rng.random(4), 1e-3, 1 - 1e-3)
        assert fm_loss((x0, eps, t), model, schedule) >= 0.0

