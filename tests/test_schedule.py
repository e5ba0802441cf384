import numpy as np
import pytest

from curveflow.engine import ParameterSet
from curveflow.errors import ConfigError
from curveflow.schedules import (CoefficientSchedule, DerivativeGrid,
                                 LinearSchedule, NeuralSchedule,
                                 PolynomialSchedule, TrigSchedule,
                                 grid_derivatives, make_schedule,
                                 pointwise_derivatives, quadrature)

HALF_PI = np.pi / 2


class CustomSchedule(CoefficientSchedule):
    """Test stub: callables for a, b and their exact derivatives."""

    kind = "custom"

    def __init__(self, a_fn, b_fn, da_fn, db_fn, dda_fn, ddb_fn):
        super().__init__()
        self._fns = (a_fn, b_fn, da_fn, db_fn, dda_fn, ddb_fn)

    def fields(self, t, params=None):
        return tuple(fn(t) for fn in self._fns)


def quadratic_stub():
    """a = 1 - t, b = t^2: determinant -2."""
    return CustomSchedule(lambda t: 1.0 - t, lambda t: t ** 2,
                          lambda t: -np.ones_like(t), lambda t: 2.0 * t,
                          lambda t: np.zeros_like(t),
                          lambda t: 2.0 * np.ones_like(t))


def random_neural(seed, scale=0.5):
    sch = NeuralSchedule(hidden=16, embed=8, seed=seed)
    rng = np.random.default_rng(seed)
    sch.params = ParameterSet({n: rng.normal(scale=scale, size=a.shape)
                               for n, a in sch.params.items()})
    return sch


def test_boundary_conditions_exact_for_random_parameters():
    rng = np.random.default_rng(0)
    sch = NeuralSchedule(hidden=8, embed=8, seed=0)
    for _ in range(1000):
        sch.params = ParameterSet({n: rng.normal(scale=2.0, size=a.shape)
                                   for n, a in sch.params.items()})
        assert sch.a(0.0) == 1.0
        assert sch.b(0.0) == 0.0
        assert sch.a(1.0) == 0.0
        assert sch.b(1.0) == 1.0


def test_zero_residual_equals_linear_exactly():
    sch = NeuralSchedule(hidden=16, embed=8, seed=3)  # output layer zeroed
    lin = LinearSchedule()
    t = np.linspace(0, 1, 101)
    assert np.array_equal(sch.a(t), lin.a(t))
    assert np.array_equal(sch.b(t), lin.b(t))
    dg_n = pointwise_derivatives(sch, t)
    dg_l = pointwise_derivatives(lin, t)
    assert np.array_equal(dg_n.da, dg_l.da)
    assert np.array_equal(dg_n.db, dg_l.db)
    dg_n = grid_derivatives(sch)
    dg_l = grid_derivatives(lin)
    for field in ("a", "b", "da", "db", "dda", "ddb"):
        assert np.array_equal(getattr(dg_n, field), getattr(dg_l, field))
    # the residual's second derivative vanishes, not just rounds small
    assert np.all(dg_n.dda == 0.0)
    assert np.all(dg_n.ddb == 0.0)


def test_domain_error_outside_unit_interval():
    for sch in (LinearSchedule(), TrigSchedule(), PolynomialSchedule(),
                random_neural(1), quadratic_stub()):
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            sch.a(-0.1)
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            sch.b(1.1)


def test_analytic_closed_forms():
    t = np.array([0.0, 0.25, 0.5, 1.0])
    lin = LinearSchedule()
    assert np.array_equal(lin.a(t), 1.0 - t)
    assert np.array_equal(lin.b(t), t)
    trig = TrigSchedule()
    assert np.allclose(trig.a(t), np.cos(HALF_PI * t))
    assert np.allclose(trig.b(t), np.sin(HALF_PI * t))


def test_pointwise_derivatives_linear():
    dg = pointwise_derivatives(LinearSchedule(), np.array([0.0, 0.3, 1.0]))
    assert np.all(dg.da == -1.0)
    assert np.all(dg.db == 1.0)


def test_pointwise_derivatives_trig_midpoint():
    da = pointwise_derivatives(TrigSchedule(), 0.5).da
    assert abs(float(da) - (-HALF_PI * np.sin(np.pi / 4))) < 1e-9
    assert abs(float(da) - (-1.110721)) < 1e-6


def test_grid_derivatives_linear():
    dg = grid_derivatives(LinearSchedule())
    assert np.allclose(dg.da, -1.0, atol=1e-12)
    assert np.allclose(dg.db, 1.0, atol=1e-12)
    assert np.allclose(dg.dda, 0.0, atol=1e-9)
    assert np.allclose(dg.ddb, 0.0, atol=1e-9)


def test_grid_second_difference_exact_on_quadratic():
    dg = grid_derivatives(quadratic_stub())
    assert np.allclose(dg.ddb, 2.0, atol=1e-8)


def test_grid_derivatives_trig_second_derivative_accuracy():
    dg = grid_derivatives(TrigSchedule())
    exact = -HALF_PI ** 2 * np.cos(HALF_PI * quadrature()[0])
    assert np.max(np.abs(dg.dda - exact)) < 1e-4


def test_grid_derivative_error_decays_quadratically():
    # central differences of the neural residual converge to its exact
    # jets, ends included: halving the step cuts the error about fourfold
    sch = random_neural(7)
    t = np.array([0.0, 0.3, 0.6, 1.0])

    def max_err(h):
        err = 0.0
        for prefix in ("a", "b"):
            r, dr, ddr = sch.residual_term(prefix, t)
            hi, lo = (sch.residual_term(prefix, s)[0] for s in (t + h, t - h))
            err = max(err, np.max(np.abs((hi - lo) / (2.0 * h) - dr)),
                      np.max(np.abs((hi - 2.0 * r + lo) / (h * h) - ddr)))
        return err

    e1, e2 = max_err(0.01), max_err(0.005)
    assert e1 / e2 >= 3.5


def test_exact_flag_uses_closed_forms():
    t = quadrature()[0]
    one, zero = np.ones_like(t), np.zeros_like(t)
    c, s = np.cos(HALF_PI * t), np.sin(HALF_PI * t)
    closed_forms = {
        LinearSchedule: (1 - t, t, -one, one, zero, zero),
        TrigSchedule: (c, s, -HALF_PI * s, HALF_PI * c,
                       -HALF_PI ** 2 * c, -HALF_PI ** 2 * s),
        PolynomialSchedule: ((1 - t) ** 2, t ** 2, -2 * (1 - t), 2 * t,
                             2 * one, 2 * one),
    }
    for cls, expected in closed_forms.items():
        dg = grid_derivatives(cls())
        for field, want in zip(("a", "b", "da", "db", "dda", "ddb"), expected):
            np.testing.assert_allclose(getattr(dg, field), want, rtol=0,
                                       atol=1e-15, err_msg=field)


def test_make_schedule_kinds():
    assert make_schedule("linear").kind == "linear"
    assert make_schedule("trigonometric").kind == "trigonometric"
    assert make_schedule("polynomial").kind == "polynomial"
    assert make_schedule("neural", hidden=8).kind == "neural"
    with pytest.raises(ConfigError):
        make_schedule("spline")


def test_polynomial_schedule_constant_determinant():
    p = PolynomialSchedule()
    dg = grid_derivatives(p)
    det = dg.da * dg.ddb - dg.db * dg.dda
    assert np.allclose(det, -4.0, atol=1e-12)


def test_neural_derivatives_consistent_with_dense_fd():
    sch = random_neural(7)
    t = np.array([0.3, 0.6])
    dg = sch.derivatives(t)
    eps = 1e-6
    lo, hi = sch.derivatives(t - eps), sch.derivatives(t + eps)
    for field, slope in (("a", "da"), ("b", "db"), ("da", "dda"),
                         ("db", "ddb")):
        ref = (getattr(hi, field) - getattr(lo, field)) / (2 * eps)
        assert np.allclose(getattr(dg, slope), ref, rtol=0, atol=1e-6), slope


def test_neural_target_second_order_at_the_ends():
    # the target's derivatives are exact jets, so they need no stencil
    # and hold at t near and at 0 and 1 as in the middle
    sch = random_neural(7)
    eps = 1e-6
    for t in (0.0, 1e-5, 1.0 - 1e-5, 1.0):
        dg = pointwise_derivatives(sch, t)
        for prefix, got in (("a", dg.da + 1.0), ("b", dg.db - 1.0)):
            ref = (sch.residual_term(prefix, t + eps)[0]
                   - sch.residual_term(prefix, t - eps)[0]) / (2 * eps)
            assert np.max(np.abs(got - ref)) < 1e-6, (t, prefix)


@pytest.mark.parametrize("kind", ["linear", "trigonometric", "polynomial",
                                  "neural"])
def test_fields_shaped_like_t(kind):
    sch = random_neural(4) if kind == "neural" else make_schedule(kind)
    row = np.linspace(0.1, 0.9, 5)
    for t in (0.3, row, row[:, None]):
        shape = np.shape(t)
        dg = pointwise_derivatives(sch, t)
        assert all(np.shape(f) == shape for f in vars(dg).values()), shape
        assert np.shape(sch.a(t)) == shape and np.shape(sch.b(t)) == shape


def test_residual_evaluated_once_per_node(monkeypatch):
    sch = random_neural(3)
    calls = []
    original = NeuralSchedule.residual_term

    def counting(self, prefix, t, params=None):
        calls.append(np.size(t))
        return original(self, prefix, t, params)

    monkeypatch.setattr(NeuralSchedule, "residual_term", counting)
    grid_derivatives(sch)
    assert calls == [64, 64]
    del calls[:]
    pointwise_derivatives(sch, np.linspace(0.1, 0.9, 5))
    assert calls == [5, 5]


def bias_only_neural(seed):
    """Neural schedule whose only nonzero weights are the output biases."""
    sch = NeuralSchedule(hidden=16, embed=8, seed=seed)
    rng = np.random.default_rng(seed)
    sch.params = ParameterSet({
        n: rng.normal(size=a.shape) if n.endswith("/b2") else np.zeros_like(a)
        for n, a in sch.params.items()})
    return sch


@pytest.mark.parametrize("m,rtol,rtol_second", [(16, 1e-14, 1e-14),
                                                 (1000, 1e-12, 1e-11)],
                         ids=["m16", "m1000"])
def test_grid_derivatives_match_three_call_stencil(m, rtol, rtol_second):
    # With output biases c alone the residual is c t (1 - t), a quadratic,
    # on which a three-point stencil is exact up to roundoff. The jets need
    # no stencil: at the diagnostics' uniform nodes they are held to the
    # closed form r = c t (1 - t), r' = c (1 - 2 t), r'' = -2 c.
    t = np.arange(1, m) / m
    for seed in range(3):
        sch = bias_only_neural(seed)
        ca, cb = sch.params["a/b2"][0], sch.params["b/b2"][0]
        got = sch.derivatives(t)
        want = DerivativeGrid(1.0 - t + ca * t * (1.0 - t),
                              t + cb * t * (1.0 - t),
                              -1.0 + ca * (1.0 - 2.0 * t),
                              1.0 + cb * (1.0 - 2.0 * t),
                              np.full_like(t, -2.0 * ca),
                              np.full_like(t, -2.0 * cb))
        for field in ("a", "b", "da", "db", "dda", "ddb"):
            x, y = getattr(got, field), getattr(want, field)
            tol = rtol_second if field in ("dda", "ddb") else rtol
            assert np.max(np.abs(x - y)) <= tol * np.max(np.abs(y)), field
