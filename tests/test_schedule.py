import numpy as np
import pytest

from curveflow.engine import ParameterSet
from curveflow.errors import ConfigError, DomainError
from curveflow.schedules import (CoefficientSchedule, DerivativeGrid,
                                 GridSpec, LinearSchedule, NeuralSchedule,
                                 PolynomialSchedule, TrigSchedule,
                                 grid_derivatives, make_schedule,
                                 pointwise_derivatives)

HALF_PI = np.pi / 2


class CustomSchedule(CoefficientSchedule):
    """Test stub: callables for a, b and their exact derivatives."""

    kind = "custom"

    def __init__(self, a_fn, b_fn, da_fn, db_fn, dda_fn, ddb_fn):
        super().__init__()
        self._fns = (a_fn, b_fn, da_fn, db_fn, dda_fn, ddb_fn)

    def derivatives(self, nodes, h, params=None):
        t = np.asarray(nodes, dtype=float)[1:-1]
        return DerivativeGrid(*(fn(t) for fn in self._fns))


def quadratic_stub():
    """a = 1 - t, b = t^2: determinant -2."""
    return CustomSchedule(lambda t: 1.0 - t, lambda t: t ** 2,
                          lambda t: -np.ones_like(t), lambda t: 2.0 * t,
                          lambda t: np.zeros_like(t),
                          lambda t: 2.0 * np.ones_like(t))


def stencil(t, h):
    """Nodes t - h, t, t + h along axis 0, so derivatives(...) is at t."""
    return np.stack([t - h, t, t + h])


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
    g = GridSpec(100)
    dg_n = grid_derivatives(sch, g)
    dg_l = grid_derivatives(lin, g)
    for field in ("a", "b", "da", "db", "dda", "ddb"):
        assert np.array_equal(getattr(dg_n, field), getattr(dg_l, field))
    # the residual's second difference vanishes, not just rounds small
    assert np.all(dg_n.dda == 0.0)
    assert np.all(dg_n.ddb == 0.0)


def test_domain_error_outside_unit_interval():
    for sch in (LinearSchedule(), TrigSchedule(), random_neural(1)):
        with pytest.raises(DomainError):
            sch.a(-0.1)
        with pytest.raises(DomainError):
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


def test_grid_spec_validation():
    with pytest.raises(ConfigError):
        GridSpec(3)
    g = GridSpec(10)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 1.0
    assert np.all(np.diff(g.nodes) > 0)


def test_grid_derivatives_linear():
    dg = grid_derivatives(LinearSchedule(), GridSpec(50))
    assert np.allclose(dg.da, -1.0, atol=1e-12)
    assert np.allclose(dg.db, 1.0, atol=1e-12)
    assert np.allclose(dg.dda, 0.0, atol=1e-9)
    assert np.allclose(dg.ddb, 0.0, atol=1e-9)


def test_grid_second_difference_exact_on_quadratic():
    dg = grid_derivatives(quadratic_stub(), GridSpec(20))
    assert np.allclose(dg.ddb, 2.0, atol=1e-8)


def test_grid_derivatives_trig_second_derivative_accuracy():
    g = GridSpec(1000)
    dg = grid_derivatives(TrigSchedule(), g)
    exact = -HALF_PI ** 2 * np.cos(HALF_PI * g.interior)
    assert np.max(np.abs(dg.dda - exact)) < 1e-4


def test_grid_derivative_error_decays_quadratically():
    # the neural schedule's central differences, ends included: halving
    # the step should cut the error about fourfold
    sch = random_neural(7)
    t = np.array([0.0, 0.3, 0.6, 1.0])
    ref = sch.derivatives(stencil(t, 1e-4), 1e-4)
    fields = ("da", "db", "dda", "ddb")

    def max_err(h):
        dg = sch.derivatives(stencil(t, h), h)
        return max(np.max(np.abs(getattr(dg, f) - getattr(ref, f)))
                   for f in fields)

    e1, e2 = max_err(0.01), max_err(0.005)
    assert e1 / e2 >= 3.5


def test_exact_flag_uses_closed_forms():
    g = GridSpec(10)
    t = g.interior
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
        dg = grid_derivatives(cls(), g)
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
    dg = grid_derivatives(p, GridSpec(100))
    det = dg.da * dg.ddb - dg.db * dg.dda
    assert np.allclose(det, -4.0, atol=1e-12)


def test_neural_derivatives_consistent_with_dense_fd():
    sch = random_neural(7)
    t = np.array([0.3, 0.6])
    dg = sch.derivatives(stencil(t, 1e-5), 1e-5)
    da, db = dg.da[0], dg.db[0]
    eps = 1e-6
    da_ref = (sch.a(t + eps) - sch.a(t - eps)) / (2 * eps)
    db_ref = (sch.b(t + eps) - sch.b(t - eps)) / (2 * eps)
    assert np.allclose(da, da_ref, atol=1e-4)
    assert np.allclose(db, db_ref, atol=1e-4)


def test_neural_target_second_order_at_the_ends():
    # the target's stencil is never clamped, so it stays a central
    # difference (error O(h^2)) at t near 0 and 1
    sch = random_neural(7)
    eps = 1e-6
    for t in (1e-5, 1.0 - 1e-5):
        dg = pointwise_derivatives(sch, t)
        for prefix, got in (("a", dg.da + 1.0), ("b", dg.db - 1.0)):
            ref = (sch.residual_term(prefix, t + eps)
                   - sch.residual_term(prefix, t - eps)) / (2 * eps)
            assert np.max(np.abs(got - ref)) < 2e-3, (t, prefix)


def test_residual_evaluated_once_per_node(monkeypatch):
    sch = random_neural(3)
    calls = []
    original = NeuralSchedule.residual_term

    def counting(self, prefix, t, params=None):
        calls.append(np.size(t))
        return original(self, prefix, t, params)

    monkeypatch.setattr(NeuralSchedule, "residual_term", counting)
    grid_derivatives(sch, GridSpec(16))
    assert calls == [17, 17]
    del calls[:]
    pointwise_derivatives(sch, np.linspace(0.1, 0.9, 5))
    assert calls == [15, 15]


def three_call_stencil(sch, t, h):
    """The central differences with one residual call per stencil point."""
    fields = []
    for prefix, base, slope in (("a", 1.0 - t, -1.0), ("b", t + 0.0, 1.0)):
        lo, mid, hi = (sch.residual_term(prefix, s) for s in (t - h, t, t + h))
        fields.append((base + mid, slope + (hi - lo) * (1.0 / (2.0 * h)),
                       (hi - 2.0 * mid + lo) * (1.0 / (h * h))))
    (a, da, dda), (b, db, ddb) = fields
    return DerivativeGrid(a, b, da, db, dda, ddb)


@pytest.mark.parametrize("m,rtol,rtol_second", [(16, 1e-14, 1e-14),
                                                 (1000, 1e-12, 1e-11)],
                         ids=["m16", "m1000"])
def test_grid_derivatives_match_three_call_stencil(m, rtol, rtol_second):
    # On the uniform grid t_i +- dt are the nodes t_(i+-1): bit for bit at
    # m=16 (dyadic nodes), to 1.1e-16 at m=1000, which a second difference
    # amplifies by 1/dt^2. Even on equal inputs the residual net is not
    # bitwise row-count independent (BLAS rounds a matrix-vector product's
    # tail rows differently), so m=16 is held to roundoff, not equality.
    g = GridSpec(m)
    if m == 16:
        assert np.array_equal(g.interior - g.dt, g.nodes[:-2])
        assert np.array_equal(g.interior + g.dt, g.nodes[2:])
    for seed in range(3):
        sch = random_neural(seed)
        got = grid_derivatives(sch, g)
        want = three_call_stencil(sch, g.interior, g.dt)
        for field in ("a", "b", "da", "db", "dda", "ddb"):
            x, y = getattr(got, field), getattr(want, field)
            tol = rtol_second if field in ("dda", "ddb") else rtol
            assert np.max(np.abs(x - y)) <= tol * np.max(np.abs(y)), field
