import warnings
import zlib

import numpy as np
import pytest
from scipy.special import expit

from curveflow.engine import (ParameterSet, Tensor, add, backward, concat,
                              divide, evaluate_with_gradients,
                              finite_difference_gradient, matmul,
                              max_relative_error, multiply,
                              silu, square, take, tanh_jet)
from curveflow.losses import total_loss_graph
from curveflow.schedules import NeuralSchedule
from curveflow.velocity import VelocityField
from test_schedule import random_neural


def test_square_value_and_gradient():
    val, g = evaluate_with_gradients(lambda p: square(p["x"]),
                                     ParameterSet({"x": 3.0}))
    assert val == 9.0
    assert g["x"] == 6.0


def test_product_rule():
    params = ParameterSet({"x": 2.0, "y": 5.0})
    val, g = evaluate_with_gradients(lambda p: p["x"] * p["y"], params)
    assert val == 10.0
    assert g["x"] == 5.0
    assert g["y"] == 2.0


def _mlp_loss(p):
    # a tanh MLP on one point's (value, d/dt, d^2/dt^2) rows
    h = tanh_jet(p["in"] @ p["w0"], p["b0"])
    h = tanh_jet(h @ p["w1"], p["b1"])
    out = h @ p["w2"] + p["b2"]
    return square(out).sum()


def _random_mlp_params(rng, n_in=10, hidden=6):
    return ParameterSet({
        "in": rng.standard_normal((3, n_in)),
        "w0": rng.standard_normal((n_in, hidden)),
        "b0": rng.standard_normal(hidden),
        "w1": rng.standard_normal((hidden, hidden)),
        "b1": rng.standard_normal(hidden),
        "w2": rng.standard_normal((hidden, 1)),
        "b2": rng.standard_normal(1),
    })


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    params = _random_mlp_params(rng)
    _, g_ad = evaluate_with_gradients(_mlp_loss, params)
    g_fd = finite_difference_gradient(_mlp_loss, params, step=1e-5)
    err, _ = max_relative_error(g_ad, g_fd)
    assert err < 1e-4


@pytest.mark.parametrize("name,fn", [
    ("add", lambda x: (x + 1.5).sum()),
    ("multiply", lambda x: (x * 2.5).sum()),
    # the jets (x, 0, 0) as the rows of u
    ("tanh", lambda x: take(tanh_jet(
        x.reshape((1, 5)) * np.array([[1.0], [0.0], [0.0]]), 0.0), 0).sum()),
    ("silu", lambda x: silu(x).sum()),
    ("square", lambda x: square(x).sum()),
    ("divide", lambda x: (divide(x, x * x + 1.0) + 2.0 / (x * x + 2.0)).sum()),
    ("take", lambda x: square(take(x, slice(1, 4))).sum()),
    ("take_axis0", lambda x: square(take(
        x.reshape((5, 1)) * np.array([1.0, -2.0, 0.5]), slice(2, None))).sum()),
])
def test_primitive_gradients_vs_finite_differences(name, fn):
    # >= 100 random draws across the parametrized primitives; seeded by
    # crc32, since hash() of a str is salted per process
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(20):
        params = ParameterSet({"x": rng.standard_normal(5)})
        loss = lambda p: fn(p["x"])
        _, g_ad = evaluate_with_gradients(loss, params)
        g_fd = finite_difference_gradient(loss, params, step=1e-5)
        err, _ = max_relative_error(g_ad, g_fd)
        assert err < 1e-4, name


@pytest.mark.parametrize("operands", [("u",), ("b",), ("u", "b")],
                         ids=["u", "bias", "both"])
def test_tanh_jet_gradients_vs_finite_differences(operands):
    # 100 random (3n, H) draws per choice of which operands are Tensors;
    # the other operand enters as a plain array
    rng = np.random.default_rng(8)
    for _ in range(100):
        n, hidden = rng.integers(1, 4), rng.integers(1, 4)
        inputs = {"u": rng.standard_normal((3 * n, hidden)),
                  "b": rng.standard_normal(hidden)}
        weights = rng.standard_normal((3 * n, hidden))
        params = ParameterSet({k: inputs[k] for k in operands})

        def loss(p):
            v = {**inputs, **p}
            return (tanh_jet(v["u"], v["b"]) * weights).sum()

        _, g_ad = evaluate_with_gradients(loss, params)
        g_fd = finite_difference_gradient(loss, params, step=1e-5)
        err, _ = max_relative_error(g_ad, g_fd)
        assert err < 1e-4, operands


def test_gradient_linearity():
    rng = np.random.default_rng(1)
    params = ParameterSet({"x": rng.standard_normal(4)})
    f1 = lambda p: (p["x"] * 3.0).sum()
    f2 = lambda p: square(p["x"]).sum()
    _, g1 = evaluate_with_gradients(f1, params)
    _, g2 = evaluate_with_gradients(f2, params)
    _, g12 = evaluate_with_gradients(lambda p: f1(p) + f2(p), params)
    assert np.all(np.abs(g12["x"] - (g1["x"] + g2["x"])) < 1e-12)


def test_repeated_evaluation_bit_identical():
    rng = np.random.default_rng(2)
    params = _random_mlp_params(rng)
    v1, g1 = evaluate_with_gradients(_mlp_loss, params)
    v2, g2 = evaluate_with_gradients(_mlp_loss, params)
    assert v1 == v2
    for name in g1:
        assert np.array_equal(g1[name], g2[name])


def test_cubic_finite_difference():
    g = finite_difference_gradient(lambda p: p["x"] * p["x"] * p["x"],
                                   ParameterSet({"x": 2.0}), step=1e-4)
    assert abs(g["x"] - 12.0) < 1e-6


def test_finite_difference_exact_on_quadratics():
    for h in (1e-2, 1e-4, 1e-6):
        g = finite_difference_gradient(lambda p: square(p["x"]),
                                       ParameterSet({"x": 3.0}), step=h)
        assert abs(g["x"] - 6.0) < 1e-7
    with pytest.raises(ValueError, match="step must be positive"):
        finite_difference_gradient(lambda p: square(p["x"]),
                                   ParameterSet({"x": 3.0}), step=0)


def test_unsupported_primitive_rejected():
    # a numpy ufunc or operator the tape does not record must not silently
    # turn a Tensor into a plain array
    x = Tensor(np.ones(3))
    with pytest.raises(TypeError):
        np.sin(x)
    with pytest.raises(TypeError):
        np.square(x)
    with pytest.raises(TypeError):
        x ** 3
    # nor are the operator forms that no caller applies
    for form in (lambda: 1.0 - x, lambda: np.ones(3) - x, lambda: x / 2.0,
                 lambda: -x):
        with pytest.raises(TypeError):
            form()
    # backward starts only from a scalar tape node
    with pytest.raises(TypeError, match="backward expects a Tensor"):
        backward(np.ones(()))
    with pytest.raises(ValueError, match="backward requires a scalar output"):
        backward(x)


def test_ndarray_operands_use_reflected_operators():
    # ndarray (op) Tensor is deferred to the Tensor, which records the
    # primitive with the Tensor as its one parent
    a = np.array([[2.0, 4.0]])
    x = Tensor(np.array([[1.0, 2.0]]))
    for out, op, value in ((a + x, "add", [[3.0, 6.0]]),
                           (a * x, "multiply", [[2.0, 8.0]]),
                           (a / x, "divide", [[2.0, 2.0]]),
                           (a @ x.reshape((2, 1)), "matmul", [[10.0]])):
        assert isinstance(out, Tensor)
        assert out.op == op
        assert np.array_equal(out.value, value)
        assert all(isinstance(p, Tensor) for p in out._parents)


def test_division_is_true_division():
    # 49 * (1 / 49) rounds to 1 - 2^-53; on the tape, as in numpy, x / x
    # must stay exactly 1 whichever way the division is spelled
    x = np.arange(1.0, 100.0)
    for q in (divide(Tensor(x), Tensor(x)), divide(Tensor(x), x),
              x / Tensor(x)):
        assert q.op == "divide"
        assert np.all(q.value == 1.0)


def test_shared_subexpression_gradient():
    # y used twice: gradient must accumulate both paths
    params = ParameterSet({"x": 3.0})
    val, g = evaluate_with_gradients(lambda p: p["x"] * p["x"] + p["x"],
                                     params)
    assert val == 12.0
    assert g["x"] == 7.0


def test_matmul_shapes_and_gradients():
    rng = np.random.default_rng(3)
    params = ParameterSet({"a": rng.standard_normal((3, 4)),
                           "b": rng.standard_normal((4, 2))})
    loss = lambda p: square(p["a"] @ p["b"]).sum()
    _, g_ad = evaluate_with_gradients(loss, params)
    g_fd = finite_difference_gradient(loss, params, step=1e-5)
    err, _ = max_relative_error(g_ad, g_fd)
    assert err < 1e-4
    a, b, v = Tensor(params["a"]), Tensor(params["b"]), Tensor(np.ones(4))
    for lhs, rhs in ((a, v), (v, b), (v, v)):
        with pytest.raises(ValueError, match="matmul takes 2-D operands"):
            lhs @ rhs


def test_concat_gradient():
    rng = np.random.default_rng(4)
    params = ParameterSet({"a": rng.standard_normal((2, 3)),
                           "b": rng.standard_normal((2, 2))})
    loss = lambda p: square(concat(p["a"], p["b"])).sum()
    _, g_ad = evaluate_with_gradients(loss, params)
    g_fd = finite_difference_gradient(loss, params, step=1e-5)
    err, _ = max_relative_error(g_ad, g_fd)
    assert err < 1e-4


def test_broadcasting_gradients():
    rng = np.random.default_rng(5)
    params = ParameterSet({"s": rng.standard_normal(3),
                           "m": rng.standard_normal((4, 3))})
    loss = lambda p: square(p["m"] * p["s"] + p["s"]).sum()
    _, g_ad = evaluate_with_gradients(loss, params)
    g_fd = finite_difference_gradient(loss, params, step=1e-5)
    err, _ = max_relative_error(g_ad, g_fd)
    assert err < 1e-4


def test_parameter_set_rejects_non_finite():
    with pytest.raises(ValueError):
        ParameterSet({"x": np.array([1.0, np.nan])})


def test_gradient_map_congruent():
    params = ParameterSet({"x": np.zeros((2, 3)), "y": 1.0})
    _, g = evaluate_with_gradients(lambda p: p["x"].sum() + p["y"], params)
    assert {n: a.shape for n, a in g.items()} == {"x": (2, 3), "y": ()}


def _walk(out):
    seen, stack, nodes = set(), [out], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _composed_tanh_jet(u, b):
    # the tanh layer on jets as numpy composes it, one operation at a time
    n = u.shape[0] // 3
    h = np.tanh(u[:n] + b)
    du, ddu = u[n:2 * n], u[2 * n:]
    s = 1.0 - np.square(h)
    return np.concatenate([h, s * du, s * (ddu - (2.0 * h) * np.square(du))])


def test_plain_operands_give_plain_arrays():
    # with no Tensor operand a primitive is the numpy expression itself
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal((2, 4, 3))
    w = rng.standard_normal((3, 5))
    u, b = rng.standard_normal((6, 3)), rng.standard_normal(3)
    for got, want in ((add(x, y), x + y), (multiply(x, y), x * y),
                      (divide(x, y), x / y), (matmul(x, w), x @ w),
                      (concat(x, y), np.concatenate([x, y], axis=1)),
                      (concat(x, y[:, :1]),
                       np.concatenate([x, y[:, :1]], axis=1)),
                      (take(x, slice(1, 3)), x[1:3]),
                      (tanh_jet(u, b), _composed_tanh_jet(u, b)),
                      (silu(x), x * (1.0 / (1.0 + np.exp(-x)))),
                      (square(x), np.square(x))):
        assert type(got) is np.ndarray
        assert got.tobytes() == want.tobytes()


def test_silu_matches_expit():
    # numpy's exp differs from scipy's expit by a few ulp; at -800,
    # exp(800) overflows to inf without a warning and the sigmoid is 0
    x = np.concatenate([np.linspace(-40.0, 40.0, 80001), [-800.0, 800.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, taped = silu(x), silu(Tensor(x))
        backward(taped.sum())
    want = x * expit(x)
    assert np.all(np.abs(got - want)[:-2] <= 4 * np.spacing(np.abs(want[:-2])))
    assert got[-2] == 0.0 and got[-1] == 800.0
    assert taped.value.tobytes() == got.tobytes()


def test_constant_operands_are_not_parents():
    # a mixed op records only its Tensor operand, whichever side it is on
    x = Tensor(np.array([[1.0, -2.0]]))
    c = np.array([[3.0, 0.5]])
    for out in (add(x, c), add(c, x), multiply(c, x), divide(x, c),
                divide(c, x), matmul(c.T, x), matmul(x, c.T),
                concat(c, x), 2.0 * x, x * -1.0):
        assert out._parents == (x,)
        assert len(out._vjps) == 1
    # x - c is x + (-1.0 * c): the negated constant is a plain array
    assert (x - c)._parents == (x,)
    assert multiply(x, x)._parents == (x, x)


def _neural_loss_tape():
    schedule = random_neural(0)
    model = VelocityField(2, seed=0, hidden=8, time_features=8)
    rng = np.random.default_rng(7)
    batch = (rng.standard_normal((4, 2)), rng.standard_normal((4, 2)),
             rng.random(4))
    leaves = {n: Tensor(a) for n, a in
              {**model.params, **schedule.params}.items()}
    fm, reg = total_loss_graph(batch, model, schedule, 0.1, leaves)
    return _walk(fm + reg), leaves


def test_training_tape_holds_no_constants():
    nodes, leaves = _neural_loss_tape()
    assert all(isinstance(n, Tensor) for n in nodes)
    assert "const" not in {n.op for n in nodes}
    # every parentless node is a parameter leaf
    params = {id(leaf) for leaf in leaves.values()}
    assert all(id(n) in params for n in nodes if not n._parents)


def test_neural_schedule_records_one_node_per_tanh_layer():
    # 2 hidden layers x 2 residual nets: one schedule evaluation serves the
    # FM target and the regularizer
    ops = [node.op for node in _neural_loss_tape()[0]]
    assert ops.count("tanh_jet") == 4
    assert "tanh" not in ops


@pytest.mark.parametrize("lam,nodes", [(1e-3, 109), (0.0, 81)])
def test_full_size_curveflow_step_tape_nodes(lam, nodes):
    # the benchmark's curveflow sizes: batch 16, velocity MLP 128 wide,
    # residual nets 64 wide; a structural change to the step moves this
    # count (engine.tape_nodes in a traced run)
    schedule = NeuralSchedule(hidden=64, embed=8, seed=0)
    model = VelocityField(2, hidden=128, time_features=16, seed=0)
    rng = np.random.default_rng(0)
    batch = (rng.standard_normal((16, 2)), rng.standard_normal((16, 2)),
             rng.random(16))
    leaves = {n: Tensor(a) for n, a in
              {**model.params, **schedule.params}.items()}
    fm, reg = total_loss_graph(batch, model, schedule, lam, leaves)
    assert len(_walk(fm + reg)) == nodes
