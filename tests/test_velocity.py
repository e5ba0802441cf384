import tracemalloc

import numpy as np
import pytest

from curveflow.engine import (Tensor, evaluate_with_gradients,
                              finite_difference_gradient, max_relative_error,
                              square, value_of)
from curveflow.errors import ConfigError
from curveflow.velocity import VelocityField


def test_output_dimension_matches_input():
    for n in (2, 4, 8):
        model = VelocityField(n, seed=0, hidden=16, time_features=4)
        z = np.linspace(-1.0, 1.0, n).reshape(1, n)
        out = model(z, 0.5)
        assert out.shape == (1, n)


def test_batched_evaluation_shape():
    model = VelocityField(2, seed=0, hidden=16, time_features=4)
    z = np.zeros((5, 2))
    out = model(z, np.full(5, 0.3))
    assert out.shape == (5, 2)


def test_forward_deterministic():
    model = VelocityField(3, seed=1)
    z = np.array([[0.1, -0.2, 0.4]])
    o1 = model(z, 0.7)
    o2 = model(z, 0.7)
    assert np.array_equal(o1, o2)


def test_forward_finite_on_bounded_inputs():
    rng = np.random.default_rng(0)
    model = VelocityField(2, seed=2)
    for _ in range(50):
        z = rng.uniform(-10.0, 10.0, size=(1, 2))
        assert np.all(np.isfinite(model(z, rng.random())))


def test_initialize_seeding():
    a = VelocityField(2, seed=5)
    b = VelocityField(2, seed=5)
    c = VelocityField(2, seed=6)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_initialize_layout():
    model = VelocityField(3, seed=0, hidden=32, time_features=8)
    assert model.params["v/w0"].shape == (11, 32)
    assert model.params["v/w3"].shape == (32, 3)
    for layer in range(4):
        assert np.all(model.params["v/b%d" % layer] == 0.0)
    # Xavier-uniform bound for the first layer
    limit = np.sqrt(6.0 / (11 + 32))
    assert np.max(np.abs(model.params["v/w0"])) <= limit


def test_invalid_dim_rejected():
    with pytest.raises(ConfigError):
        VelocityField(0)
    # an odd time-embedding width is rejected when the field is first called
    with pytest.raises(ConfigError, match="embedding width must be even"):
        VelocityField(2, time_features=5)(np.zeros((1, 2)), 0.5)


def test_gradient_matches_finite_differences():
    model = VelocityField(2, seed=3, hidden=8, time_features=4)
    z = np.array([[0.3, -0.5]])

    def loss(p):
        out = model(z, 0.4, params=p)
        return square(out).sum()

    _, g_ad = evaluate_with_gradients(loss, model.params)
    g_fd = finite_difference_gradient(loss, model.params, step=1e-5)
    err, name = max_relative_error(g_ad, g_fd)
    assert err < 1e-4, name


def test_empirical_lipschitz_bound():
    rng = np.random.default_rng(4)
    model = VelocityField(2, seed=0)
    delta = 1e-6
    for _ in range(20):
        z = rng.uniform(-5.0, 5.0, size=(1, 2))
        d = rng.standard_normal((1, 2))
        d = delta * d / np.linalg.norm(d)
        change = np.linalg.norm(model(z + d, 0.5) - model(z, 0.5))
        assert change <= 1e4 * delta


@pytest.mark.parametrize("rows", [1, 16, 2000])
def test_plain_forward_equals_tape_forward(rows):
    model = VelocityField(2, seed=1)
    rng = np.random.default_rng(rows)
    z, t = rng.standard_normal((rows, 2)), rng.random(rows)
    taped = model(z, t, params={n: Tensor(a) for n, a in model.params.items()})
    plain = model(z, t)
    assert isinstance(taped, Tensor) and type(plain) is np.ndarray
    assert plain.tobytes() == value_of(taped).tobytes()


def test_plain_forward_writes_only_its_result():
    # Heun keeps the first velocity while it computes the second
    model = VelocityField(2, seed=1)
    z = np.random.default_rng(0).standard_normal((16, 2))
    z.flags.writeable = False
    for a in model.params.values():
        a.flags.writeable = False
    first = model(z, 0.5)
    kept = first.copy()
    model(z - 0.1 * first, 0.4)
    assert first.tobytes() == kept.tobytes()


def test_plain_forward_peak_memory():
    # two (rows, hidden) buffers for the hidden layers, not one fresh
    # array per operation
    rows, hidden = 2000, 128
    model = VelocityField(2, hidden=hidden, seed=0)
    z = np.zeros((rows, 2))
    model(z, 0.5)
    tracemalloc.start()
    try:
        model(z, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * rows * hidden * 8
