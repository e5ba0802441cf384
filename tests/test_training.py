import tracemalloc

import numpy as np
import pytest

from curveflow import training
from curveflow.datagen import DatasetSpec, generate
from curveflow.engine import ParameterSet, Tensor
from curveflow.errors import ConfigError, DivergenceError
from curveflow.schedules import LinearSchedule, NeuralSchedule
from curveflow.training import (WEIGHT_DECAY, OptimizerState, TrainConfig,
                                adamw_step, lr_at, sample_timestep, train)
from curveflow.velocity import VelocityField
from test_engine import _walk


def small_dataset(seed=0, count=200):
    return generate(DatasetSpec("gaussians8", count, seed=seed))


def test_config_validation():
    TrainConfig().validate()
    TrainConfig(grid_m=4).validate()
    for bad in (dict(epochs=0), dict(batch_size=0), dict(base_lr=0.0),
                dict(warmup_steps=0), dict(lam=-0.1),
                dict(timestep_sampler="cosmap"), dict(grid_m=3),
                # configs built in Python skip the JSON loader's check
                *({name: value} for name in ("base_lr", "poly_power", "lam")
                  for value in (np.nan, np.inf))):
        with pytest.raises(ConfigError):
            TrainConfig(**bad).validate()


def fresh_state(size):
    return OptimizerState(np.zeros(size), np.zeros(size))


def test_adamw_first_step_hand_value():
    out = adamw_step(np.array([1.0]), np.array([0.5]), fresh_state(1),
                     lr=1e-3)
    # first update: m_hat/(sqrt(v_hat)+eps) ~ 1, plus decoupled decay lr*wd
    assert abs(out[0] - 0.99899) < 1e-6


def test_adamw_zero_gradient_geometric_decay():
    theta = np.array([2.0])
    state = fresh_state(1)
    lr = 1e-2
    for k in range(1, 6):
        theta = adamw_step(theta, np.zeros(1), state, lr)
        assert abs(theta[0] - 2.0 * (1.0 - lr * WEIGHT_DECAY) ** k) < 1e-12
    assert state.step == 5


def test_adamw_elementwise():
    out = adamw_step(np.ones(3), np.full(3, 0.3), fresh_state(3), lr=1e-3)
    assert out[0] == out[1] == out[2]


def test_adamw_updates_theta_in_place():
    rng = np.random.default_rng(1)
    theta = rng.standard_normal(7)
    state = fresh_state(7)
    m, v, expected = np.zeros(7), np.zeros(7), theta.copy()
    for k in range(1, 4):
        lr = 1e-2 * k
        grad = rng.standard_normal(7)
        # the allocating formula that adamw_step computes in place
        m = training.BETA1 * m + (1.0 - training.BETA1) * grad
        v = training.BETA2 * v + (1.0 - training.BETA2) * grad * grad
        expected = expected - lr * (m / (1.0 - training.BETA1 ** k)) / (
            np.sqrt(v / (1.0 - training.BETA2 ** k)) + training.ADAM_EPS) \
            - lr * WEIGHT_DECAY * expected
        assert adamw_step(theta, grad, state, lr) is theta
        assert state.step == k
        assert state.m.tobytes() == m.tobytes()
        assert state.v.tobytes() == v.tobytes()
        assert theta.tobytes() == expected.tobytes()


def test_adamw_allocates_no_full_size_temporary():
    theta = np.linspace(-1.0, 1.0, 100_000)
    grad = np.cos(theta)
    state = fresh_state(theta.size)
    adamw_step(theta, grad, state, lr=1e-3)  # warm numpy's caches
    tracemalloc.start()
    try:
        adamw_step(theta, grad, state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < theta.nbytes / 100


def test_adamw_flat_update_is_bitwise_the_per_name_update():
    # the textbook per-name AdamW, one array at a time, against one update
    # of the concatenated vector: same IEEE operations on every element
    rng = np.random.default_rng(0)
    params = {"s": np.asarray(0.7), "b": rng.standard_normal(5),
              "w": rng.standard_normal((3, 4))}
    m = {n: np.zeros_like(a) for n, a in params.items()}
    v = {n: np.zeros_like(a) for n, a in params.items()}
    theta = np.concatenate([a.ravel() for a in params.values()])
    state = fresh_state(theta.size)
    for k in range(1, 6):
        lr = 1e-2 * k
        grads = {n: rng.standard_normal(a.shape) * 10.0 ** (k - 3)
                 for n, a in params.items()}
        for n, g in grads.items():
            m[n] = training.BETA1 * m[n] + (1.0 - training.BETA1) * g
            v[n] = training.BETA2 * v[n] + (1.0 - training.BETA2) * g * g
            m_hat = m[n] / (1.0 - training.BETA1 ** k)
            v_hat = v[n] / (1.0 - training.BETA2 ** k)
            params[n] = params[n] - lr * m_hat / (np.sqrt(v_hat)
                                                  + training.ADAM_EPS) \
                - lr * WEIGHT_DECAY * params[n]
        theta = adamw_step(
            theta, np.concatenate([g.ravel() for g in grads.values()]),
            state, lr)
        expected = np.concatenate([a.ravel() for a in params.values()])
        assert theta.tobytes() == expected.tobytes()


def test_lr_schedule_values():
    cfg = TrainConfig(base_lr=1e-3, warmup_steps=100, poly_power=1.0)
    total = 1000
    assert lr_at(0, total, cfg) == 0.0
    assert lr_at(100, total, cfg) == 1e-3
    assert lr_at(total, total, cfg) == 0.0
    # a run no longer than its warmup holds base_lr once warmup ends
    assert lr_at(100, 50, cfg) == 1e-3
    # continuity at the warmup boundary
    assert abs(lr_at(99, total, cfg) - lr_at(100, total, cfg)) < 2e-5
    # polynomial decay with power 2
    cfg2 = TrainConfig(base_lr=1e-3, warmup_steps=100, poly_power=2.0)
    assert abs(lr_at(550, 1000, cfg2) - 1e-3 * 0.25) < 1e-15


def test_sample_timestep_statistics():
    rng = np.random.default_rng(0)
    u = sample_timestep("uniform", rng, size=100000)
    assert abs(u.mean() - 0.5) < 0.01
    ln = sample_timestep("logit-normal", rng, size=100000)
    assert abs(np.median(ln) - 0.5) < 0.01
    for t in (u, ln):
        assert np.all(t > 0.0)
        assert np.all(t < 1.0)
    with pytest.raises(ConfigError):
        sample_timestep("cosmap", rng, 1)


def test_train_deterministic():
    data = small_dataset()
    runs = []
    for _ in range(2):
        cfg = TrainConfig(epochs=2, batch_size=16, lam=0.0, seed=4,
                          train_schedule=False)
        model = VelocityField(2, seed=0, hidden=16, time_features=4)
        runs.append(train(cfg, data, LinearSchedule(), model))
    r1, r2 = runs
    assert [r.fm_loss for r in r1.history] == [r.fm_loss for r in r2.history]
    for name in r1.params:
        assert np.array_equal(r1.params[name], r2.params[name])


def test_history_length_and_finiteness():
    data = small_dataset(count=50)
    cfg = TrainConfig(epochs=3, batch_size=16, lam=0.0, seed=0,
                      train_schedule=False)
    model = VelocityField(2, seed=0, hidden=16, time_features=4)
    result = train(cfg, data, LinearSchedule(), model)
    assert len(result.history) == 3 * 4  # ceil(50/16) = 4 steps per epoch
    assert all(np.isfinite(r.total) for r in result.history)


def test_empty_dataset_rejected():
    cfg = TrainConfig(epochs=1)
    model = VelocityField(2, seed=0, hidden=8, time_features=4)
    with pytest.raises(ConfigError):
        train(cfg, np.zeros((0, 2)), LinearSchedule(), model)


def test_zeroed_residual_reduces_to_rectified_flow_bitwise():
    """A neural schedule with zero residual trains exactly like the linear one.

    With the residual output layers at zero, a(t) = 1 - t and b(t) = t hold
    exactly, the flow-matching target is eps - x0, and (with the schedule
    frozen and lam = 0) the velocity-field parameter trajectory matches a
    linear-schedule reference run bit for bit at the same seed.
    """
    data = small_dataset()

    def run(schedule, train_schedule):
        cfg = TrainConfig(epochs=2, batch_size=16, lam=0.0, seed=7,
                          train_schedule=train_schedule)
        model = VelocityField(2, seed=1, hidden=16, time_features=4)
        return train(cfg, data, schedule, model)

    ref = run(LinearSchedule(), False)
    neural = run(NeuralSchedule(hidden=16, embed=8, seed=0), False)
    assert [r.fm_loss for r in ref.history] == [r.fm_loss for r in neural.history]
    for name in ref.params:
        assert np.array_equal(ref.params[name], neural.params[name])


def test_program_errors_are_not_reported_as_divergence():
    # Only numerical failures become DivergenceError; a fault such as a
    # TypeError, including a numpy ufunc the tape does not support,
    # propagates unchanged.
    class BrokenModel:
        params = ParameterSet({})

        def __call__(self, z, t, params=None):
            raise TypeError("broken model")

    cfg = TrainConfig(epochs=1, batch_size=16, lam=0.0, seed=0,
                      train_schedule=False)
    with pytest.raises(TypeError):
        train(cfg, small_dataset(count=16), LinearSchedule(), BrokenModel())

    field = VelocityField(2, seed=0, hidden=4, time_features=4)

    class SineModel:
        params = field.params

        def __call__(self, z, t, params=None):
            return np.sin(field(z, t, params))

    with pytest.raises(TypeError, match="ufunc"):
        train(cfg, small_dataset(count=16), LinearSchedule(), SineModel())

    class NaNModel(BrokenModel):
        def __call__(self, z, t, params=None):
            return VelocityField(2, seed=0, hidden=4,
                                 time_features=4)(z * np.nan, t)

    with pytest.raises(DivergenceError) as exc:
        train(cfg, small_dataset(count=16), LinearSchedule(), NaNModel())
    assert exc.value.step == 0


def _diverge_at_step_2(monkeypatch, schedule, lam, poison):
    """Train 2 epochs of 2 steps with the loss terms of step 2 poisoned.

    Returns the DivergenceError and a clean run of the first 2 steps (the
    warmup makes their learning rates independent of the total).
    """
    data = small_dataset(count=32)

    def run(epochs):
        cfg = TrainConfig(epochs=epochs, batch_size=16, lam=lam, grid_m=16,
                          seed=0, train_schedule=lam > 0)
        model = VelocityField(2, seed=0, hidden=8, time_features=4)
        return train(cfg, data, schedule(), model)

    reference = run(1)
    real = training.total_loss_graph
    calls = []

    def poisoned(batch, model, schedule, lam, params):
        fm, reg = real(batch, model, schedule, lam, params)
        calls.append(fm)
        if len(calls) == 3:
            fm, reg = poison(fm, reg, params)
        return fm, reg

    monkeypatch.setattr(training, "total_loss_graph", poisoned)
    with pytest.raises(DivergenceError) as exc:
        run(2)
    assert len(calls) == 3
    return exc.value, reference


def _assert_pre_step_state(exc, reference):
    assert exc.step == 2
    assert [r.total for r in exc.history] == \
        [r.total for r in reference.history]
    for name in reference.params:
        assert np.array_equal(exc.params[name], reference.params[name])


def test_non_finite_regularizer_diverges_with_pre_step_state(monkeypatch):
    def infinite_reg(fm, reg, params):
        assert np.isfinite(fm.value)
        return fm, reg + np.inf

    exc, reference = _diverge_at_step_2(
        monkeypatch, lambda: NeuralSchedule(hidden=8, embed=8, seed=0), 0.01,
        infinite_reg)
    assert str(exc) == "training diverged at step 2: non-finite loss"
    _assert_pre_step_state(exc, reference)


def test_nan_gradient_of_finite_loss_diverges(monkeypatch):
    # a node of value 0 whose VJP returns NaN leaves the loss finite
    def nan_gradient(fm, reg, params):
        leaf = params["v/b3"]
        node = Tensor(0.0, "nan_vjp", (leaf,),
                      (lambda g: np.full(leaf.shape, np.nan),))
        return fm + node, reg

    exc, reference = _diverge_at_step_2(monkeypatch, LinearSchedule, 0.0,
                                        nan_gradient)
    assert str(exc) == ("training diverged at step 2: "
                        "non-finite gradient for 'v/b3'")
    _assert_pre_step_state(exc, reference)


def test_first_non_finite_gradient_in_trainable_order_is_named(monkeypatch):
    # the schedule's leaf is poisoned first, but the model's names come
    # first in the trainable vector, so its gradient is the one named
    def nan_gradients(fm, reg, params):
        for name in ("a/b0", "v/w1"):
            leaf = params[name]
            fm = fm + Tensor(0.0, "nan_vjp", (leaf,),
                             (lambda g, s=leaf.shape: np.full(s, np.nan),))
        return fm, reg

    exc, reference = _diverge_at_step_2(
        monkeypatch, lambda: NeuralSchedule(hidden=8, embed=8, seed=0), 0.01,
        nan_gradients)
    assert str(exc) == ("training diverged at step 2: "
                        "non-finite gradient for 'v/w1'")
    _assert_pre_step_state(exc, reference)


def test_fm_loss_decreases_smoke():
    # 10-step moving averages over the first 50 steps are non-increasing
    data = generate(DatasetSpec("gaussians8", 2000, seed=3))
    cfg = TrainConfig(epochs=1, batch_size=16, lam=0.0, seed=3,
                      train_schedule=False)
    model = VelocityField(2, seed=3)
    result = train(cfg, data, LinearSchedule(), model)
    fm = np.array([r.fm_loss for r in result.history[:50]])
    windows = fm.reshape(5, 10).mean(axis=1)
    assert np.all(np.diff(windows) <= 0)


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_frozen_schedule_stays_off_the_tape(monkeypatch, lam):
    # no update reads a frozen schedule's gradients, so its arrays enter
    # the loss plain: the graph handed to backward holds the model's leaves
    # alone and no jet layer of the residual nets
    rng = np.random.default_rng(0)
    schedule = NeuralSchedule(hidden=8, embed=8, seed=0)
    schedule.params = {n: a + 0.1 * rng.standard_normal(a.shape)
                       for n, a in schedule.params.items()}
    model = VelocityField(2, seed=0, hidden=8, time_features=4)
    handed = []
    real_loss, real_backward = training.total_loss_graph, training.backward

    def loss_graph(batch, model, schedule, lam, params):
        handed.append(params)
        return real_loss(batch, model, schedule, lam, params)

    def backward(loss):
        handed.append(loss)
        real_backward(loss)

    monkeypatch.setattr(training, "total_loss_graph", loss_graph)
    monkeypatch.setattr(training, "backward", backward)
    cfg = TrainConfig(epochs=1, batch_size=16, lam=lam, grid_m=16, seed=0,
                      train_schedule=False)
    train(cfg, small_dataset(count=32), schedule, model)
    assert len(handed) == 4
    for params, loss in zip(handed[::2], handed[1::2]):
        assert not any(isinstance(params[n], Tensor) for n in schedule.params)
        nodes = _walk(loss)
        assert {id(n) for n in nodes if not n._parents} \
            == {id(params[n]) for n in model.params}
        assert "tanh_jet" not in {n.op for n in nodes}


def test_train_updates_schedule_only_when_enabled():
    data = small_dataset(count=64)
    for flag in (False, True):
        schedule = NeuralSchedule(hidden=8, embed=8, seed=0)
        before = {n: a.copy() for n, a in schedule.params.items()}
        cfg = TrainConfig(epochs=1, batch_size=16, lam=0.01, grid_m=16,
                          seed=0, train_schedule=flag)
        model = VelocityField(2, seed=0, hidden=8, time_features=4)
        train(cfg, data, schedule, model)
        moved = any(not np.array_equal(before[n], schedule.params[n])
                    for n in before)
        assert moved == flag


@pytest.mark.parametrize("train_schedule", [False, True])
def test_train_never_writes_into_the_arrays_it_was_given(train_schedule):
    # AdamW updates train's own flat vector in place; the model's and the
    # schedule's arrays from before the run keep their bytes
    data = small_dataset(count=64)
    schedule = NeuralSchedule(hidden=8, embed=8, seed=0)
    model = VelocityField(2, seed=0, hidden=8, time_features=4)
    given = {**model.params, **schedule.params}
    before = {n: a.tobytes() for n, a in given.items()}
    cfg = TrainConfig(epochs=1, batch_size=16, lam=0.01, grid_m=16, seed=0,
                      train_schedule=train_schedule)
    result = train(cfg, data, schedule, model)
    assert {n: a.tobytes() for n, a in given.items()} == before
    for name in given:
        trained = name in model.params or train_schedule
        assert (result.params[name].tobytes() != before[name]) == trained
