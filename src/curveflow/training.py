"""Training loop: timestep sampling, AdamW, polynomial-warmup LR schedule.

One AdamW optimizer updates one flat vector of the velocity field's and
(unless frozen) the schedule's parameters; only these enter the tape. All
randomness comes from a single Philox stream keyed by the config seed, so
a rerun with the same config reproduces the parameter trajectory bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .datagen import philox
from .engine import Tensor, backward, value_of
from .errors import ConfigError, DivergenceError
from .losses import LossReport, total_loss_graph

T_CLAMP = 1e-5  # keep sampled timesteps strictly inside (0, 1)
BETA1, BETA2, ADAM_EPS, WEIGHT_DECAY = 0.9, 0.999, 1e-8, 0.01  # AdamW


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 16
    base_lr: float = 1e-3  # desk-scale default; the paper's 1e-5 targets LoRA fine-tuning
    warmup_steps: int = 100
    poly_power: float = 1.0
    lam: float = 0.001
    grid_m: int = 1000  # resolution of the diagnostics' uniform profile
    timestep_sampler: str = "uniform"
    seed: int = 0
    train_schedule: bool = True

    def validate(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0 < self.base_lr < math.inf:
            raise ConfigError("base_lr must be finite and > 0")
        if self.warmup_steps < 1:
            raise ConfigError("warmup_steps must be >= 1")
        if not 0 <= self.poly_power < math.inf:
            raise ConfigError("poly_power must be finite and >= 0")
        if not 0 <= self.lam < math.inf:
            raise ConfigError("lam must be finite and >= 0")
        if self.grid_m < 4:
            raise ConfigError("grid_m must be >= 4")
        if self.timestep_sampler not in ("uniform", "logit-normal"):
            raise ConfigError("unknown timestep_sampler %r" % self.timestep_sampler)
        return self


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: np.ndarray = field(init=False, repr=False)  # two rows like m

    def __post_init__(self):
        self.scratch = np.empty((2,) + self.m.shape)


def sample_timestep(kind, rng, size):
    """Draw ``size`` times strictly inside (0, 1)."""
    if kind == "uniform":
        t = rng.random(size)
    elif kind == "logit-normal":
        g = rng.standard_normal(size)
        t = 1.0 / (1.0 + np.exp(-g))
    else:
        raise ConfigError("unknown timestep sampler %r" % kind)
    return np.clip(t, T_CLAMP, 1.0 - T_CLAMP)


def adamw_step(theta, grad, state, lr):
    """Decoupled-weight-decay Adam step on ``theta`` in place; returns it.

    The temporaries live in ``state.scratch``, and every element sees the
    operations of theta - lr * (m / bc1) / (sqrt(v / bc2) + eps)
    - lr * wd * theta in that order, so the bits match that expression.
    """
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    update, work = state.scratch
    state.m *= BETA1
    state.m += np.multiply(1.0 - BETA1, grad, out=work)
    state.v *= BETA2
    np.multiply(1.0 - BETA2, grad, out=work)
    state.v += np.multiply(work, grad, out=work)
    np.divide(state.m, bc1, out=update)
    update *= lr
    np.divide(state.v, bc2, out=work)
    np.sqrt(work, out=work)
    work += ADAM_EPS
    update /= work
    np.multiply(lr * WEIGHT_DECAY, theta, out=work)  # decay of the old theta
    theta -= update
    theta -= work
    return theta


def lr_at(step, total_steps, config):
    """Linear warmup to base_lr, then polynomial decay to zero with the
    power poly_power >= 0; a power of 0 holds base_lr."""
    w = config.warmup_steps
    if step < w:
        return config.base_lr * step / w
    if total_steps <= w:
        return config.base_lr
    frac = (step - w) / (total_steps - w)
    return config.base_lr * (1.0 - frac) ** config.poly_power


@dataclass
class TrainResult:
    params: dict
    history: list = field(default_factory=list)


def train(config, dataset, schedule, model):
    """Run the optimization loop; returns TrainResult with per-step history.

    A non-finite loss, or else the first non-finite gradient in trainable
    order (the model's names, then the schedule's), raises DivergenceError
    with the parameters and history from before the step. Any other
    exception from the loss is a fault in the program and propagates.
    """
    config.validate()
    data = np.atleast_2d(np.asarray(dataset, dtype=float))
    if data.shape[0] == 0:
        raise ConfigError("dataset is empty")
    n, dim = data.shape

    initial = {**model.params, **schedule.params}
    trainable = [name for name in initial
                 if name in model.params or config.train_schedule]
    cuts = np.cumsum([initial[name].size for name in trainable])[:-1]

    def views(vector):
        return {name: part.reshape(initial[name].shape)
                for name, part in zip(trainable, np.split(vector, cuts))}

    # the one vector AdamW updates in place; params holds views into it
    theta = np.concatenate([np.zeros(0)]  # a model may have no parameters
                           + [initial[name].ravel() for name in trainable])
    grad = np.empty_like(theta)
    params = {**initial, **views(theta)}
    state = OptimizerState(np.zeros_like(theta), np.zeros_like(theta))
    rng = philox(config.seed)

    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    history = []
    step = 0
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            x0 = data[idx]
            eps = rng.standard_normal((len(idx), dim))
            t = sample_timestep(config.timestep_sampler, rng, size=len(idx))

            leaves = {name: Tensor(params[name]) for name in trainable}
            lr = lr_at(step, total_steps, config)
            fm, reg = total_loss_graph((x0, eps, t), model, schedule,
                                       config.lam, {**params, **leaves})
            loss = fm + reg
            if not np.isfinite(value_of(loss)):
                raise DivergenceError("training diverged at step %d: non-finite"
                                      " loss" % step, step, params, history)
            backward(loss)
            np.concatenate([np.zeros(0)] + [leaves[name].grad.ravel()
                                            for name in trainable], out=grad)
            if not np.all(np.isfinite(grad)):
                name = next(name for name, g in views(grad).items()
                            if not np.all(np.isfinite(g)))
                raise DivergenceError("training diverged at step %d: non-finite"
                                      " gradient for %r" % (step, name), step,
                                      params, history)
            adamw_step(theta, grad, state, lr)

            fm_val = float(value_of(fm))
            reg_val = float(value_of(reg))
            history.append(LossReport(step=step, fm_loss=fm_val,
                                      curvature_loss=reg_val,
                                      total=fm_val + reg_val, lr=lr))
            step += 1

    # push the trained arrays back into the owning objects
    model.params = {name: params[name] for name in model.params}
    schedule.params = {name: params[name] for name in schedule.params}
    return TrainResult(params=params, history=history)
