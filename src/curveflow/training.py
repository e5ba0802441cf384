"""Training loop: timestep sampling, AdamW, polynomial-warmup LR schedule.

One shared AdamW optimizer updates the velocity field and (unless frozen)
the schedule's residual networks. All randomness comes from a single
Philox stream keyed by the config seed, so a rerun with the same config
reproduces the parameter trajectory bit for bit.
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
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be > 0")
        if self.warmup_steps < 1:
            raise ConfigError("warmup_steps must be >= 1")
        if self.lam < 0:
            raise ConfigError("lam must be >= 0")
        if self.grid_m < 4:
            raise ConfigError("grid_m must be >= 4")
        if self.timestep_sampler not in ("uniform", "logit-normal"):
            raise ConfigError("unknown timestep_sampler %r" % self.timestep_sampler)
        return self


@dataclass
class OptimizerState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def init(cls, params):
        return cls(m={n: np.zeros_like(a) for n, a in params.items()},
                   v={n: np.zeros_like(a) for n, a in params.items()})


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


def adamw_step(params, grads, state, lr):
    """Decoupled-weight-decay Adam update of the parameters named in
    ``grads``; returns a new dict, leaving ``params`` as it was."""
    state.step += 1
    k = state.step
    bc1 = 1.0 - BETA1 ** k
    bc2 = 1.0 - BETA2 ** k
    out = dict(params)
    for name, g in grads.items():
        g = np.asarray(g, dtype=float)
        if not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient for %r" % name,
                                  step=state.step)
        p = out[name]
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        out[name] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS) \
            - lr * WEIGHT_DECAY * p
    return out


def lr_at(step, total_steps, config):
    """Linear warmup to base_lr, then polynomial decay to zero."""
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

    Divergence is checked twice per step: the loss must be finite before
    ``backward``, and ``adamw_step`` checks every trainable gradient. Either
    raises DivergenceError carrying the parameters and history from before
    the failed step; intermediate tape values are not checked. Any other
    exception from the loss is a fault in the program, not divergence, and
    propagates unchanged.
    """
    config.validate()
    data = np.atleast_2d(np.asarray(dataset, dtype=float))
    if data.shape[0] == 0:
        raise ConfigError("dataset is empty")
    n, dim = data.shape

    params = {**model.params, **schedule.params}
    state = OptimizerState.init(params)
    rng = philox(config.seed)

    trainable = [name for name in params
                 if name in model.params or config.train_schedule]

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

            leaves = {name: Tensor(arr) for name, arr in params.items()}
            lr = lr_at(step, total_steps, config)
            try:
                fm, reg = total_loss_graph((x0, eps, t), model, schedule,
                                           config.lam, leaves)
                loss = fm + reg
                if not np.isfinite(value_of(loss)):
                    raise DivergenceError("non-finite loss")
                backward(loss)
                grads = {}
                for name in trainable:
                    g = leaves[name].grad
                    grads[name] = np.zeros_like(params[name]) if g is None else g
                params = adamw_step(params, grads, state, lr)
            except DivergenceError as exc:
                # ``params`` is still the pre-step state: the update raised
                raise DivergenceError("training diverged at step %d: %s"
                                      % (step, exc), step, params,
                                      history) from exc

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
