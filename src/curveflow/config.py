"""Experiment configuration and checkpoint persistence (JSON, versioned).

Floats are serialized with Python's shortest round-trip repr, so a reload
reproduces every 64-bit value exactly. Unknown config fields are rejected.
"""

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .datagen import DatasetSpec
from .engine import ParameterSet
from .errors import CheckpointError, ConfigError
from .sampling import SolverConfig
from .training import TrainConfig

FORMAT_VERSION = 1


@dataclass
class ScheduleConfig:
    kind: str = "neural"
    hidden: int = 64
    embed: int = 8
    seed: int = 0

    def validate(self):
        if self.kind not in ("neural", "linear", "trigonometric", "polynomial"):
            raise ConfigError("unknown schedule kind %r" % self.kind)
        if self.hidden < 1 or self.embed < 2 or self.embed % 2:
            raise ConfigError("invalid schedule layout")
        return self


@dataclass
class ModelConfig:
    hidden: int = 128
    time_features: int = 16
    seed: int = 0

    def validate(self):
        if self.hidden < 1 or self.time_features < 2 or self.time_features % 2:
            raise ConfigError("invalid model layout")
        return self


@dataclass
class MetricsConfig:
    projections: int = 64
    eval_count: int = 2000
    seed: int = 0

    def validate(self):
        if self.projections < 1 or self.eval_count < 1:
            raise ConfigError("invalid metrics settings")
        return self


@dataclass
class ExperimentConfig:
    format_version: int = FORMAT_VERSION
    data: DatasetSpec = field(default_factory=DatasetSpec)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    lambda_grid: list = field(default_factory=lambda: [0.0, 0.001, 0.01, 0.1, 1.0])

    def validate(self):
        if self.format_version != FORMAT_VERSION:
            raise ConfigError("unsupported format_version %r" % self.format_version)
        self.data.validate()
        self.schedule.validate()
        self.model.validate()
        self.train.validate()
        self.solver.validate()
        self.metrics.validate()
        for lam in self.lambda_grid:
            if lam < 0:
                raise ConfigError("lambda_grid entries must be >= 0")
        return self


_SECTIONS = {
    "data": DatasetSpec,
    "schedule": ScheduleConfig,
    "model": ModelConfig,
    "train": TrainConfig,
    "solver": SolverConfig,
    "metrics": MetricsConfig,
}


def _dataclass_from_dict(cls, doc, where):
    if not isinstance(doc, dict):
        raise ConfigError("section %r must be an object" % where)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - names
    if unknown:
        raise ConfigError("unknown field(s) in %s: %s"
                          % (where, ", ".join(sorted(unknown))))
    return cls(**doc)


def config_from_dict(doc):
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    known = {"format_version", "lambda_grid"} | set(_SECTIONS)
    unknown = set(doc) - known
    if unknown:
        raise ConfigError("unknown field(s): %s" % ", ".join(sorted(unknown)))
    kwargs = {}
    if "format_version" in doc:
        kwargs["format_version"] = doc["format_version"]
    if "lambda_grid" in doc:
        kwargs["lambda_grid"] = [float(x) for x in doc["lambda_grid"]]
    for name, cls in _SECTIONS.items():
        if name in doc:
            kwargs[name] = _dataclass_from_dict(cls, doc[name], name)
    return ExperimentConfig(**kwargs).validate()


def config_to_dict(config):
    return {
        "format_version": config.format_version,
        "data": dataclasses.asdict(config.data),
        "schedule": dataclasses.asdict(config.schedule),
        "model": dataclasses.asdict(config.model),
        "train": dataclasses.asdict(config.train),
        "solver": dataclasses.asdict(config.solver),
        "metrics": dataclasses.asdict(config.metrics),
        "lambda_grid": list(config.lambda_grid),
    }


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    return config_from_dict(doc)


@dataclass
class Checkpoint:
    config: ExperimentConfig
    params: ParameterSet
    step: int


def save_checkpoint(path, ckpt):
    doc = {
        "format_version": FORMAT_VERSION,
        "config": config_to_dict(ckpt.config),
        "step": ckpt.step,
        "params": {n: a.tolist() for n, a in ckpt.params.items()},
    }
    # write a sibling file and rename it over ``path``, so a failed write
    # leaves the previous checkpoint intact instead of a truncated one
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError("cannot read checkpoint %s: %s" % (path, exc)) from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CheckpointError("missing field: format_version")
    if doc["format_version"] != FORMAT_VERSION:
        raise CheckpointError("format_version mismatch: got %r, expected %d"
                              % (doc["format_version"], FORMAT_VERSION))
    for fieldname in ("config", "step", "params"):
        if fieldname not in doc:
            raise CheckpointError("missing field: %s" % fieldname)
    try:
        config = config_from_dict(doc["config"])
        params = ParameterSet({n: np.asarray(a, dtype=float)
                               for n, a in doc["params"].items()})
        step = int(doc["step"])
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError("malformed checkpoint field: %s" % exc) from exc
    return Checkpoint(config=config, params=params, step=step)
