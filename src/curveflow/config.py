"""Experiment configuration and checkpoint persistence (JSON, versioned).

Config floats are written as shortest round-trip reprs, checkpoint
parameters as base64 little-endian float64 bytes, so a reload reproduces
every 64-bit value exactly. Unknown config or checkpoint fields are
rejected, as is a value whose JSON type does not fit its field's type.
"""

import base64
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import schedules
from .datagen import DatasetSpec, check_seed
from .engine import ParameterSet
from .errors import ConfigError
from .sampling import SolverConfig
from .training import TrainConfig

FORMAT_VERSION = 1
CHECKPOINT_VERSION = 2  # parameters as {"shape", "data": base64 bytes}


@dataclass
class ScheduleConfig:
    kind: str = "neural"
    hidden: int = 64
    embed: int = 8
    seed: int = 0

    def validate(self):
        if self.kind not in schedules.KINDS:
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
        for f in dataclasses.fields(self):
            if dataclasses.is_dataclass(f.type):
                section = getattr(self, f.name).validate()
                if hasattr(section, "seed"):
                    check_seed(section.seed, f.name + ".seed")
        check_seed(self.data.seed + 1, "data.seed + 1")  # diagnostics' noise
        for lam in self.lambda_grid:
            if not 0 <= lam < math.inf:
                raise ConfigError("lambda_grid entries must be finite and >= 0")
        return self


def _typed(value, kind, where):
    """``value`` if its type fits ``kind``; ints fit floats, bools only bools.

    Values are not converted, so a config's ints stay ints in its manifest.
    NaN and infinity, which Python's json reads, fit no field.
    """
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, (int, float) if kind is float else kind)
            or kind is float and not math.isfinite(value)):
        raise ConfigError("%s must be of type %s, got %r"
                          % (where, kind.__name__, value))
    return value


def _dataclass_from_dict(cls, doc, where):
    """Build ``cls`` from a JSON object, walking nested dataclass fields."""
    if not isinstance(doc, dict):
        raise ConfigError("%s must be an object" % where)
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(kinds)
    if unknown:
        raise ConfigError("unknown field(s) in %s: %s"
                          % (where, ", ".join(sorted(unknown))))
    kwargs = {}
    for name, value in doc.items():
        kind = kinds[name]
        if dataclasses.is_dataclass(kind):
            kwargs[name] = _dataclass_from_dict(kind, value, name)
        elif kind is list:  # lambda_grid, the one list field, holds floats
            kwargs[name] = [float(_typed(x, float, name))
                            for x in _typed(value, list, name)]
        else:
            kwargs[name] = _typed(value, kind, "%s.%s" % (where, name))
    return cls(**kwargs)


def config_from_dict(doc):
    return _dataclass_from_dict(ExperimentConfig, doc, "config").validate()


def config_to_dict(config):
    return dataclasses.asdict(config)


def _read_json(path, what):
    """The JSON document at ``path``; ConfigError naming ``what`` if it
    cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read %s %s: %s" % (what, path, exc)) from exc


def load_config(path):
    return config_from_dict(_read_json(path, "config"))


@dataclass
class Checkpoint:
    config: ExperimentConfig
    params: dict
    step: int


def save_checkpoint(path, ckpt):
    params = {name: {"shape": list(arr.shape), "data": base64.b64encode(
        np.asarray(arr, "<f8").tobytes()).decode("ascii")}
        for name, arr in ckpt.params.items()}
    text = json.dumps({"format_version": CHECKPOINT_VERSION,
                       "config": config_to_dict(ckpt.config),
                       "step": ckpt.step, "params": params})
    # write a sibling file and rename it over ``path``, so a failed write
    # leaves the previous checkpoint intact instead of a truncated one
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _decode_param(name, entry):
    """The float64 array of one ``params`` entry; ConfigError if malformed."""
    where = "params[%r]" % name
    if not isinstance(entry, dict) or not {"shape", "data"} <= entry.keys():
        raise ConfigError("%s must be an object with shape and data" % where)
    shape = [_typed(n, int, where + ".shape")
             for n in _typed(entry["shape"], list, where + ".shape")]
    data = base64.b64decode(_typed(entry["data"], str, where + ".data"),
                            validate=True)
    if min(shape, default=0) < 0 or len(data) != 8 * math.prod(shape):
        raise ConfigError("%s: shape %s does not hold %d bytes of float64"
                          % (where, shape, len(data)))
    return np.frombuffer(data, "<f8").reshape(shape)


def load_checkpoint(path):
    doc = _read_json(path, "checkpoint")
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ConfigError("missing field: format_version")
    if doc["format_version"] != CHECKPOINT_VERSION:
        raise ConfigError("format_version mismatch: got %r, expected %d"
                          % (doc["format_version"], CHECKPOINT_VERSION))
    for fieldname in ("config", "step", "params"):
        if fieldname not in doc:
            raise ConfigError("missing field: %s" % fieldname)
    unknown = set(doc) - {"format_version", "config", "step", "params"}
    if unknown:
        raise ConfigError("unknown field(s) in checkpoint: %s"
                          % ", ".join(sorted(unknown)))
    try:
        config = config_from_dict(doc["config"])
        params = ParameterSet({name: _decode_param(name, entry) for name, entry
                               in _typed(doc["params"], dict, "params").items()})
        step = _typed(doc["step"], int, "step")
    except ValueError as exc:  # a bad field; any other exception is a bug
        raise ConfigError("malformed checkpoint field: %s" % exc) from exc
    return Checkpoint(config=config, params=params, step=step)
