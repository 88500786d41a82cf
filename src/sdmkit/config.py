"""Declarative experiment configuration: parsing, validation, canonical digest.

A configuration document is YAML with exactly six top-level sections
(run, data, task, trainer, model, optimizer). Only ``data`` and ``task``
must be present; everything else is default-filled. Unknown keys are
rejected at every level so typos fail loudly instead of silently training
the wrong experiment.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import asdict, dataclass, field, is_dataclass

import yaml

from .errors import ConfigParseError, ConfigValidationError

# Defaults from the baseline training recipe.
DEFAULT_EPOCHS = 20
DEFAULT_BATCH_SIZE = 64
DEFAULT_LR = 2.5e-4
DEFAULT_T_MAX = 25
DEFAULT_POS_WEIGHT = 10.0
DEFAULT_TOP_K = 25
DEFAULT_DROPOUT = 0.1


@dataclass(frozen=True)
class RunSection:
    seed: int = 42


@dataclass(frozen=True)
class DataSection:
    observations: str = ""
    raster_manifest: str | None = None
    cube_manifests: dict[str, str] = field(default_factory=dict)
    batch_size: int = DEFAULT_BATCH_SIZE
    patch_size: int = 32
    split_path: str | None = None


@dataclass(frozen=True)
class TaskSection:
    num_classes: int = 0
    top_k: int = DEFAULT_TOP_K


@dataclass(frozen=True)
class TrainerSection:
    epochs: int = DEFAULT_EPOCHS
    log_interval: int = 1
    output_dir: str = "runs"


@dataclass(frozen=True)
class EncoderSection:
    provider: str = "builtin"
    name: str = "micro_conv2d"
    embedding_dim: int = 64


@dataclass(frozen=True)
class FusionSection:
    dropout: float = DEFAULT_DROPOUT
    hidden_dim: int = 256


@dataclass(frozen=True)
class ModelSection:
    provider: str = "builtin"
    name: str = "mme"
    encoders: dict[str, EncoderSection] = field(default_factory=dict)
    fusion: FusionSection = field(default_factory=FusionSection)


@dataclass(frozen=True)
class OptimizerSection:
    lr: float = DEFAULT_LR
    weight_decay: float = 0.0
    t_max: int = DEFAULT_T_MAX
    pos_weight: float = DEFAULT_POS_WEIGHT


@dataclass(frozen=True)
class ExperimentConfig:
    run: RunSection = field(default_factory=RunSection)
    data: DataSection = field(default_factory=DataSection)
    task: TaskSection = field(default_factory=TaskSection)
    trainer: TrainerSection = field(default_factory=TrainerSection)
    model: ModelSection = field(default_factory=ModelSection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)


def _mapping(raw, where: str) -> dict:
    """raw, which must be a mapping; null reads as empty."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigValidationError(f"{where}: expected a mapping, got {type(raw).__name__}")
    return raw


def _build_section(cls, raw, where: str):
    """Build the dataclass cls from the mapping raw, each value checked
    against its field's annotation; where is the dotted key of raw, empty at
    the top level."""
    raw = _mapping(raw, where)
    hints = typing.get_type_hints(cls)
    unknown = set(raw) - set(hints)
    if unknown:
        what = f"{where}: unknown key(s)" if where else "unknown top-level section(s)"
        raise ConfigValidationError(f"{what} {sorted(unknown)}; allowed: {sorted(hints)}")
    return cls(**{key: _build_value(hints[key], value, f"{where}.{key}" if where else key)
                  for key, value in raw.items()})


def _build_value(hint, value, where: str):
    """value as the annotation hint reads it: a section, a mapping, or a
    scalar of the annotated type, where float accepts int and no number
    accepts bool."""
    if is_dataclass(hint):
        return _build_section(hint, value, where)
    if typing.get_origin(hint) is dict:
        key_type, item_type = typing.get_args(hint)
        return {_build_value(key_type, key, where): _build_value(item_type, item, f"{where}.{key}")
                for key, item in _mapping(value, where).items()}
    types = typing.get_args(hint) or (hint,)  # str | None -> (str, NoneType)
    accepted = types + (int,) if float in types else types
    if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in types):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise ConfigValidationError(f"{where}: expected {names}, got {type(value).__name__} "
                                    f"{value!r}")
    return value


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigValidationError on the first violated constraint."""
    if cfg.task.num_classes < 1:
        raise ConfigValidationError("task.num_classes: must be >= 1")
    if not (1 <= cfg.task.top_k <= cfg.task.num_classes):
        raise ConfigValidationError(
            f"task.top_k: must satisfy 1 <= top_k <= num_classes "
            f"(got {cfg.task.top_k} with num_classes={cfg.task.num_classes})"
        )
    if cfg.trainer.epochs < 1:
        raise ConfigValidationError("trainer.epochs: must be >= 1")
    if cfg.data.batch_size < 1:
        raise ConfigValidationError("data.batch_size: must be >= 1")
    if cfg.data.patch_size < 1:
        raise ConfigValidationError("data.patch_size: must be >= 1")
    if not (0.0 <= cfg.model.fusion.dropout < 1.0):
        raise ConfigValidationError("model.fusion.dropout: must be in [0, 1)")
    if cfg.model.fusion.hidden_dim < 1:
        raise ConfigValidationError("model.fusion.hidden_dim: must be >= 1")
    for key, enc in cfg.model.encoders.items():
        if enc.embedding_dim < 1:
            raise ConfigValidationError(f"model.encoders.{key}.embedding_dim: must be >= 1")
        if cfg.model.name != "mme" and enc.embedding_dim != EncoderSection.embedding_dim:
            raise ConfigValidationError(
                f"model.encoders.{key}.embedding_dim: model.name {cfg.model.name!r} replaces "
                f"the encoder's last layer with the classifier; only mme reads embedding_dim"
            )
    if cfg.model.name != "mme" and len(cfg.model.encoders) > 1:
        raise ConfigValidationError(
            f"model.name: {cfg.model.name!r} builds one encoder, but model.encoders lists "
            f"{list(cfg.model.encoders)}; only mme fuses several"
        )
    if cfg.model.name != "mme" and cfg.model.fusion != FusionSection():
        raise ConfigValidationError(
            f"model.fusion: model.name {cfg.model.name!r} has no fusion head; "
            f"only mme reads model.fusion"
        )
    if cfg.optimizer.lr <= 0:
        raise ConfigValidationError("optimizer.lr: must be > 0")
    if cfg.optimizer.weight_decay < 0:
        raise ConfigValidationError("optimizer.weight_decay: must be >= 0")
    if cfg.optimizer.t_max < 1:
        raise ConfigValidationError("optimizer.t_max: must be >= 1")
    if cfg.trainer.epochs > cfg.optimizer.t_max:
        raise ConfigValidationError(f"trainer.epochs: {cfg.trainer.epochs} exceeds "
                                    f"optimizer.t_max {cfg.optimizer.t_max}, the epoch where "
                                    f"the lr reaches 0")
    if cfg.optimizer.pos_weight < 0:
        raise ConfigValidationError("optimizer.pos_weight: must be >= 0")


def parse_config(text: str) -> ExperimentConfig:
    """Parse a YAML experiment document into a validated ExperimentConfig.

    Absent optional fields take the recipe defaults; the data and task
    sections must be present.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigParseError(f"malformed configuration document{line}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigParseError("configuration document must be a mapping of sections")
    cfg = _build_section(ExperimentConfig, raw, "")
    for required in ("data", "task"):
        if required not in raw:
            raise ConfigValidationError(f"missing required section {required!r}")
    validate_config(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def render_config(cfg: ExperimentConfig) -> str:
    """Render a config back to YAML such that parse(render(cfg)) == cfg."""
    return yaml.safe_dump(asdict(cfg), sort_keys=True)


def config_digest(cfg: ExperimentConfig) -> str:
    """Deterministic 8-hex-digit hash of the canonicalized config, which
    names the run directory.

    Canonical form: keys sorted lexicographically, numbers in shortest
    round-trip decimal form (json repr of Python floats/ints).
    """
    canon = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:8]
