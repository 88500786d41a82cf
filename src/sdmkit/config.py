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
from dataclasses import asdict, dataclass, field, fields

import yaml

from .errors import ConfigParseError, ConfigValidationError

# Every task trains per-class sigmoid BCE and scores with expit, so there is
# no multiclass (softmax) task.
TASK_TYPES = ("binary", "multilabel")

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
    type: str = "multilabel"
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


def _build_section(cls, raw: dict, where: str):
    if not isinstance(raw, dict):
        raise ConfigValidationError(f"{where}: expected a mapping, got {type(raw).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigValidationError(
            f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    return cls(**raw)


def _build_model_section(raw: dict) -> ModelSection:
    raw = dict(raw)
    encoders_raw = raw.pop("encoders", {})
    fusion_raw = raw.pop("fusion", {})
    base = _build_section(ModelSection, raw, "model") if raw else ModelSection()
    encoders = {
        name: _build_section(EncoderSection, enc or {}, f"model.encoders.{name}")
        for name, enc in (encoders_raw or {}).items()
    }
    return ModelSection(
        provider=base.provider,
        name=base.name,
        encoders=encoders,
        fusion=_build_section(FusionSection, fusion_raw or {}, "model.fusion"),
    )


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigValidationError on the first violated constraint."""
    if cfg.task.type not in TASK_TYPES:
        raise ConfigValidationError(f"task.type: {cfg.task.type!r} not in {TASK_TYPES}")
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
    if cfg.optimizer.pos_weight < 0:
        raise ConfigValidationError("optimizer.pos_weight: must be >= 0")


_SECTIONS = {
    "run": RunSection,
    "data": DataSection,
    "task": TaskSection,
    "trainer": TrainerSection,
    "model": None,  # special-cased for nesting
    "optimizer": OptimizerSection,
}


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
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigValidationError(
            f"unknown top-level section(s) {sorted(unknown)}; allowed: {sorted(_SECTIONS)}"
        )
    for required in ("data", "task"):
        if required not in raw:
            raise ConfigValidationError(f"missing required section {required!r}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section_raw = raw.get(name) or {}
        if name == "model":
            kwargs[name] = _build_model_section(section_raw)
        else:
            kwargs[name] = _build_section(cls, section_raw, name)
    cfg = ExperimentConfig(**kwargs)
    validate_config(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def render_config(cfg: ExperimentConfig) -> str:
    """Render a config back to YAML such that parse(render(cfg)) == cfg."""
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True)


def config_digest(cfg: ExperimentConfig, length: int = 12) -> str:
    """Deterministic short hash of the canonicalized config.

    Canonical form: keys sorted lexicographically, numbers in shortest
    round-trip decimal form (json repr of Python floats/ints).
    """
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:length]
