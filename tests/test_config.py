import dataclasses
import re
import typing

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdmkit.config import (
    ExperimentConfig,
    config_digest,
    parse_config,
    render_config,
    validate_config,
)
from sdmkit.errors import ConfigParseError, ConfigValidationError

MINIMAL = """\
data:
  observations: obs.csv
task:
  num_classes: 30
"""


def test_defaults_filled_for_minimal_document():
    cfg = parse_config(MINIMAL)
    assert cfg.trainer.epochs == 20
    assert cfg.data.batch_size == 64
    assert cfg.optimizer.lr == 2.5e-4
    assert cfg.optimizer.t_max == 25
    assert cfg.optimizer.pos_weight == 10
    assert cfg.task.top_k == 25
    assert cfg.model.fusion.dropout == 0.1


def test_explicit_values_pass_through():
    cfg = parse_config(MINIMAL + "optimizer:\n  lr: 1.0e-3\n  t_max: 10\n  pos_weight: 3\n"
                       "trainer:\n  epochs: 10\n")
    assert cfg.optimizer.lr == 1e-3
    assert cfg.optimizer.t_max == 10
    assert cfg.trainer.epochs == 10
    assert cfg.optimizer.pos_weight == 3  # a float field takes an int


def test_null_sections_and_mappings_read_as_empty():
    nulls = MINIMAL.replace("obs.csv", "obs.csv\n  cube_manifests: null") + (
        "run:\ntrainer: null\nmodel:\n  encoders:\n    patch: null\n  fusion: null\n")
    assert parse_config(nulls) == parse_config(MINIMAL + "model:\n  encoders:\n    patch: {}\n")
    assert parse_config(MINIMAL + "model:\n  encoders: null\n") == parse_config(MINIMAL)


def config_fields(cls=ExperimentConfig, prefix=""):
    """(dotted key, annotation) of every field at every level of the config;
    a mapping's values are reached through the sample key "m"."""
    for name, hint in typing.get_type_hints(cls).items():
        key = prefix + name
        yield key, hint
        if dataclasses.is_dataclass(hint):
            yield from config_fields(hint, key + ".")
        elif typing.get_origin(hint) is dict:
            item = typing.get_args(hint)[1]
            yield key + ".m", item
            if dataclasses.is_dataclass(item):
                yield from config_fields(item, key + ".m.")


def wrong_values(hint):
    """Values of a type the annotation hint does not take: a list for every
    field, a bool for every field without a bool, and a string of digits for
    every field without a str."""
    types = typing.get_args(hint) or (hint,)
    return [["x"]] + [True] * (bool not in types) + ["64"] * (str not in types)


WRONG_TYPES = [(key, value) for key, hint in config_fields() for value in wrong_values(hint)]


@pytest.mark.parametrize("key,value", WRONG_TYPES,
                         ids=[f"{key}={value!r}" for key, value in WRONG_TYPES])
def test_value_of_wrong_type_rejected_naming_key(key, value):
    doc = yaml.safe_load(MINIMAL)
    *sections, name = key.split(".")
    node = doc
    for section in sections:
        node = node.setdefault(section, {})
    node[name] = value
    with pytest.raises(ConfigValidationError, match=f"^{re.escape(key)}: expected "):
        parse_config(yaml.safe_dump(doc))


def test_top_k_zero_rejected():
    with pytest.raises(ConfigValidationError, match="task.top_k"):
        parse_config("data:\n  observations: x\ntask:\n  num_classes: 5\n  top_k: 0\n")


def test_top_k_above_num_classes_rejected():
    with pytest.raises(ConfigValidationError, match="task.top_k"):
        parse_config("data:\n  observations: x\ntask:\n  num_classes: 5\n")


def test_malformed_yaml_names_line():
    with pytest.raises(ConfigParseError, match="line"):
        parse_config("data:\n  observations: [unclosed\ntask: {")


def test_unknown_top_level_section_rejected():
    with pytest.raises(ConfigValidationError, match="unknown top-level"):
        parse_config(MINIMAL + "extra_section:\n  a: 1\n")


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigValidationError, match="trainer"):
        parse_config(MINIMAL + "trainer:\n  epochz: 3\n")


def test_missing_required_section():
    with pytest.raises(ConfigValidationError, match="task"):
        parse_config("data:\n  observations: x\n")


# keys that no code reads; each must be rejected as unknown
REMOVED_KEYS = {
    "run.mode": "train",
    "run.checkpoint_path": "last.ckpt",
    "data.num_workers": 0,
    "trainer.device": "cpu",
    "model.encoders.patch.pretrained": False,
    "model.encoders.patch.input_channels": 4,
    "model.modifiers": {"strip_head": True},
    # every task trains per-class sigmoid BCE, so binary and multilabel trained
    # alike and multiclass was refused; a one-class multilabel task is binary
    "task.type": "multiclass",
    "optimizer.name": "sgd",
    "optimizer.scheduler": "cosine",
    "optimizer.loss": "weighted_bce_logits",
}


@pytest.mark.parametrize("path", sorted(REMOVED_KEYS))
def test_removed_key_rejected(path):
    doc = yaml.safe_load(MINIMAL)
    *sections, key = path.split(".")
    node = doc
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = REMOVED_KEYS[path]
    where = ".".join(sections)
    with pytest.raises(ConfigValidationError, match=re.escape(f"{where}: unknown key(s) ['{key}']")):
        parse_config(yaml.safe_dump(doc))


def test_single_modality_model_with_several_encoders_rejected():
    doc = MINIMAL + ("model:\n  name: micro_conv2d\n  encoders:\n"
                     "    patch: {name: micro_conv2d}\n    cube_a: {name: micro_conv3d}\n")
    with pytest.raises(ConfigValidationError,
                       match=re.escape("model.name: 'micro_conv2d' builds one encoder, "
                                       "but model.encoders lists ['patch', 'cube_a']")):
        parse_config(doc)
    assert list(parse_config(doc.replace("name: micro_conv2d\n  en", "name: mme\n  en"))
                .model.encoders) == ["patch", "cube_a"]


def test_fusion_on_single_modality_model_rejected():
    doc = MINIMAL + "model:\n  name: micro_conv2d\n  encoders:\n    patch: {name: micro_conv2d}\n"
    with pytest.raises(ConfigValidationError,
                       match=re.escape("model.fusion: model.name 'micro_conv2d' has no fusion head")):
        parse_config(doc + "  fusion: {hidden_dim: 1024}\n")
    cfg = parse_config(doc)
    assert parse_config(render_config(cfg)) == cfg  # rendered defaults are accepted


def test_embedding_dim_on_single_modality_model_rejected():
    # the classifier replaces the encoder's last layer, so its width is never used
    doc = MINIMAL + "model:\n  name: micro_conv2d\n  encoders:\n    patch: {name: micro_conv2d"
    with pytest.raises(ConfigValidationError,
                       match=re.escape("model.encoders.patch.embedding_dim: model.name "
                                       "'micro_conv2d' replaces")):
        parse_config(doc + ", embedding_dim: 128}\n")
    cfg = parse_config(doc + "}\n")
    assert parse_config(render_config(cfg)) == cfg  # rendered defaults are accepted
    mme = parse_config(doc.replace("name: micro_conv2d\n  en", "name: mme\n  en")
                       + ", embedding_dim: 128}\n")
    assert mme.model.encoders["patch"].embedding_dim == 128


def test_round_trip_identity():
    cfg = parse_config(MINIMAL + "optimizer:\n  lr: 3.0e-4\nrun:\n  seed: 9\n")
    assert parse_config(render_config(cfg)) == cfg


def test_digest_deterministic_and_sensitive():
    a = parse_config(MINIMAL)
    b = parse_config(MINIMAL)
    c = parse_config(MINIMAL + "optimizer:\n  lr: 1.0e-3\n")
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)


def test_digest_ignores_document_key_order():
    doc_a = "data:\n  observations: obs.csv\n  batch_size: 8\ntask:\n  num_classes: 30\n"
    doc_b = "task:\n  num_classes: 30\ndata:\n  batch_size: 8\n  observations: obs.csv\n"
    assert config_digest(parse_config(doc_a)) == config_digest(parse_config(doc_b))


@given(
    epochs=st.integers(-5, 50),
    batch=st.integers(-5, 200),
    top_k=st.integers(-2, 60),
    num_classes=st.integers(1, 50),
    dropout=st.floats(-0.5, 1.5, allow_nan=False),
)
@example(epochs=26, batch=1, top_k=1, num_classes=1, dropout=0.0)
@settings(max_examples=200, deadline=None)
def test_validation_rejects_every_invariant_violation(epochs, batch, top_k, num_classes, dropout):
    cfg = parse_config(MINIMAL)
    cfg = dataclasses.replace(
        cfg,
        trainer=dataclasses.replace(cfg.trainer, epochs=epochs),
        data=dataclasses.replace(cfg.data, batch_size=batch),
        task=dataclasses.replace(cfg.task, top_k=top_k, num_classes=num_classes),
        model=dataclasses.replace(
            cfg.model, fusion=dataclasses.replace(cfg.model.fusion, dropout=dropout)
        ),
    )
    valid = (
        1 <= epochs <= cfg.optimizer.t_max  # later epochs would train at lr 0
        and batch >= 1
        and 1 <= top_k <= num_classes
        and 0.0 <= dropout < 1.0
    )
    if valid:
        validate_config(cfg)
    else:
        with pytest.raises(ConfigValidationError):
            validate_config(cfg)


def test_defaults_never_override_explicit():
    cfg = parse_config(MINIMAL + "trainer:\n  epochs: 3\n")
    assert cfg.trainer.epochs == 3
    assert cfg.trainer.log_interval == 1  # untouched default
