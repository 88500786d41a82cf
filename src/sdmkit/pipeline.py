"""Wire a parsed config into concrete data sources and a model.

This is the glue the CLI uses: load every modality named in the data
section, derive the patch normalization from the rasters and normalize them
once, realize the spatial split, and build the configured model with seeded
init in COMPUTE_DTYPE.
"""

from __future__ import annotations

import os

import numpy as np

from .config import EncoderSection, ExperimentConfig
from .errors import ConfigValidationError, DataError, SdmkitError, ShapeError
from .geodata import (
    COMPUTE_DTYPE,
    ObservationTable,
    PatchSpec,
    SampleSource,
    load_cubes,
    load_observations,
    load_raster_manifest,
    normalize_layers,
)
from .nn import FusionModel, build_encoder, modify_last_layer
from .nn.layers import Module
from .split import SpatialSplit, block_holdout, load_split


class LoadedData:
    """The loaded tables. layers are the rasters as read; the sources cut
    patches from patch_grids, one geodata.PatchGrid per grid of patch_spec's
    layers, filled, normalized, framed and stacked channels-last once, here
    (geodata.normalize_layers), so that every source shares them."""

    def __init__(self, table: ObservationTable, layers, patch_spec, cube_maps):
        self.table = table
        self.layers = layers
        self.patch_spec = patch_spec
        self.cube_maps = cube_maps
        self.patch_grids = normalize_layers(layers, patch_spec) if patch_spec is not None else []

    def cube_shapes(self) -> dict[str, tuple[int, ...]]:
        """Per-sample shape of every batch modality collate builds: patch
        (patch_spec's layers, side, side) when rasters are loaded, each cube
        (B, Q, Y), and location (2,)."""
        shapes = {}
        if self.patch_spec is not None:
            side = self.patch_spec.side
            shapes["patch"] = (len(self.patch_spec.layer_names), side, side)
        for name, store in self.cube_maps.items():
            shapes[name] = store.values.shape[1:]
        shapes["location"] = (2,)
        return shapes

    def source_for(self, survey_ids=None, labels_mode: str = "train"):
        table = self.table if survey_ids is None else self.table.subset(survey_ids)
        return SampleSource(table, self.patch_grids, self.patch_spec, self.cube_maps,
                            labels_mode)


def _valid_stats(layer) -> tuple[float, float]:
    """(mean, std) of a raster's pixels that are not missing (nodata, NaN or +-inf)."""
    valid = layer.values[~layer.missing(layer.values)]
    if valid.size == 0:
        raise DataError(f"raster {layer.name!r}: no valid pixel (all nodata or non-finite)")
    return float(valid.mean()), float(valid.std()) or 1.0


def load_table(cfg: ExperimentConfig) -> ObservationTable:
    """The config's observation table, refused if it has no survey rows."""
    if not cfg.data.observations or not os.path.exists(cfg.data.observations):
        raise SdmkitError(f"data.observations: file not found: {cfg.data.observations!r}")
    table = load_observations(cfg.data.observations, cfg.task.num_classes)
    if not len(table):
        raise DataError(f"{cfg.data.observations}: no survey rows")
    return table


def load_data(cfg: ExperimentConfig) -> LoadedData:
    table = load_table(cfg)
    layers, patch_spec = [], None
    if cfg.data.raster_manifest:
        layers = load_raster_manifest(cfg.data.raster_manifest)
        normalize = {l.name: _valid_stats(l) for l in layers}
        patch_spec = PatchSpec(
            side=cfg.data.patch_size,
            layer_names=tuple(l.name for l in layers),
            normalize=normalize,
        )
    cube_maps = {name: load_cubes(path) for name, path in cfg.data.cube_manifests.items()}
    return LoadedData(table, layers, patch_spec, cube_maps)


def resolve_split(cfg: ExperimentConfig, table: ObservationTable) -> SpatialSplit:
    """The config's split file, which must exist and assign every survey of
    the table (it may list more), some to train and some to val; a block
    holdout only if no file is set."""
    path = cfg.data.split_path
    if not path:
        return block_holdout(table, seed=cfg.run.seed)
    if not os.path.exists(path):
        raise DataError(f"data.split_path: file not found: {path!r}")
    split = load_split(path)
    omitted = [sid for sid in table.survey_ids if sid not in split.assignment]
    if omitted:
        raise DataError(f"{path}: omits {len(omitted)} of the {len(table)} surveys in the "
                        f"observation table, first {omitted[0]!r}")
    empty = {"train", "val"} - {split.assignment[sid] for sid in table.survey_ids}
    if empty:
        raise DataError(f"{path}: partition {empty.pop()!r} holds none of the {len(table)} "
                        f"surveys in the observation table")
    return split


class SingleModalityModel(Module):
    """Adapter running one encoder-classifier on a single batch modality."""

    def __init__(self, modality: str, net):
        super().__init__()
        self.modality = modality
        self.net = net

    def forward(self, batch, training=False):
        return self.net.forward(batch[self.modality], training=training)

    def backward(self, dout):
        return self.net.backward(dout)

    def children(self):
        return [(self.modality, self.net)]


def _input_shape(shapes: dict, modality: str) -> tuple[int, ...]:
    if modality not in shapes:
        raise ConfigValidationError(
            f"model.encoders.{modality}: the data has no {modality!r} modality; "
            f"it has {sorted(shapes)}"
        )
    return shapes[modality]


def model_encoders(cfg: ExperimentConfig) -> dict[str, EncoderSection]:
    """The encoder build_model builds for each modality: model.encoders, or,
    for a single-modality model without them, model.provider and model.name
    on patch."""
    if cfg.model.encoders or cfg.model.name == "mme":
        return dict(cfg.model.encoders)
    return {"patch": EncoderSection(provider=cfg.model.provider, name=cfg.model.name)}


def build_model(cfg: ExperimentConfig, cube_shapes: dict):
    """Build the configured model with init drawn from the run seed, its
    params and grads views of one flat COMPUTE_DTYPE buffer each
    (Module.flatten_params); each encoder (model_encoders) takes the
    per-sample shape of its modality from cube_shapes
    (LoadedData.cube_shapes)."""
    rng = np.random.default_rng([cfg.run.seed, 0])
    specs = model_encoders(cfg)
    if cfg.model.name == "mme":
        if not specs:
            raise ShapeError("mme model requires at least one encoder spec")
        encoders = {
            modality: build_encoder(enc.provider, enc.name, _input_shape(cube_shapes, modality),
                                    enc.embedding_dim, rng)
            for modality, enc in specs.items()
        }
        model = FusionModel(
            encoders,
            num_classes=cfg.task.num_classes,
            hidden_dim=cfg.model.fusion.hidden_dim,
            dropout_p=cfg.model.fusion.dropout,
            rng=rng,
        )
    else:
        # single-modality: one encoder whose last layer becomes the classifier
        modality, enc = next(iter(specs.items()))
        net = build_encoder(enc.provider, enc.name, _input_shape(cube_shapes, modality),
                            enc.embedding_dim, rng)
        modify_last_layer(net, cfg.task.num_classes, rng)
        model = SingleModalityModel(modality, net)
    # init draws in float64 and casts once, so the draws do not depend on the dtype
    model.flatten_params(COMPUTE_DTYPE)
    return model
