"""Wire a parsed config into concrete data sources and a model.

This is the glue the CLI uses: load every modality named in the data
section, derive the patch normalization from the rasters, realize the
spatial split, and build the configured model with seeded init.
"""

from __future__ import annotations

import os

import numpy as np

from .config import ExperimentConfig
from .errors import DataError, SdmkitError, ShapeError
from .geodata import (
    ObservationTable,
    PatchSpec,
    load_cubes,
    load_observations,
    load_raster_manifest,
    make_dataset,
)
from .nn import build_mme, build_encoder, modify_first_layer, modify_last_layer, strip_head
from .nn.layers import Module
from .split import SpatialSplit, block_holdout, load_split


class LoadedData:
    def __init__(self, table: ObservationTable, layers, patch_spec, cube_maps):
        self.table = table
        self.layers = layers
        self.patch_spec = patch_spec
        self.cube_maps = cube_maps

    def cube_shapes(self) -> dict[str, tuple[int, int, int]]:
        shapes = {}
        for name, cube_map in self.cube_maps.items():
            first = next(iter(cube_map.values()))
            shapes[name] = tuple(first.values.shape)
        return shapes

    def source_for(self, survey_ids=None, labels_mode: str = "train"):
        table = self.table if survey_ids is None else self.table.subset(survey_ids)
        return make_dataset(
            table,
            layers=self.layers,
            patch_spec=self.patch_spec,
            cube_maps=self.cube_maps,
            labels_mode=labels_mode,
        )


def _valid_stats(layer) -> tuple[float, float]:
    """(mean, std) of a raster's pixels that are neither nodata nor NaN."""
    valid = layer.values[~layer.missing(layer.values)]
    if valid.size == 0:
        raise DataError(f"raster {layer.name!r}: no valid pixel (all nodata or NaN)")
    return float(valid.mean()), float(valid.std()) or 1.0


def load_data(cfg: ExperimentConfig) -> LoadedData:
    if not cfg.data.observations or not os.path.exists(cfg.data.observations):
        raise SdmkitError(f"data.observations: file not found: {cfg.data.observations!r}")
    table = load_observations(cfg.data.observations, cfg.task.num_classes)
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
    if cfg.data.split_path and os.path.exists(cfg.data.split_path):
        return load_split(cfg.data.split_path)
    return block_holdout(table, seed=cfg.run.seed)


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

    def named_params(self, prefix: str = ""):
        yield from self.net.named_params(prefix=f"{prefix}{self.modality}.")

    def set_dropout_rng(self, rng):
        if hasattr(self.net, "dropout_layers"):
            for layer in self.net.dropout_layers():
                layer.rng = rng


def _encoder_kwargs(name: str, cube_shapes, modality: str) -> dict:
    if name == "micro_conv3d" and modality in cube_shapes:
        _, q, y = cube_shapes[modality]
        return {"steps": q, "years": y}
    return {}


def build_model(cfg: ExperimentConfig, cube_shapes: dict | None = None):
    """Build the configured model with init drawn from the run seed."""
    cube_shapes = cube_shapes or {}
    rng = np.random.default_rng([cfg.run.seed, 0])
    if cfg.model.name == "mme":
        if not cfg.model.encoders:
            raise ShapeError("mme model requires at least one encoder spec")
        encoders = {
            modality: build_encoder(
                enc.provider, enc.name, enc.input_channels, enc.embedding_dim, rng,
                **_encoder_kwargs(enc.name, cube_shapes, modality),
            )
            for modality, enc in cfg.model.encoders.items()
        }
        return build_mme(
            encoders,
            num_classes=cfg.task.num_classes,
            hidden_dim=cfg.model.fusion.hidden_dim,
            dropout_p=cfg.model.fusion.dropout,
            rng=rng,
        )
    # single-modality: one encoder reshaped into a classifier via the modifiers
    if cfg.model.encoders:
        modality, enc = next(iter(cfg.model.encoders.items()))
    else:
        modality = "patch"
        from .config import EncoderSection

        enc = EncoderSection(provider=cfg.model.provider, name=cfg.model.name)
    net = build_encoder(
        enc.provider, enc.name, enc.input_channels, enc.embedding_dim, rng,
        **_encoder_kwargs(enc.name, cube_shapes, modality),
    )
    mods = cfg.model.modifiers
    if mods.input_channels is not None:
        modify_first_layer(net, mods.input_channels)
    if mods.strip_head:
        strip_head(net)
    out_dim = mods.output_dim if mods.output_dim is not None else cfg.task.num_classes
    modify_last_layer(net, out_dim, rng)
    return SingleModalityModel(modality, net)
