"""Seeded synthetic fixture generator: observations, rasters, and cubes.

Rasters are smooth sinusoidal fields so spatially held-out points remain
predictable; species labels are thresholded linear functions of the patch
channel means, which makes the task learnable by the micro encoders. Cube
values carry the same signal plus seeded noise. Every file write is
deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .geodata import (
    PatchSpec,
    RasterLayer,
    extract_patches,
    normalize_layers,
    replaced_on_success,
    save_cubes,
    save_observations,
    save_raster,
)

RASTER_SIZE = 128
PIXEL_DEG = 0.1
ORIGIN_LON = 0.0
ORIGIN_LAT = 12.8  # top edge; north-up with pixel_size_y = -0.1
N_CHANNELS = 4
CUBE_SHAPE = (2, 4, 3)
CUBE_MODALITIES = ("cube_a", "cube_b")
PATCH_SIZE = 32  # points keep a full patch of this side inside the rasters
# surveys per extract_patches call. Small blocks keep the generator's peak
# memory near that of one survey at a time: perfbench makes its inputs in the
# process that starts the measured one, whose peak_rss_mb counts that peak too.
_BLOCK = 8


def _smooth_field(rng: np.random.Generator, size: int) -> np.ndarray:
    """Sum of a few random low-frequency sinusoids over the grid."""
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij")
    field = np.zeros((size, size))
    for _ in range(6):
        fx, fy = rng.uniform(0.5, 4.0, size=2)
        px, py = rng.uniform(0, 2 * np.pi, size=2)
        amp = rng.uniform(0.5, 1.5)
        field += amp * np.sin(2 * np.pi * fx * xx + px) * np.sin(2 * np.pi * fy * yy + py)
    return field.astype(np.float32)


def make_synthetic(out_dir: str, n_surveys: int = 500, num_species: int = 20,
                   seed: int = 7) -> dict[str, str]:
    """Generate a full synthetic dataset under out_dir; returns artifact paths."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)

    layers = []
    for c in range(N_CHANNELS):
        layer = RasterLayer(
            name=f"chan{c}",
            width=RASTER_SIZE,
            height=RASTER_SIZE,
            origin_x=ORIGIN_LON,
            origin_y=ORIGIN_LAT,
            pixel_size_x=PIXEL_DEG,
            pixel_size_y=-PIXEL_DEG,
            crs="EPSG:4326",
            nodata=-9999.0,
            values=_smooth_field(rng, RASTER_SIZE),
        )
        save_raster(layer, os.path.join(out_dir, f"chan{c}.json"))
        layers.append(layer)
    manifest_path = os.path.join(out_dir, "rasters.json")
    with replaced_on_success(manifest_path, "w", encoding="utf-8") as fh:
        json.dump({"layers": [f"chan{c}.json" for c in range(N_CHANNELS)]}, fh, indent=2)

    # keep points far enough from the border for full patches
    margin = (PATCH_SIZE // 2 + 1) * PIXEL_DEG
    lons = rng.uniform(ORIGIN_LON + margin, ORIGIN_LON + RASTER_SIZE * PIXEL_DEG - margin,
                       size=n_surveys)
    lats = rng.uniform(ORIGIN_LAT - RASTER_SIZE * PIXEL_DEG + margin, ORIGIN_LAT - margin,
                       size=n_surveys)

    spec = PatchSpec(side=PATCH_SIZE, layer_names=tuple(l.name for l in layers))
    prepared = normalize_layers(layers, spec)
    channel_means = np.empty((n_surveys, N_CHANNELS))
    for i in range(0, n_surveys, _BLOCK):
        patches = extract_patches(prepared, spec, lons[i:i + _BLOCK], lats[i:i + _BLOCK])
        channel_means[i:i + _BLOCK] = patches.astype(np.float64).mean(axis=(2, 3))

    # species s is present where a random linear score of the channel means
    # exceeds its own prevalence-controlling quantile threshold
    weights = rng.normal(size=(num_species, N_CHANNELS))
    scores = channel_means @ weights.T
    prevalences = rng.uniform(0.2, 0.4, size=num_species)
    thresholds = np.quantile(scores, 1 - prevalences, axis=0).diagonal()
    labels = scores > thresholds
    for i in range(n_surveys):  # multilabel surveys must be non-empty
        if not labels[i].any():
            labels[i, int(np.argmax(scores[i]))] = True

    survey_ids = [f"s{i:05d}" for i in range(n_surveys)]
    obs_path = os.path.join(out_dir, "observations.csv")
    save_observations(survey_ids, lons, lats, labels, obs_path)

    b, q, y = CUBE_SHAPE
    trend = np.linspace(-0.1, 0.1, q * y).reshape(1, q, y)
    cube_paths = {}
    for modality in CUBE_MODALITIES:
        mix = rng.normal(size=(b, N_CHANNELS))
        base = 3.0 * (channel_means @ mix.T)[:, :, None, None]
        noise = rng.normal(scale=0.05, size=(n_surveys, b, q, y))
        path = os.path.join(out_dir, f"{modality}.json")
        save_cubes(survey_ids, (base + trend + noise).astype(np.float32),
                   [f"{modality}_b{j}" for j in range(b)], path)
        cube_paths[modality] = path

    return {
        "observations": obs_path,
        "raster_manifest": manifest_path,
        **{f"cubes_{m}": p for m, p in cube_paths.items()},
    }


def default_config_yaml(data_dir: str, n_species: int = 20, epochs: int = 10,
                        top_k: int = 5, seed: int = 42, patch_size: int = PATCH_SIZE) -> str:
    """Config document wired to a make_synthetic output directory; its
    task.top_k is top_k, or n_species if that is smaller."""
    return f"""\
run:
  seed: {seed}
data:
  observations: {os.path.join(data_dir, 'observations.csv')}
  raster_manifest: {os.path.join(data_dir, 'rasters.json')}
  cube_manifests:
    cube_a: {os.path.join(data_dir, 'cube_a.json')}
    cube_b: {os.path.join(data_dir, 'cube_b.json')}
  batch_size: 64
  patch_size: {patch_size}
task:
  num_classes: {n_species}
  top_k: {min(top_k, n_species)}
trainer:
  epochs: {epochs}
  output_dir: {os.path.join(data_dir, 'runs')}
model:
  provider: builtin
  name: mme
  encoders:
    patch:
      name: micro_conv2d
      embedding_dim: 64
    cube_a:
      name: micro_conv3d
      embedding_dim: 64
    cube_b:
      name: micro_conv3d
      embedding_dim: 64
  fusion:
    dropout: 0.1
    hidden_dim: 1024
optimizer:
  lr: 2.5e-4
  weight_decay: 0.0
  t_max: 25
  pos_weight: 10
"""
