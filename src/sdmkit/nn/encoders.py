"""Encoder registry and the built-in micro architectures.

Three small built-ins keep the full pipeline runnable with no network
access: a 2-D conv stack for raster patches, a cube encoder treating the
band axis as channels over the (steps, years) plane, and an MLP over the
flattened input. External providers plug in via register_encoder. Every
factory is called as factory(input_shape, embedding_dim, rng), where
input_shape is the per-sample shape of the modality it encodes.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import RegistryError
from .layers import Conv2d, Flatten, GlobalAvgPool2d, Linear, ReLU, Sequential


class Encoder(Sequential):
    """Sequential feature extractor exposing its embedding width."""

    def __init__(self, layers, embedding_dim: int):
        super().__init__(layers)
        self.embedding_dim = embedding_dim


def _micro_conv2d(input_shape, embedding_dim: int, rng: np.random.Generator):
    # (N, C, side, side) patch batches: two stride-2 convs then pooled linear
    # head; expects side >= 7
    return Encoder(
        [
            Conv2d(input_shape[0], 8, 3, 2, rng, input_grad=False),
            ReLU(),
            Conv2d(8, 16, 3, 2, rng),
            ReLU(),
            GlobalAvgPool2d(),
            Linear(16, embedding_dim, rng),
        ],
        embedding_dim=embedding_dim,
    )


def _micro_conv3d(input_shape, embedding_dim: int, rng: np.random.Generator):
    # (N, B, Q, Y) cube batches: bands act as conv channels
    bands, steps, years = input_shape
    return Encoder(
        [
            Conv2d(bands, 8, (min(3, steps), min(3, years)), 1, rng, input_grad=False),
            ReLU(),
            GlobalAvgPool2d(),
            Linear(8, embedding_dim, rng),
        ],
        embedding_dim=embedding_dim,
    )


def _micro_mlp(input_shape, embedding_dim: int, rng: np.random.Generator):
    return Encoder(
        [
            Flatten(),
            Linear(math.prod(input_shape), 128, rng),
            ReLU(),
            Linear(128, embedding_dim, rng),
        ],
        embedding_dim=embedding_dim,
    )


_REGISTRY: dict[tuple[str, str], object] = {
    ("builtin", "micro_conv2d"): _micro_conv2d,
    ("builtin", "micro_conv3d"): _micro_conv3d,
    ("builtin", "micro_mlp"): _micro_mlp,
}


def register_encoder(provider: str, name: str, factory) -> None:
    _REGISTRY[(provider, name)] = factory


def available_encoders() -> list[tuple[str, str]]:
    return sorted(_REGISTRY)


def build_encoder(provider: str, name: str, input_shape: tuple[int, ...], embedding_dim: int,
                  rng: np.random.Generator | None = None) -> Encoder:
    """Build a registered encoder for inputs of per-sample shape input_shape
    (a batch is (N, *input_shape)); unknown names list what is available."""
    try:
        factory = _REGISTRY[(provider, name)]
    except KeyError:
        raise RegistryError(
            f"unknown encoder ({provider!r}, {name!r}); available: {available_encoders()}"
        ) from None
    if rng is None:
        rng = np.random.default_rng(0)
    return factory(input_shape, embedding_dim, rng)


class SinusoidalLocationEncoder(Linear):
    """Deterministic location encoder: multi-frequency sin/cos features of
    (lon, lat) in radians through a Linear seeded by default_rng(seed). The
    features are computed in float64 and cast to the params' dtype."""

    def __init__(self, embedding_dim: int, num_frequencies: int, seed: int = 0):
        if embedding_dim < 1 or num_frequencies < 1:
            raise ValueError("embedding_dim and num_frequencies must be >= 1")
        super().__init__(4 * num_frequencies, embedding_dim, np.random.default_rng(seed))
        self.embedding_dim = embedding_dim
        self.num_frequencies = num_frequencies

    def features(self, coords: np.ndarray) -> np.ndarray:
        lam = np.radians(coords[:, 0:1])
        phi = np.radians(coords[:, 1:2])
        parts = []
        for j in range(self.num_frequencies):
            f = 2.0**j
            parts.extend([np.sin(f * lam), np.cos(f * lam), np.sin(f * phi), np.cos(f * phi)])
        return np.concatenate(parts, axis=1)

    def forward(self, coords, training=False):
        features = self.features(np.asarray(coords, dtype=np.float64))
        return super().forward(features.astype(self.params["w"].dtype, copy=False))

    def backward(self, dout):
        # Linear.backward without its dout @ w: the sin/cos features are not trainable
        self.grads["w"] = dout.T @ self._x
        self.grads["b"] = dout.sum(axis=0)
        return np.zeros((dout.shape[0], 2))  # coordinates are not trainable


def _location_factory(input_shape, embedding_dim, rng):
    seed = int(rng.integers(0, 2**31 - 1))
    return SinusoidalLocationEncoder(embedding_dim, 8, seed)


register_encoder("builtin", "sinusoidal_location", _location_factory)
