"""The three model modifiers: first-layer width, last-layer width, head strip.

All three operate on Sequential-style models in place and return the model
for chaining. The first Conv2d is the first in model.modules(), at any
depth; the trailing Linear is looked up in the top-level layer list. Any
registry-built encoder qualifies.

The layers they change get arrays outside the buffers model.flat records,
which engine.AdamW refuses. So run surgery before flattening, as build_model
does with modify_last_layer, or flatten the root model again (fresh moments).
"""

from __future__ import annotations

import logging

import numpy as np

from ..errors import SurgeryError
from .layers import Conv2d, Linear, Sequential

log = logging.getLogger(__name__)


def modify_first_layer(model: Sequential, new_channels: int) -> Sequential:
    """Adapt the first conv layer to a new input channel count.

    With an unchanged count this is an exact no-op. Otherwise every channel
    slice of the new weight is the mean over the old channel filters scaled
    by old/new, so a constant input replicated across channels produces the
    same pre-activation as before the surgery.
    """
    if new_channels < 1:
        raise SurgeryError("new_channels must be >= 1")
    conv = next((m for m in model.modules() if isinstance(m, Conv2d)), None)
    if conv is None:
        raise SurgeryError("model has no identifiable first spatial layer")
    c_old = conv.in_channels
    if new_channels == c_old:
        return model
    w_old = conv.params["w"]  # (F, C_old, KH, KW)
    mean_filter = w_old.mean(axis=1, keepdims=True) * (c_old / new_channels)
    conv.params["w"] = np.repeat(mean_filter, new_channels, axis=1)
    conv.grads["w"] = np.zeros_like(conv.params["w"])
    conv.in_channels = new_channels
    return model


def _last_linear_index(model: Sequential) -> int:
    if not isinstance(model, Sequential):
        raise SurgeryError(f"{type(model).__name__} is not a Sequential layer stack, so it has "
                           f"no last layer to replace or strip")
    for i in range(len(model.layers) - 1, -1, -1):
        if isinstance(model.layers[i], Linear):
            return i
    return -1


def modify_last_layer(model: Sequential, new_dim: int, rng: np.random.Generator) -> Sequential:
    """Replace the final affine map with a freshly initialized one."""
    if new_dim < 1:
        raise SurgeryError("new_dim must be >= 1")
    idx = _last_linear_index(model)
    if idx < 0:
        raise SurgeryError("model has no final affine map (headless; use strip_head)")
    old: Linear = model.layers[idx]
    model.layers[idx] = Linear(old.in_dim, new_dim, rng)
    if hasattr(model, "embedding_dim") and idx == len(model.layers) - 1:
        model.embedding_dim = new_dim
    return model


def strip_head(model: Sequential) -> Sequential:
    """Truncate the model before its final affine map, exposing embedding_dim."""
    idx = _last_linear_index(model)
    if idx != len(model.layers) - 1 or idx < 0:
        log.warning("strip_head: model is already headless; no-op")
        return model
    head: Linear = model.layers[idx]
    del model.layers[idx]
    model.embedding_dim = head.in_dim
    return model
