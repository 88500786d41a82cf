"""Minimal layer zoo with explicit forward/backward passes.

Layers cache whatever the backward pass needs on forward; one backward per
forward, single-threaded. That contract is what lets Conv2d keep the im2col
columns of a training forward and overwrite them in its backward. Parameter
init is fan-in uniform (+-1/sqrt(fan_in)) from a caller-supplied numpy
Generator so runs are reproducible end to end. A model is a tree of
Modules: containers override only children(), and named_params, modules,
cast_params and set_dropout_rng walk the tree through it.

Params are created in float64; cast_params moves a whole tree to another
dtype (pipeline.build_model casts to float32). Every layer computes in the
dtype of its params and inputs and makes nothing wider, so a float32 model
fed float32 batches runs in float32 throughout, and a float64 one (as the
finite-difference tests build) in float64.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .. import kernels


def fanin_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Base layer: params/grads are parallel dicts keyed by parameter name."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x, training: bool = False):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError

    def children(self):
        """(name, submodule) pairs, in parameter order; leaves have none."""
        return ()

    def modules(self):
        """This module, then every submodule depth first."""
        yield self
        for _, child in self.children():
            yield from child.modules()

    def named_params(self, prefix: str = ""):
        for key, val in self.params.items():
            yield prefix + key, val, self.grads[key]
        for name, child in self.children():
            yield from child.named_params(prefix=f"{prefix}{name}.")

    def cast_params(self, dtype) -> None:
        """Cast every param and grad of the tree to dtype."""
        for module in self.modules():
            for store in (module.params, module.grads):
                for key, val in store.items():
                    store[key] = val.astype(dtype, copy=False)

    def set_dropout_rng(self, rng: np.random.Generator) -> None:
        for module in self.modules():
            if isinstance(module, Dropout):
                module.rng = rng


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim, self.out_dim = in_dim, out_dim
        self.params["w"] = fanin_uniform(rng, (out_dim, in_dim), in_dim)
        self.params["b"] = fanin_uniform(rng, (out_dim,), in_dim)
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, x, training=False):
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"Linear expects last dim {self.in_dim}, got {x.shape}")
        self._x = x
        return x @ self.params["w"].T + self.params["b"]

    def backward(self, dout):
        self.grads["w"] = dout.T @ self._x
        self.grads["b"] = dout.sum(axis=0)
        return dout @ self.params["w"]


class Conv2d(Module):
    """2-D convolution over (N, C, H, W) batches, no padding.

    input_grad=False makes backward return None instead of dx. The built-in
    encoders set it on their first conv: its input is the data batch, which
    nothing trains, and dx there is most of the conv backward's cost.
    """

    def __init__(self, in_channels, out_channels, kernel_size, stride, rng, input_grad=True):
        super().__init__()
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.input_grad = input_grad
        fan_in = in_channels * kh * kw
        self.params["w"] = fanin_uniform(rng, (out_channels, in_channels, kh, kw), fan_in)
        self.params["b"] = fanin_uniform(rng, (out_channels,), fan_in)
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, x, training=False):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d expects (N, {self.in_channels}, H, W), got {x.shape}"
            )
        cols = kernels.im2col(x, *self.kernel_size, self.stride)
        self._x = x
        self._cols = cols if training else None
        return kernels.conv2d_forward(x, self.params["w"], self.params["b"], self.stride, cols)

    def backward(self, dout):
        # backward overwrites the columns, so they serve one backward only
        cols, self._cols = self._cols, None
        dx, dw, db = kernels.conv2d_backward(self._x, self.params["w"], dout, self.stride, cols,
                                             input_grad=self.input_grad)
        self.grads["w"] = dw
        self.grads["b"] = db
        return dx


class ReLU(Module):
    def forward(self, x, training=False):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout):
        return dout * self._mask


class Dropout(Module):
    """Inverted dropout; draws masks from self.rng only in training mode."""

    def __init__(self, p: float, rng: np.random.Generator | None = None):
        super().__init__()
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x, training=False):
        if not training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep).astype(x.dtype)
        self._mask /= keep
        return x * self._mask

    def backward(self, dout):
        return dout if self._mask is None else dout * self._mask


class GlobalAvgPool2d(Module):
    def forward(self, x, training=False):
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dout):
        n, c, h, w = self._shape
        return np.broadcast_to(dout[:, :, None, None], self._shape) / (h * w)


class Flatten(Module):
    def forward(self, x, training=False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._shape)


class Sequential(Module):
    def __init__(self, layers):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x, training=False):
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, dout):
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def children(self):
        return [(str(i), layer) for i, layer in enumerate(self.layers)]
