"""Minimal layer zoo with explicit forward/backward passes.

A training forward (training=True) caches what the backward pass needs:
Linear and Conv2d their input, ReLU and Dropout their mask, Conv2d its
im2col columns. Each layer's backward drops that cache once it has used it,
so activations are freed layer by layer as backward runs, and a forward with
training=False caches nothing, so inference holds no activations of a
finished batch. One backward follows each training forward, single-threaded;
that contract is what lets Conv2d overwrite its columns in backward. Parameter
init is fan-in uniform (+-1/sqrt(fan_in)) from a caller-supplied numpy
Generator so runs are reproducible end to end; Dropout draws only from the
one set_dropout_rng gives it. A model is a tree of Modules: containers
override only children(), and named_params, modules, flatten_params and
set_dropout_rng walk the tree through it.

Params are created in float64. flatten_params moves every param of a tree
into one flat buffer of a given dtype, and every grad into another, as
views in named_params() order (pipeline.build_model flattens into float32),
and records the pair as the module's flat, which AdamW steps; AdamW refuses
a model changed by surgery after that until it is flattened again.
Backward passes write their grads into the grads arrays they hold (matmul
and sum with out=, or a copy) and never rebind them, so a flat model's grads
stay views of its buffer. Every layer computes in the dtype of its params
and inputs and makes nothing wider, so a float32 model fed float32 batches
runs in float32 throughout, and a float64 one (as the finite-difference
tests build) in float64.
"""

from __future__ import annotations

import numpy as np

from ..errors import SdmkitError, ShapeError
from .. import kernels


def fanin_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Base layer: params/grads are parallel dicts keyed by parameter name."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.flat: tuple[np.ndarray, np.ndarray] | None = None  # set by flatten_params

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

    def flatten_params(self, dtype) -> None:
        """Move every param of the tree into one flat buffer of dtype, and
        every grad into another, as views laid end to end in named_params()
        order and cast to dtype; self.flat records the two, (params, grads)."""
        entries = [(module, key) for module in self.modules() for key in module.params]
        total = sum(module.params[key].size for module, key in entries)
        self.flat = (np.empty(total, dtype=dtype), np.empty(total, dtype=dtype))
        offset = 0
        for module, key in entries:
            shape = module.params[key].shape
            end = offset + module.params[key].size
            for store, flat in zip((module.params, module.grads), self.flat):
                view = flat[offset:end].reshape(shape)
                view[...] = store[key]
                store[key] = view
            offset = end

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
        self._x = x if training else None
        out = x @ self.params["w"].T
        out += self.params["b"]
        return out

    def backward(self, dout):
        self._param_grads(dout)
        return dout @ self.params["w"]

    def _param_grads(self, dout) -> None:
        """Write the w and b gradients into the grads arrays, then drop the
        cached input."""
        x, self._x = self._x, None
        np.matmul(dout.T, x, out=self.grads["w"])
        np.sum(dout, axis=0, out=self.grads["b"])


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
        self._x, self._cols = (x, cols) if training else (None, None)
        return kernels.conv2d_forward(x, self.params["w"], self.params["b"], self.stride, cols)

    def backward(self, dout):
        # backward overwrites the columns, so they serve one backward only
        x, cols, self._x, self._cols = self._x, self._cols, None, None
        dx, dw, db = kernels.conv2d_backward(x, self.params["w"], dout, self.stride, cols,
                                             input_grad=self.input_grad)
        self.grads["w"][...] = dw
        self.grads["b"][...] = db
        return dx


class ReLU(Module):
    def forward(self, x, training=False):
        mask = x > 0
        self._mask = mask if training else None
        return x * mask

    def backward(self, dout):
        mask, self._mask = self._mask, None
        return dout * mask


class Dropout(Module):
    """Inverted dropout; in training, masks come from the rng set_dropout_rng set."""

    def __init__(self, p: float):
        super().__init__()
        self.p = p
        self.rng: np.random.Generator | None = None

    def forward(self, x, training=False):
        if not training or self.p == 0.0:
            self._mask = None
            return x
        if self.rng is None:
            raise SdmkitError("Dropout: training needs an rng; call set_dropout_rng first")
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep).astype(x.dtype)
        self._mask /= keep
        return x * self._mask

    def backward(self, dout):
        mask, self._mask = self._mask, None
        return dout if mask is None else dout * mask


class GlobalAvgPool2d(Module):
    def forward(self, x, training=False):
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dout):
        # channels-last underneath, like a conv output, so that the conv
        # before it (through a ReLU) reshapes its dout without a copy
        n, c, h, w = self._shape
        dx = np.empty((n, h, w, c), dtype=dout.dtype)
        np.divide(dout[:, None, None, :], h * w, out=dx)
        return dx.transpose(0, 3, 1, 2)


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
