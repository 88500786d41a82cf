"""Convolution kernels: 2-D forward and backward passes via im2col.

The micro encoders spend nearly all of their time in 2-D convolution
forward/backward passes. Both are a stride-trick im2col view followed by a
BLAS-backed einsum.

All arrays are float64; x is (N, C, H, W), w is (F, C, KH, KW), stride is
a positive int, no padding.
"""

from __future__ import annotations

import numpy as np


def conv2d_out_shape(h: int, w: int, kh: int, kw: int, stride: int) -> tuple[int, int]:
    return (h - kh) // stride + 1, (w - kw) // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(N, C, H, W) -> (N, C*KH*KW, OH*OW) patch matrix via stride tricks."""
    n, c, h, w = x.shape
    oh, ow = conv2d_out_shape(h, w, kh, kw, stride)
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)


def conv2d_forward(x, w, b, stride):
    n, c, h, wid = x.shape
    f, _, kh, kw = w.shape
    oh, ow = conv2d_out_shape(h, wid, kh, kw, stride)
    cols = _im2col(x, kh, kw, stride)
    out = np.einsum("fk,nkl->nfl", w.reshape(f, -1), cols, optimize=True)
    out += b[None, :, None]
    return out.reshape(n, f, oh, ow)


def conv2d_backward(x, w, dout, stride):
    n, c, h, wid = x.shape
    f, _, kh, kw = w.shape
    oh, ow = dout.shape[2], dout.shape[3]
    cols = _im2col(x, kh, kw, stride)
    dflat = dout.reshape(n, f, oh * ow)
    dw = np.einsum("nfl,nkl->fk", dflat, cols, optimize=True).reshape(w.shape)
    db = dflat.sum(axis=(0, 2))
    # input gradient via col2im scatter
    dcols = np.einsum("fk,nfl->nkl", w.reshape(f, -1), dflat, optimize=True)
    dx = np.zeros_like(x)
    dcols = dcols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += dcols[
                :, :, i, j
            ]
    return dx, dw, db


def backend_name() -> str:
    return "numpy"
