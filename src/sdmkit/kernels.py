"""Convolution kernels: 2-D forward and backward passes via im2col.

The micro encoders spend nearly all of their time in 2-D convolution
forward/backward passes. Each pass is one im2col copy and plain 2-D
BLAS GEMMs:

- ``im2col`` copies the windows of x once, in (n, oh, ow, kh, kw, c) order,
  into an owned (N*OH*OW, KH*KW*C) matrix; channels are the fastest axis.
- ``conv2d_forward`` computes ``cols @ wmat.T`` (wmat is w in (f, kh, kw, c)
  order) and returns the (N, F, OH, OW) transposed view of that
  channels-last result, without a copy. Everything downstream (ReLU, the
  next conv) accepts any strides.
- ``conv2d_backward`` takes the forward's columns when the caller kept them,
  computes the weight gradient from them, then overwrites them with the
  column gradient before col2im scatters it into a channels-last dx.

All arrays are float64; x is (N, C, H, W) of any memory layout, w is
(F, C, KH, KW), stride is a positive int, no padding.
"""

from __future__ import annotations

import numpy as np


def conv2d_out_shape(h: int, w: int, kh: int, kw: int, stride: int) -> tuple[int, int]:
    return (h - kh) // stride + 1, (w - kw) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(N, C, H, W) -> owned (N*OH*OW, KH*KW*C) patch matrix, one copy.

    The result never aliases x (conv2d_backward overwrites it), which is why
    it is filled from the window view rather than reshaped from it.
    """
    n, c, h, w = x.shape
    oh, ow = conv2d_out_shape(h, w, kh, kw, stride)
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, kh, kw, c),
        strides=(s0, s2 * stride, s3 * stride, s2, s3, s1),
        writeable=False,
    )
    cols = np.empty((n * oh * ow, kh * kw * c), dtype=x.dtype)
    cols.reshape(windows.shape)[...] = windows
    return cols


def _wmat(w: np.ndarray) -> np.ndarray:
    """(F, C, KH, KW) -> (F, KH*KW*C), matching im2col's column order."""
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)


def conv2d_forward(x, w, b, stride, cols=None):
    """Forward pass; cols, if given, is im2col(x, KH, KW, stride)."""
    n, c, h, wid = x.shape
    f, _, kh, kw = w.shape
    oh, ow = conv2d_out_shape(h, wid, kh, kw, stride)
    if cols is None:
        cols = im2col(x, kh, kw, stride)
    out = cols @ _wmat(w).T
    out += b
    return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)


def conv2d_backward(x, w, dout, stride, cols=None):
    """Returns (dx, dw, db). cols, if given, is im2col(x, KH, KW, stride) and is
    overwritten with the column gradient; x is left unchanged."""
    n, c, h, wid = x.shape
    f, _, kh, kw = w.shape
    oh, ow = dout.shape[2], dout.shape[3]
    if cols is None:
        cols = im2col(x, kh, kw, stride)
    d2 = dout.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
    dw = (d2.T @ cols).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
    db = d2.sum(axis=0)
    dcols = np.matmul(d2, _wmat(w), out=cols).reshape(n, oh, ow, kh, kw, c)
    # col2im: scatter-add each kernel tap into a channels-last dx
    dx = np.zeros((n, h, wid, c))
    for i in range(kh):
        for j in range(kw):
            dx[:, i : i + oh * stride : stride, j : j + ow * stride : stride] += dcols[
                :, :, :, i, j
            ]
    return dx.transpose(0, 3, 1, 2), dw, db


def backend_name() -> str:
    return "numpy"
