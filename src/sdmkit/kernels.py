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
  column gradient before col2im scatters it into a channels-last dx. col2im
  adds the ``stride`` taps of a kernel row that land on adjacent columns as
  one add of stride*C contiguous values, in the per-tap order, so dx is
  bit-identical to one add per tap. With ``input_grad=False`` it stops after
  dw and db and returns None for dx, for a conv whose input gradient nothing
  reads (an encoder's first conv).

Arrays are float32 or float64. Every result, dx included, is float32 when x,
w and dout all are, so a float32 conv never widens to float64; x is
(N, C, H, W) of any memory layout, w is (F, C, KH, KW), stride is a positive
int, no padding.
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


def conv2d_backward(x, w, dout, stride, cols=None, input_grad=True):
    """Returns (dx, dw, db). cols, if given, is im2col(x, KH, KW, stride) and is
    overwritten with the column gradient; x is left unchanged. With
    input_grad=False, dx is None and neither the column GEMM nor col2im runs."""
    n, c, h, wid = x.shape
    f, _, kh, kw = w.shape
    oh, ow = dout.shape[2], dout.shape[3]
    if cols is None:
        cols = im2col(x, kh, kw, stride)
    d2 = dout.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
    dw = (d2.T @ cols).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
    db = d2.sum(axis=0)
    if not input_grad:
        return None, dw, db
    dcols = np.matmul(d2, _wmat(w), out=cols).reshape(n, oh, ow, kh, kw, c)
    # col2im through im2col's window view of dx: taps j..j+stride-1 of a kernel
    # row land on adjacent columns, so no add writes a pixel twice and every
    # pixel still gets its taps in (i, j) order
    dx = np.zeros((n, h, wid, c), dtype=dcols.dtype)
    s0, s1, s2, s3 = dx.strides
    windows = np.lib.stride_tricks.as_strided(
        dx, shape=(n, oh, ow, kh, kw, c), strides=(s0, s1 * stride, s2 * stride, s1, s2, s3))
    for i in range(kh):
        for j in range(0, kw, stride):
            windows[:, :, :, i, j : j + stride] += dcols[:, :, :, i, j : j + stride]
    return dx.transpose(0, 3, 1, 2), dw, db


def backend_name() -> str:
    return "numpy"
