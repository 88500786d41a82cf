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

``single_blas_thread`` runs numpy's BLAS on one thread from the call on.
How an OpenBLAS GEMM sums depends on how many threads split it, so a seeded
fit or prediction gives the same bits whatever ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` say only once the thread count is fixed; at this
model's GEMM sizes a second thread is no faster, and its buffers cost
memory. ``engine.fit`` and ``engine.predict`` call it when they start.
"""

from __future__ import annotations

import ctypes
import functools
import logging

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

log = logging.getLogger(__name__)

# (set, get) thread-count functions of the OpenBLAS builds numpy links, by
# symbol: numpy's bundled scipy-openblas, then a system OpenBLAS with 64-bit
# and with 32-bit integers
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


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


@functools.cache
def _openblas_threads():
    """The (set, get) thread-count functions of the OpenBLAS that numpy
    loaded, found through numpy's own extension module, whose dependencies
    the BLAS is; None when numpy links another BLAS (MKL, Accelerate)."""
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
        if hasattr(lib, set_name) and hasattr(lib, get_name):
            return getattr(lib, set_name), getattr(lib, get_name)
    return None


def single_blas_thread() -> None:
    """Run every later GEMM of numpy's OpenBLAS on one thread; nothing when it
    already runs on one. Without an OpenBLAS, log one warning naming the BLAS,
    since results may then depend on its thread count."""
    functions = _openblas_threads()
    if functions is None:
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except (TypeError, KeyError):  # numpy < 1.26 has no config dicts
            blas = "unknown"
        log.warning("numpy's BLAS (%s) is not an OpenBLAS whose thread count sdmkit can set; "
                    "results may depend on its thread count", blas)
        return
    set_threads, get_threads = functions
    if get_threads() != 1:
        set_threads(1)


def backend_name() -> str:
    return "numpy"
