import numpy as np
import pytest

from sdmkit import kernels


def random_case(seed, n=2, c=3, h=12, w=12, f=4, k=3, stride=2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, w))
    wgt = rng.normal(size=(f, c, k, k))
    b = rng.normal(size=f)
    return x, wgt, b, stride


def test_forward_matches_direct_convolution():
    x, w, b, stride = random_case(7, n=1, c=2, h=6, w=6, f=2, k=3, stride=1)
    out = kernels.conv2d_forward(x, w, b, stride)
    for fi in range(2):
        for oi in range(4):
            for oj in range(4):
                acc = b[fi] + np.sum(w[fi] * x[0, :, oi : oi + 3, oj : oj + 3])
                assert out[0, fi, oi, oj] == pytest.approx(acc, abs=1e-12)


def test_backward_matches_finite_differences():
    x, w, b, stride = random_case(11, n=1, c=2, h=8, w=8, f=2, k=3, stride=2)
    out = kernels.conv2d_forward(x, w, b, stride)
    dout = np.random.default_rng(0).normal(size=out.shape)
    dx, dw, db = kernels.conv2d_backward(x, w, dout, stride)
    h = 1e-6

    def loss(xx, ww, bb):
        return np.sum(kernels.conv2d_forward(xx, ww, bb, stride) * dout)

    rng = np.random.default_rng(1)
    for _ in range(10):
        idx = tuple(rng.integers(0, s) for s in x.shape)
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        fd = (loss(xp, w, b) - loss(xm, w, b)) / (2 * h)
        assert dx[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)
    for _ in range(10):
        idx = tuple(rng.integers(0, s) for s in w.shape)
        wp, wm = w.copy(), w.copy()
        wp[idx] += h
        wm[idx] -= h
        fd = (loss(x, wp, b) - loss(x, wm, b)) / (2 * h)
        assert dw[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_nonsquare_kernel():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 2, 4, 21))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    out = kernels.conv2d_forward(x, w, b, 1)
    assert out.shape == (2, 3, 2, 19)
    for ni in range(2):
        for fi in range(3):
            for oi in range(2):
                for oj in range(19):
                    acc = b[fi] + np.sum(w[fi] * x[ni, :, oi : oi + 3, oj : oj + 3])
                    assert out[ni, fi, oi, oj] == pytest.approx(acc, abs=1e-12)
