import numpy as np
import pytest

from sdmkit import kernels
from sdmkit.nn.layers import Conv2d

# (seed, n, c, h, w, f, kernel (kh, kw), stride, channels-last memory for x and dout)
CASES = {
    "s1": (7, 1, 2, 6, 6, 2, (3, 3), 1, False),
    "s2": (11, 1, 2, 8, 8, 2, (3, 3), 2, False),
    "n2-s2": (5, 2, 3, 9, 11, 4, (3, 3), 2, False),
    "cube-3x2": (13, 2, 2, 4, 3, 8, (3, 2), 1, False),
    "channels-last-s1": (17, 2, 3, 7, 6, 4, (3, 3), 1, True),
    "channels-last-s2": (19, 2, 3, 9, 9, 4, (3, 3), 2, True),
    "1x1-channels-last": (23, 2, 3, 5, 4, 4, (1, 1), 1, True),
}


def channels_last(a):
    """Same (N, C, H, W) values, stored with channels as the fastest axis."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def make_case(name):
    seed, n, c, h, w, f, (kh, kw), stride, last = CASES[name]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, w))
    wgt = rng.normal(size=(f, c, kh, kw))
    b = rng.normal(size=f)
    oh, ow = kernels.conv2d_out_shape(h, w, kh, kw, stride)
    dout = rng.normal(size=(n, f, oh, ow))
    if last:
        x, dout = channels_last(x), channels_last(dout)
    return x, wgt, b, stride, dout


def direct_convolution(x, w, b, stride):
    n, _, h, wd = x.shape
    f, _, kh, kw = w.shape
    out = np.empty((n, f, *kernels.conv2d_out_shape(h, wd, kh, kw, stride)))
    for ni, fi, oi, oj in np.ndindex(out.shape):
        r, c = oi * stride, oj * stride
        out[ni, fi, oi, oj] = b[fi] + np.sum(w[fi] * x[ni, :, r : r + kh, c : c + kw])
    return out


@pytest.mark.parametrize("case", CASES)
def test_forward_matches_direct_convolution(case):
    x, w, b, stride, _ = make_case(case)
    out = kernels.conv2d_forward(x, w, b, stride)
    np.testing.assert_allclose(out, direct_convolution(x, w, b, stride), rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", CASES)
def test_backward_matches_finite_differences(case):
    x, w, b, stride, dout = make_case(case)
    x_before = x.copy()
    dx, dw, db = kernels.conv2d_backward(x, w, dout, stride)
    np.testing.assert_array_equal(x, x_before)
    assert dx.shape == x.shape and dw.shape == w.shape
    np.testing.assert_allclose(db, dout.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)
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


@pytest.mark.parametrize("with_cols", [False, True], ids=["no-cols", "forward-cols"])
@pytest.mark.parametrize("case", CASES)
def test_backward_without_input_grad(case, with_cols):
    """input_grad=False returns no dx and the full call's dw and db, bit for bit,
    whether backward builds its own columns or gets the forward's."""
    x, w, _, stride, dout = make_case(case)

    def cols():  # backward overwrites the columns it is given, so each call gets its own
        return kernels.im2col(x, *w.shape[2:], stride) if with_cols else None

    _, dw, db = kernels.conv2d_backward(x, w, dout, stride, cols())
    dx_skipped, dw_skipped, db_skipped = kernels.conv2d_backward(
        x, w, dout, stride, cols(), input_grad=False)
    assert dx_skipped is None
    np.testing.assert_array_equal(dw_skipped, dw)
    np.testing.assert_array_equal(db_skipped, db)


@pytest.mark.parametrize("case", CASES)
def test_conv2d_layer_matches_kernels(case):
    """A training forward keeps its columns for backward, which must give the
    stateless kernels' results and leave x unchanged; inference keeps none."""
    x, w, b, stride, dout = make_case(case)
    x_before = x.copy()
    conv = Conv2d(w.shape[1], w.shape[0], w.shape[2:], stride, np.random.default_rng(0))
    conv.params["w"], conv.params["b"] = w, b
    expected_out = kernels.conv2d_forward(x, w, b, stride)
    expected_grads = kernels.conv2d_backward(x, w, dout, stride)

    np.testing.assert_array_equal(conv.forward(x, training=False), expected_out)
    assert conv._cols is None
    np.testing.assert_array_equal(conv.forward(x, training=True), expected_out)
    assert conv._cols is not None
    dx = conv.backward(dout)
    assert conv._cols is None
    for got, want in zip((dx, conv.grads["w"], conv.grads["b"]), expected_grads):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(x, x_before)


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


def per_tap_dx(x, w, dout, stride):
    """conv2d_backward's dx with col2im as one scatter-add per kernel tap."""
    n, c, h, wid = x.shape
    f, _, kh, kw = w.shape
    oh, ow = dout.shape[2:]
    d2 = dout.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
    dcols = (d2 @ w.transpose(0, 2, 3, 1).reshape(f, -1)).reshape(n, oh, ow, kh, kw, c)
    dx = np.zeros((n, h, wid, c), dtype=dcols.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, i : i + oh * stride : stride, j : j + ow * stride : stride] += dcols[:, :, :, i, j]
    return dx.transpose(0, 3, 1, 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", [1, 2, 3, 4])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_paired_tap_col2im_matches_per_tap(stride, kernel, dtype):
    """col2im's one add per group of stride taps gives the per-tap loop's dx,
    bit for bit. The widths run over every remainder of (width - kernel) by
    the stride, so the last tap group of a row is cut short by the kernel's
    edge and its columns run past the input's last one in some of them."""
    rng = np.random.default_rng(stride * 10 + kernel)
    for width in range(kernel, kernel + 2 * stride + 1):
        height = kernel + stride + 1
        x = rng.normal(size=(2, 3, height, width)).astype(dtype)
        w = rng.normal(size=(5, 3, kernel, kernel)).astype(dtype)
        oh, ow = kernels.conv2d_out_shape(height, width, kernel, kernel, stride)
        dout = rng.normal(size=(2, 5, oh, ow)).astype(dtype)
        dx, _, _ = kernels.conv2d_backward(x, w, dout, stride)
        want = per_tap_dx(x, w, dout, stride)
        assert dx.dtype == dtype
        assert dx.tobytes() == want.tobytes(), width


@pytest.mark.skipif(kernels._openblas_threads() is None, reason="numpy links no OpenBLAS")
def test_single_blas_thread_sets_one_thread():
    """From two threads to one, read back through OpenBLAS's own getter; a
    second call leaves one thread."""
    set_threads, get_threads = kernels._openblas_threads()
    set_threads(2)
    kernels.single_blas_thread()
    assert get_threads() == 1
    kernels.single_blas_thread()
    assert get_threads() == 1
