"""SAME-padding geometry (the Table 2 size progression) and the
test-only im2col / col2im oracle that the Conv2D tests compare against."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conv_oracle import col2im, col2im_general, im2col, im2col_general
from repro.nn import conv_output_size, same_padding


def naive_conv2d(x, weight, kernel, stride):
    """Reference direct convolution (SAME padding), NCHW."""
    n, c, h, w = x.shape
    out_c = weight.shape[1]
    ph = same_padding(h, kernel, stride)
    pw = same_padding(w, kernel, stride)
    xp = np.pad(x, ((0, 0), (0, 0), ph, pw))
    oh = conv_output_size(h, kernel, stride)
    ow = conv_output_size(w, kernel, stride)
    out = np.zeros((n, out_c, oh, ow))
    w4 = weight.reshape(c, kernel, kernel, out_c)
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
            out[:, :, i, j] = np.einsum("nckl,cklo->no", patch, w4)
    return out


class TestPadding:
    def test_table2_progression(self):
        """99 -> 33 -> 11 -> 4 with kernel 3 stride 3, exactly as Table 2."""
        sizes = [99]
        for _ in range(3):
            sizes.append(conv_output_size(sizes[-1], kernel=3, stride=3))
        assert sizes == [99, 33, 11, 4]

    def test_stride1_keeps_size(self):
        for size in (1, 2, 7, 33, 99):
            assert conv_output_size(size, 3, 1) == size

    def test_same_padding_stride1_kernel3(self):
        assert same_padding(9, 3, 1) == (1, 1)

    def test_same_padding_no_pad_when_divisible(self):
        assert same_padding(99, 3, 3) == (0, 0)

    def test_same_padding_indivisible(self):
        before, after = same_padding(11, 3, 3)
        assert (before, after) == (0, 1)


class TestIm2col:
    def test_matches_naive_convolution_stride1(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 7, 6))
        weight = rng.standard_normal((3 * 9, 4))
        cols, _ = im2col(x, kernel=3, stride=1)
        out = (cols @ weight).reshape(2, 7, 6, 4).transpose(0, 3, 1, 2)
        np.testing.assert_allclose(out, naive_conv2d(x, weight, 3, 1), atol=1e-12)

    def test_matches_naive_convolution_stride3(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 11, 11))
        weight = rng.standard_normal((2 * 9, 5))
        cols, _ = im2col(x, kernel=3, stride=3)
        oh = conv_output_size(11, 3, 3)
        out = (cols @ weight).reshape(1, oh, oh, 5).transpose(0, 3, 1, 2)
        np.testing.assert_allclose(out, naive_conv2d(x, weight, 3, 3), atol=1e-12)

    def test_single_pixel_image(self):
        x = np.arange(3.0).reshape(1, 3, 1, 1)
        cols, _ = im2col(x, kernel=3, stride=1)
        assert cols.shape == (1, 27)
        # centre taps hold the pixel, the rest is padding
        assert np.count_nonzero(cols) == 2  # channels 1 and 2 are non-zero

    @given(
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        stride=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_shapes(self, n, c, h, w, stride):
        x = np.zeros((n, c, h, w))
        cols, padded = im2col(x, kernel=3, stride=stride)
        oh = conv_output_size(h, 3, stride)
        ow = conv_output_size(w, 3, stride)
        assert cols.shape == (n * oh * ow, c * 9)
        assert padded[0] == n and padded[1] == c


class TestNonOverlapFastPath:
    """stride == kernel dispatches to the tiling fast path; it must be
    bit-identical to the general strided-window path."""

    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 4),
        h=st.integers(1, 13),
        w=st.integers(1, 13),
        kernel=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_im2col_bit_exact(self, n, c, h, w, kernel, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w))
        fast_cols, fast_padded = im2col(x, kernel=kernel, stride=kernel)
        ref_cols, ref_padded = im2col_general(x, kernel=kernel, stride=kernel)
        assert fast_padded == ref_padded
        np.testing.assert_array_equal(fast_cols, ref_cols)

    @given(
        c=st.integers(1, 3),
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        kernel=st.sampled_from([2, 3]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_col2im_bit_exact(self, c, h, w, kernel, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, c, h, w))
        cols, padded = im2col(x, kernel=kernel, stride=kernel)
        y = rng.standard_normal(cols.shape)
        fast = col2im(y, padded, (h, w), kernel=kernel, stride=kernel)
        out_h = conv_output_size(h, kernel, kernel)
        out_w = conv_output_size(w, kernel, kernel)
        ref_padded = col2im_general(y, padded, out_h, out_w, kernel, kernel)
        pad_h = same_padding(h, kernel, kernel)
        pad_w = same_padding(w, kernel, kernel)
        ref = ref_padded[
            :, :, pad_h[0] : pad_h[0] + h, pad_w[0] : pad_w[0] + w
        ]
        np.testing.assert_array_equal(fast, ref)

    def test_table2_hot_shape_is_unpadded(self):
        # The 33 -> 11 stage pads nothing: the fast path must not copy.
        assert same_padding(33, 3, 3) == (0, 0)
        x = np.random.default_rng(0).standard_normal((4, 16, 33, 33))
        cols, padded = im2col(x, kernel=3, stride=3)
        assert cols.shape == (4 * 11 * 11, 16 * 9)
        assert padded == (4, 16, 33, 33)


class TestCol2imAdjoint:
    """col2im must be the exact adjoint of im2col: <Ax, y> == <x, A*y>."""

    @given(
        c=st.integers(1, 3),
        h=st.integers(1, 8),
        w=st.integers(1, 8),
        stride=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_adjoint_property(self, c, h, w, stride, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, c, h, w))
        cols, padded = im2col(x, kernel=3, stride=stride)
        y = rng.standard_normal(cols.shape)
        back = col2im(y, padded, (h, w), kernel=3, stride=stride)
        np.testing.assert_allclose(
            np.sum(cols * y), np.sum(x * back), rtol=1e-10, atol=1e-10
        )
