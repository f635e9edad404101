"""Stride < kernel Conv2D without a materialised patch-column copy.

The shift-and-accumulate kernel (see ``repro.nn.conv_utils``) keeps
only the zero-padded channels-last input between forward and backward,
never the ``kernel**2``-times-larger im2col matrix.  Checked here
against a direct convolution, by float64 gradcheck, and by the size of
what the forward caches.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Conv2D,
    check_module_gradients,
    conv_output_size,
    same_padding,
)


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
            patch = xp[
                :, :,
                i * stride : i * stride + kernel,
                j * stride : j * stride + kernel,
            ]
            out[:, :, i, j] = np.einsum("nckl,cklo->no", patch, w4)
    return out


class TestBlockedCorrectness:
    @given(
        c=st.integers(1, 3),
        out_c=st.integers(1, 4),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        stride=st.sampled_from([1, 2]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_convolution(self, c, out_c, h, w, stride, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, c, h, w))
        conv = Conv2D(
            c, out_c, kernel=3, stride=stride, rng=np.random.default_rng(seed)
        )
        conv.bias.value[...] = 0.0
        y = conv(x)
        np.testing.assert_allclose(
            y, naive_conv2d(x, conv.weight.value, 3, stride), atol=1e-10
        )

    def test_gradcheck_blocked_mode(self):
        conv = Conv2D(2, 3, kernel=3, stride=1, rng=np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal((2, 2, 5, 5))
        check_module_gradients(conv, x)


class TestModeSelection:
    def test_blocked_avoids_full_cols_materialisation(self):
        """stride < kernel caches the padded input, not a cols copy;
        stride == kernel caches its tiled patch rows, which are the
        input itself rearranged (no duplication)."""
        x = np.zeros((2, 4, 15, 15), dtype=np.float32)
        conv = Conv2D(4, 4, kernel=3, stride=1)
        conv(x)
        padded = conv._cache[0]
        assert padded.shape == (2, 17, 17, 4)
        assert padded.nbytes <= x.nbytes * 2  # padded input, not 9x cols
        tiled = Conv2D(4, 4, kernel=3, stride=3)
        tiled(x)
        assert tiled._cache[0].nbytes == x.nbytes
