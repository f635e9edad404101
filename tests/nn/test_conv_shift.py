"""Conv2D against the test-only im2col oracle.

The shift-and-accumulate kernel sums the ``k * k`` taps as separate
gemms, where the oracle runs one gemm over ``C * k * k`` patch
columns; the two agree to float rounding, not bitwise.  Checked here:
``y``, ``dW``, ``db`` and ``dx`` for strides 1, 2 and 3 (stride 3 is
the tiling kernel) on odd, even and non-square inputs, float64
gradchecks for each stride, and a few float64 training steps of a tiny
``SplitNet`` with either convolution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conv_oracle import OracleConv2D
from repro.core import AttackConfig
from repro.core.model import SplitNet
from repro.nn import Adam, Conv2D, check_module_gradients, softmax_regression_loss


def _run(cls, x, grad_seed, **conv_kwargs):
    """(y, dW, db, dx) of one forward + backward."""
    conv = cls(rng=np.random.default_rng(7), dtype=x.dtype, **conv_kwargs)
    conv.bias.value[...] = np.random.default_rng(8).standard_normal(
        conv.bias.value.shape
    )
    y = conv(x)
    g = np.random.default_rng(grad_seed).standard_normal(y.shape).astype(x.dtype)
    dx = conv.backward(g)
    return y, conv.weight.grad, conv.bias.grad, dx


def _assert_matches_oracle(x, rtol, atol, **conv_kwargs):
    got = _run(Conv2D, x, 1, **conv_kwargs)
    want = _run(OracleConv2D, x, 1, **conv_kwargs)
    for name, a, b in zip(("y", "dW", "db", "dx"), got, want):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        np.testing.assert_allclose(a, b, rtol=rtol, atol=atol, err_msg=name)


class TestAgainstOracle:
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("hw", [(9, 9), (8, 8), (7, 10)])
    def test_float64(self, stride, hw):
        x = np.random.default_rng(0).standard_normal((3, 4) + hw)
        _assert_matches_oracle(
            x, 1e-12, 1e-12, in_channels=4, out_channels=5, stride=stride
        )

    @pytest.mark.parametrize("stride", [1, 3])
    def test_float32_table2_shape(self, stride):
        x = (
            np.random.default_rng(1)
            .standard_normal((4, 16, 33, 33))
            .astype(np.float32)
        )
        _assert_matches_oracle(
            x, 1e-4, 1e-4, in_channels=16, out_channels=16, stride=stride
        )

    @given(
        n=st.integers(1, 4),
        c=st.integers(1, 4),
        out_c=st.integers(1, 5),
        h=st.integers(1, 13),
        w=st.integers(1, 13),
        kernel=st.sampled_from([2, 3, 5]),
        stride=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property(self, n, c, out_c, h, w, kernel, stride, seed):
        x = np.random.default_rng(seed).standard_normal((n, c, h, w))
        _assert_matches_oracle(
            x, 1e-11, 1e-11,
            in_channels=c, out_channels=out_c, kernel=kernel, stride=stride,
        )

    def test_empty_batch(self):
        x = np.zeros((0, 3, 6, 6), dtype=np.float32)
        y, dw, db, dx = _run(Conv2D, x, 1, in_channels=3, out_channels=4)
        assert y.shape == (0, 4, 6, 6) and dx.shape == x.shape
        assert not dw.any() and not db.any()


class TestGradcheck:
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_float64(self, stride):
        conv = Conv2D(2, 3, kernel=3, stride=stride, rng=np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal((2, 2, 7, 6))
        check_module_gradients(conv, x)


class TestLayout:
    def test_stack_stays_channels_last(self):
        """Outputs and input gradients are NCHW views of NHWC memory, so
        the next layer's boundary transpose is a contiguous copy."""
        rng = np.random.default_rng(0)
        conv1 = Conv2D(3, 4, rng=rng)
        conv2 = Conv2D(4, 5, rng=rng)
        y1 = conv1(rng.standard_normal((2, 3, 9, 9)).astype(np.float32))
        y2 = conv2(y1)
        assert y1.transpose(0, 2, 3, 1).flags.c_contiguous
        assert y2.transpose(0, 2, 3, 1).flags.c_contiguous
        g1 = conv2.backward(np.ones_like(y2))
        assert g1.shape == y1.shape


def _tiny_float64_net() -> SplitNet:
    net = SplitNet(AttackConfig.tiny(), split_layer=3)
    for p in net.parameters():
        p.value = p.value.astype(np.float64)
        p.grad = np.zeros_like(p.value)
    return net


class TestSplitNetTraining:
    def test_steps_match_oracle_conv(self):
        """A few float64 Adam steps of a tiny SplitNet give the same
        losses and weights with either convolution, to ~1e-9."""
        cfg = AttackConfig.tiny()
        b, n = 3, cfg.n_candidates
        runs = []
        for oracle in (False, True):
            net = _tiny_float64_net()
            conv_layers = [m for m in net.tower.modules if isinstance(m, Conv2D)]
            assert len(conv_layers) == len(cfg.conv_channels) * cfg.convs_per_stage
            if oracle:
                for conv in conv_layers:
                    conv.__class__ = OracleConv2D
            net.train()
            channels = conv_layers[0].in_channels
            size = cfg.image_size
            data = np.random.default_rng(3)
            vec = data.standard_normal((b, n, 27))
            src = data.standard_normal((b, n, channels, size, size))
            sink = data.standard_normal((b, channels, size, size))
            targets = data.integers(0, n, size=b)
            optimizer = Adam(list(net.parameters()), lr=1e-3)
            losses = []
            for _ in range(4):
                optimizer.zero_grad()
                scores = net(vec, src, sink)
                loss, grad = softmax_regression_loss(scores, targets, None)
                net.backward(grad)
                optimizer.step()
                losses.append(loss)
            runs.append((np.array(losses), net.state_dict()))
        (losses, state), (ref_losses, ref_state) = runs
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-9, atol=1e-12)
        for key in ref_state:
            np.testing.assert_allclose(
                state[key], ref_state[key], rtol=1e-9, atol=1e-9, err_msg=key
            )
