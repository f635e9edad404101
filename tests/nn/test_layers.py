"""Layer forward semantics and gradient checks."""

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    LeakyReLU,
    Sequential,
    check_module_gradients,
)


def rng():
    return np.random.default_rng(42)


class TestDense:
    def test_known_values(self):
        layer = Dense(2, 2, rng=rng())
        layer.weight.value = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer.bias.value = np.array([0.5, -0.5])
        out = layer(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[4.5, 5.5]])

    def test_broadcasts_over_leading_dims(self):
        layer = Dense(3, 5, rng=rng())
        x = rng().standard_normal((2, 7, 3))
        out = layer(x)
        assert out.shape == (2, 7, 5)
        np.testing.assert_allclose(
            out[1, 3], layer(x[1, 3][None, :])[0], rtol=1e-6
        )

    def test_rejects_wrong_width(self):
        layer = Dense(3, 5)
        with pytest.raises(ValueError, match="last dim"):
            layer(np.zeros((2, 4)))

    def test_gradcheck_2d(self):
        layer = Dense(4, 3, rng=rng())
        check_module_gradients(layer, rng().standard_normal((5, 4)))

    def test_gradcheck_3d_input(self):
        layer = Dense(3, 2, rng=rng())
        check_module_gradients(layer, rng().standard_normal((2, 4, 3)))

    def test_gradients_accumulate(self):
        layer = Dense(2, 2, rng=rng())
        x = np.ones((1, 2))
        layer(x)
        layer.backward(np.ones((1, 2)))
        first = layer.weight.grad.copy()
        layer(x)
        layer.backward(np.ones((1, 2)))
        np.testing.assert_allclose(layer.weight.grad, 2 * first)


class TestLeakyReLU:
    def test_paper_definition(self):
        act = LeakyReLU()
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(act(x), np.maximum(0.01 * x, x))

    def test_negative_slope_in_backward(self):
        act = LeakyReLU(alpha=0.1)
        act(np.array([-1.0, 1.0]))
        grad = act.backward(np.array([1.0, 1.0]))
        np.testing.assert_allclose(grad, [0.1, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5])
    def test_bitwise_equals_where_form(self, dtype, alpha):
        """Forward and backward equal the ``where(x > 0, ...)`` forms bit
        for bit, signed zeros, subnormals and infinities too."""
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array(
            [0.0, -0.0, tiny, -tiny, np.inf, -np.inf], dtype=dtype
        )
        x = np.concatenate(
            [special, rng().standard_normal(2002).astype(dtype) * 10]
        ).reshape(4, -1)
        act = LeakyReLU(alpha)
        got = act(x)
        want = np.where(x > 0, x, alpha * x)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))
        grad = rng().standard_normal(x.shape).astype(dtype)
        got = act.backward(grad)
        want = np.where(x > 0, grad, alpha * grad)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_rejects_alpha_outside_unit_interval(self):
        for alpha in (-0.1, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                LeakyReLU(alpha)

    def test_gradcheck(self):
        # avoid the kink at 0 by sampling away from it
        x = rng().standard_normal((4, 5))
        x = np.where(np.abs(x) < 0.1, x + 0.2, x)
        check_module_gradients(LeakyReLU(), x)


class TestConv2D:
    def test_identity_kernel(self):
        conv = Conv2D(1, 1, kernel=3, stride=1, rng=rng())
        weight = np.zeros((9, 1))
        weight[4, 0] = 1.0  # centre tap
        conv.weight.value = weight
        conv.bias.value = np.zeros(1)
        x = rng().standard_normal((1, 1, 5, 5))
        np.testing.assert_allclose(conv(x), x, atol=1e-12)

    def test_output_shape_stride3(self):
        conv = Conv2D(2, 7, kernel=3, stride=3, rng=rng())
        out = conv(np.zeros((4, 2, 11, 11), dtype=np.float32))
        assert out.shape == (4, 7, 4, 4)

    def test_rejects_wrong_channels(self):
        conv = Conv2D(3, 4)
        with pytest.raises(ValueError, match="expected"):
            conv(np.zeros((1, 2, 5, 5)))

    def test_gradcheck_stride1(self):
        conv = Conv2D(2, 3, kernel=3, stride=1, rng=rng())
        check_module_gradients(conv, rng().standard_normal((2, 2, 5, 4)))

    def test_gradcheck_stride3(self):
        conv = Conv2D(2, 2, kernel=3, stride=3, rng=rng())
        check_module_gradients(conv, rng().standard_normal((1, 2, 7, 7)))

    def test_bias_applied_everywhere(self):
        conv = Conv2D(1, 1, rng=rng())
        conv.weight.value = np.zeros((9, 1))
        conv.bias.value = np.array([3.5])
        out = conv(np.zeros((1, 1, 4, 4)))
        np.testing.assert_allclose(out, 3.5)


class TestPoolingAndFlatten:
    def test_global_avg_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = GlobalAvgPool()(x)
        np.testing.assert_allclose(out, [[7.5]])

    def test_global_avg_pool_gradcheck(self):
        check_module_gradients(GlobalAvgPool(), rng().standard_normal((2, 3, 4, 4)))

    def test_flatten_roundtrip_shapes(self):
        flat = Flatten()
        x = rng().standard_normal((3, 2, 4))
        out = flat(x)
        assert out.shape == (3, 8)
        grad = flat.backward(out)
        assert grad.shape == x.shape


class TestSequential:
    def test_composes(self):
        net = Sequential(Dense(3, 4, rng=rng()), LeakyReLU(), Dense(4, 2, rng=rng()))
        out = net(rng().standard_normal((5, 3)))
        assert out.shape == (5, 2)

    def test_gradcheck_full_chain(self):
        net = Sequential(
            Conv2D(1, 2, stride=1, rng=rng()),
            LeakyReLU(),
            GlobalAvgPool(),
            Dense(2, 3, rng=rng()),
        )
        x = rng().standard_normal((2, 1, 4, 4))
        x = np.where(np.abs(x) < 0.05, x + 0.1, x)
        check_module_gradients(net, x, atol=1e-5)

    def test_append_and_index(self):
        net = Sequential(Dense(2, 2))
        net.append(LeakyReLU())
        assert len(net) == 2
        assert isinstance(net[1], LeakyReLU)
