"""Core neural-network layers: Dense, Conv2D, LeakyReLU, pooling.

Every layer follows the same contract:

* ``forward(x)`` caches whatever the backward pass needs;
* ``backward(grad_out)`` accumulates parameter gradients in-place and
  returns the gradient with respect to the layer input.

The paper's network (Fig. 4 / Table 2) uses exactly these building
blocks: 3x3 convolutions with occasional stride 3, fully connected
layers, and LeakyReLU ``y = max(0.01 x, x)`` activations.
"""

from __future__ import annotations

import numpy as np

from .conv_utils import (
    conv_output_size,
    pad_channels_last,
    same_padding,
    shift_conv_backward,
    shift_conv_forward,
    tile_patches,
    untile_patches,
)
from .module import Module, Parameter

DEFAULT_DTYPE = np.float32


def he_normal(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype=DEFAULT_DTYPE
) -> np.ndarray:
    """He-normal initialisation, the standard choice for ReLU-family nets."""
    std = np.sqrt(2.0 / max(fan_in, 1))
    return (rng.standard_normal(shape) * std).astype(dtype)


class Dense(Module):
    """Fully connected layer ``y = x W + b`` on the last axis.

    Accepts inputs of any leading shape ``(..., in_features)`` — the
    network applies the same fc stack to all ``n`` candidate VPPs of a
    sink fragment at once.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        dtype=DEFAULT_DTYPE,
        name: str = "fc",
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            he_normal(rng, (in_features, out_features), in_features, dtype),
            name=f"{name}.weight",
        )
        self.bias = Parameter(np.zeros(out_features, dtype=dtype), name=f"{name}.bias")
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense expected last dim {self.in_features}, got {x.shape}"
            )
        self._x = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._x
        if x is None:
            raise RuntimeError("backward called before forward")
        x2d = x.reshape(-1, self.in_features)
        g2d = grad.reshape(-1, self.out_features)
        self.weight.grad += x2d.T @ g2d
        self.bias.grad += g2d.sum(axis=0)
        self._x = None
        return (g2d @ self.weight.value.T).reshape(x.shape)


class LeakyReLU(Module):
    """``y = max(alpha * x, x)`` with the paper's alpha = 0.01."""

    def __init__(self, alpha: float = 0.01):
        super().__init__()
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"LeakyReLU alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self._mask: np.ndarray | None = None

    # Both passes equal the np.where(x > 0, ...) forms bit for bit, and
    # cost a fraction of them: for alpha in [0, 1], max(x, alpha * x)
    # picks x exactly when x > 0, and max(mask, alpha) is 1 where the
    # mask is set and alpha elsewhere.
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, self.alpha * x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        out = grad * np.maximum(self._mask, grad.dtype.type(self.alpha))
        self._mask = None
        return out


class Conv2D(Module):
    """3x3-style convolution with SAME padding and an NCHW contract.

    ``stride == kernel`` tiles the input into patch rows for one gemm;
    every other stride runs the shift-and-accumulate kernel over a
    zero-padded channels-last copy of the input (see ``conv_utils``).
    Outputs and input gradients are NCHW views of channels-last memory.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        rng: np.random.Generator | None = None,
        dtype=DEFAULT_DTYPE,
        name: str = "conv",
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(
            he_normal(rng, (fan_in, out_channels), fan_in, dtype),
            name=f"{name}.weight",
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype), name=f"{name}.bias")
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expected (N,{self.in_channels},H,W), got {x.shape}"
            )
        n, _, h, w = x.shape
        k, s = self.kernel, self.stride
        oh, ow = conv_output_size(h, k, s), conv_output_size(w, k, s)
        if s == k:
            cols = tile_patches(x, k)
            out = (cols @ self.weight.value + self.bias.value).reshape(
                n, oh, ow, self.out_channels
            )
            self._cache = (cols, (h, w))
        else:
            xp = pad_channels_last(x, k, s)
            grid = shift_conv_forward(xp, self.weight.value, k)
            out = grid[:, : oh * s : s, : ow * s : s] + self.bias.value
            self._cache = (xp, (h, w))
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        store, (h, w) = self._cache
        self._cache = None
        k, s = self.kernel, self.stride
        g_nhwc = grad.transpose(0, 2, 3, 1)
        if s == k:
            g2d = g_nhwc.reshape(-1, self.out_channels)
            self.weight.grad += store.T @ g2d
            self.bias.grad += g2d.sum(axis=0)
            return untile_patches(
                g2d @ self.weight.value.T, self.in_channels, (h, w), k
            )
        oh, ow = g_nhwc.shape[1:3]
        grad_grid = np.zeros(store.shape[:3] + (self.out_channels,), grad.dtype)
        grad_grid[:, : oh * s : s, : ow * s : s] = g_nhwc
        weight_grad, grad_xp = shift_conv_backward(
            store, self.weight.value, k, grad_grid
        )
        self.weight.grad += weight_grad
        self.bias.grad += g_nhwc.sum(axis=(0, 1, 2))
        top = same_padding(h, k, s)[0]
        left = same_padding(w, k, s)[0]
        return grad_xp[:, top : top + h, left : left + w].transpose(0, 3, 1, 2)


class GlobalAvgPool(Module):
    """Average over the spatial dims: (N, C, H, W) -> (N, C).

    Bridges the conv stack's final 4x4x128 feature map to the 128-wide
    fully connected image head (fc3 in Table 2).
    """

    def __init__(self):
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._shape
        self._shape = None
        return np.broadcast_to(
            grad[:, :, None, None] / (h * w), (n, c, h, w)
        ).astype(grad.dtype, copy=True)


class Flatten(Module):
    """(N, ...) -> (N, prod(...))."""

    def __init__(self):
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        shape = self._shape
        self._shape = None
        return grad.reshape(shape)


class Sequential(Module):
    """Chain of modules executed (and back-propagated) in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.modules = list(modules)

    def append(self, module: Module) -> None:
        self.modules.append(module)

    def forward(self, x):
        for module in self.modules:
            x = module(x)
        return x

    def backward(self, grad):
        for module in reversed(self.modules):
            grad = module.backward(grad)
        return grad

    def __len__(self) -> int:
        return len(self.modules)

    def __getitem__(self, idx: int) -> Module:
        return self.modules[idx]
