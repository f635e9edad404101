"""Test-only reference convolution: im2col / col2im plus one gemm.

``Conv2D`` never materialises patch columns; this module keeps the
textbook formulation as an independent oracle for it.  ``im2col``
gathers every SAME-padded window into one row of a ``(N * oh * ow,
C * k * k)`` matrix (a strided view for overlapping windows, a plain
reshape when ``stride == kernel``), ``col2im`` is its exact adjoint,
and :class:`OracleConv2D` is a drop-in ``Conv2D`` built on the pair.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Conv2D, conv_output_size, same_padding


def _pad(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    n, c, h, w = x.shape
    pad_h = same_padding(h, kernel, stride)
    pad_w = same_padding(w, kernel, stride)
    return np.pad(x, ((0, 0), (0, 0), pad_h, pad_w))


def im2col_general(
    x: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Overlapping-window im2col via a strided view (any stride)."""
    n, c, h, w = x.shape
    xp = _pad(x, kernel, stride)
    out_h = conv_output_size(h, kernel, stride)
    out_w = conv_output_size(w, kernel, stride)
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kernel * kernel
    )
    return np.ascontiguousarray(cols), xp.shape


def im2col_nonoverlap(
    x: np.ndarray, kernel: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """stride == kernel: patches tile the padded image, so the gather is
    a pure reshape."""
    n, c = x.shape[:2]
    xp = _pad(x, kernel, kernel)
    hp, wp = xp.shape[2:]
    cols = (
        xp.reshape(n, c, hp // kernel, kernel, wp // kernel, kernel)
        .transpose(0, 2, 4, 1, 3, 5)
        .reshape(n * (hp // kernel) * (wp // kernel), c * kernel * kernel)
    )
    return np.ascontiguousarray(cols), xp.shape


def im2col(
    x: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Unfold ``x`` (N, C, H, W) into ``(cols, padded_shape)``."""
    if stride == kernel:
        return im2col_nonoverlap(x, kernel)
    return im2col_general(x, kernel, stride)


def col2im_general(
    cols: np.ndarray,
    padded_shape: tuple[int, ...],
    out_h: int,
    out_w: int,
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Scatter-add patch rows back onto the padded grid."""
    n, c, hp, wp = padded_shape
    grad_padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    patches = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(
        0, 3, 1, 2, 4, 5
    )
    for ki in range(kernel):
        for kj in range(kernel):
            grad_padded[
                :, :,
                ki : ki + out_h * stride : stride,
                kj : kj + out_w * stride : stride,
            ] += patches[:, :, :, :, ki, kj]
    return grad_padded


def col2im_nonoverlap(
    cols: np.ndarray,
    padded_shape: tuple[int, ...],
    out_h: int,
    out_w: int,
    kernel: int,
) -> np.ndarray:
    """stride == kernel: every padded pixel receives exactly one patch
    value, so the scatter-add collapses to one reshape."""
    n, c, hp, wp = padded_shape
    return (
        cols.reshape(n, out_h, out_w, c, kernel, kernel)
        .transpose(0, 3, 1, 4, 2, 5)
        .reshape(n, c, hp, wp)
    )


def col2im(
    cols: np.ndarray,
    padded_shape: tuple[int, ...],
    orig_hw: tuple[int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Fold patch-column gradients back to an input gradient (N, C, H, W)."""
    h, w = orig_hw
    out_h = conv_output_size(h, kernel, stride)
    out_w = conv_output_size(w, kernel, stride)
    if stride == kernel:
        grad_padded = col2im_nonoverlap(cols, padded_shape, out_h, out_w, kernel)
    else:
        grad_padded = col2im_general(
            cols, padded_shape, out_h, out_w, kernel, stride
        )
    top = same_padding(h, kernel, stride)[0]
    left = same_padding(w, kernel, stride)[0]
    return grad_padded[:, :, top : top + h, left : left + w]


class OracleConv2D(Conv2D):
    """``Conv2D`` with the same parameters, computed as im2col + gemm."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, _, h, w = x.shape
        cols, padded_shape = im2col(x, self.kernel, self.stride)
        out = cols @ self.weight.value + self.bias.value
        self._cache = (cols, padded_shape, (h, w))
        out_h = conv_output_size(h, self.kernel, self.stride)
        out_w = conv_output_size(w, self.kernel, self.stride)
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(
            0, 3, 1, 2
        )

    def backward(self, grad: np.ndarray) -> np.ndarray:
        cols, padded_shape, orig_hw = self._cache
        self._cache = None
        g2d = grad.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        self.weight.grad += cols.T @ g2d
        self.bias.grad += g2d.sum(axis=0)
        return col2im(
            g2d @ self.weight.value.T, padded_shape, orig_hw,
            self.kernel, self.stride,
        )
