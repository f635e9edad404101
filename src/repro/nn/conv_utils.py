"""Convolution kernels behind :class:`repro.nn.layers.Conv2D`.

SAME padding, NCHW in and out, weights as ``(C * k * k, O)`` rows in
``(channel, kernel row, kernel col)`` order.  Two kernels, picked by
geometry:

* **stride == kernel** (the Table 2 down-sampling convolutions, kernel
  3 / stride 3): patches tile the padded image exactly, so the patch
  gather is a plain ``reshape`` + ``transpose`` feeding one gemm, and
  the backward fold is one reshape because no two patches share a
  pixel.
* **any other stride** (the stride-1 convolutions, two thirds of the
  tower): shift-and-accumulate.  The input is copied once into a
  zero-padded channels-last ``(N, Hp, Wp, C)`` buffer, viewed as the
  flat matrix ``X`` of shape ``(N * Hp * Wp, C)``.  Kernel tap
  ``(i, j)`` then reads input row ``p + i * Wp + j`` for output row
  ``p``, so the whole convolution is ``k * k`` contiguous gemms
  ``X[off:off + R] @ W[:, i, j, :]`` accumulated into one output on the
  same padded grid — no im2col copy, no col2im scatter.  Grid rows whose
  window wraps past an image's right or bottom edge are junk and are
  cropped away; a stride ``s`` output is the stride-1 grid subsampled
  every ``s`` rows and columns.  The backward runs the transposed
  products over the same offsets: ``X[off:off + R].T @ G`` for the
  weight gradient and ``dX[off:off + R] += G @ W[:, i, j, :].T`` for
  the input gradient, with the output gradient ``G`` zero on junk rows.

Outputs and input gradients are channels-last in memory and returned as
NCHW views, so a stack of convolutions never transposes an activation.
"""

from __future__ import annotations

import numpy as np


def same_padding(in_size: int, kernel: int, stride: int) -> tuple[int, int]:
    """TensorFlow-style SAME padding (before, after) for one dimension.

    Produces ``out = ceil(in / stride)``, which yields exactly the
    99 -> 33 -> 11 -> 4 progression of Table 2 for kernel 3 / stride 3.
    """
    out_size = -(-in_size // stride)
    total = max((out_size - 1) * stride + kernel - in_size, 0)
    before = total // 2
    return before, total - before


def conv_output_size(in_size: int, kernel: int, stride: int) -> int:
    return -(-in_size // stride)


def tile_patches(x: np.ndarray, kernel: int) -> np.ndarray:
    """stride == kernel patch rows ``(N * oh * ow, C * k * k)`` of NCHW ``x``.

    When the size divides evenly (the hot 99 -> 33 and 33 -> 11 stages)
    no padding copy is made.
    """
    n, c, h, w = x.shape
    pad_h = same_padding(h, kernel, kernel)
    pad_w = same_padding(w, kernel, kernel)
    if pad_h != (0, 0) or pad_w != (0, 0):
        x = np.pad(x, ((0, 0), (0, 0), pad_h, pad_w))
    oh, ow = x.shape[2] // kernel, x.shape[3] // kernel
    return (
        x.reshape(n, c, oh, kernel, ow, kernel)
        .transpose(0, 2, 4, 1, 3, 5)
        .reshape(n * oh * ow, c * kernel * kernel)
    )


def untile_patches(
    cols: np.ndarray, channels: int, orig_hw: tuple[int, int], kernel: int
) -> np.ndarray:
    """Adjoint of :func:`tile_patches`: patch-row gradients to NCHW."""
    h, w = orig_hw
    top, bottom = same_padding(h, kernel, kernel)
    left, right = same_padding(w, kernel, kernel)
    hp, wp = top + h + bottom, left + w + right
    grad = (
        cols.reshape(-1, hp // kernel, wp // kernel, channels, kernel, kernel)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(-1, hp, wp, channels)
    )
    return grad[:, top : top + h, left : left + w].transpose(0, 3, 1, 2)


def pad_channels_last(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Copy NCHW ``x`` once into a zero-padded ``(N, Hp, Wp, C)`` buffer."""
    n, c, h, w = x.shape
    top, bottom = same_padding(h, kernel, stride)
    left, right = same_padding(w, kernel, stride)
    xp = np.zeros((n, top + h + bottom, left + w + right, c), dtype=x.dtype)
    xp[:, top : top + h, left : left + w] = x.transpose(0, 2, 3, 1)
    return xp


def _grid_rows(grid_shape: tuple[int, ...], kernel: int) -> int:
    """Rows ``R`` of the flat grid every tap offset can read in bounds."""
    n, hp, wp = grid_shape[:3]
    return max(n * hp * wp - (kernel - 1) * (wp + 1), 0)


def _taps(kernel: int, wp: int):
    for i in range(kernel):
        for j in range(kernel):
            yield i, j, i * wp + j


def shift_conv_forward(xp: np.ndarray, weight: np.ndarray, kernel: int) -> np.ndarray:
    """Stride-1 valid convolution of padded NHWC ``xp`` on its own grid.

    Returns ``(N, Hp, Wp, O)``; the valid outputs are the top-left
    ``(Hp - k + 1, Wp - k + 1)`` corner of each image, the rest is junk.
    """
    n, hp, wp, c = xp.shape
    w4 = weight.reshape(c, kernel, kernel, -1)
    x2d = xp.reshape(-1, c)
    rows = _grid_rows(xp.shape, kernel)
    out = np.zeros(
        (n * hp * wp, w4.shape[3]), dtype=np.result_type(xp, weight)
    )
    acc = out[:rows]
    tmp = np.empty_like(acc)
    for i, j, off in _taps(kernel, wp):
        np.matmul(x2d[off : off + rows], w4[:, i, j], out=tmp)
        acc += tmp
    return out.reshape(n, hp, wp, w4.shape[3])


def shift_conv_backward(
    xp: np.ndarray, weight: np.ndarray, kernel: int, grad_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Transposed products of :func:`shift_conv_forward`.

    ``grad_grid`` is the output gradient on the padded grid
    ``(N, Hp, Wp, O)``, zero on junk rows.  Returns the weight gradient
    in ``weight``'s ``(C * k * k, O)`` layout and the input gradient on
    the padded grid, ``(N, Hp, Wp, C)``.
    """
    n, hp, wp, c = xp.shape
    w4 = weight.reshape(c, kernel, kernel, -1)
    x2d = xp.reshape(-1, c)
    g2d = grad_grid.reshape(-1, w4.shape[3])
    rows = _grid_rows(xp.shape, kernel)
    g = g2d[:rows]
    weight_grad = np.empty(w4.shape, dtype=np.result_type(xp, grad_grid))
    grad_x = np.zeros(
        (n * hp * wp, c), dtype=np.result_type(grad_grid, weight)
    )
    tmp = np.empty((rows, c), dtype=grad_x.dtype)
    for i, j, off in _taps(kernel, wp):
        np.matmul(x2d[off : off + rows].T, g, out=weight_grad[:, i, j])
        np.matmul(g, w4[:, i, j].T, out=tmp)
        grad_x[off : off + rows] += tmp
    return weight_grad.reshape(weight.shape), grad_x.reshape(n, hp, wp, c)
