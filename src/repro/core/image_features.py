"""Image-based features (paper Sec. 3.2, Fig. 2).

For every virtual pin, the local routed layout is rendered as a stack
of binary layer-bit planes at three scales:

* the window is ``image_size`` pixels square, centred on the pin; at
  scale ``s`` each pixel represents an s x s-track region (the paper's
  0.05/0.1/0.2 um pixel footprints form the same 1:2:4 ladder);
* with m = split layer, each pixel carries 2m layer bits: the more
  significant m bits mark wiring of *the pin's own fragment* per layer,
  the less significant m bits mark wiring of *all other fragments*.
  Higher metal layers sit in more significant bits ("wires closer to
  the BEOL carry more information"), which here maps to channel order;
* vias mark both layers they connect (they are nodes on both).

Rendered as a float-ready uint8 tensor of shape
``(n_scales * 2m, image_size, image_size)``.

:meth:`ImageExtractor.render` draws a whole list of pins in one array
pass, a bounded chunk of pins at a time.  Each pin gets one boolean
window of ``image_size * max(scale)`` tracks per layer; every scale is a
centred crop of it, pooled by OR-ing its strided slices.  A pixel shows
other fragments' wiring where more nets than the pin's own occupy it,
so the other-fragment window comes from two precomputed die-wide masks
(at least one net, at least two nets) and the own-fragment window.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..split.fragments import VirtualPin
from ..split.split import SplitLayout
from .config import AttackConfig

# Upper bound on one chunk's (m, pins, tracks, tracks) window array.
_CHUNK_BYTES = 4 << 20


class ImageExtractor:
    """Renders per-virtual-pin layout images for one split layout."""

    def __init__(self, split: SplitLayout, config: AttackConfig):
        self.split = split
        self.config = config
        self.m = split.split_layer
        self.tracks = config.image_size * max(config.image_scales)
        # Die-wide "at least one net" / "at least two nets" masks, padded
        # so that the window of a pin at (x, y) starts at index (x, y).
        occupancy = split.occupancy_grids()
        half = self.tracks // 2
        pad = ((0, 0), (half, self.tracks - half), (half, self.tracks - half))
        self._any = np.pad(occupancy >= 1, pad)
        self._many = np.pad(occupancy >= 2, pad)

    @property
    def n_channels(self) -> int:
        return self.config.image_channels(self.m)

    def render(self, pins: Sequence[VirtualPin]) -> np.ndarray:
        """(len(pins), C, S, S) uint8 images, one per pin, in order."""
        size = self.config.image_size
        out = np.zeros((len(pins), self.n_channels, size, size), dtype=np.uint8)
        chunk = max(1, _CHUNK_BYTES // (self.m * self.tracks * self.tracks))
        nodes = _NodeIndex(self.split, {vp.fragment_id for vp in pins}, self.m)
        for lo in range(0, len(pins), chunk):
            self._render_chunk(pins[lo : lo + chunk], nodes, out[lo : lo + chunk])
        return out

    def _render_chunk(
        self, pins: Sequence[VirtualPin], nodes: "_NodeIndex", out: np.ndarray
    ) -> None:
        m, t = self.m, self.tracks
        xs = np.fromiter((vp.x for vp in pins), np.intp, len(pins))
        ys = np.fromiter((vp.y for vp in pins), np.intp, len(pins))
        own = nodes.windows(pins, xs - t // 2, ys - t // 2, t)
        # (m, B, T, T) windows.  A track shows other fragments' wiring
        # where more nets occupy it than the pin's own fragment explains.
        other = _windows(self._any, xs, ys, t) > own
        other |= _windows(self._many, xs, ys, t)

        size = self.config.image_size
        for k, scale in enumerate(self.config.image_scales):
            tracks = size * scale
            off = t // 2 - tracks // 2
            crop = slice(off, off + tracks)
            for j, window in enumerate((own, other)):
                pooled = _pool_or(window[:, :, crop, crop], scale)
                # Highest layer first (most significant bits).
                first = (2 * k + j) * m
                out[:, first : first + m] = pooled[::-1].transpose(1, 0, 2, 3)


class _NodeIndex:
    """FEOL nodes of a set of fragments as flat arrays, fragment-contiguous."""

    def __init__(self, split: SplitLayout, fragment_ids: set[int], m: int):
        self.span: dict[int, tuple[int, int]] = {}
        layer: list[int] = []
        x: list[int] = []
        y: list[int] = []
        for fid in sorted(fragment_ids):
            begin = len(layer)
            for node_layer, nx, ny in split.fragment(fid).nodes:
                if node_layer <= m:
                    layer.append(node_layer - 1)
                    x.append(nx)
                    y.append(ny)
            self.span[fid] = (begin, len(layer))
        self.layer = np.asarray(layer, dtype=np.intp)
        self.x = np.asarray(x, dtype=np.intp)
        self.y = np.asarray(y, dtype=np.intp)
        self.m = m

    def windows(
        self,
        pins: Sequence[VirtualPin],
        x0: np.ndarray,
        y0: np.ndarray,
        tracks: int,
    ) -> np.ndarray:
        """(m, B, T, T) bool: each pin's own-fragment wiring in its window."""
        spans = np.array([self.span[vp.fragment_id] for vp in pins], dtype=np.intp)
        counts = spans[:, 1] - spans[:, 0]
        pin = np.repeat(np.arange(len(pins)), counts)
        node = np.arange(counts.sum()) + np.repeat(
            spans[:, 0] - (np.cumsum(counts) - counts), counts
        )
        u = self.x[node] - x0[pin]
        v = self.y[node] - y0[pin]
        inside = (u >= 0) & (u < tracks) & (v >= 0) & (v < tracks)
        out = np.zeros((self.m, len(pins), tracks, tracks), dtype=bool)
        out[self.layer[node][inside], pin[inside], u[inside], v[inside]] = True
        return out


def _windows(grid: np.ndarray, xs: np.ndarray, ys: np.ndarray, t: int) -> np.ndarray:
    """(m, B, t, t) copies of the windows of a padded (m, W', H') grid
    whose corners are at (xs, ys)."""
    view = np.lib.stride_tricks.sliding_window_view(grid, (t, t), axis=(1, 2))
    return view[:, xs, ys]


def _pool_or(window: np.ndarray, scale: int) -> np.ndarray:
    """OR-pool the last two axes of a boolean window by ``scale``: a
    region's bit is set if any of its tracks holds wiring."""
    if scale == 1:
        return window
    rows = window[..., 0::scale, :].copy()
    for a in range(1, scale):
        rows |= window[..., a::scale, :]
    pooled = rows[..., 0::scale].copy()
    for a in range(1, scale):
        pooled |= rows[..., a::scale]
    return pooled
