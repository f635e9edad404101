"""Test-only scalar feature code: the parity oracle for the array passes.

``repro.core`` builds candidates, vector features and images as
whole-layout array passes.  This module keeps the per-pair and per-pin
formulation they replaced, written straight from the paper (Sec. 3,
Sec. 4.1), so the parity tests can assert that the array passes give
exactly the same candidate lists and bitwise-equal tensors:

* candidate selection — :func:`segment_side_signs`, :func:`prefers`,
  :func:`direction_compatible`, :func:`select_candidates`;
* vector features — :func:`vpp_vector_features`,
  :func:`group_vector_features`;
* images — :func:`render_reference`, a dense full-die renderer.
"""

from __future__ import annotations

import numpy as np

from repro.cells.timing import (
    driver_delay_ps,
    load_lower_bound_ff,
    load_upper_bound_ff,
)
from repro.core import N_VECTOR_FEATURES, AttackConfig
from repro.layout.geometry import Segment
from repro.layout.routing import NetRoute
from repro.split import VPP, Fragment, SplitLayout, VirtualPin

# -- candidate selection ----------------------------------------------------


def split_layer_segments_at(
    fragment: Fragment, xy: tuple[int, int], layer: int
) -> list[Segment]:
    """Maximal straight segments of ``fragment`` on ``layer`` through xy."""
    route = NetRoute(
        fragment.net, nodes=set(fragment.nodes), edges=set(fragment.edges)
    )
    incident = []
    for seg in route.segments():
        if seg.layer != layer:
            continue
        if seg.direction == "H" and seg.y1 == xy[1] and seg.x1 <= xy[0] <= seg.x2:
            incident.append(seg)
        elif seg.direction == "V" and seg.x1 == xy[0] and seg.y1 <= xy[1] <= seg.y2:
            incident.append(seg)
    return incident


def segment_side_signs(
    fragment: Fragment, vp: VirtualPin, split_layer: int
) -> dict[int, set[int]]:
    """Allowed continuation signs per axis (0 = x, 1 = y) for a pin.

    At a segment endpoint continuation is allowed away from the segment
    body; at an interior point both ways; an axis without an attached
    segment allows both signs.
    """
    allowed: dict[int, set[int]] = {0: set(), 1: set()}
    touched: dict[int, bool] = {0: False, 1: False}
    for seg in split_layer_segments_at(fragment, vp.xy, split_layer):
        if seg.length == 0:
            continue
        axis = 0 if seg.direction == "H" else 1
        touched[axis] = True
        lo, hi = (seg.x1, seg.x2) if axis == 0 else (seg.y1, seg.y2)
        pos = vp.xy[axis]
        if pos == lo and pos == hi:
            continue
        if pos == lo:
            allowed[axis].add(-1)
        elif pos == hi:
            allowed[axis].add(+1)
        else:
            allowed[axis].update((-1, +1))
    for axis in (0, 1):
        if not touched[axis]:
            allowed[axis] = {-1, +1}
    return allowed


def prefers(
    fragment_p: Fragment, vp_p: VirtualPin, vp_q: VirtualPin, split_layer: int
) -> bool:
    """True when pin p prefers pin q (Sec. 4.1 direction criterion)."""
    allowed = segment_side_signs(fragment_p, vp_p, split_layer)
    for axis in (0, 1):
        delta = vp_q.xy[axis] - vp_p.xy[axis]
        if delta == 0:
            continue
        sign = 1 if delta > 0 else -1
        if sign not in allowed[axis]:
            return False
    return True


def direction_compatible(
    sink_frag: Fragment,
    sink_vp: VirtualPin,
    source_frag: Fragment,
    source_vp: VirtualPin,
    split_layer: int,
) -> bool:
    """Keep the VPP unless *both* pins reject each other (Table 1)."""
    return prefers(sink_frag, sink_vp, source_vp, split_layer) or prefers(
        source_frag, source_vp, sink_vp, split_layer
    )


def select_candidates(
    split: SplitLayout,
    sink: Fragment,
    n: int,
    sources: list[Fragment] | None = None,
) -> list[VPP]:
    """Up to ``n`` candidate VPPs for one sink fragment, pair by pair.

    Each source is represented by its pin pair with the smallest
    ``(d_np, d_p, source x, source y)``, the first sink pin winning
    ties; sources rank by that key, then by fragment id.
    """
    if sources is None:
        sources = split.source_fragments
    np_axis = 1 - split.preferred_axis
    best: dict[int, tuple[tuple[int, int, int, int], VPP]] = {}
    for source in sources:
        for svp in sink.virtual_pins:
            for qvp in source.virtual_pins:
                if not direction_compatible(
                    sink, svp, source, qvp, split.split_layer
                ):
                    continue
                d_np = abs(qvp.xy[np_axis] - svp.xy[np_axis])
                d_p = abs(qvp.xy[1 - np_axis] - svp.xy[1 - np_axis])
                key = (d_np, d_p, qvp.xy[0], qvp.xy[1])
                prev = best.get(source.fragment_id)
                if prev is None or key < prev[0]:
                    best[source.fragment_id] = (key, VPP(svp, qvp))
    ranked = sorted(best.items(), key=lambda item: (item[1][0], item[0]))
    return [vpp for _sid, (_key, vpp) in ranked[:n]]


def build_candidates_oracle(split: SplitLayout, n: int) -> dict[int, list[VPP]]:
    sources = split.source_fragments
    return {
        sink.fragment_id: select_candidates(split, sink, n, sources)
        for sink in split.sink_fragments
    }


# -- vector features --------------------------------------------------------


def vpp_vector_features(
    split: SplitLayout, vpp: VPP, max_layers: int = 4
) -> np.ndarray:
    """The 27-entry float64 feature vector of one VPP."""
    sink = split.fragment(vpp.sink_fragment)
    source = split.fragment(vpp.source_fragment)
    fp = split.design.floorplan

    d_p, d_n = split.vpp_deltas(vpp)
    signed = (float(d_p), float(d_n), float(d_p + d_n))
    unsigned = (abs(signed[0]), abs(signed[1]), abs(signed[0]) + abs(signed[1]))
    width, height, hp = float(fp.width), float(fp.height), float(fp.half_perimeter)

    features = np.empty(N_VECTOR_FEATURES, dtype=np.float64)
    features[0:3] = signed
    features[3:6] = unsigned
    features[6:9] = (signed[0] / width, signed[1] / height, signed[2] / hp)
    features[9:12] = (unsigned[0] / width, unsigned[1] / height, unsigned[2] / hp)

    cap_upper, cap_lower, delay = _electrical(split, source, sink)
    features[12] = cap_upper
    features[13] = cap_lower
    features[14] = float(sink.n_sinks)
    features[15 : 15 + max_layers] = _layer_wirelengths(source, max_layers)
    features[15 + max_layers : 15 + 2 * max_layers] = _layer_wirelengths(
        sink, max_layers
    )
    features[23] = float(sum(source.vias_by_cut().values()))
    features[24] = float(sum(sink.vias_by_cut().values()))
    features[25] = delay
    features[26] = cap_upper - cap_lower
    return features


def _layer_wirelengths(fragment: Fragment, max_layers: int) -> np.ndarray:
    out = np.zeros(max_layers)
    for layer, length in fragment.wirelength_by_layer().items():
        if layer <= max_layers:
            out[layer - 1] = float(length)
    return out


def _electrical(
    split: SplitLayout, source: Fragment, sink: Fragment
) -> tuple[float, float, float]:
    driver_cell = split.design.driver_cell(source.net)
    sink_caps = [split.design.sink_pin_capacitance(t) for t in sink.sinks]
    sink_caps += [
        split.design.sink_pin_capacitance(t) for t in source.internal_sinks
    ]
    lower = load_lower_bound_ff(
        sink_caps, source.total_wirelength, sink.total_wirelength
    )
    if driver_cell is None:
        upper = max(lower, 120.0)
        delay = 0.0
    else:
        upper = load_upper_bound_ff(driver_cell)
        delay = driver_delay_ps(
            driver_cell, lower, wirelength_tracks=source.total_wirelength
        )
    return upper, lower, delay


def group_vector_features(
    split: SplitLayout, vpps: list[VPP], n: int, max_layers: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """(n, 27) float32 features and (n,) mask of one group, zero-padded."""
    features = np.zeros((n, N_VECTOR_FEATURES), dtype=np.float32)
    mask = np.zeros(n, dtype=bool)
    for i, vpp in enumerate(vpps[:n]):
        features[i] = vpp_vector_features(split, vpp, max_layers)
        mask[i] = True
    return features, mask


# -- images -----------------------------------------------------------------


def render_reference(
    split: SplitLayout, config: AttackConfig, fragment: Fragment, vp: VirtualPin
) -> np.ndarray:
    """(C, S, S) uint8 image of one pin, rendered on dense full-die grids."""
    m = split.split_layer
    own = _own_grid(split, fragment)
    other = (split.occupancy_grids() - own).clip(min=0)
    planes: list[np.ndarray] = []
    for scale in config.image_scales:
        tracks = config.image_size * scale
        for grid in (own, other):
            for layer in range(m, 0, -1):
                window = _window(grid[layer - 1], vp.x, vp.y, tracks)
                planes.append(_pool_max(window, scale))
    return np.stack(planes).astype(np.uint8)


def _own_grid(split: SplitLayout, fragment: Fragment) -> np.ndarray:
    """(m, W, H) int16 marking the fragment's own FEOL wiring."""
    fp = split.design.floorplan
    m = split.split_layer
    own = np.zeros((m, fp.width, fp.height), dtype=np.int16)
    for layer, x, y in fragment.nodes:
        if layer <= m:
            own[layer - 1, x, y] = 1
    return own


def _window(grid: np.ndarray, cx: int, cy: int, tracks: int) -> np.ndarray:
    """``tracks x tracks`` window centred at (cx, cy), zero outside the die."""
    half = tracks // 2
    x0, y0 = cx - half, cy - half
    out = np.zeros((tracks, tracks), dtype=grid.dtype)
    gx0, gy0 = max(0, x0), max(0, y0)
    gx1 = min(grid.shape[0], x0 + tracks)
    gy1 = min(grid.shape[1], y0 + tracks)
    if gx1 > gx0 and gy1 > gy0:
        out[gx0 - x0 : gx1 - x0, gy0 - y0 : gy1 - y0] = grid[gx0:gx1, gy0:gy1]
    return out


def _pool_max(window: np.ndarray, scale: int) -> np.ndarray:
    """Max-pool an (S*s, S*s) window to (S, S) binary bits."""
    if scale == 1:
        return (window > 0).astype(np.uint8)
    size = window.shape[0] // scale
    pooled = window.reshape(size, scale, size, scale).max(axis=(1, 3))
    return (pooled > 0).astype(np.uint8)
