"""Vector-based VPP features (paper Sec. 3.1) — 27 values per VPP.

Layout (matching Table 2's 27-wide fc1 input; see DESIGN.md Sec. 6):

====  ========================================================
idx   feature
====  ========================================================
0-2   signed dP, dN, dP+dN (P/N: preferred / non-preferred axis
      of the split layer; source pin minus sink pin)
3-5   |dP|, |dN|, |dP|+|dN|
6-8   signed distances scaled by chip width, height, half-perim
9-11  unsigned distances scaled likewise
12    load capacitance upper bound (driver max load, fF)
13    load capacitance lower bound (sink pins + wire cap, fF)
14    number of sinks in the sink fragment
15-18 source fragment wirelength on M1..M4 (tracks, zero-padded)
19-22 sink fragment wirelength on M1..M4
23    source fragment via count (all FEOL cut layers)
24    sink fragment via count
25    driver delay lower bound (ps, Elmore through the fragment)
26    capacitance slack: upper - lower bound
====  ========================================================

All values are FEOL-derivable, per the threat model: the BEOL is only
seen through the training labels.
"""

from __future__ import annotations

import numpy as np

from ..cells.timing import TRACK_UM, WIRE_CAP_FF_PER_UM, WIRE_RES_KOHM_PER_UM
from ..split.split import VPP, SplitLayout

N_VECTOR_FEATURES = 27


class VectorFeatures:
    """The vector features of one split layout, as an array pass.

    The per-fragment quantities (wirelength per layer, via count, sink
    count, sink pin capacitances, driver cell) are computed once; the
    27 columns of any list of VPPs are then gathered from them.  The
    float64 operations run elementwise in the order of the scalar
    formulas of :mod:`repro.cells.timing`, so a row equals the one the
    per-VPP formula gives, bit for bit.
    """

    def __init__(self, split: SplitLayout, max_layers: int = 4):
        self.split = split
        self.max_layers = max_layers
        design = split.design
        fragments = split.fragments
        self._row = {f.fragment_id: i for i, f in enumerate(fragments)}
        n_frag = len(fragments)
        self.layer_wl = np.zeros((n_frag, max_layers))
        self.total_wl = np.zeros(n_frag)
        self.vias = np.zeros(n_frag)
        self.n_sinks = np.zeros(n_frag)
        # Python's sum over the sink fragment's pin caps (left to right),
        # and the source fragment's own sink caps, zero-padded.
        self.sink_caps = np.zeros(n_frag)
        internal: list[list[float]] = []
        self.has_driver = np.zeros(n_frag, dtype=bool)
        self.max_load = np.zeros(n_frag)
        self.drive_res = np.zeros(n_frag)
        for i, frag in enumerate(fragments):
            by_layer = frag.wirelength_by_layer()
            for layer, length in by_layer.items():
                if layer <= max_layers:
                    self.layer_wl[i, layer - 1] = length
            self.total_wl[i] = sum(by_layer.values())
            self.vias[i] = sum(frag.vias_by_cut().values())
            self.n_sinks[i] = frag.n_sinks
            self.sink_caps[i] = sum(
                design.sink_pin_capacitance(t) for t in frag.sinks
            )
            internal.append(
                [design.sink_pin_capacitance(t) for t in frag.internal_sinks]
            )
            cell = design.driver_cell(frag.net)
            if cell is not None:
                self.has_driver[i] = True
                self.max_load[i] = cell.max_load_ff
                self.drive_res[i] = cell.drive_resistance_kohm
        width = max((len(caps) for caps in internal), default=0)
        self.internal_caps = np.zeros((n_frag, width))
        for i, caps in enumerate(internal):
            self.internal_caps[i, : len(caps)] = caps

    def rows(self, vpps: list[VPP]) -> np.ndarray:
        """(len(vpps), 27) float64 features, one row per VPP."""
        split = self.split
        fp = split.design.floorplan
        sink = np.fromiter(
            (self._row[v.sink_fragment] for v in vpps), np.intp, len(vpps)
        )
        src = np.fromiter(
            (self._row[v.source_fragment] for v in vpps), np.intp, len(vpps)
        )
        dx = np.fromiter(
            (v.source_vp.x - v.sink_vp.x for v in vpps), np.float64, len(vpps)
        )
        dy = np.fromiter(
            (v.source_vp.y - v.sink_vp.y for v in vpps), np.float64, len(vpps)
        )
        d_p, d_n = (dx, dy) if split.preferred_axis == 0 else (dy, dx)
        signed = (d_p, d_n, d_p + d_n)
        unsigned = (np.abs(d_p), np.abs(d_n), np.abs(d_p) + np.abs(d_n))
        width, height = float(fp.width), float(fp.height)
        hp = float(fp.half_perimeter)
        L = self.max_layers

        features = np.empty((len(vpps), N_VECTOR_FEATURES), dtype=np.float64)
        features[:, 0:3] = np.stack(signed, axis=1)
        features[:, 3:6] = np.stack(unsigned, axis=1)
        for j, value in enumerate(signed + unsigned):
            features[:, 6 + j] = value / (width, height, hp)[j % 3]

        cap_upper, cap_lower, delay = self._electrical(src, sink)
        features[:, 12] = cap_upper
        features[:, 13] = cap_lower
        features[:, 14] = self.n_sinks[sink]
        features[:, 15 : 15 + L] = self.layer_wl[src]
        features[:, 15 + L : 15 + 2 * L] = self.layer_wl[sink]
        features[:, 23] = self.vias[src]
        features[:, 24] = self.vias[sink]
        features[:, 25] = delay
        features[:, 26] = cap_upper - cap_lower
        return features

    def _electrical(
        self, src: np.ndarray, sink: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cap upper bound, cap lower bound, driver delay lower bound).

        The lower bound adds the sink fragment's pin caps, then the
        source fragment's own sink caps one by one, then each
        fragment's wire cap (``load_lower_bound_ff``); the delay is
        ``driver_delay_ps`` over the source fragment's wire.
        """
        pin_caps = self.sink_caps[sink]
        for k in range(self.internal_caps.shape[1]):
            pin_caps = pin_caps + self.internal_caps[src, k]
        src_wl = self.total_wl[src]
        lower = (
            pin_caps
            + src_wl * TRACK_UM * WIRE_CAP_FF_PER_UM
            + self.total_wl[sink] * TRACK_UM * WIRE_CAP_FF_PER_UM
        )
        driven = self.has_driver[src]
        # Primary input pads: library-independent caps, no delay.
        upper = np.where(driven, self.max_load[src], np.maximum(lower, 120.0))
        c_wire = src_wl * TRACK_UM * WIRE_CAP_FF_PER_UM
        r_wire = src_wl * TRACK_UM * WIRE_RES_KOHM_PER_UM
        delay = self.drive_res[src] * (c_wire + lower)
        delay += r_wire * lower / 2.0
        return upper, lower, np.where(driven, delay, 0.0)


class FeatureNormalizer:
    """Per-feature standardisation fitted on the training corpus.

    The paper mitigates scaling with ratio features; on top of that,
    standardisation keeps the NumPy training numerically stable across
    designs of very different die sizes.
    """

    def __init__(self):
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    def fit(self, rows: np.ndarray) -> "FeatureNormalizer":
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError("need a non-empty (rows, features) matrix")
        self.mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        self.std = np.where(std < 1e-9, 1.0, std)
        return self

    @property
    def fitted(self) -> bool:
        return self.mean is not None

    def transform(self, features: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise RuntimeError("normalizer not fitted")
        return ((features - self.mean) / self.std).astype(np.float32)

    def state(self) -> dict[str, np.ndarray]:
        if not self.fitted:
            raise RuntimeError("normalizer not fitted")
        return {"mean": self.mean, "std": self.std}

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "FeatureNormalizer":
        norm = cls()
        norm.mean = np.asarray(state["mean"], dtype=np.float64)
        norm.std = np.asarray(state["std"], dtype=np.float64)
        return norm
