"""Parity of the array-pass feature build with the scalar oracle.

``feature_oracle`` keeps the per-pair candidate selection, the per-VPP
vector features and the dense per-pin renderer.  Candidate lists must
be equal and every feature tensor bitwise equal, image-table row order
included, so cached tensors stay valid across the two formulations.
"""

import numpy as np
import pytest
from feature_oracle import (
    build_candidates_oracle,
    direction_compatible,
    group_vector_features,
    render_reference,
    vpp_vector_features,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttackConfig, SplitDataset, VectorFeatures, build_candidates
from repro.layout import build_layout, make_edge
from repro.netlist import RandomLogicGenerator
from repro.split import SINK, SOURCE, Fragment, SplitLayout, VirtualPin, split_design


@pytest.fixture(scope="module")
def designs():
    gen = RandomLogicGenerator()
    return [
        build_layout(gen.generate("parity_c", 90, seed=3)),
        build_layout(gen.generate("parity_d", 70, seed=29)),
    ]


def assert_same_candidates(split, n):
    fast = build_candidates(split, n)
    slow = build_candidates_oracle(split, n)
    assert list(fast) == list(slow)
    for sink_id, vpps in fast.items():
        assert vpps == slow[sink_id], f"sink {sink_id} n={n}"


class TestCandidates:
    @pytest.mark.parametrize("n", [2, 5, 15, 31])
    @pytest.mark.parametrize("split_layer", [1, 3])
    def test_lists_equal_oracle(self, designs, split_layer, n):
        for design in designs:
            assert_same_candidates(split_design(design, split_layer), n)

    @given(seed=st.integers(0, 10_000), split_layer=st.sampled_from([1, 2, 3]),
           n=st.sampled_from([2, 5, 15, 31]))
    @settings(max_examples=12, deadline=None)
    def test_lists_equal_oracle_any_seed(self, seed, split_layer, n):
        netlist = RandomLogicGenerator().generate("prop", 40, seed=seed)
        assert_same_candidates(split_design(build_layout(netlist), split_layer), n)


def _line(fid, kind, points, vp_xy, layer=3):
    nodes = {(layer, x, y) for x, y in points}
    edges = {
        make_edge((layer, *a), (layer, *b)) for a, b in zip(points, points[1:])
    }
    frag = Fragment(fid, f"net{fid}", kind, nodes, edges)
    frag.virtual_pins = [VirtualPin(fid, *xy) for xy in vp_xy]
    return frag


def _layout(fragments, layer=3):
    # Candidate selection reads fragments and the split layer only.
    return SplitLayout(None, layer, fragments, {})


class TestTable1:
    """The Table 1 cases of ``test_candidates`` through ``build_candidates``:
    a VPP is excluded only when neither pin prefers the other."""

    def setup_method(self):
        wire = [(0, 0), (1, 0), (2, 0), (3, 0)]
        self.src_left = _line(10, SOURCE, wire, [(0, 0)])
        self.src_right = _line(11, SOURCE, wire, [(3, 0)])
        sink_wire = [(6, 0), (7, 0), (8, 0), (9, 0)]
        self.snk_left = _line(20, SINK, sink_wire, [(6, 0)])
        self.snk_right = _line(21, SINK, sink_wire, [(9, 0)])

    def sources_of(self, sink, source):
        split = _layout([sink, source])
        (vpps,) = build_candidates(split, 5).values()
        oracle = direction_compatible(
            sink, sink.virtual_pins[0], source, source.virtual_pins[0], 3
        )
        assert bool(vpps) == oracle
        return [v.source_fragment for v in vpps]

    def test_mutual_preference_is_candidate(self):
        assert self.sources_of(self.snk_left, self.src_right) == [11]

    def test_one_sided_preference_is_still_candidate(self):
        assert self.sources_of(self.snk_left, self.src_left) == [10]

    def test_mutual_rejection_is_excluded(self):
        assert self.sources_of(self.snk_right, self.src_left) == []

    def test_stack_only_sink_keeps_everything(self):
        sink = Fragment(30, "net30", SINK, {(3, 20, 0)}, set())
        sink.virtual_pins = [VirtualPin(30, 20, 0)]
        assert self.sources_of(sink, self.src_left) == [10]


class TestTieOrder:
    """Ranking is by (d_np, d_p, source x, source y), then source
    fragment id; within one source, the smallest (d_np, d_p, source x,
    source y, sink pin index) pair represents it.  The oracle agrees."""

    @staticmethod
    def ranked(fragments, n):
        """The single sink's candidate list, checked against the oracle."""
        split = _layout(fragments)
        (vpps,) = build_candidates(split, n).values()
        (expected,) = build_candidates_oracle(split, n).values()
        assert vpps == expected
        return vpps

    def test_equal_distance_breaks_on_source_x(self):
        # M3 prefers x, so d_np runs along y.  Both sources sit 2 tracks
        # off in y and 3 tracks off in x, on opposite sides.
        sink = Fragment(0, "s", SINK, {(3, 10, 10)}, set())
        sink.virtual_pins = [VirtualPin(0, 10, 10)]
        right = Fragment(1, "a", SOURCE, {(3, 13, 12)}, set())
        right.virtual_pins = [VirtualPin(1, 13, 12)]
        left = Fragment(2, "b", SOURCE, {(3, 7, 12)}, set())
        left.virtual_pins = [VirtualPin(2, 7, 12)]
        vpps = self.ranked([sink, right, left], 2)
        assert [v.source_fragment for v in vpps] == [2, 1]

    def test_full_tie_breaks_on_source_id(self):
        sink = Fragment(0, "s", SINK, {(3, 10, 10)}, set())
        sink.virtual_pins = [VirtualPin(0, 10, 10)]
        sources = []
        for fid in (9, 4, 6):  # listed out of id order, same pin location
            frag = Fragment(fid, f"n{fid}", SOURCE, {(3, 12, 14)}, set())
            frag.virtual_pins = [VirtualPin(fid, 12, 14)]
            sources.append(frag)
        vpps = self.ranked([sink] + sources, 3)
        assert [v.source_fragment for v in vpps] == [4, 6, 9]

    def test_first_sink_pin_wins_a_tie(self):
        # Two sink pins 1 track either side of the source pin in x.
        sink = Fragment(0, "s", SINK, {(3, 9, 10), (3, 11, 10)}, set())
        sink.virtual_pins = [VirtualPin(0, 9, 10), VirtualPin(0, 11, 10)]
        source = Fragment(1, "a", SOURCE, {(3, 10, 10)}, set())
        source.virtual_pins = [VirtualPin(1, 10, 10)]
        vpps = self.ranked([sink, source], 2)
        assert vpps[0].sink_vp == VirtualPin(0, 9, 10)

    def test_distance_beats_location(self):
        sink = Fragment(0, "s", SINK, {(3, 10, 10)}, set())
        sink.virtual_pins = [VirtualPin(0, 10, 10)]
        near = Fragment(5, "a", SOURCE, {(3, 30, 11)}, set())
        near.virtual_pins = [VirtualPin(5, 30, 11)]
        far = Fragment(1, "b", SOURCE, {(3, 10, 12)}, set())
        far.virtual_pins = [VirtualPin(1, 10, 12)]
        vpps = self.ranked([sink, near, far], 2)
        assert [v.source_fragment for v in vpps] == [5, 1]


def _configs():
    return [
        AttackConfig.tiny(),
        AttackConfig.tiny().with_(image_scales=(4, 2, 1), n_candidates=7),
        AttackConfig.tiny().with_(image_scales=(1,), image_size=33),
    ]


class TestTensors:
    @pytest.mark.parametrize("split_layer", [1, 3])
    def test_vec_bitwise_equal(self, designs, split_layer):
        split = split_design(designs[0], split_layer)
        cfg = AttackConfig.tiny().with_(n_candidates=15)
        ds = SplitDataset(split, cfg, use_disk_cache=False)
        for group in ds.groups:
            vec, mask = group_vector_features(split, group.vpps, 15)
            assert vec.tobytes() == ds.tensors.vec[group.index].tobytes()
            assert np.array_equal(mask, ds.tensors.mask[group.index])

    @pytest.mark.parametrize("split_layer", [1, 3])
    def test_rows_bitwise_equal_in_float64(self, designs, split_layer):
        split = split_design(designs[1], split_layer)
        vpps = [v for vl in build_candidates(split, 31).values() for v in vl]
        rows = VectorFeatures(split).rows(vpps)
        expected = np.stack([vpp_vector_features(split, v) for v in vpps])
        assert rows.dtype == np.float64
        assert rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("config", _configs(), ids=lambda c: str(c.image_scales))
    @pytest.mark.parametrize("split_layer", [1, 3])
    def test_image_table_bitwise_equal(self, designs, split_layer, config):
        """Row 0 is zero; then each distinct pin in order of first use
        (sources of a group, then its sink), rendered as the oracle does."""
        split = split_design(designs[0], split_layer)
        ds = SplitDataset(split, config, use_disk_cache=False)
        order: list[VirtualPin] = []
        for group in ds.groups:
            sink = split.fragment(group.sink_fragment_id)
            for vp in [v.source_vp for v in group.vpps] + [sink.virtual_pins[0]]:
                if vp not in order:
                    order.append(vp)
        table = ds.tensors.image_table
        assert table.shape[0] == len(order) + 1
        assert not table[0].any()
        for row, vp in enumerate(order, start=1):
            ref = render_reference(split, config, split.fragment(vp.fragment_id), vp)
            assert table[row].tobytes() == ref.tobytes(), f"row {row} pin {vp}"
