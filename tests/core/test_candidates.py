"""Candidate selection: direction criterion (Table 1 / Fig. 3),
non-duplication, distance ranking."""

import numpy as np
import pytest
from feature_oracle import select_candidates

from repro.core import build_candidates, candidate_recall
from repro.core.candidates import direction_mask, pin_prefers, pin_table
from repro.layout import build_layout, make_edge
from repro.netlist import RandomLogicGenerator
from repro.split import SINK, SOURCE, Fragment, SplitLayout, VirtualPin, split_design

SPLIT_LAYER = 3  # horizontal preferred direction


def _offset(vp_p, vp_q):
    return np.array(vp_q.x - vp_p.x), np.array(vp_q.y - vp_p.y)


def prefers(fragment_p, vp_p, vp_q, split_layer):
    """Pin p prefers pin q, through the pin table and ``pin_prefers``."""
    table = pin_table([fragment_p], split_layer)
    allowed = table.allowed[table.pins.index(vp_p)]
    return bool(pin_prefers(*_offset(vp_p, vp_q), allowed))


def direction_compatible(sink_frag, sink_vp, source_frag, source_vp, split_layer):
    """The Table 1 filter for one VPP, through ``direction_mask``."""
    sinks = pin_table([sink_frag], split_layer)
    sources = pin_table([source_frag], split_layer)
    dx, dy = _offset(sink_vp, source_vp)
    keep = direction_mask(
        dx.reshape(1, 1),
        dy.reshape(1, 1),
        sinks.allowed[[sinks.pins.index(sink_vp)]],
        sources.allowed[[sources.pins.index(source_vp)]],
    )
    return bool(keep[0, 0])


def line_fragment(fid, kind, points, vp_xy, layer=SPLIT_LAYER):
    """A fragment whose wiring is a straight chain of grid points."""
    nodes = {(layer, x, y) for x, y in points}
    edges = set()
    for a, b in zip(points, points[1:]):
        edges.add(make_edge((layer, *a), (layer, *b)))
    frag = Fragment(fid, f"net{fid}", kind, nodes, edges)
    frag.virtual_pins = [VirtualPin(fid, *vp_xy)]
    return frag


class TestDirectionPreference:
    def test_endpoint_pin_prefers_opposite_side(self):
        """Wire (2,5)-(5,5) with the pin at its right end: continuation
        is to the right (away from the wire body)."""
        frag = line_fragment(0, SINK, [(2, 5), (3, 5), (4, 5), (5, 5)], (5, 5))
        right = VirtualPin(1, 8, 5)
        left = VirtualPin(1, 0, 5)
        assert prefers(frag, frag.virtual_pins[0], right, SPLIT_LAYER)
        assert not prefers(frag, frag.virtual_pins[0], left, SPLIT_LAYER)

    def test_perpendicular_offset_is_free(self):
        """No segment along y: any y offset is allowed."""
        frag = line_fragment(0, SINK, [(2, 5), (3, 5), (4, 5)], (4, 5))
        above = VirtualPin(1, 6, 9)
        assert prefers(frag, frag.virtual_pins[0], above, SPLIT_LAYER)

    def test_interior_pin_prefers_both_sides(self):
        frag = line_fragment(0, SINK, [(2, 5), (3, 5), (4, 5), (5, 5)], (3, 5))
        assert prefers(frag, frag.virtual_pins[0], VirtualPin(1, 9, 5), SPLIT_LAYER)
        assert prefers(frag, frag.virtual_pins[0], VirtualPin(1, 0, 5), SPLIT_LAYER)

    def test_stack_only_pin_prefers_everything(self):
        """A bare via stack has no split-layer segments: no direction info."""
        frag = Fragment(0, "net0", SINK, {(SPLIT_LAYER, 4, 4)}, set())
        frag.virtual_pins = [VirtualPin(0, 4, 4)]
        for q in [(0, 0), (9, 9), (4, 0), (0, 4)]:
            assert prefers(frag, frag.virtual_pins[0], VirtualPin(1, *q), SPLIT_LAYER)

    def test_same_location_always_preferred(self):
        frag = line_fragment(0, SINK, [(2, 5), (3, 5)], (3, 5))
        assert prefers(frag, frag.virtual_pins[0], VirtualPin(1, 3, 5), SPLIT_LAYER)


class TestTable1:
    """The VPP preference truth table: a VPP is excluded only when
    neither side prefers the other."""

    def setup_method(self):
        # Source with wire extending right from x=0..3, pin at left end
        # (prefers x < 0); and one with pin at right end (prefers x > 3).
        self.src_left = line_fragment(
            10, SOURCE, [(0, 0), (1, 0), (2, 0), (3, 0)], (0, 0)
        )
        self.src_right = line_fragment(
            11, SOURCE, [(0, 0), (1, 0), (2, 0), (3, 0)], (3, 0)
        )
        # Sinks at x=6..9 with pin at left end (prefers x < 6) and right
        # end (prefers x > 9).
        self.snk_left = line_fragment(
            20, SINK, [(6, 0), (7, 0), (8, 0), (9, 0)], (6, 0)
        )
        self.snk_right = line_fragment(
            21, SINK, [(6, 0), (7, 0), (8, 0), (9, 0)], (9, 0)
        )

    def vp(self, frag):
        return frag.virtual_pins[0]

    def test_mutual_preference_is_candidate(self):
        # sink prefers x<6 (source at 3 qualifies); source pin at right
        # end prefers x>3 (sink at 6 qualifies): both prefer.
        assert prefers(self.snk_left, self.vp(self.snk_left),
                       self.vp(self.src_right), SPLIT_LAYER)
        assert prefers(self.src_right, self.vp(self.src_right),
                       self.vp(self.snk_left), SPLIT_LAYER)
        assert direction_compatible(
            self.snk_left, self.vp(self.snk_left),
            self.src_right, self.vp(self.src_right), SPLIT_LAYER,
        )

    def test_one_sided_preference_is_still_candidate(self):
        # sink pin at left end prefers x<6: source at 0 qualifies; but
        # source pin at left end prefers x<0: sink at 6 does not.
        assert prefers(self.snk_left, self.vp(self.snk_left),
                       self.vp(self.src_left), SPLIT_LAYER)
        assert not prefers(self.src_left, self.vp(self.src_left),
                           self.vp(self.snk_left), SPLIT_LAYER)
        assert direction_compatible(
            self.snk_left, self.vp(self.snk_left),
            self.src_left, self.vp(self.src_left), SPLIT_LAYER,
        )

    def test_mutual_rejection_is_excluded(self):
        """The Fig. 3 'Source A - Sink B' case: wires point away from
        each other; the VPP is dropped."""
        assert not prefers(self.snk_right, self.vp(self.snk_right),
                           self.vp(self.src_left), SPLIT_LAYER)
        assert not prefers(self.src_left, self.vp(self.src_left),
                           self.vp(self.snk_right), SPLIT_LAYER)
        assert not direction_compatible(
            self.snk_right, self.vp(self.snk_right),
            self.src_left, self.vp(self.src_left), SPLIT_LAYER,
        )


class TestSelectionOnRealLayouts:
    @pytest.fixture(scope="class")
    def split(self):
        nl = RandomLogicGenerator().generate("candtest", 100, seed=61)
        return split_design(build_layout(nl), 3)

    def test_at_most_n_candidates(self, split):
        candidates = build_candidates(split, 7)
        assert all(len(v) <= 7 for v in candidates.values())

    def test_candidates_reference_source_fragments(self, split):
        sources = {f.fragment_id for f in split.source_fragments}
        for sink_id, vpps in build_candidates(split, 7).items():
            for vpp in vpps:
                assert vpp.sink_fragment == sink_id
                assert vpp.source_fragment in sources

    def test_non_duplication(self, split):
        """At most one VPP per (sink fragment, source fragment) pair."""
        for vpps in build_candidates(split, 31).values():
            sources = [vpp.source_fragment for vpp in vpps]
            assert len(sources) == len(set(sources))

    def test_sorted_by_non_preferred_distance(self, split):
        np_axis = 1 - split.preferred_axis
        for vpps in build_candidates(split, 10).values():
            dists = [
                abs(v.source_vp.xy[np_axis] - v.sink_vp.xy[np_axis])
                for v in vpps
            ]
            assert dists == sorted(dists)

    def test_recall_monotone_in_n(self, split):
        recalls = [
            candidate_recall(split, build_candidates(split, n))
            for n in (3, 10, 31)
        ]
        assert recalls == sorted(recalls)

    def test_recall_reasonable_at_paper_n(self, split):
        recall = candidate_recall(split, build_candidates(split, 31))
        assert recall > 0.8

    def test_deterministic(self, split):
        a = build_candidates(split, 9)
        b = build_candidates(split, 9)
        for key in a:
            assert [
                (v.sink_vp, v.source_vp) for v in a[key]
            ] == [(v.sink_vp, v.source_vp) for v in b[key]]

    def test_select_candidates_respects_explicit_sources(self, split):
        """A layout that keeps only some sources draws candidates from
        them alone, exactly as the pairwise oracle does."""
        sink = split.sink_fragments[0]
        some_sources = split.source_fragments[:3]
        sub = SplitLayout(
            split.design, split.split_layer, split.sink_fragments + some_sources,
            split.truth,
        )
        vpps = build_candidates(sub, 10)[sink.fragment_id]
        allowed = {f.fragment_id for f in some_sources}
        assert all(v.source_fragment in allowed for v in vpps)
        assert vpps == select_candidates(split, sink, 10, some_sources)
