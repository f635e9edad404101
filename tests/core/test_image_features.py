"""Image feature semantics (Sec. 3.2 / Fig. 2)."""

import numpy as np
import pytest

from repro.core import AttackConfig, ImageExtractor, image_features
from repro.layout import build_layout
from repro.netlist import RandomLogicGenerator
from repro.split import split_design


@pytest.fixture(scope="module")
def split():
    nl = RandomLogicGenerator().generate("imgtest", 90, seed=81)
    return split_design(build_layout(nl), 3)


@pytest.fixture(scope="module")
def extractor(split):
    return ImageExtractor(split, AttackConfig.tiny())


def image(extractor, vp):
    """(C, S, S) image of one pin."""
    return extractor.render([vp])[0]


class TestShapes:
    def test_channel_count_is_2m_per_scale(self, split, extractor):
        cfg = AttackConfig.tiny()
        m = split.split_layer
        assert extractor.n_channels == 2 * m * len(cfg.image_scales)

    def test_image_shape(self, split, extractor):
        frag = split.sink_fragments[0]
        img = image(extractor, frag.virtual_pins[0])
        cfg = AttackConfig.tiny()
        assert img.shape == (
            extractor.n_channels, cfg.image_size, cfg.image_size
        )
        assert img.dtype == np.uint8

    def test_binary_planes(self, split, extractor):
        frag = split.sink_fragments[0]
        img = image(extractor, frag.virtual_pins[0])
        assert set(np.unique(img)) <= {0, 1}


class TestSemantics:
    def test_centre_pixel_marks_own_wiring_on_split_layer(self, split, extractor):
        """The virtual pin sits on its own fragment's split-layer wiring,
        so the own-fragment plane of the split layer is set at centre."""
        cfg = AttackConfig.tiny()
        centre = cfg.image_size // 2
        m = split.split_layer
        for frag in split.sink_fragments[:10]:
            img = image(extractor, frag.virtual_pins[0])
            # scale-1 block comes first; its own-fragment planes are
            # ordered highest layer first, so plane 0 is the split layer.
            assert img[0, centre, centre] == 1

    def test_other_plane_excludes_own_wiring(self, split, extractor):
        """Where only the pin's own net is present, the other-fragments
        bit must be 0 (multiple nets may share a grid point under track
        capacity, so strict disjointness does not hold)."""
        cfg = AttackConfig.tiny()
        m = split.split_layer
        centre = cfg.image_size // 2
        occupancy = split.occupancy_grids()
        for frag in split.sink_fragments[:10]:
            vp = frag.virtual_pins[0]
            img = image(extractor, vp)
            occ_here = occupancy[m - 1, vp.x, vp.y]
            other_bit = img[m, centre, centre]  # other plane, split layer
            assert other_bit == (1 if occ_here > 1 else 0)

    def test_other_fragments_visible(self, split, extractor):
        """Dense designs: some neighbouring wiring must appear."""
        m = split.split_layer
        seen_other = 0
        for frag in split.sink_fragments[:20]:
            img = image(extractor, frag.virtual_pins[0])
            if img[m : 2 * m].any():
                seen_other += 1
        assert seen_other > 10

    def test_coarser_scales_cover_more_wiring(self, split, extractor):
        """A scale-s pixel ORs an s x s region: coverage (fraction of set
        bits relative to wiring density) cannot shrink with scale."""
        m = split.split_layer
        cfg = AttackConfig.tiny()
        per_scale = 2 * m
        frag = max(split.sink_fragments, key=lambda f: len(f.nodes))
        img = image(extractor, frag.virtual_pins[0])
        scale1 = img[:per_scale].sum()
        # same channel block at the coarsest scale
        coarse = img[(cfg.n_scales - 1) * per_scale :].sum()
        assert coarse >= scale1 * 0.5  # wider window, denser bits

    def test_batch_render_matches_single_pins(self, split, extractor, monkeypatch):
        """Rendering many pins at once (several chunks, repeated pins)
        gives each pin the image it gets alone."""
        window = split.split_layer * extractor.tracks ** 2
        monkeypatch.setattr(image_features, "_CHUNK_BYTES", 7 * window)
        pins = [vp for f in split.fragments for vp in f.virtual_pins][:40]
        pins = pins + pins[:5]
        batch = extractor.render(pins)
        assert batch.shape[0] == len(pins)
        for vp, img in zip(pins, batch):
            assert np.array_equal(img, image(extractor, vp))

    def test_render_empty_pin_list(self, extractor):
        cfg = AttackConfig.tiny()
        out = extractor.render([])
        assert out.shape == (0, extractor.n_channels, cfg.image_size, cfg.image_size)


class TestWindowEdges:
    def test_pin_near_die_corner_is_padded(self, split):
        """Pins near the die edge get zero padding, not wrapping."""
        extractor = ImageExtractor(split, AttackConfig.tiny())
        corner_frag = None
        for frag in split.fragments:
            for vp in frag.virtual_pins:
                if vp.x <= 1 and vp.y <= 1:
                    corner_frag = (frag, vp)
                    break
            if corner_frag:
                break
        if corner_frag is None:
            pytest.skip("no corner virtual pin in this layout")
        frag, vp = corner_frag
        img = image(extractor, vp)
        # the off-die quadrant must be empty
        cfg = AttackConfig.tiny()
        c = cfg.image_size // 2
        assert img[:, : c - vp.x - 1, :].sum() == 0
