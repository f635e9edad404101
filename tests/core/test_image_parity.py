"""Engine parity: the batch renderer must be bit-identical to the dense
full-die reference renderer of ``feature_oracle``, including window
clipping at the die edge, across scale ladders."""

import numpy as np
import pytest
from feature_oracle import render_reference

from repro.core import AttackConfig, ImageExtractor
from repro.layout import build_layout
from repro.netlist import RandomLogicGenerator
from repro.split import split_design


@pytest.fixture(scope="module")
def layouts():
    gen = RandomLogicGenerator()
    designs = [
        build_layout(gen.generate("parity_a", 90, seed=7)),
        build_layout(gen.generate("parity_b", 60, seed=13)),
    ]
    return designs


SCALE_LADDERS = [(1,), (1, 2), (1, 2, 4), (4, 2, 1)]


@pytest.mark.parametrize("scales", SCALE_LADDERS, ids=str)
@pytest.mark.parametrize("split_layer", [1, 3])
def test_every_pin_bit_identical(layouts, split_layer, scales):
    config = AttackConfig.tiny().with_(image_scales=scales)
    for design in layouts:
        split = split_design(design, split_layer)
        pins = [
            (frag, vp) for frag in split.fragments for vp in frag.virtual_pins
        ]
        assert pins
        batch = ImageExtractor(split, config).render([vp for _f, vp in pins])
        assert batch.dtype == np.uint8
        for (frag, vp), fast in zip(pins, batch):
            ref = render_reference(split, config, frag, vp)
            assert np.array_equal(fast, ref), (
                f"mismatch at fragment {frag.fragment_id} pin "
                f"({vp.x},{vp.y}) scales={scales} M{split_layer}"
            )


def test_edge_of_die_pins_bit_identical(layouts):
    """Pins whose window overhangs the die exercise the clipping path;
    the 33 * 4-track window always overhangs our tiny test dies, and we
    additionally pick the pins closest to each die corner."""
    config = AttackConfig.tiny().with_(image_scales=(1, 2, 4), image_size=33)
    design = layouts[0]
    split = split_design(design, 3)
    extractor = ImageExtractor(split, config)
    pins = [
        (frag, vp) for frag in split.fragments for vp in frag.virtual_pins
    ]
    assert pins
    fp = split.design.floorplan
    corners = [(0, 0), (0, fp.height), (fp.width, 0), (fp.width, fp.height)]
    for cx, cy in corners:
        frag, vp = min(
            pins, key=lambda p: abs(p[1].x - cx) + abs(p[1].y - cy)
        )
        fast = extractor.render([vp])[0]
        ref = render_reference(split, config, frag, vp)
        assert np.array_equal(fast, ref)


def test_single_pin_render_matches_reference(layouts):
    split = split_design(layouts[0], 3)
    config = AttackConfig.tiny()
    frag = split.sink_fragments[0]
    vp = frag.virtual_pins[0]
    img = ImageExtractor(split, config).render([vp])[0]
    assert np.array_equal(img, render_reference(split, config, frag, vp))
