"""Vector feature semantics (Sec. 3.1)."""

import numpy as np
import pytest

from repro.core import (
    N_VECTOR_FEATURES,
    AttackConfig,
    FeatureNormalizer,
    SplitDataset,
    VectorFeatures,
    build_candidates,
)
from repro.layout import build_layout
from repro.netlist import RandomLogicGenerator
from repro.split import SplitLayout, split_design


@pytest.fixture(scope="module")
def split():
    nl = RandomLogicGenerator().generate("vectest", 90, seed=71)
    return split_design(build_layout(nl), 3)


@pytest.fixture(scope="module")
def vpps(split):
    candidates = build_candidates(split, 8)
    return [vpp for vl in candidates.values() for vpp in vl]


@pytest.fixture(scope="module")
def rows(split, vpps):
    """Feature rows of ``vpps``, in order."""
    return VectorFeatures(split).rows(vpps)


class TestFeatureVector:
    def test_dimension_is_27(self, vpps, rows):
        assert rows.shape == (len(vpps), N_VECTOR_FEATURES)
        assert rows.dtype == np.float64

    def test_unsigned_matches_signed(self, rows):
        for f in rows[:20]:
            assert f[3] == abs(f[0])
            assert f[4] == abs(f[1])
            assert f[5] == abs(f[0]) + abs(f[1])

    def test_signed_deltas_match_geometry(self, split, vpps, rows):
        for vpp, f in zip(vpps[:20], rows):
            d_p, d_n = split.vpp_deltas(vpp)
            assert f[0] == d_p
            assert f[1] == d_n

    def test_ratio_features_scale_by_die(self, split, rows):
        fp = split.design.floorplan
        for f in rows[:20]:
            assert f[6] == pytest.approx(f[0] / fp.width)
            assert f[7] == pytest.approx(f[1] / fp.height)
            assert f[8] == pytest.approx(f[2] / fp.half_perimeter)
            assert f[11] == pytest.approx(f[5] / fp.half_perimeter)

    def test_capacitance_bounds_ordered(self, vpps, rows):
        """Upper bound above lower bound for nearly all candidates —
        otherwise the feature carries no information."""
        ordered = np.count_nonzero(rows[:, 12] > rows[:, 13])
        assert ordered / len(vpps) > 0.95

    def test_sink_count_matches_fragment(self, split, vpps, rows):
        for vpp, f in zip(vpps[:20], rows):
            assert f[14] == split.fragment(vpp.sink_fragment).n_sinks

    def test_wirelengths_match_fragment(self, split, vpps, rows):
        for vpp, f in zip(vpps[:20], rows):
            src = split.fragment(vpp.source_fragment)
            by_layer = src.wirelength_by_layer()
            for layer in range(1, 5):
                assert f[15 + layer - 1] == by_layer.get(layer, 0)

    def test_via_counts_match(self, split, vpps, rows):
        for vpp, f in zip(vpps[:20], rows):
            assert f[23] == sum(
                split.fragment(vpp.source_fragment).vias_by_cut().values()
            )
            assert f[24] == sum(
                split.fragment(vpp.sink_fragment).vias_by_cut().values()
            )

    def test_delay_non_negative(self, rows):
        assert np.all(rows[:, 25] >= 0.0)

    def test_all_finite(self, rows):
        assert np.all(np.isfinite(rows))


class TestGroupFeatures:
    @pytest.fixture(scope="class")
    def dataset(self, split):
        return SplitDataset(split, AttackConfig.tiny().with_(n_candidates=8),
                            use_disk_cache=False)

    def test_padding_and_mask(self, split):
        """With only 5 sources in the layout, every group of 8 is padded."""
        sub = SplitLayout(split.design, split.split_layer,
                          split.sink_fragments + split.source_fragments[:5],
                          split.truth)
        ds = SplitDataset(sub, AttackConfig.tiny().with_(n_candidates=8),
                          use_disk_cache=False)
        assert ds.groups
        for group in ds.groups:
            assert group.n_valid <= 5
            assert group.vec.shape == (8, N_VECTOR_FEATURES)
            assert group.mask.sum() == len(group.vpps)
            assert np.all(group.vec[~group.mask] == 0.0)

    def test_truncates_overlong_lists(self, split, dataset):
        """At n = 3 a group holds the first 3 rows of its n = 8 group."""
        narrow = SplitDataset(split, AttackConfig.tiny().with_(n_candidates=3),
                              use_disk_cache=False)
        wide = {g.sink_fragment_id: g for g in dataset.groups}
        for group in narrow.groups:
            assert group.vec.shape[0] == 3
            k = group.n_valid
            assert np.array_equal(group.vec[:k], wide[group.sink_fragment_id].vec[:k])


class TestNormalizer:
    def test_standardises(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(5.0, 3.0, size=(500, 27))
        norm = FeatureNormalizer().fit(rows)
        out = norm.transform(rows)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=0.05)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=0.05)

    def test_constant_feature_safe(self):
        rows = np.ones((10, 3))
        out = FeatureNormalizer().fit(rows).transform(rows)
        assert np.all(np.isfinite(out))

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            FeatureNormalizer().transform(np.ones((2, 3)))

    def test_state_roundtrip(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(50, 5))
        norm = FeatureNormalizer().fit(rows)
        other = FeatureNormalizer.from_state(norm.state())
        np.testing.assert_allclose(
            norm.transform(rows), other.transform(rows)
        )
