"""Pipeline caching: layouts and trained attacks."""

import io
import json

import numpy as np
import pytest

from repro.core import AttackConfig
from repro.obs.logging import set_log_sink
from repro.pipeline import build_netlist, clear_memo, get_layout, get_split, trained_attack
from repro.pipeline import flow
from repro.pipeline.flow import (
    _config_fingerprint,
    attack_weight_path,
    cache_dir,
    defended_layout_tag,
    get_defended_layout,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memo()
    yield
    clear_memo()


class TestNetlistLookup:
    def test_table3_design(self):
        nl = build_netlist("c432")
        assert nl.name == "c432"

    def test_suite_design(self):
        nl = build_netlist("tiny_a")
        assert nl.name == "tiny_a"

    def test_unknown_design(self):
        with pytest.raises(KeyError, match="unknown design"):
            build_netlist("nope_99")


class TestLayoutCache:
    def test_memoised_within_process(self):
        a = get_layout("tiny_a")
        b = get_layout("tiny_a")
        assert a is b

    def test_disk_cache_roundtrip(self, tmp_path):
        first = get_layout("tiny_a")
        clear_memo()
        second = get_layout("tiny_a")  # now from disk
        assert first is not second
        assert first.placement.locations == second.placement.locations
        for name, route in first.routes.items():
            assert route.edges == second.routes[name].edges

    def test_disk_cache_disabled(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        layout = get_layout("tiny_b")
        assert layout is get_layout("tiny_b")

    def test_split_memoised(self):
        a = get_split("tiny_a", 3)
        assert a is get_split("tiny_a", 3)
        assert a is not get_split("tiny_a", 1)


class TestTrainedAttackCache:
    def test_train_and_reload(self):
        cfg = AttackConfig.tiny().with_(epochs=2)
        names = ("tiny_a", "tiny_b")
        first = trained_attack(3, cfg, train_names=names)
        second = trained_attack(3, cfg, train_names=names)
        split = get_split("tiny_seq", 3)
        assert first.select(split) == second.select(split)
        # second load must not have retrained
        assert second.log.train_seconds == 0.0

    def test_fingerprint_sensitive_to_config(self):
        a = AttackConfig.tiny()
        b = AttackConfig.tiny().with_(epochs=99)
        names = ("x",)
        assert _config_fingerprint(a, 3, names) != _config_fingerprint(b, 3, names)
        assert _config_fingerprint(a, 1, names) != _config_fingerprint(a, 3, names)


@pytest.fixture
def log_lines():
    """JSON log events emitted while the test runs."""
    sink = io.StringIO()
    set_log_sink(sink)
    yield lambda: [json.loads(line) for line in sink.getvalue().splitlines()]
    set_log_sink(None)


def _fallbacks(lines, artifact):
    return [
        e for e in lines
        if e["event"] == "cache_fallback" and e["artifact"] == artifact
    ]


def _same_layout(a, b):
    return a.placement.locations == b.placement.locations and all(
        route.edges == b.routes[name].edges for name, route in a.routes.items()
    )


class TestStaleCacheFallback:
    """Unreadable cache files are rebuilt, logged and overwritten; an
    unexpected error is not swallowed."""

    @pytest.mark.parametrize("damage", ["truncated", "wrong_shape"])
    def test_layout_def(self, damage, log_lines):
        fresh = get_layout("tiny_a")
        path = cache_dir() / "tiny_a.def"
        if damage == "truncated":
            text = path.read_text()
            path.write_text(text[: len(text) // 2])
        else:
            get_layout("tiny_b")
            path.write_text((cache_dir() / "tiny_b.def").read_text())
        clear_memo()
        rebuilt = get_layout("tiny_a")
        assert _same_layout(rebuilt, fresh)
        [event] = _fallbacks(log_lines(), "layout")
        assert event["path"] == str(path)
        assert "DefFormatError" in event["error"]
        clear_memo()
        get_layout("tiny_a")  # the rewritten file loads cleanly
        assert len(_fallbacks(log_lines(), "layout")) == 1

    @pytest.mark.parametrize("damage", ["truncated", "wrong_shape"])
    def test_defended_layout_def(self, damage, log_lines):
        args = ("tiny_a", "perturb", 0.5, 1)
        fresh = get_defended_layout(*args)
        path = cache_dir() / f"{defended_layout_tag(*args)}.def"
        if damage == "truncated":
            text = path.read_text()
            path.write_text(text[: len(text) // 3])
        else:
            get_layout("tiny_b")
            path.write_text((cache_dir() / "tiny_b.def").read_text())
        clear_memo()
        assert _same_layout(get_defended_layout(*args), fresh)
        [event] = _fallbacks(log_lines(), "layout")
        assert event["path"] == str(path)

    @pytest.mark.parametrize("damage", ["truncated", "wrong_shape"])
    def test_weights(self, damage, log_lines):
        cfg = AttackConfig.tiny().with_(epochs=1)
        names = ("tiny_a",)
        fresh = trained_attack(3, cfg, train_names=names).model.state_dict()
        path = attack_weight_path(cfg, 3, names)
        if damage == "truncated":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        else:
            with np.load(path) as data:
                arrays = dict(data)
            # The last parameter in load order: every other one loads
            # before the mismatch is found.
            last = sorted(k for k in arrays if not k.startswith("__"))[-1]
            arrays[last] = np.zeros(arrays[last].shape + (2,))
            np.savez_compressed(path, **arrays)
        clear_memo()
        attack = trained_attack(3, cfg, train_names=names)
        assert attack.log.train_seconds > 0.0  # retrained
        [event] = _fallbacks(log_lines(), "weights")
        assert event["path"] == str(path)
        retrained = attack.model.state_dict()
        for key in fresh:
            np.testing.assert_array_equal(retrained[key], fresh[key], err_msg=key)
        assert trained_attack(3, cfg, train_names=names).log.train_seconds == 0.0

    def test_unexpected_error_propagates(self, monkeypatch):
        get_layout("tiny_a")
        clear_memo()

        def broken(text, netlist):
            raise TypeError("a bug, not a stale file")

        monkeypatch.setattr(flow, "read_def", broken)
        with pytest.raises(TypeError, match="a bug"):
            get_layout("tiny_a")
