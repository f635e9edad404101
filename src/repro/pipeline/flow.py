"""End-to-end flow orchestration with caching.

Building a layout (floorplan -> place -> route) and training the DL
attack are the expensive steps, and both are deterministic functions of
their inputs.  This module memoises them:

* layouts are cached in memory and on disk (DEF-like text) keyed by
  design name;
* trained attacks are cached on disk (npz weights) keyed by a stable
  hash of the configuration, split layer and training suite;
* per-dataset feature tensors (vector features + unique-image tables)
  are cached by :mod:`repro.core.dataset` under ``features/``, keyed by
  the layout content hash and the feature-relevant config fields.

Set the environment variable ``REPRO_CACHE_DIR`` to relocate the cache
(defaults to ``.repro_cache`` in the working directory); set it to the
empty string to disable disk caching.  The disk cache also serves as
the coordination medium for the multi-process executor
(:mod:`repro.pipeline.parallel`): worker processes share layouts,
weights and feature tensors purely through these files, so parallel
runs need ``REPRO_CACHE_DIR`` enabled.  Worker count comes from the
``workers=`` parameters or the ``REPRO_WORKERS`` environment variable.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
import zlib
from pathlib import Path

from ..core.atomic import atomic_write_text
from ..core.attack import DLAttack
from ..core.config import AttackConfig
from ..layout.def_io import DefFormatError, read_def, write_def
from ..layout.design import Design, build_layout
from ..netlist.benchmarks import (
    TABLE3_BY_NAME,
    TINY_DESIGNS,
    TRAINING_DESIGNS,
    VALIDATION_DESIGNS,
    build_benchmark,
    build_suite_design,
)
from ..netlist.netlist import Netlist
from ..obs.logging import log_event
from ..split.split import SplitLayout, split_design

_SUITE_BY_NAME = {
    d.name: d for d in TRAINING_DESIGNS + VALIDATION_DESIGNS + TINY_DESIGNS
}

_layout_memo: dict[str, Design] = {}
_split_memo: dict[tuple[str, int], SplitLayout] = {}
# Trained attacks, keyed by (layer, config fingerprint).  Only
# populated when the disk cache is disabled: with a weight cache the
# disk is the sharing medium (and works across processes); without
# one this memo is what keeps a multi-scenario sweep from retraining
# the same model once per evaluation node.
_attack_memo: dict[tuple[int, str], "DLAttack"] = {}

# What a stale, truncated or foreign cache file raises on load.  The
# loaders fall back to rebuilding on these and let anything else (a
# bug) propagate.
_STALE_DEF_ERRORS = (DefFormatError, OSError, ValueError)
_STALE_WEIGHT_ERRORS = (
    OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error,
)


def cache_dir() -> Path | None:
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    if not root:
        return None
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def clear_memo() -> None:
    """Drop in-memory memoisation (tests use this for isolation)."""
    _layout_memo.clear()
    _split_memo.clear()
    _attack_memo.clear()


def build_netlist(name: str) -> Netlist:
    """Build any named design: Table 3 benchmark or suite design."""
    if name in TABLE3_BY_NAME:
        return build_benchmark(name)
    if name in _SUITE_BY_NAME:
        return build_suite_design(_SUITE_BY_NAME[name])
    raise KeyError(f"unknown design {name!r}")


def _cached_design(def_path: Path | None, netlist: Netlist) -> Design | None:
    """The layout cached at ``def_path``; None (rebuild) when there is
    none or it is stale, truncated or for another design."""
    if def_path is None or not def_path.exists():
        return None
    try:
        return read_def(def_path.read_text(), netlist)
    except _STALE_DEF_ERRORS as exc:
        log_event(
            "cache_fallback", artifact="layout", path=str(def_path),
            error=repr(exc),
        )
        return None


def get_layout(name: str, use_disk_cache: bool = True) -> Design:
    """Place-and-route a named design, with memo + disk cache."""
    memo = _layout_memo.get(name)
    if memo is not None:
        return memo
    netlist = build_netlist(name)
    disk = cache_dir() if use_disk_cache else None
    def_path = disk / f"{name}.def" if disk else None
    design = _cached_design(def_path, netlist)
    if design is None:
        design = build_layout(netlist)
        if def_path is not None:
            atomic_write_text(def_path, write_def(design))
    _layout_memo[name] = design
    return design


def get_split(name: str, split_layer: int, use_disk_cache: bool = True) -> SplitLayout:
    key = (name, split_layer)
    if key not in _split_memo:
        _split_memo[key] = split_design(
            get_layout(name, use_disk_cache), split_layer
        )
    return _split_memo[key]


def defended_layout_tag(
    name: str, kind: str, strength: float, seed: int
) -> str:
    """Cache key of a defended layout build (identity for undefended)."""
    if kind == "none":
        return name
    return f"{name}__{kind}_{strength:g}_s{seed}"


def get_defended_layout(
    name: str,
    kind: str = "none",
    strength: float = 0.0,
    seed: int = 0,
    use_disk_cache: bool = True,
) -> Design:
    """Build (or load) a possibly-defended layout, with memo + disk cache.

    Defended layouts are deterministic functions of (design, defense
    kind, strength, seed), so they share the layout cache: every
    attack evaluated on the same defended layout — across scenarios and
    worker processes — reuses one place-and-route.
    """
    if kind == "none":
        return get_layout(name, use_disk_cache)
    tag = defended_layout_tag(name, kind, strength, seed)
    memo = _layout_memo.get(tag)
    if memo is not None:
        return memo
    netlist = build_netlist(name)
    disk = cache_dir() if use_disk_cache else None
    def_path = disk / f"{tag}.def" if disk else None
    design = _cached_design(def_path, netlist)
    if design is None:
        # Imported lazily: repro.defense.evaluation imports this module,
        # so a top-level import would be circular.
        from ..defense.lifting import lifted_layout
        from ..defense.perturbation import perturbed_layout

        if kind == "perturb":
            design = perturbed_layout(netlist, strength=strength, seed=seed)
        elif kind == "lift":
            design = lifted_layout(netlist, lift_fraction=strength, seed=seed)
        else:
            raise ValueError(f"unknown defense kind {kind!r}")
        if def_path is not None:
            atomic_write_text(def_path, write_def(design))
    _layout_memo[tag] = design
    return design


def get_defended_split(
    name: str,
    split_layer: int,
    kind: str = "none",
    strength: float = 0.0,
    seed: int = 0,
    use_disk_cache: bool = True,
) -> SplitLayout:
    tag = defended_layout_tag(name, kind, strength, seed)
    key = (tag, split_layer)
    if key not in _split_memo:
        _split_memo[key] = split_design(
            get_defended_layout(name, kind, strength, seed, use_disk_cache),
            split_layer,
        )
    return _split_memo[key]


def _config_fingerprint(
    config: AttackConfig, split_layer: int, train_names: tuple[str, ...]
) -> str:
    payload = repr(
        (
            sorted(
                (k, v)
                for k, v in vars(config).items()
                # train_image_dedup is an execution strategy with
                # identical model semantics, not model identity — it
                # must not stale committed trained-weight caches.
                if k not in ("extras", "train_image_dedup")
            ),
            split_layer,
            train_names,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def default_train_names() -> tuple[str, ...]:
    """The paper's 9-design training corpus."""
    return tuple(d.name for d in TRAINING_DESIGNS)


def attack_weight_path(
    config: AttackConfig,
    split_layer: int,
    train_names: tuple[str, ...] | None = None,
) -> Path | None:
    """Disk-cache location of a trained attack's weights (None when the
    disk cache is disabled)."""
    disk = cache_dir()
    if disk is None:
        return None
    if train_names is None:
        train_names = default_train_names()
    tag = _config_fingerprint(config, split_layer, train_names)
    return disk / f"dl_attack_m{split_layer}_{tag}.npz"


def trained_attack(
    split_layer: int,
    config: AttackConfig | None = None,
    train_names: tuple[str, ...] | None = None,
    use_disk_cache: bool = True,
    verbose: bool = False,
) -> DLAttack:
    """Train (or load) the DL attack for one split layer.

    Default training corpus: the 9 training designs, mirroring the
    paper's setup.
    """
    config = config or AttackConfig.fast()
    if train_names is None:
        train_names = default_train_names()

    weight_path = (
        attack_weight_path(config, split_layer, train_names)
        if use_disk_cache
        else None
    )
    memo_key = None
    if use_disk_cache and weight_path is None:
        # Caching wanted but the disk cache is disabled by the
        # environment: share the trained model in-process so a sweep's
        # evaluation nodes (which run serially in this situation) train
        # once per (layer, config) rather than once per scenario.
        memo_key = (
            split_layer,
            _config_fingerprint(config, split_layer, train_names),
        )
        memo = _attack_memo.get(memo_key)
        if memo is not None:
            return memo

    attack = DLAttack(config, split_layer, use_disk_cache=use_disk_cache)
    if weight_path is not None and weight_path.exists():
        try:
            attack.load(weight_path)
            return attack
        except _STALE_WEIGHT_ERRORS as exc:
            log_event(
                "cache_fallback", artifact="weights", path=str(weight_path),
                error=repr(exc),
            )
            # A failed load may have overwritten some parameters:
            # retrain from a fresh initialisation.
            attack = DLAttack(config, split_layer, use_disk_cache=use_disk_cache)

    train_splits = [get_split(n, split_layer, use_disk_cache) for n in train_names]
    attack.train(train_splits, verbose=verbose)
    if weight_path is not None:
        attack.save(weight_path)
    if memo_key is not None:
        _attack_memo[memo_key] = attack
    return attack
