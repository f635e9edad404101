"""Grouped VPP datasets for training and inference.

The unit of work is a *candidate group*: one sink fragment with its
(up to) n candidate VPPs, padded to exactly n with a validity mask.
Groups carry raw vector features; normalisation happens at batch
assembly so one normaliser (fitted on the training corpus) serves all
designs.

Feature tensors are **precomputed once** at :class:`SplitDataset`
build: the raw vector features are stacked into one ``(G, n, F)``
array, and every distinct virtual-pin image is rendered exactly once
into a unique-image table with ``(G, n)`` / ``(G,)`` index arrays
pointing into it (row 0 is the all-zero padding image).  Batch
assembly (:func:`make_batch`) is then a pure index-and-slice
operation — epochs never re-render or re-stack features.

The tensors are cached on disk under ``$REPRO_CACHE_DIR/features``
(default ``.repro_cache/features``; set ``REPRO_CACHE_DIR=`` empty to
disable), keyed by a hash of the serialised layout and the
feature-relevant configuration fields.  Each ``<key>.npz`` holds the
``vec`` tensor, the unique-image table with its ``src_index`` /
``sink_index`` gather arrays, and the candidate VPP lists as integer
coordinate arrays (``group_sink``, ``n_valid``, ``vpp_sink``,
``vpp_source``) — so warm runs, and the worker processes of the
multi-process pipeline executor, skip candidate selection *and*
feature extraction entirely.  Cache files are written atomically
(temp file + ``os.replace``) so concurrent workers never observe torn
writes.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ..split.fragments import VirtualPin
from ..split.split import VPP, SplitLayout
from .atomic import atomic_savez
from .candidates import build_candidates
from .config import AttackConfig
from .image_features import ImageExtractor
from .vector_features import N_VECTOR_FEATURES, FeatureNormalizer, VectorFeatures

_TENSOR_CACHE_VERSION = 1


@dataclass
class SampleGroup:
    """One sink fragment's candidate group."""

    index: int  # position in SplitDataset.groups / the feature tensors
    sink_fragment_id: int
    vpps: list[VPP]
    target: int | None  # index of the positive VPP, None if not included
    vec: np.ndarray  # (n, N_VECTOR_FEATURES) raw features, zero-padded
    mask: np.ndarray  # (n,) validity

    @property
    def n_valid(self) -> int:
        return int(self.mask.sum())


@dataclass
class FeatureTensors:
    """Precomputed per-dataset feature tensors (see module docstring)."""

    vec: np.ndarray  # (G, n, F) float32, raw (un-normalised)
    mask: np.ndarray  # (G, n) bool
    targets: np.ndarray  # (G,) int64; -1 where the group is unlabeled
    image_table: np.ndarray | None  # (U, C, S, S) uint8; row 0 = padding
    src_index: np.ndarray | None  # (G, n) intp into image_table
    sink_index: np.ndarray | None  # (G,) intp into image_table

    def nbytes(self) -> int:
        total = self.vec.nbytes + self.mask.nbytes + self.targets.nbytes
        for arr in (self.image_table, self.src_index, self.sink_index):
            if arr is not None:
                total += arr.nbytes
        return total


def feature_cache_dir() -> Path | None:
    """Directory for feature-tensor caches, or None when disabled.

    Controlled by ``REPRO_CACHE_DIR`` exactly like the layout / trained
    -model caches in :mod:`repro.pipeline.flow`.
    """
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    if not root:
        return None
    path = Path(root) / "features"
    path.mkdir(parents=True, exist_ok=True)
    return path


def feature_config_fingerprint(config: AttackConfig) -> str:
    """Hash of the config fields the feature tensors depend on.

    Layout-independent, so the sweep engine can key cache warm-up nodes
    on it before any layout exists: two configs that differ only in
    training hyper-parameters (epochs, learning rate, ...) share one
    fingerprint and therefore one feature-tensor cache entry.
    """
    payload = repr(
        (
            config.n_candidates,
            config.image_size,
            config.image_scales,
            config.use_images,
            config.max_feature_layers,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def feature_cache_key(split: SplitLayout, config: AttackConfig) -> str:
    """Content key of one (layout, split layer, feature config) tensor set."""
    cfg = config
    payload = repr(
        (
            _TENSOR_CACHE_VERSION,
            _layout_fingerprint(split),
            split.split_layer,
            cfg.n_candidates,
            cfg.image_size,
            cfg.image_scales,
            cfg.use_images,
            cfg.max_feature_layers,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def feature_cache_path(split: SplitLayout, config: AttackConfig) -> Path | None:
    """Disk location of the cached feature tensors (None: cache disabled)."""
    root = feature_cache_dir()
    if root is None:
        return None
    return root / f"{feature_cache_key(split, config)}.npz"


def _layout_fingerprint(split: SplitLayout) -> str:
    """Content hash of the serialised layout, memoised on the design."""
    design = split.design
    cached = getattr(design, "_repro_def_sha", None)
    if cached is None:
        from ..layout.def_io import write_def

        cached = hashlib.sha256(write_def(design).encode()).hexdigest()
        try:
            design._repro_def_sha = cached
        except AttributeError:  # __slots__ or frozen: recompute next time
            pass
    return cached


class SplitDataset:
    """Candidate groups plus precomputed feature tensors for one layout."""

    def __init__(
        self,
        split: SplitLayout,
        config: AttackConfig,
        use_disk_cache: bool = True,
    ):
        self.split = split
        self.config = config
        self._images: ImageExtractor | None = None
        self.groups: list[SampleGroup] = []
        self.n_skipped_empty = 0  # sink fragments with zero candidates
        self.candidates: dict[int, list[VPP]] = {}
        self.tensors: FeatureTensors | None = None

        cache_path: Path | None = None
        if use_disk_cache:
            cache_root = feature_cache_dir()
            if cache_root is not None:
                cache_path = cache_root / f"{self.cache_key}.npz"
                self._try_load_cache(cache_path)
        if self.tensors is None:
            self.candidates = build_candidates(split, config.n_candidates)
            self._build_group_shells()
            self.tensors = self._compute_tensors()
            if cache_path is not None:
                atomic_savez(cache_path, self._cache_arrays())
        # Per-group vec/mask are views into the stacked tensors.
        for group in self.groups:
            group.vec = self.tensors.vec[group.index]
            group.mask = self.tensors.mask[group.index]

    @property
    def images(self) -> ImageExtractor | None:
        """The per-layout image renderer (None when images are disabled).

        Built lazily: warm cache hits never render, so they skip the
        extractor's dense occupancy pass entirely.
        """
        if not self.config.use_images:
            return None
        if self._images is None:
            self._images = ImageExtractor(self.split, self.config)
        return self._images

    def _build_group_shells(self) -> None:
        """Groups with candidates, targets and masks but no features yet."""
        n = self.config.n_candidates
        for sink in self.split.sink_fragments:
            vpps = self.candidates[sink.fragment_id]
            if not vpps:
                self.n_skipped_empty += 1
                continue
            truth = self.split.truth.get(sink.fragment_id)
            target = None
            for i, vpp in enumerate(vpps):
                if vpp.source_fragment == truth:
                    target = i
                    break
            mask = np.zeros(n, dtype=bool)
            mask[: len(vpps[:n])] = True
            self.groups.append(
                SampleGroup(
                    index=len(self.groups),
                    sink_fragment_id=sink.fragment_id,
                    vpps=vpps,
                    target=target,
                    vec=np.zeros((n, N_VECTOR_FEATURES), dtype=np.float32),
                    mask=mask,
                )
            )

    # -- tensor precompute / cache --------------------------------------
    @cached_property
    def cache_key(self) -> str:
        """Content key of the feature and embedding disk caches.

        Computed on first use: it serialises the whole layout, which a
        dataset built without the disk cache never needs.
        """
        return feature_cache_key(self.split, self.config)

    def _cache_arrays(self) -> dict[str, np.ndarray]:
        """Everything expensive, as arrays: features, unique images and
        the candidate lists themselves (so warm loads skip candidate
        selection entirely).  Masks and targets are rederived."""
        n = self.config.n_candidates
        g = len(self.groups)
        group_sink = np.array(
            [grp.sink_fragment_id for grp in self.groups], dtype=np.int64
        )
        n_valid = np.array(
            [len(grp.vpps) for grp in self.groups], dtype=np.int64
        )
        vpp_sink = np.zeros((g, n, 3), dtype=np.int64)
        vpp_source = np.zeros((g, n, 3), dtype=np.int64)
        for grp in self.groups:
            for j, vpp in enumerate(grp.vpps[:n]):
                vpp_sink[grp.index, j] = (
                    vpp.sink_vp.fragment_id, vpp.sink_vp.x, vpp.sink_vp.y,
                )
                vpp_source[grp.index, j] = (
                    vpp.source_vp.fragment_id, vpp.source_vp.x, vpp.source_vp.y,
                )
        arrays = {
            "vec": self.tensors.vec,
            "group_sink": group_sink,
            "n_valid": n_valid,
            "vpp_sink": vpp_sink,
            "vpp_source": vpp_source,
        }
        if self.tensors.image_table is not None:
            arrays["image_table"] = self.tensors.image_table
            arrays["src_index"] = self.tensors.src_index
            arrays["sink_index"] = self.tensors.sink_index
        return arrays

    def _try_load_cache(self, path: Path) -> bool:
        """Rebuild groups, candidates and tensors from a cache file.

        Validates shapes and fragment ids against the split layout; any
        mismatch or read error leaves the dataset untouched (cold path
        recomputes and overwrites the stale file).
        """
        if not path.exists():
            return False
        n = self.config.n_candidates
        try:
            with np.load(path) as data:
                required = {
                    "vec", "group_sink", "n_valid", "vpp_sink", "vpp_source",
                }
                if not required <= set(data.files):
                    return False
                vec = data["vec"].astype(np.float32, copy=False)
                group_sink = data["group_sink"]
                n_valid = data["n_valid"]
                vpp_sink = data["vpp_sink"]
                vpp_source = data["vpp_source"]
                image_table = src_index = sink_index = None
                if self.config.use_images:
                    if "image_table" not in data.files:
                        return False
                    image_table = data["image_table"]
                    src_index = data["src_index"].astype(np.intp)
                    sink_index = data["sink_index"].astype(np.intp)
        except Exception:  # repro: ignore[broad-except] unreadable cache: report a miss and recompute
            return False

        g = group_sink.shape[0]
        sink_ids = {f.fragment_id for f in self.split.sink_fragments}
        if (
            vec.shape != (g, n, N_VECTOR_FEATURES)
            or n_valid.shape != (g,)
            or vpp_sink.shape != (g, n, 3)
            or vpp_source.shape != (g, n, 3)
            or g > len(sink_ids)
            or not set(group_sink.tolist()) <= sink_ids
        ):
            return False
        if self.config.use_images:
            expected = (
                # Derive channels from config alone: touching self.images
                # here would build the extractor the warm path avoids.
                self.config.image_channels(self.split.split_layer),
                self.config.image_size,
                self.config.image_size,
            )
            if (
                image_table.ndim != 4
                or image_table.shape[1:] != expected
                or src_index.shape != (g, n)
                or sink_index.shape != (g,)
                or src_index.max(initial=0) >= image_table.shape[0]
                or sink_index.max(initial=0) >= image_table.shape[0]
            ):
                return False

        fragment_ids = {f.fragment_id for f in self.split.fragments}
        groups: list[SampleGroup] = []
        for i in range(g):
            k = int(n_valid[i])
            if not 1 <= k <= n:
                return False
            vpps = []
            for j in range(k):
                sf, sx, sy = (int(v) for v in vpp_sink[i, j])
                qf, qx, qy = (int(v) for v in vpp_source[i, j])
                if sf not in fragment_ids or qf not in fragment_ids:
                    return False
                vpps.append(
                    VPP(VirtualPin(sf, sx, sy), VirtualPin(qf, qx, qy))
                )
            sink_fid = int(group_sink[i])
            truth = self.split.truth.get(sink_fid)
            target = None
            for j, vpp in enumerate(vpps):
                if vpp.source_fragment == truth:
                    target = j
                    break
            mask = np.zeros(n, dtype=bool)
            mask[:k] = True
            groups.append(
                SampleGroup(
                    index=i,
                    sink_fragment_id=sink_fid,
                    vpps=vpps,
                    target=target,
                    vec=vec[i],
                    mask=mask,
                )
            )

        self.groups = groups
        self.n_skipped_empty = len(sink_ids) - g
        self.candidates = {fid: [] for fid in sink_ids}
        self.candidates.update(
            {grp.sink_fragment_id: grp.vpps for grp in groups}
        )
        self.tensors = FeatureTensors(
            vec=vec,
            mask=self._mask_tensor(),
            targets=self._target_tensor(),
            image_table=image_table,
            src_index=src_index,
            sink_index=sink_index,
        )
        return True

    def _mask_tensor(self) -> np.ndarray:
        if not self.groups:
            return np.zeros((0, self.config.n_candidates), dtype=bool)
        return np.stack([g.mask for g in self.groups])

    def _target_tensor(self) -> np.ndarray:
        return np.array(
            [-1 if g.target is None else g.target for g in self.groups],
            dtype=np.int64,
        )

    def _compute_tensors(self) -> FeatureTensors:
        n = self.config.n_candidates
        g = len(self.groups)
        mask = self._mask_tensor()
        vec = np.zeros((g, n, N_VECTOR_FEATURES), dtype=np.float32)
        vpps = [vpp for group in self.groups for vpp in group.vpps[:n]]
        if vpps:
            features = VectorFeatures(self.split, self.config.max_feature_layers)
            vec[mask] = features.rows(vpps)

        image_table = src_index = sink_index = None
        if self.config.use_images:
            # Row 0 is the all-zero image used for padded candidate
            # slots; the other rows are the distinct pins in order of
            # first use.
            row_of: dict[VirtualPin, int] = {}
            src_index = np.zeros((g, n), dtype=np.intp)
            sink_index = np.zeros(g, dtype=np.intp)
            for group in self.groups:
                for i, vpp in enumerate(group.vpps[:n]):
                    src_index[group.index, i] = row_of.setdefault(
                        vpp.source_vp, len(row_of) + 1
                    )
                # The sink fragment is rendered once per group (paper
                # Sec. 4.2); use its first (deterministically ordered)
                # virtual pin.
                sink_vp = self.split.fragment(group.sink_fragment_id).virtual_pins[0]
                sink_index[group.index] = row_of.setdefault(
                    sink_vp, len(row_of) + 1
                )
            images = self.images.render(list(row_of))
            padding = np.zeros((1, *images.shape[1:]), dtype=np.uint8)
            image_table = np.concatenate([padding, images])

        return FeatureTensors(
            vec=vec,
            mask=mask,
            targets=self._target_tensor(),
            image_table=image_table,
            src_index=src_index,
            sink_index=sink_index,
        )

    # -- views -------------------------------------------------------------
    def trainable_groups(self) -> list[SampleGroup]:
        """Groups whose positive VPP survived candidate selection."""
        return [g for g in self.groups if g.target is not None]

    def all_vector_rows(self) -> np.ndarray:
        """Valid feature rows, for normaliser fitting."""
        if not self.groups:
            return np.zeros((0, N_VECTOR_FEATURES))
        return self.tensors.vec[self.tensors.mask]

    # -- batch assembly -----------------------------------------------------
    def group_images(
        self, group: SampleGroup
    ) -> tuple[np.ndarray, np.ndarray]:
        """(source images (n, C, S, S), sink image (C, S, S)) as float32."""
        if self.images is None:
            raise RuntimeError("image features disabled in config")
        t = self.tensors
        src = t.image_table[t.src_index[group.index]].astype(np.float32)
        sink = t.image_table[t.sink_index[group.index]].astype(np.float32)
        return src, sink


@dataclass
class Batch:
    """A training/inference batch of B groups.

    Images come in one of two shapes: the *materialised* form
    (``src_images``/``sink_images``, every slot its own copy) or the
    *deduplicated* form (``image_batch`` holding each distinct image of
    the batch once, ``src_gather``/``sink_gather`` indexing its rows) —
    exactly one of the two is populated when images are enabled.
    """

    vec: np.ndarray  # (B, n, F) normalised
    mask: np.ndarray  # (B, n)
    targets: np.ndarray | None  # (B,) or None at inference
    src_images: np.ndarray | None  # (B, n, C, S, S)
    sink_images: np.ndarray | None  # (B, C, S, S)
    groups: list[SampleGroup]
    image_batch: np.ndarray | None = None  # (U, C, S, S) float32, unique
    src_gather: np.ndarray | None = None  # (B, n) intp into image_batch
    sink_gather: np.ndarray | None = None  # (B,) intp into image_batch


def make_batch(
    dataset: SplitDataset,
    groups: list[SampleGroup],
    normalizer: FeatureNormalizer,
    with_targets: bool,
    dedup_images: bool = False,
) -> Batch:
    """Assemble a batch from ``groups``.

    With ``dedup_images`` (and images enabled), the duplicate-heavy
    ``(B, n, C, S, S)`` stacks are replaced by a unique-image sub-table
    plus gather indices: candidate groups share source images heavily
    (a popular source fragment is a candidate of many sinks), so the
    sub-table is typically ~8-10x smaller than the materialised stacks.
    ``image_batch[src_gather]`` / ``image_batch[sink_gather]``
    reconstructs the materialised form bit-for-bit.
    """
    tensors = dataset.tensors
    idx = np.array([g.index for g in groups], dtype=np.intp)
    vec = normalizer.transform(tensors.vec[idx])
    mask = tensors.mask[idx]
    targets = None
    if with_targets:
        targets = tensors.targets[idx]
        if (targets < 0).any():
            raise ValueError("cannot build a training batch from unlabeled groups")
    src_images = sink_images = None
    image_batch = src_gather = sink_gather = None
    if dataset.config.use_images:
        if dedup_images:
            b, n = tensors.src_index[idx].shape
            flat = np.concatenate(
                [tensors.src_index[idx].ravel(), tensors.sink_index[idx]]
            )
            uniq, inverse = np.unique(flat, return_inverse=True)
            image_batch = tensors.image_table[uniq].astype(np.float32)
            src_gather = inverse[: b * n].reshape(b, n).astype(np.intp)
            sink_gather = inverse[b * n :].astype(np.intp)
        else:
            src_images = tensors.image_table[tensors.src_index[idx]].astype(
                np.float32
            )
            sink_images = tensors.image_table[tensors.sink_index[idx]].astype(
                np.float32
            )
    return Batch(
        vec, mask, targets, src_images, sink_images, groups,
        image_batch=image_batch,
        src_gather=src_gather,
        sink_gather=sink_gather,
    )
