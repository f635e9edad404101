"""repro.pipeline — end-to-end flow orchestration with caching and
multi-process fan-out (see :mod:`repro.pipeline.parallel`)."""

from .flow import (
    attack_weight_path,
    build_netlist,
    cache_dir,
    clear_memo,
    default_train_names,
    defended_layout_tag,
    get_defended_layout,
    get_defended_split,
    get_layout,
    get_split,
    trained_attack,
)
from .parallel import Executor, resolve_workers

__all__ = [
    "Executor",
    "attack_weight_path",
    "build_netlist",
    "cache_dir",
    "clear_memo",
    "default_train_names",
    "defended_layout_tag",
    "get_defended_layout",
    "get_defended_split",
    "get_layout",
    "get_split",
    "resolve_workers",
    "trained_attack",
]
