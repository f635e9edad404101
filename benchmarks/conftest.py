"""Shared fixtures for the benchmark suite.

The expensive artifacts (placed-and-routed layouts, trained attack
models) are produced once and cached in ``.repro_cache`` — the same
cache the experiment scripts use, so a prior
``python scripts/run_full_experiments.py`` makes the benchmarks start
warm.  Reports regenerated here are written to ``$REPRO_RESULTS_DIR``
when it is set and to a session temp directory otherwise, so a test run
leaves the committed ``results/`` alone; regenerate those files with
``REPRO_RESULTS_DIR=results pytest benchmarks``.

The whole tier carries the ``slow`` pytest marker (deselect with
``-m "not slow"``); the harness entry points it calls honour
``REPRO_WORKERS`` for multi-process fan-out on multi-core hosts.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core import AttackConfig
from repro.core.atomic import atomic_write_text
from repro.experiments.records import RESULTS_DIR_ENV
from repro.pipeline import get_split, trained_attack


@pytest.fixture(scope="session", autouse=True)
def _session_results_dir(tmp_path_factory):
    """Point ``$REPRO_RESULTS_DIR`` at a session temp directory unless
    the caller set it."""
    with pytest.MonkeyPatch.context() as patcher:
        if not os.environ.get(RESULTS_DIR_ENV):
            patcher.setenv(
                RESULTS_DIR_ENV, str(tmp_path_factory.mktemp("results"))
            )
        yield


def save_report(name: str, text: str) -> None:
    path = Path(os.environ[RESULTS_DIR_ENV])
    path.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path / name, text + "\n")


@pytest.fixture(scope="session")
def bench_config() -> AttackConfig:
    return AttackConfig.benchmark()


@pytest.fixture(scope="session")
def dl_attack_m1(bench_config):
    """The trained M1 attack (cached on disk after the first build)."""
    return trained_attack(1, bench_config)


@pytest.fixture(scope="session")
def dl_attack_m3(bench_config):
    return trained_attack(3, bench_config)


@pytest.fixture(scope="session")
def split_of():
    """Accessor for cached split layouts: split_of(name, layer)."""
    return get_split
