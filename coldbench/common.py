"""Shared pieces: isolated scratch directories, statistics, environment."""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import subprocess
import tempfile
from pathlib import Path

class Scratch:
    """Fresh ``REPRO_CACHE_DIR`` / ``REPRO_RESULTS_DIR`` under the
    checkout's ignored ``.coldbench/`` directory.

    The committed ``.repro_cache`` is only ever read: every cache write
    of the program goes to these directories, which :meth:`close`
    removes.
    """

    def __init__(self, root: Path):
        base = root / ".coldbench" / "tmp"
        base.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.results = self.path / "results"
        self.results.mkdir()
        os.environ["REPRO_RESULTS_DIR"] = str(self.results)
        self._caches = 0
        self.fresh_cache()

    def fresh_cache(self) -> Path:
        """Point ``REPRO_CACHE_DIR`` at a new, empty directory, and
        remove the one before it."""
        if self._caches:
            shutil.rmtree(self.path / f"cache{self._caches}", ignore_errors=True)
        self._caches += 1
        cache = self.path / f"cache{self._caches}"
        cache.mkdir()
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        return cache

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that has at least
    ten samples beyond it; ``(100, max)`` when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(root: Path) -> dict:
    """What a result depends on besides the code: cores, BLAS, versions."""
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):  # older numpy: no dict mode
        pass
    threads = next(
        (os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        ) if k in os.environ),
        "default (one per core)",
    )
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(root),
    }


def git_sha(root: Path) -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()
