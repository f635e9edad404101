#!/usr/bin/env python3
"""Self-test of the benchmark; exits 0 when every check holds.

    python3 coldbench/selftest.py

1. Every workload, untraced and traced, on the golden seed: the result
   line parses, every operation passes its correctness check, and the
   metric names are the ones ``BENCHMARK.json`` lists.
2. Isolation: ``git status`` reads the same before and after those runs
   (skipped outside a git repository).
3. In a directory holding only ``BENCHMARK.json`` and the benchmark's
   own files, the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


def git_status() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
        text=True, check=True,
    ).stdout


def main() -> int:
    problems = []
    before = git_status()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"] for m in SPEC[key]}
        for workload in SPEC["workloads"]:
            proc = bench(ROOT, "--workload", workload["name"], "--seed", "0",
                         "--seconds", "1", "--trace", str(trace))
            where = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: not correct\n{proc.stdout}")
            if set(result["metrics"]) != want:
                problems.append(
                    f"{where}: metrics {sorted(result['metrics'])} != {sorted(want)}"
                )
    after = git_status()
    if before != after:
        problems.append(f"git status changed:\n{before}\n---\n{after}")

    scratch = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".coldbench" / "tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, scratch / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(scratch, "--workload", SPEC["workloads"][0]["name"],
                     "--seed", "0", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, "
                            f"stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(scratch)

    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
