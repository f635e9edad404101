#!/usr/bin/env python3
"""Wall-clock benchmark of the Table 3 evaluation path.

Times the ``table3`` grid (``Client(backend="local").table3``) on a
design subset with the benchmark config and a warm layout cache — the
measurement behind the engine speedup numbers in
``results/perf_engine.txt``.  Run it against the current tree, or point
PYTHONPATH at an older checkout to measure a baseline:

    PYTHONPATH=src python scripts/bench_engine.py --label new-serial
    PYTHONPATH=/tmp/seedtree/src python scripts/bench_engine.py --label seed

Trained weights are expected in the shared ``.repro_cache`` (train them
once beforehand with any run); training time is excluded so the number
isolates the evaluation hot path the engine rework targets.

Besides the human-readable summary, ``--emit-json`` writes a versioned
``BENCH_engine.json`` artifact (schema in :mod:`repro.obs.bench`) that
``repro bench compare`` gates against ``results/baselines/``.
``--golden`` swaps the full Table 3 run for the golden two-scenario
proximity sweep on the committed warm ``.repro_cache`` — seconds, not
minutes, which is what the CI perf gate times.  ``--profile`` samples
the run and prints the hottest stacks.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from repro.api import Client
from repro.core import AttackConfig
from repro.obs.bench import BenchMetric, make_artifact, write_artifact
from repro.obs.profile import SamplingProfiler

DEFAULT_DESIGNS = ["c432", "c880", "c1355", "b11", "b13", "c2670"]
REPO_ROOT = Path(__file__).resolve().parent.parent


def registry_snapshot() -> str:
    """Counter/sum/count samples from the in-process metrics registry
    (histogram buckets omitted), or "" on a checkout without repro.obs."""
    try:
        from repro.obs import metrics as obs_metrics
    except ImportError:
        return ""
    lines = [
        "  " + line
        for line in obs_metrics.get_registry().render().splitlines()
        if line and not line.startswith("#") and "_bucket{" not in line
    ]
    if not lines:
        return ""
    return "metrics snapshot (in-process registry):\n" + "\n".join(lines)


def golden_sweep(args) -> tuple[dict, list[BenchMetric]]:
    """The CI-sized measurement: an eight-scenario proximity+flow sweep
    on the committed warm ``.repro_cache``.

    Cold wall-clock is best-of-3 against a fresh scratch store each
    round (best-of beats mean on noisy shared CI runners); the resume
    number re-opens the populated store 50 times so store load +
    planning dominate instead of timer jitter.  Metric names are
    disjoint from the full Table 3 run's so a golden baseline never
    gates a full run or vice versa."""
    os.environ["REPRO_CACHE_DIR"] = str(REPO_ROOT / ".repro_cache")
    scratch = Path(tempfile.mkdtemp(prefix="repro_bench_engine_"))
    os.environ["REPRO_RESULTS_DIR"] = str(scratch)

    from repro.experiments import ResultsStore, ScenarioSpec, run_sweep

    specs = [
        ScenarioSpec(design=d, split_layer=layer, attack=attack)
        for d in ("c432", "c880")
        for layer in (1, 3)
        for attack in ("proximity", "flow")
    ]
    sweep_s = []
    for round_no in range(3):
        store = ResultsStore(scratch / f"cold_{round_no}.jsonl")
        start = time.perf_counter()
        result = run_sweep(specs, store=store, workers=args.workers)
        sweep_s.append(time.perf_counter() - start)

    resume_path = scratch / "cold_0.jsonl"
    resume_s = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(50):
            resumed = run_sweep(
                specs, store=ResultsStore(resume_path),
                workers=args.workers,
            )
        resume_s.append(time.perf_counter() - start)

    # Training-path metric: best-of-3 single-epoch DLAttack.train on
    # c432 at M3 with the benchmark config (features come warm from the
    # committed cache, so the number isolates the batch-assembly +
    # forward/backward hot path the unique-image dedup targets).
    from repro.core import DLAttack
    from repro.pipeline import get_split

    train_cfg = AttackConfig.benchmark().with_(epochs=1)
    train_split = get_split("c432", 3)
    train_s = []
    for _ in range(3):
        attack = DLAttack(train_cfg, split_layer=3)
        start = time.perf_counter()
        attack.train([train_split])
        train_s.append(time.perf_counter() - start)

    # Feature-path metric: best-of-3 cold SplitDataset build (candidates,
    # vector features, image table) on c880 at M1 and M3, with the disk
    # cache off so every round recomputes; layouts come warm.
    from repro.core import SplitDataset

    feature_cfg = AttackConfig.benchmark()
    feature_splits = [get_split("c880", layer) for layer in (1, 3)]
    features_s = []
    for _ in range(3):
        start = time.perf_counter()
        for split in feature_splits:
            SplitDataset(split, feature_cfg, use_disk_cache=False)
        features_s.append(time.perf_counter() - start)

    summary = {
        "label": args.label,
        "mode": "golden",
        "designs": ["c432", "c880"],
        "scenarios": len(specs),
        "workers": args.workers,
        "golden_sweep_wall_s": round(min(sweep_s), 3),
        "golden_resume_50x_s": round(min(resume_s), 3),
        "golden_train_epoch_s": round(min(train_s), 3),
        "golden_cold_features_s": round(min(features_s), 3),
        "executed": result.executed,
        "resumed": resumed.reused,
    }
    metrics = [
        BenchMetric("golden_sweep_wall_s", min(sweep_s), unit="s"),
        BenchMetric("golden_resume_50x_s", min(resume_s), unit="s"),
        BenchMetric("golden_train_epoch_s", min(train_s), unit="s"),
        BenchMetric("golden_cold_features_s", min(features_s), unit="s"),
    ]
    return summary, metrics


def full_table3(args) -> tuple[dict, list[BenchMetric]]:
    start = time.perf_counter()
    with Client(
        backend="local", store=False, workers=args.workers
    ) as client:
        report = client.table3(
            designs=args.designs,
            split_layers=tuple(args.layers),
            config=AttackConfig.benchmark(),
            flow_timeout_s=args.flow_timeout,
        ).report()
    elapsed = time.perf_counter() - start

    summary = {
        "label": args.label,
        "mode": "table3",
        "designs": args.designs,
        "layers": args.layers,
        "workers": args.workers,
        "wall_clock_s": round(elapsed, 2),
        "rows": len(report.rows),
        "ccr_dl": {
            f"{r.design}/M{r.split_layer}": round(r.ccr_dl, 4)
            for r in report.rows
        },
    }
    metrics = [BenchMetric("table3_wall_s", elapsed, unit="s")]
    return summary, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--designs", nargs="+", default=DEFAULT_DESIGNS)
    parser.add_argument("--layers", type=int, nargs="+", default=[1, 3])
    parser.add_argument("--flow-timeout", type=float, default=30.0)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--label", default="run")
    parser.add_argument(
        "--golden", action="store_true",
        help="time the golden two-scenario warm-cache sweep instead of "
        "the full Table 3 run (seconds, not minutes; the CI perf gate)",
    )
    parser.add_argument(
        "--emit-json", metavar="PATH", nargs="?",
        const=str(REPO_ROOT / "BENCH_engine.json"), default=None,
        help="write the versioned benchmark artifact here (default path "
        "when the flag is given bare: BENCH_engine.json at the repo "
        "root; gate it with `repro bench compare`)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="sample the run with the stdlib profiler and print the "
        "hottest stacks",
    )
    parser.add_argument(
        "--append-report", metavar="PATH", nargs="?",
        const=str(REPO_ROOT / "results" / "perf_engine.txt"), default=None,
        help="append the summary + metrics snapshot to this report file "
        "(default path when the flag is given bare: results/perf_engine.txt)",
    )
    args = parser.parse_args()

    measure = golden_sweep if args.golden else full_table3
    if args.profile:
        with SamplingProfiler() as profiler:
            summary, metrics = measure(args)
    else:
        profiler = None
        summary, metrics = measure(args)

    print(json.dumps(summary, indent=2))
    if profiler is not None:
        print(f"profile ({profiler.samples} samples, hottest stacks):")
        for line in profiler.render_collapsed().splitlines()[:10]:
            print(f"  {line}")
    if args.emit_json:
        artifact = make_artifact(
            suite="engine",
            metrics=metrics,
            label=args.label,
            context={
                k: v for k, v in summary.items()
                if k not in ("label",)
            },
            repo_root=REPO_ROOT,
        )
        path = write_artifact(args.emit_json, artifact)
        print(f"wrote {path}")
    snapshot = registry_snapshot()
    if snapshot:
        print(snapshot)
    if args.append_report:
        out_path = Path(args.append_report)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        block = f"\n[{args.label}] bench_engine "
        block += json.dumps(summary) + "\n"
        if snapshot:
            block += snapshot + "\n"
        with open(out_path, "a") as handle:
            handle.write(block)
        print(f"appended to {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
