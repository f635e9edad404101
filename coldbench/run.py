#!/usr/bin/env python3
"""Cold-path benchmark of the split-manufacturing attack reproduction.

    python3 coldbench/run.py --workload cold-train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see each module's
docstring for why it exists): ``cold-train``, ``cold-attack`` and
``service-replay``; ``--workload all`` runs each in turn.

A run sets up ``SETUPS`` times (the median is ``setup_s``), then
repeats the workload's cycle until ``--seconds`` have passed.  With
``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it
alternates untraced and traced cycles and prints the per-layer metrics
of the traced ones, with the tracing overhead as traced minus untraced
cycle time, and writes the spans to ``.coldbench/``.  Every cycle
checks the program's outputs; a failed check counts as a failed
operation.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The run uses one BLAS thread (see ``main``); the program's own default
is one per core.  Everything else, the memory allocator included, is
left as the program runs for a user.

Each run works in fresh ``REPRO_CACHE_DIR`` and ``REPRO_RESULTS_DIR``
directories under ``.coldbench/tmp`` and removes them at the end; the
committed ``.repro_cache`` is only read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from common import Scratch, environment, median, peak_rss_mb
from spans import SpanRecorder, instrument, restore

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("cold-train", "cold-attack", "service-replay")

# name -> unit, for the --trace 0 output (BENCHMARK.json end_to_end).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cycle_cpu_s": "s",
    "work_per_cpu_s": "1/s",
    "aux_per_cpu_s": "1/s",
}

# name -> unit, for the --trace 1 output (BENCHMARK.json per_layer).
# Times are self times per traced cycle; counts are per traced cycle,
# so that they repeat exactly from run to run.
PER_LAYER = {
    "netlist.build_s": "s",
    "layout.build_s": "s",
    "layout.designs": "count",
    "split.split_s": "s",
    "candidates.build_s": "s",
    "candidates.groups": "count",
    "candidates.recall": "ratio",
    "candidates.share_of_dl_m1": "ratio",
    "features.tensors_s": "s",
    "features.unique_images": "count",
    "features.dup_ratio": "ratio",
    "nn.conv.fwd_s": "s",
    "nn.conv.bwd_s": "s",
    "nn.conv.share_of_cycle": "ratio",
    "nn.conv.flops": "flop",
    "nn.conv.bytes": "B",
    "nn.lrelu.fwd_s": "s",
    "nn.lrelu.bwd_s": "s",
    "nn.dense.fwd_s": "s",
    "nn.dense.bwd_s": "s",
    "model.embed_s": "s",
    "model.head_s": "s",
    "model.fwd_dedup_s": "s",
    "model.bwd_dedup_s": "s",
    "train.steps": "count",
    "train.step_p50_s": "s",
    "train.make_batch_s": "s",
    "optim.step_s": "s",
    "flow.attack_s": "s",
    "proximity.attack_s": "s",
    "experiments.plan_s": "s",
    "experiments.build_grid_s": "s",
    "store.lookups": "count",
    "store.lookup_s": "s",
    "http.post_jobs.server_s": "s",
    "http.get_job.server_s": "s",
    "http.get_results.server_s": "s",
    "http.sent": "count",
    "http.ok": "count",
    "http.failed": "count",
    "trace.overhead_s": "s",
}

SPAN_TIMES = {
    "netlist.build_s": "netlist.build",
    "layout.build_s": "layout.build",
    "split.split_s": "split.split",
    "candidates.build_s": "candidates.build",
    "features.tensors_s": "features.dataset",
    "nn.conv.fwd_s": "nn.conv.fwd",
    "nn.conv.bwd_s": "nn.conv.bwd",
    "nn.lrelu.fwd_s": "nn.lrelu.fwd",
    "nn.lrelu.bwd_s": "nn.lrelu.bwd",
    "nn.dense.fwd_s": "nn.dense.fwd",
    "nn.dense.bwd_s": "nn.dense.bwd",
    "model.embed_s": "model.embed",
    "model.head_s": "model.head",
    "model.fwd_dedup_s": "model.fwd_dedup",
    "model.bwd_dedup_s": "model.bwd_dedup",
    "train.make_batch_s": "train.make_batch",
    "optim.step_s": "optim.step",
    "flow.attack_s": "flow.attack",
    "proximity.attack_s": "proximity.attack",
    "experiments.plan_s": "experiments.plan",
    "experiments.build_grid_s": "experiments.build_grid",
    "store.lookup_s": "store.lookup",
}

HTTP_ROUTES = (
    "http.post_jobs.server_s", "http.get_job.server_s",
    "http.get_results.server_s",
)


def make_workload(name: str, seed: int, scratch):
    if name == "cold-train":
        from cold_train import ColdTrain
        return ColdTrain(seed, scratch)
    if name == "cold-attack":
        from cold_attack import ColdAttack
        return ColdAttack(seed, ROOT)
    from service_replay import ServiceReplay
    return ServiceReplay(seed, scratch)


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(attempted, len(failures))
        self.messages += failures[: max(0, 5 - len(self.messages))]


def run_cycle(workload, tally: Tally, recorder=None) -> dict | None:
    started = time.perf_counter()
    try:
        out = workload.cycle(recorder)
    except Exception as err:  # a crashed cycle is a failed operation
        tally.add(1, [f"cycle raised {type(err).__name__}: {err}"])
        return None
    out["wall_s"] = time.perf_counter() - started
    tally.add(out["attempted"], out["failures"])
    return out


def end_to_end(cycles: list[dict], setup_times: list[float],
               peak_mb: float) -> dict:
    """End-to-end metrics from the medians of the cycles' parts.

    Parts are timed in process CPU time, which leaves out the time the
    hypervisor gives the vCPUs to other machines of a shared host (the
    wall-clock figures are printed beside the metrics).  Each cycle repeats the same parts on
    the same inputs, so each part's time is its median over the cycles,
    and a cycle's time is the sum of those medians; a burst of noise
    spoils the parts it overlaps in one cycle, not the median.
    Throughputs divide a cycle's fixed units of work by the summed
    medians of the parts that do that work.  A part that a cycle
    repeats gives a list of times, all of which count toward its median.

    The first cycle is left out when there are others, as a warm-up:
    a fresh process is still growing its heap and filling lazy imports
    and caches then.
    """
    if len(cycles) > 1:
        cycles = cycles[1:]

    def samples(key: str) -> list[float]:
        out = []
        for c in cycles:
            value = c["parts"][key]
            out += value if isinstance(value, list) else [value]
        return out

    parts = {k: median(samples(k)) for k in cycles[0]["parts"]}

    def rate(key: str) -> float:
        units, names = cycles[0][key]
        return units / sum(parts[n] for n in names)

    return {
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_mb,
        "cycle_cpu_s": sum(parts.values()),
        "work_per_cpu_s": rate("work"),
        "aux_per_cpu_s": rate("aux"),
    }


def per_layer(recorder, traced: list[dict], untraced: list[dict],
              counters: dict) -> dict:
    from repro.core.candidates import candidate_recall

    n = max(1, len(traced))
    out = {name: recorder.self_time(span) / n for name, span in SPAN_TIMES.items()}
    for name in ("layout.designs", "candidates.groups", "train.steps",
                 "store.lookups", "nn.conv.flops", "nn.conv.bytes"):
        out[name] = recorder.counts.get(name, 0.0) / n

    hits = sinks = slots = unique = 0
    for kind, objects in recorder.deferred:
        if kind == "recall":
            split, candidates = objects
            sinks += len(split.sink_fragments)
            hits += candidate_recall(split, candidates) * len(split.sink_fragments)
        elif objects[0].tensors is not None and \
                objects[0].tensors.image_table is not None:
            t = objects[0].tensors
            unique += t.image_table.shape[0]
            slots += int(t.mask.sum()) + t.mask.shape[0]
    out["candidates.recall"] = hits / sinks if sinks else 0.0
    out["features.unique_images"] = unique / n
    out["features.dup_ratio"] = slots / unique if unique else 0.0

    traced_s = sum(c["wall_s"] for c in traced)
    out["nn.conv.share_of_cycle"] = (
        (out["nn.conv.fwd_s"] + out["nn.conv.bwd_s"]) * n / traced_s
    )
    dl_m1 = sum(c.get("dl_s_m1", 0.0) for c in traced)
    cand_m1 = sum(
        s.self_s for s in recorder.spans
        if s.name == "candidates.build" and s.run_id.endswith("/M1")
    )
    out["candidates.share_of_dl_m1"] = cand_m1 / dl_m1 if dl_m1 else 0.0
    steps = recorder.durations("train.step")
    out["train.step_p50_s"] = median(steps)

    for name in ("http.sent", "http.ok", "http.failed", *HTTP_ROUTES):
        out[name] = counters.get(name, 0.0) / n
    # The first cycle of a run is untraced and, as in end_to_end, left
    # out as a warm-up.
    out["trace.overhead_s"] = (
        median(c["wall_s"] for c in traced)
        - median(c["wall_s"] for c in untraced[1:] or untraced)
    )
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    scratch = Scratch(ROOT)
    tally = Tally()
    workload = make_workload(workload_name, seed, scratch)
    try:
        setup_times = []
        for _ in range(SETUPS):
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)

        cycles: list[dict] = []
        traced: list[dict] = []
        recorder = SpanRecorder(run_id=f"{workload_name}/seed{seed}")
        # Cumulative counters of the traced cycles only (see probe()).
        counters: dict[str, float] = {}
        peak_mb = None
        crashed = 0
        deadline = time.perf_counter() + seconds
        while True:
            if trace and len(cycles) > len(traced):
                before = workload.probe()
                undo = instrument(recorder)
                try:
                    out = run_cycle(workload, tally, recorder)
                finally:
                    restore(undo)
                for key, value in workload.probe().items():
                    counters[key] = counters.get(key, 0.0) + value - before[key]
                if out is not None:
                    traced.append(out)
            else:
                out = run_cycle(workload, tally)
                if out is not None:
                    cycles.append(out)
                if len(cycles) == 1 and peak_mb is None:
                    # The heap fragments, so resident memory can creep
                    # up cycle after cycle; the peak after a fixed
                    # amount of work, set-up plus one cycle, is what
                    # repeats.
                    peak_mb = peak_rss_mb()
            if out is None:
                crashed += 1
            if time.perf_counter() >= deadline and (
                (cycles and (traced or not trace)) or crashed >= 2
            ):
                break
    finally:
        workload.stop()
        scratch.close()

    env = environment(ROOT)
    extra = workload.report(cycles or traced) if (cycles or traced) else {}
    if trace:
        metrics = {
            name: (value, PER_LAYER[name])
            for name, value in per_layer(
                recorder, traced, cycles, counters
            ).items()
        } if traced and cycles else {}
    else:
        metrics = {
            name: (value, END_TO_END[name])
            for name, value in end_to_end(cycles, setup_times, peak_mb).items()
        } if cycles else {}

    out_dir = ROOT / ".coldbench"
    out_dir.mkdir(exist_ok=True)
    header = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "env": env, "extra": extra,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.messages,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if trace:
        recorder.dump(out_dir / f"spans-{workload_name}-seed{seed}.jsonl", header)
    else:
        (out_dir / f"result-{workload_name}-seed{seed}.json").write_text(
            json.dumps(header, indent=1) + "\n"
        )
    return {
        "workload": workload_name, "env": env, "extra": extra, "tally": tally,
        "units": workload.units, "metrics": metrics,
        "cycles": len(cycles), "traced": len(traced),
    }


def print_report(result: dict) -> None:
    tally = result["tally"]
    print(f"== {result['workload']}: {result['cycles']} cycles"
          + (f", {result['traced']} traced" if result["traced"] else ""))
    print(f"   work_per_cpu_s counts {result['units'][0]}; "
          f"aux_per_cpu_s counts {result['units'][1]}")
    for name, (value, unit) in result["metrics"].items():
        print(f"   {name:28s} {value:14.6g} {unit}")
    for name, value in result["extra"].items():
        print(f"   {name:28s} {value:14.6g}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"   {'fail_rate':28s} {rate:14.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for message in tally.messages:
        print(f"   FAILED: {message}")
    print("   env: " + json.dumps(result["env"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or \
            not (ROOT / ".repro_cache").is_dir():
        print(f"error: {ROOT} is not a checkout of the repository "
              "(src/repro and .repro_cache are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One BLAS thread.  On a host whose 2 vCPUs are shared with other
    # machines, OpenBLAS's second thread spin-waits whenever the other
    # vCPU is taken away: a training cycle that takes 6 s read 17-24 s
    # in some runs.  Must be set before numpy is imported.
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [
        run(n, args.seed, args.seconds, bool(args.trace))
        for n in names
    ]
    for result in results:
        print_report(result)
    attempted = sum(r["tally"].attempted for r in results)
    failed = sum(r["tally"].failed for r in results)
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for name, (value, unit) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    complete = all(r["metrics"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0 and complete,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
